"""Every rule that depends on the solver method lives in solvers.py.

What a method certifies (its contraction ceiling, its stability ceiling
and their eta -> 0 limit, its step-size gate, the contraction command's
default etas and gate) is written once, in solvers.py. A branch on the
method written elsewhere could drift from that home unseen, so this check
parses each other src/vilab/*.py with ast and fails on any comparison of
a value with a method name ("gd" or "eg"), alone or inside a literal
tuple, list or set.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vilab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "solvers.py")
METHOD_NAMES = {"gd", "eg"}


def _names_method(node) -> bool:
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(n, ast.Constant) and n.value in METHOD_NAMES for n in items)


def method_comparisons(source: str) -> list:
    """The line of each comparison that has a method name as an operand."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(map(_names_method, [node.left, *node.comparators])))


def test_checker_sees_method_comparisons():
    source = ('def f(config, method, kind):\n'
              '    if config.method == "gd":\n'
              '        return "gd"\n'
              '    a = "eg" != method\n'
              '    b = method in ("gd", "other")\n'
              '    c = kind == "gap" or method is not None\n'
              '    d = g("gd", method) and method == "gdx"\n'
              '    return 0 < len(method) <= 2 if method not in ["eg"] else None\n')
    assert method_comparisons(source) == [2, 4, 5, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_solvers_branches_on_the_method(path):
    assert method_comparisons(path.read_text(encoding="utf-8")) == []
