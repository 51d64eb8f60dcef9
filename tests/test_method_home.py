"""Every rule that depends on the solver method lives in solvers.py.

What a method certifies (its contraction ceiling, its stability ceiling
and their eta -> 0 limit, its step-size gate and range test, the
contraction command's default etas and gate) and the default method are
written once, in solvers.py. A method name written elsewhere could drift
from that home unseen: a branch on it, a range test called with it, a
default that names it. So this check parses each other src/vilab/*.py
with ast and fails on any string constant that is a method name ("gd" or
"eg") outside a docstring.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vilab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "solvers.py")
METHOD_NAMES = {"gd", "eg"}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set:
    """The ids of the module's, each class's and each function's docstring."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, _DOCUMENTED) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def method_constants(source: str) -> list:
    """The line of each method-name string constant outside a docstring."""
    tree = ast.parse(source)
    exempt = _docstrings(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in METHOD_NAMES and id(node) not in exempt)


def test_checker_sees_method_comparisons():
    source = ('def f(config, method, kind):\n'
              '    "gd"\n'
              '    if config.method == "gd":\n'
              '        return "gd"\n'
              '    a = "eg" != method\n'
              '    b = method in ("gd", "other")\n'
              '    c = kind == "gap" or method is not None\n'
              '    d = g("gd", method) and method == "gdx"\n'
              '    e = {"method": "eg", "kind": "gap"}\n'
              '    "eg"\n'
              '    return 0 < len(method) <= 2 if method not in ["eg"] else None\n'
              'class C:\n'
              '    "eg"\n')
    assert method_constants(source) == [3, 4, 5, 6, 8, 9, 10, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_solvers_branches_on_the_method(path):
    assert method_constants(path.read_text(encoding="utf-8")) == []
