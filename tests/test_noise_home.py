"""Every rule that depends on the noise kind lives in problems.py.

What a kind's records are (their spawn keys, axes and draw kernel), what
they certify (sampled_constants, and the note check_gd_eta adds on the
certified pair), the CLI's default noise and the one constructor from mean
records to operators are written once, in problems.py. A kind name written
elsewhere could drift from that home unseen: a branch on it, a record shape
picked by it, a default that names it. So this check parses each other
src/vilab/*.py with ast and fails on any string constant that is a kind name
("offset" or "matrix") outside a docstring.
"""

import ast
import pathlib

import pytest

from vilab import problems

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vilab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "problems.py")
KIND_NAMES = {"offset", "matrix"}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set:
    """The ids of the module's, each class's and each function's docstring."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, _DOCUMENTED) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def kind_constants(source: str) -> list:
    """The line of each kind-name string constant outside a docstring."""
    tree = ast.parse(source)
    exempt = _docstrings(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in KIND_NAMES and id(node) not in exempt)


def test_checker_sees_kind_comparisons():
    source = ('def f(noise, kind):\n'
              '    "offset"\n'
              '    if noise.kind == "offset":\n'
              '        return "matrix"\n'
              '    a = (2 if noise.kind == "matrix" else 1)\n'
              '    b = kind in ("offset", "other")\n'
              '    c = f" (matrix noise certifies {kind})" or kind == "offsets"\n'
              '    d = {"kind": "offset", "magnitude": 0.0}\n'
              '    e = g("matrix", kind) and kind == "matrixx"\n'
              '    "matrix"\n'
              '    return kind not in ["offset"]\n'
              'class C:\n'
              '    "matrix"\n')
    assert kind_constants(source) == [3, 4, 5, 6, 8, 9, 10, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_problems_branches_on_the_kind(path):
    assert kind_constants(path.read_text(encoding="utf-8")) == []


def test_the_table_holds_every_declared_kind():
    assert tuple(problems._KINDS) == problems._NOISE["kind"][0]
    assert problems._NO_NOISE["kind"] in problems._KINDS
