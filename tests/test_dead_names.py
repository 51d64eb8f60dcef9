"""Every module-level function, class and constant of the library is read.

This is the dead-name check, the sibling of the unused-import check in
test_imports.py: a name that a src/vilab/*.py module defines at module level
(a def, a class or an assigned name) is dead when no src/vilab module reads
it outside its own definition and vilab/__init__.py does not re-export it. A
read is a loaded name or a `from ... import` of the name, so a re-export in
__init__.py counts as one.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vilab"


def defined_names(tree: ast.Module) -> dict:
    """Module-level defs, classes and assigned names -> the defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]):
                    if isinstance(n, ast.Name):
                        out[n.id] = node
    return out


def reads(node: ast.AST) -> Counter:
    """How often each name is read under `node`."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def dead_names(sources: dict) -> list:
    """(file name, name) of every dead name; `sources` maps a package's file
    names to their source, its __init__.py included."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    return sorted((fname, name)
                  for fname, tree in trees.items() if fname != "__init__.py"
                  for name, node in defined_names(tree).items()
                  if total[name] == reads(node)[name])


def test_checker_sees_dead_names():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("LIMIT, _SPARE = 3, 4\n_TABLE = {}\n_TABLE['k'] = 1\n\n"
                 "def exported():\n    return helper(LIMIT)\n\n"
                 "def helper(x):\n    return x\n\n"
                 "def loop(n):\n    return loop(n - 1)\n\n"
                 "class Dead:\n    pass\n"),
        "b.py": "from .a import helper\n",
    }
    assert dead_names(sources) == [("a.py", "Dead"), ("a.py", "_SPARE"), ("a.py", "loop")]


def test_no_dead_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_names(sources) == []
