"""Every name a library module imports is used in that module.

No linter ships with the project, so this is the unused-import check:
each src/vilab/*.py except the package's re-exporting __init__.py is parsed
with ast, and an imported name that no expression of the module reads is an
error.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vilab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
