"""Every module-level function, class and constant of the library is read,
and so is every public method of its classes.

This is the dead-name check, the sibling of the unused-import check in
test_imports.py: a name that a src/vilab/*.py module defines at module level
(a def, a class or an assigned name) is dead when no src/vilab module reads
it outside its own definition and vilab/__init__.py does not re-export it. A
read is a loaded name or a `from ... import` of the name, so a re-export in
__init__.py counts as one.

The method check covers the program, not the tests: a public method (a
property too) of a src/vilab class is dead when no .py file under src/vilab,
demos/ or bench/ reads its attribute name outside the method itself. A read
is a loaded attribute (`x.name`), or the bare name in a class-level
statement such as `__call__ = evaluate`.

The export check covers the program too: a name vilab/__init__.py
re-exports is dead when no .py file under src/vilab (but __init__.py),
demos/ or bench/ reads it outside its own definition. Here a read is a
loaded name or `vilab.name`; an import is not one, so the re-export cannot
keep a name alive that only the tests use.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vilab"
CALLERS = (ROOT / "demos", ROOT / "bench")  # the program outside the library


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


def public_methods(tree: ast.Module) -> dict:
    """(class name, method name) -> the def of every public method of every
    module-level class."""
    return {(cls.name, node.name): node
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute name is read under `node`, class-level
    aliases included."""
    out = Counter(n.attr for n in ast.walk(node)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    for cls in ast.walk(node):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    out.update(n.id for n in ast.walk(stmt)
                               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return out


def dead_methods(library: dict, program: dict) -> list:
    """(file name, class, method) of every dead public method of `library`
    (file name -> source); `program` maps the other program files to their
    source."""
    trees = {name: ast.parse(src) for name, src in library.items()}
    total = sum((attribute_reads(ast.parse(src)) for src in program.values()), Counter())
    total = sum((attribute_reads(tree) for tree in trees.values()), total)
    return sorted((fname, cls, name)
                  for fname, tree in trees.items()
                  for (cls, name), node in public_methods(tree).items()
                  if total[name] == attribute_reads(node)[name])


def test_checker_sees_dead_methods():
    library = {
        "a.py": ("class A:\n"
                 "    def used(self):\n        return self._private()\n\n"
                 "    def recurse(self, n):\n        return self.recurse(n - 1)\n\n"
                 "    def aliased(self):\n        return 1\n\n"
                 "    __call__ = aliased\n\n"
                 "    @property\n    def size(self):\n        return 2\n\n"
                 "    def _private(self):\n        return 3\n\n"
                 "    def tested(self):\n        return 4\n"),
    }
    program = {"demo.py": "from a import A\nprint(A().used(), A().size)\n"}
    assert dead_methods(library, program) == [("a.py", "A", "recurse"), ("a.py", "A", "tested")]


def test_no_dead_methods():
    library = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    program = {str(p): p.read_text(encoding="utf-8")
               for d in CALLERS for p in sorted(d.rglob("*.py"))}
    assert dead_methods(library, program) == []


def exported_names(init_source: str) -> dict:
    """Each name an __init__.py re-exports -> the module it comes from."""
    return {alias.asname or alias.name: node.module
            for node in ast.parse(init_source).body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def loads(node: ast.AST) -> Counter:
    """How often each name is loaded under `node`, as a bare name or as
    `vilab.name`."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
              and isinstance(n.value, ast.Name) and n.value.id == "vilab"):
            out[n.attr] += 1
    return out


def dead_exports(library: dict, program: dict) -> list:
    """(module, name) of every re-export of `library` (file name -> source,
    __init__.py included) that no other library file and no file of
    `program` (the other program files -> source) loads outside the name's
    own definition."""
    exported = exported_names(library["__init__.py"])
    trees = {name: ast.parse(src) for name, src in library.items() if name != "__init__.py"}
    total = sum((loads(tree) for tree in trees.values()), Counter())
    total = sum((loads(ast.parse(src)) for src in program.values()), total)
    for name, module in exported.items():
        node = defined_names(trees[f"{module}.py"]).get(name)
        if node is not None:
            total[name] -= loads(node)[name]
    return sorted((module, name) for name, module in exported.items() if total[name] <= 0)


def test_checker_sees_dead_exports():
    library = {
        "__init__.py": "from .a import used, attr_used, recurse, tested, imported\n",
        "a.py": ("def used():\n    return 1\n\n"
                 "def attr_used():\n    return 2\n\n"
                 "def recurse(n):\n    return recurse(n - 1)\n\n"
                 "def tested():\n    return 3\n\n"
                 "def imported():\n    return 4\n"),
        "b.py": "from .a import used, imported\n\nVALUE = used()\n",
    }
    program = {"demo.py": "import vilab\nprint(vilab.attr_used())\n"}
    assert dead_exports(library, program) == [("a", "imported"), ("a", "recurse"),
                                              ("a", "tested")]


def test_no_dead_exports():
    library = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    program = {str(p): p.read_text(encoding="utf-8")
               for d in CALLERS for p in sorted(d.rglob("*.py"))}
    assert dead_exports(library, program) == []
