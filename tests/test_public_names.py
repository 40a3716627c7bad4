"""Every name the package exports has a use, and the package reads no
environment variable.

A name that ``nilmoduli/__init__.py`` imports must be used in ``src/``
outside its own definition, or be named in the README, where a reader is
told what it is for.  A use is a name, an attribute or a string (a solver
looked up by name) in a module of the package other than ``__init__``; a
function that only calls itself has no use.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nilmoduli"

# exported for perfbench's tracer alone, which patches it as a traced site;
# nothing in the package calls the LM solver
ALLOWED = {"least_squares_solve"}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _used_names():
    """Every name, attribute and string of the package's modules that occurs
    outside a definition of the same name."""
    used = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = child.value
            if name is not None and name not in inside:
                used.add(name)
            visit(child, inside)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_export_is_used_or_documented():
    used = _used_names()
    readme = (ROOT / "README.md").read_text()
    unexplained = {name for name in _exports() if name not in used
                   and not re.search(rf"\b{re.escape(name)}\b", readme)}
    # equal, not a subset: an allowed name that gains a use or a README entry goes
    assert unexplained == ALLOWED


def test_package_reads_no_environment_variable():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno} {name}")
    assert reads == []
