"""Every parameter with a default in the package is set by some caller.

A default that no call overrides is a fixed value: it belongs in one named
constant of the module that makes the decision, not in a signature.  The
scan is by name: a call ``f(...)`` or ``obj.f(...)`` counts for every
function or method ``f``, and a call of a class counts for its
``__init__``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nilmoduli"
CALLERS = ("src", "tests", "perfbench", "tools")

ALLOWED = set()  # hermitian_search's seed is set by the sigma3 search tests


def _defaults(tree):
    """(function name, parameter, positional index or None) of every
    parameter with a default; a method's index does not count self."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                skip = int(in_class and bool(pos) and pos[0].arg in ("self", "cls"))
                first = len(pos) - len(args.defaults)
                out.extend((child.name, a.arg, i - skip) for i, a in enumerate(pos) if i >= first)
                out.extend((child.name, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _init_classes(tree):
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.FunctionDef) and b.name == "__init__" for b in node.body)]


def _calls():
    """(callee name, positional count, has *args, keywords or {None} for **kw)."""
    out = []
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                out.append((name, len(node.args), star, {k.arg for k in node.keywords}))
    return out


def scan():
    """(parameters with defaults, those that no call sets) in the package."""
    calls = _calls()
    found, unset = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = _init_classes(tree)
        for func, param, index in _defaults(tree):
            names = classes if func == "__init__" else [func]
            found.append((path.stem, func, param))
            if not any(name in names and (param in kws or None in kws or star
                                          or (index is not None and count > index))
                       for name, count, star, kws in calls):
                unset.append((func, param))
    return found, unset


def test_every_default_is_set_by_a_caller():
    found, unset = scan()
    # equal, not a subset: an allowed entry that a caller starts to set goes
    assert set(unset) == ALLOWED
    assert len(found) <= 25
