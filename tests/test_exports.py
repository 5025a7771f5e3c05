"""The package namespace: `__all__` lists exactly the public names bound,
and each of them has a caller outside the tests; every public function
and method of the package has a caller somewhere."""

import ast
import types
from pathlib import Path

import maxcurves

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_sorted_and_lists_every_public_name():
    names = maxcurves.__all__
    assert list(names) == sorted(set(names))
    bound = {name for name, value in vars(maxcurves).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(names) == bound


# the package modules (not `__init__`), then the scripts
PACKAGE = [f for f in sorted((ROOT / "src" / "maxcurves").glob("*.py"))
           if f.name != "__init__.py"]
PRODUCTION = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _uses(files):
    """Names read in the given files.

    Only loads count: a `def`, `class` or assignment binds its name as a
    statement or a store, so a name that is merely defined is not used.
    """
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_production_caller():
    unused = sorted(set(maxcurves.__all__) - _uses(PRODUCTION))
    assert unused == []


def _public_functions():
    """{qualified name: name} of the public module-level functions and
    public methods of the package modules."""
    out = {}
    for path in PACKAGE:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                out.update((f"{node.name}.{item.name}", item.name)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
            elif (isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_")):
                out[node.name] = node.name
    return out


def test_every_public_function_has_a_caller():
    """Callers are matched by name, so this finds dead definitions, not
    every unused one; the test-only set is pinned so that a new oracle in
    the package, or a production caller for an old one, shows here."""
    production, tests = _uses(PRODUCTION), _uses(TESTS)
    funcs = _public_functions()
    assert sorted(q for q, n in funcs.items() if n not in production | tests) == []
    test_only = {q for q, n in funcs.items() if n not in production}
    assert test_only == {"CurveModel.frobenius", "solve_section", "semigroup_gaps"}
