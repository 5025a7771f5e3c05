"""The package namespace: `__all__` lists exactly the public names bound,
and each of them has a caller outside the tests."""

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


def _production_uses():
    """Names read in the package modules (not `__init__`) and in scripts.

    Only loads count: a `def`, `class` or assignment binds its name as a
    statement or a store, so a name that is merely defined is not used.
    """
    files = [f for f in sorted((ROOT / "src" / "maxcurves").glob("*.py"))
             if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_production_caller():
    unused = sorted(set(maxcurves.__all__) - _production_uses())
    assert unused == []
