"""The package namespace: `__all__` lists exactly the public names bound."""

import types

import maxcurves


def test_all_is_sorted_and_lists_every_public_name():
    names = maxcurves.__all__
    assert list(names) == sorted(set(names))
    bound = {name for name, value in vars(maxcurves).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
