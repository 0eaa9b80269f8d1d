"""The public names: each is declared once, in its module's ``__all__``.

The package exports the union of the module lists.  The benchmark's tracer
wraps the functions named in each layer module's ``__all__`` and skips a
missing name without a word, so a stale entry would drop a span from the
trace unnoticed.
"""

from __future__ import annotations

import importlib

import pytest

import blockrank

MODULES = ("decomp", "errors", "graph", "ranker", "spectra")


@pytest.mark.parametrize("module", ["blockrank", *(f"blockrank.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"blockrank.{m}") for m in MODULES]
    names = [name for mod in modules for name in mod.__all__]
    assert len(names) == len(set(names)) == 33
    assert sorted(blockrank.__all__) == sorted(names)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(blockrank, name) is getattr(mod, name), name
