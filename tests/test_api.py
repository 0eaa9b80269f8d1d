"""Every name a public ``__all__`` lists resolves.

The benchmark's tracer wraps the functions named in each layer module's
``__all__`` and skips a missing name without a word, so a stale entry would
drop a span from the trace unnoticed.
"""

from __future__ import annotations

import importlib

import pytest

LAYERS = ("graph", "decomp", "spectra", "ranker")


@pytest.mark.parametrize("module", ["blockrank", *(f"blockrank.{m}" for m in LAYERS)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
