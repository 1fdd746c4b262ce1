"""Every name a package lists in ``__all__`` resolves on import."""

import importlib

import pytest


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.core",
        "repro.analysis",
        "repro.simulation",
        "repro.storage",
        "repro.runtime",
        "repro.viz",
    ],
)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
