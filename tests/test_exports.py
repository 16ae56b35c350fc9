"""Every name a module lists in ``__all__`` resolves, so ``import *`` works."""

import importlib

import pytest

MODULES = ("acceptance", "analysis", "cli", "quantize", "runio", "solver", "structure",
           "symbols")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"singhyp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
