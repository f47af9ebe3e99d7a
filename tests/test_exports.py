"""Every name an export list promises resolves, so a deleted function
cannot be left behind in an ``__all__``."""

import importlib
import pkgutil

import pytest

import codseries

MODULES = ["codseries"] + [f"codseries.{info.name}"
                           for info in pkgutil.iter_modules(codseries.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
