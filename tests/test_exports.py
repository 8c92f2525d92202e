import importlib
import pkgutil

import pytest

import dkvcache

MODULES = [dkvcache] + [importlib.import_module(f"dkvcache.{m.name}")
                        for m in pkgutil.iter_modules(dkvcache.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
