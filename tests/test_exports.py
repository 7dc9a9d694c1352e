import importlib
import pkgutil

import pytest

import sdlab

MODULES = ["sdlab"] + sorted(f"sdlab.{m.name}" for m in pkgutil.iter_modules(sdlab.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
