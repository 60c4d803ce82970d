import importlib
import pkgutil

import pytest

import autratio

MODULES = sorted(m.name for m in pkgutil.iter_modules(autratio.__path__))


def test_package_exports_resolve():
    missing = [name for name in autratio.__all__ if not hasattr(autratio, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"autratio.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
