import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_names_resolve_on_first_use():
    # in a fresh interpreter: importing the package loads none of its
    # modules, and each name then resolves to its defining module's object
    code = (
        "import importlib, sys\n"
        "import autratio\n"
        "assert [m for m in sys.modules if m.startswith('autratio.')] == []\n"
        "for name in autratio.__all__:\n"
        "    module = importlib.import_module('autratio.' + autratio._EXPORTS[name])\n"
        "    assert getattr(autratio, name) is getattr(module, name), name\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_name():
    namespace = {}
    exec("from autratio import *", namespace)
    assert all(namespace[name] is getattr(autratio, name) for name in autratio.__all__)
    assert set(autratio.__all__) <= set(dir(autratio))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        autratio.no_such_name
    assert not hasattr(autratio, "_no_such_private")
    with pytest.raises(ImportError):
        exec("from autratio import no_such_name", {})
