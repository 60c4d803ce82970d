import doctest
import importlib
import pkgutil

import pytest

import autratio

MODULES = ["autratio"] + sorted(
    info.name for info in pkgutil.iter_modules(autratio.__path__, "autratio.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_groups_doctests_run():
    # the doctest collection above passes vacuously if it finds nothing
    assert "autratio.groups" in MODULES
    assert doctest.testmod(importlib.import_module("autratio.groups")).attempted > 0
