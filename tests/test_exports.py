"""Every exported name of the package and its modules resolves."""
import importlib
import pkgutil

import pytest

import condcov

MODULES = ["condcov"] + sorted(
    f"condcov.{m.name}" for m in pkgutil.iter_modules(condcov.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__",
                       [n for n in dir(module) if not n.startswith("_")])
    assert [n for n in exported if not hasattr(module, n)] == []
