"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import vmsns

MODULES = sorted(m.name for m in pkgutil.iter_modules(vmsns.__path__))


@pytest.mark.parametrize("module", ["vmsns"] + [f"vmsns.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
