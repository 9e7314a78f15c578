import importlib
import pkgutil

import pytest

import subeigen

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(subeigen.__path__))


@pytest.mark.parametrize("name", ["subeigen"] + [f"subeigen.{m}" for m in SUBMODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from subeigen import *", namespace)
    assert set(subeigen.__all__) <= set(namespace)
