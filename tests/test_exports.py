import importlib
import pkgutil

import pytest

import qrf

MODULES = ["qrf"] + [f"qrf.{m.name}" for m in pkgutil.iter_modules(qrf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_module_is_checked():
    assert {"qrf.cli", "qrf.perspective", "qrf.reductions", "qrf.framechange"} <= set(MODULES)
