import importlib
import pkgutil

import pytest

import votedist

MODULES = sorted(m.name for m in pkgutil.iter_modules(votedist.__path__))


def test_modules_are_found():
    assert {"displace", "model", "verification"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # A name removed from a module but left in its ``__all__`` fails here.
    module = importlib.import_module(f"votedist.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
