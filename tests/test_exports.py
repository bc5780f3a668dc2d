import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_imports_only_declared_dependencies():
    # scipy and sympy may be installed, but they are not dependencies: an
    # import of either would pass every other test here and fail elsewhere.
    allowed = sys.stdlib_module_names | {"numpy", "click", "votedist"}
    imported = set()
    for path in Path(votedist.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert sorted((f, m) for f, m in imported if m not in allowed) == []
