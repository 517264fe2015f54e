"""Package surface: every public name a module lists, and every name the
package re-exports, resolves."""

import ast
import importlib
import pathlib

import pytest

import kflow

SRC = pathlib.Path(kflow.__file__).parent
MODULES = sorted(
    f"kflow.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"kflow.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(module, alias.name), f"kflow.{node.module}.{alias.name}"
            assert hasattr(kflow, alias.asname or alias.name), alias.name
            if public is not None:
                assert alias.name in public, f"kflow.{node.module}.__all__ lacks {alias.name}"
