"""Every public name the package declares or re-exports still exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

# Found without importing the package, so a stale re-export fails the tests
# below instead of their collection.
PACKAGE = importlib.util.find_spec("spinturnstile")
# __main__ runs the command line on import.
MODULES = sorted(m.name for m in pkgutil.iter_modules(PACKAGE.submodule_search_locations)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"spinturnstile.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"spinturnstile.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    # Each name spinturnstile/__init__.py imports from a module must exist
    # there and be public in that module's __all__.
    tree = ast.parse(Path(PACKAGE.origin).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stale = []
    for node in imports:
        for alias in node.names:
            if node.module is None:
                if importlib.util.find_spec(f"spinturnstile.{alias.name}") is None:
                    stale.append(alias.name)
                continue
            module = importlib.import_module(f"spinturnstile.{node.module}")
            if not hasattr(module, alias.name) or alias.name not in getattr(module, "__all__", ()):
                stale.append(f"{node.module}.{alias.name}")
    assert not stale, f"spinturnstile/__init__.py imports stale names: {stale}"
