"""Every public name the package declares or re-exports still exists, and is
used by the package or documented in the README; every field of a package
record is read somewhere or documented in the README."""

import ast
import importlib
import importlib.util
import pkgutil
import re
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


def _all_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _references(tree: ast.AST, name: str, skip_definition: bool) -> int:
    """Loads of ``name`` (as a name or an attribute), optionally not counting
    those inside its own function or class definition."""
    if skip_definition and isinstance(tree, (ast.FunctionDef, ast.ClassDef)) and tree.name == name:
        return 0
    own = ((isinstance(tree, ast.Name) and tree.id == name and isinstance(tree.ctx, ast.Load))
           or (isinstance(tree, ast.Attribute) and tree.attr == name))
    return int(own) + sum(_references(child, name, skip_definition) for child in ast.iter_child_nodes(tree))


def test_public_names_are_used_or_documented():
    # A name in a module's __all__ earns its place by serving the package
    # (a reference outside its own definition; re-exports in __init__.py do
    # not count) or by being documented in the README.
    package_dir = Path(PACKAGE.origin).parent
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _all_names(tree)
        if not any(_references(other, name, skip_definition=other_module == module)
                   for other_module, other in trees.items() if other_module != "__init__")
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not unused, f"public names neither used by the package nor in README.md: {unused}"


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)
            or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases))


def test_record_fields_are_read_or_documented():
    # A field of a package dataclass or NamedTuple earns its place by being
    # read as an attribute somewhere in the package or the tests, or by being
    # documented in the README. A field nothing reads only echoes an input or
    # copies another object's field.
    package_dir = Path(PACKAGE.origin).parent
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    package = sorted(package_dir.glob("*.py"))
    read = {node.attr for path in package + sorted((root / "tests").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{path.stem}.{cls.name}.{item.target.id}"
        for path in package
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in read
        and not re.search(rf"\b{re.escape(item.target.id)}\b", readme)
    ]
    assert not unread, f"record fields neither read as attributes nor in README.md: {unread}"
