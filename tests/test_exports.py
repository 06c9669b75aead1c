"""Every public name the package declares or re-exports still exists, and is
used by the package or documented in the README; every field of a package
record is read somewhere or documented in the README. A package class is a
dataclass only for a named reason, the value records are immutable tuples,
and importing the command line stays quiet and lean."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _dataclass_reason(cls: type):
    """Why a package class is a dataclass and not a NamedTuple, which costs
    about a tenth as much to define at import; None without a reason."""
    if "__post_init__" in vars(cls):
        return "checks or normalizes its inputs in __post_init__"
    if any(isinstance(v, functools.cached_property) for v in vars(cls).values()):
        return "caches a derived value in a cached_property"
    return None


def test_dataclasses_have_a_reason():
    found = [cls for name in MODULES
             for cls in vars(importlib.import_module(f"spinturnstile.{name}")).values()
             if isinstance(cls, type) and cls.__module__ == f"spinturnstile.{name}"
             and dataclasses.is_dataclass(cls)]
    assert len(found) == 4
    unexplained = [f"{cls.__module__}.{cls.__qualname__}" for cls in found
                   if _dataclass_reason(cls) is None]
    assert not unexplained, f"dataclasses that only carry values, not NamedTuples: {unexplained}"


@pytest.fixture(scope="module")
def value_records() -> dict:
    """One instance of each value record, by type name, from the default run."""
    from spinturnstile.config import parse_config
    from spinturnstile.cycle import run_cycle, setting_instrument, transfer_matrices
    from spinturnstile.experiment import propagate_cycles, run_sweep, sample_cycles
    from spinturnstile.model import characteristic_times
    from spinturnstile.tomography import build_design, forward_probabilities, reconstruct

    cfg = parse_config("{}")
    setting, rho = cfg.setting, cfg.gate_state.density()
    block = setting_instrument(setting, cfg.model, cfg.tunnel, cfg.detection_c)
    pulse, nopulse, _ = transfer_matrices(block)
    design = build_design(cfg.tomography.settings, cfg.model, cfg.tunnel, cfg.detection_c)
    records = (
        cfg, cfg.setting, cfg.gate_state, cfg.experiment, cfg.tomography, block,
        characteristic_times(cfg.model, cfg.tunnel),
        run_cycle(setting, cfg.model, cfg.tunnel, rho, cfg.detection_c),
        run_sweep(setting, model=cfg.model, tunnel=cfg.tunnel, rho_gate=rho, c=cfg.detection_c,
                  n_cycles=10, seed=1)[0],
        sample_cycles(0.5, 10, seed=1),
        propagate_cycles(pulse[0], nopulse[0], rho, 10, seed=1),
        design,
        reconstruct(design, forward_probabilities(design, np.zeros(3))),
    )
    return {type(r).__name__: r for r in records}


@pytest.mark.parametrize("name", [
    "RunConfig", "SettingGrid", "GateStateSpec", "ExperimentSpec", "TomographySpec",
    "HierarchyReport", "InstrumentBlock", "CycleOutcome", "SweepRow", "ShotRecord", "ChainRecord",
    "TomographyDesign", "ReconstructionResult",
])
def test_value_records_are_immutable(value_records, name):
    record = value_records[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


# Modules the package uses only at call time, or not at all.
NOT_AT_IMPORT = ("numpy.random", "multiprocessing", "concurrent.futures", "scipy", "numba")


def test_cli_import_is_quiet_and_lean():
    # Every command pays its import first: a warning raised there, or a module
    # it loads early, costs every run.
    src = str(Path(PACKAGE.origin).resolve().parents[1])
    code = ("import sys, spinturnstile.cli; "
            f"print(' '.join(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert proc.stdout.split() == [], f"imported with spinturnstile.cli: {proc.stdout}"
