"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces each listed function at every attribute of every
loaded ``spinturnstile`` module bound to it, so call sites that imported the
function by name (``from .cycle import induced_instrument``) are traced too.
Methods are replaced on their class. ``uninstall`` restores the originals.

One tracer records one execution. A span records its name, start, end and
parent span; the run id is added when the spans are written. Spans stay in
memory in flat arrays; ``write_jsonl`` writes those of every execution once,
when the benchmark run ends. A listed name that the package does not define
is reported in ``absent`` instead of failing, so the table below can outlive
functions that later commits delete.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# Layer -> functions traced in it, as "module:qualname". The experiment layer
# includes the chain kernel it calls. Small helpers called many times per
# setting (kron, partial_trace, is_hermitian, format_value, private
# functions) are not wrapped; their time counts toward their caller.
LAYERS = {
    "config": [
        "config:parse_config", "config:config_digest", "config:resolved_dict",
        "config:LeadSpec.vector", "config:SettingSpec.to_setting",
        "config:GateStateSpec.density",
    ],
    "model": [
        "model:build_total_hamiltonian", "model:build_gate_hamiltonian",
        "model:build_interaction_hamiltonian", "model:build_ancilla_zeeman",
        "model:characteristic_times", "model:gamma_rate",
    ],
    "algebra": [
        "algebra:evolve_unitary", "algebra:apply_unitary", "algebra:bloch_to_density",
        "algebra:density_to_bloch", "algebra:spin_operators",
    ],
    "cycle": [
        "cycle:run_cycle", "cycle:induced_instrument", "cycle:joint_evolve",
        "cycle:ancilla_state", "cycle:prepare_ancilla", "cycle:detection_strength",
        "cycle:QuantumInstrument.pulse_probability", "cycle:QuantumInstrument.apply",
        "cycle:QuantumInstrument.kraus_stacks",
    ],
    "experiment": [
        "experiment:run_sweep", "experiment:sample_cycles", "experiment:propagate_cycles",
        "experiment:estimate_current", "experiment:derive_setting_seed",
        "_kernels:run_chain",
    ],
    "tomography": [
        "tomography:build_design", "tomography:reconstruct",
        "tomography:identifiability_report", "tomography:density_to_theta",
        "tomography:theta_to_density", "tomography:parameter_labels",
    ],
    "results": ["results:write_results", "results:render_csv", "results:render_jsonl"],
    "cli": ["cli:main", "cli:execute"],
}

# Functions whose call arguments are kept, for the counts in layer_metrics.
KEEP_ARGS = ("algebra:evolve_unitary", "experiment:propagate_cycles", "experiment:sample_cycles")

PACKAGE = "spinturnstile"


def _resolve(spec: str):
    """(owner, attribute, function) for "module:qualname", or None if absent."""
    module_name, qualname = spec.split(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Records spans for the functions in ``layers`` while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names = []
        self.layer_of = []
        self.absent = []
        self._targets = []
        for layer_index, specs in enumerate(layers.values()):
            for spec in specs:
                found = _resolve(spec)
                if found is None:
                    self.absent.append(spec)
                    continue
                self.names.append(spec)
                self.layer_of.append(layer_index)
                self._targets.append(found)
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.kept = {spec: [] for spec in KEEP_ARGS}
        self._stack = [-1]
        self._patched = []

    def _wrap(self, fn, nid: int, keep):
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if keep is not None:
                keep.append((args, kwargs))
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever the package binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for nid, (spec, (owner, attr, fn)) in enumerate(zip(self.names, self._targets)):
            wrapper = self._wrap(fn, nid, self.kept.get(spec))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _durations(self):
        return np.frombuffer(self.end) - np.frombuffer(self.start)

    def span_time(self, spec: str) -> float:
        """Total duration of the spans of ``spec`` (0.0 if absent)."""
        if spec not in self.names:
            return 0.0
        names = np.frombuffer(self.name_id, dtype=np.int32)
        return float(self._durations()[names == self.names.index(spec)].sum())

    def self_times(self) -> dict:
        """Per-layer self time: span time minus the time of child spans."""
        durations = self._durations()
        parents = np.frombuffer(self.parent, dtype=np.int32)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=durations[nested],
                                 minlength=len(durations))
        names = np.frombuffer(self.name_id, dtype=np.int32)
        layers = np.asarray(self.layer_of, dtype=np.int64)[names]
        per_layer = np.bincount(layers, weights=durations - child_time, minlength=len(self.layers))
        return {name: float(t) for name, t in zip(self.layers, per_layer)}

    def _kept_arguments(self, spec: str) -> list:
        """Each kept call of ``spec`` as {parameter name: value}."""
        if spec not in self.names:
            return []
        signature = inspect.signature(self._targets[self.names.index(spec)][2])
        return [signature.bind(*args, **kwargs).arguments for args, kwargs in self.kept[spec]]

    def layer_metrics(self, n_settings: int) -> dict:
        """Per-layer metrics of the traced execution, as {name: [value, unit]}."""
        calls = dict(zip(self.names, np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                                                 minlength=len(self.names)).tolist()))
        evolve = self._kept_arguments("algebra:evolve_unitary")
        pairs = {(np.asarray(a["h"], dtype=complex).tobytes(), float(a["t"])) for a in evolve}
        # Cycles simulated by the chain and by the binomial draw, and the time
        # both took.
        cycles = sum(a["n"] for spec in ("experiment:propagate_cycles", "experiment:sample_cycles")
                     for a in self._kept_arguments(spec))
        shots_s = (self.span_time("experiment:propagate_cycles")
                   + self.span_time("experiment:sample_cycles"))
        metrics = {f"{layer}.self_s": [s, "s"] for layer, s in self.self_times().items()}
        metrics.update({
            "model.hamiltonians_per_setting":
                [calls.get("model:build_total_hamiltonian", 0) / n_settings, "calls/setting"],
            "algebra.propagators_per_setting": [len(evolve) / n_settings, "calls/setting"],
            "algebra.propagator_useful_frac": [len(pairs) / len(evolve) if evolve else 0.0, "frac"],
            "cycle.instruments_per_setting":
                [calls.get("cycle:induced_instrument", 0) / n_settings, "calls/setting"],
            "experiment.shots_us_per_cycle": [1e6 * shots_s / cycles if cycles else 0.0, "us"],
        })
        return metrics

    def columns(self) -> dict:
        """Every span as columns of plain lists, names resolved."""
        return {"name": [self.names[i] for i in self.name_id], "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist()}


def write_jsonl(path: str, runs: list) -> int:
    """Write the spans of several executions as gzipped JSON lines.

    ``runs`` holds (run id, ``Tracer.columns()``) pairs. Span ids are numbered
    across the file and parents renumbered to match. Returns the span count.
    """
    n = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for run, spans in runs:
            for i, (name, start, end, parent) in enumerate(
                    zip(spans["name"], spans["start"], spans["end"], spans["parent"])):
                fh.write(f'{{"id":{n + i},"name":"{name}","start":{start!r},"end":{end!r},'
                         f'"parent":{n + parent if parent >= 0 else -1},"run":"{run}"}}\n')
            n += len(spans["name"])
    return n
