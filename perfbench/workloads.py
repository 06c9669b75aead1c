"""Workload generators and reference gates for the spinturnstile benchmark.

Each workload is one CLI configuration built from the workload seed alone,
with Python's ``random`` module (its stream is stable across interpreter
versions). A seed selects one of ``N_VARIANTS`` recorded variants
(``seed % N_VARIANTS``); the reference outputs of every variant are stored in
``reference/<workload>.json.gz`` and checked after every execution.

This module imports nothing from the package and does not import numpy, so
the benchmark can generate inputs before it decides how the package is
loaded.
"""

import csv
import gzip
import io
import json
import math
import os
import random
from dataclasses import dataclass

N_VARIANTS = 16
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Full-size inputs. ``propagate_chain`` counts chain cycles per probe row;
# the grids count settings.
SIZES = {
    "propagate_chain": 10_000,
    "setting_grid": 500,
    "tomography_grid": 500,
}
WORKLOADS = tuple(SIZES)

# Coupling ranges (rad/s) for per-row model overrides. Every combination keeps
# both time-scale ratios above the default threshold of 100 with the default
# tunnel parameters, so no HierarchyWarning is raised.
_COUPLING_RANGE = (2.0e5, 5.0e6)
_T_RANGE = (1.0e-7, 1.0e-5)
_TOMOGRAPHY_TIMES = 10

# Gate tolerances.
PR_REL_TOL = 1e-12
THETA_ABS_TOL = 1e-9
THETA_SIGMAS = 5.0
TOMOGRAPHY_RANK = 15


@dataclass(frozen=True)
class Workload:
    """One generated workload: the CLI call, its config and its work size."""

    name: str
    seed: int
    variant: int
    size: int
    command: str
    config: dict
    n_settings: int
    items: int
    item_unit: str
    distinct_pairs: int

    @property
    def pairs_per_setting(self) -> float:
        """Distinct (model, t_interact) pairs per setting: the share of work
        a cache keyed on the propagator could not skip."""
        return self.distinct_pairs / self.n_settings


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _direction(rng: random.Random) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def _experiment_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def generate(name: str, seed: int, size: int | None = None) -> Workload:
    """Build workload ``name`` for ``seed``; ``size`` overrides the full size."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    variant = seed % N_VARIANTS
    rng = random.Random(f"{name}:{variant}")
    size = SIZES[name] if size is None else size

    if name == "propagate_chain":
        config = {"experiment": {"mode": "propagate", "n_cycles": size,
                                 "seed": _experiment_seed(rng)}}
        return Workload(name, seed, variant, size, "sweep", config, n_settings=3,
                        items=3 * size, item_unit="cycles", distinct_pairs=1)

    if name == "setting_grid":
        settings, pairs = [], set()
        for _ in range(size):
            t = _log_uniform(rng, *_T_RANGE)
            model = {key: _log_uniform(rng, *_COUPLING_RANGE)
                     for key in ("exchange_per_s", "hyperfine_gate_per_s",
                                 "hyperfine_ancilla_per_s")}
            settings.append({
                "u_left": {"direction": _direction(rng), "magnitude": rng.uniform(0.5, 1.0)},
                "u_right": {"direction": _direction(rng), "magnitude": rng.uniform(0.5, 1.0)},
                "t_interact_s": t,
                "model": model,
            })
            pairs.add((tuple(sorted(model.items())), t))
        config = {"experiment": {"mode": "refresh", "seed": _experiment_seed(rng)},
                  "sweep": {"settings": settings}}
        return Workload(name, seed, variant, size, "sweep", config, n_settings=size,
                        items=size, item_unit="settings", distinct_pairs=len(pairs))

    times = [_log_uniform(rng, *_T_RANGE) for _ in range(_TOMOGRAPHY_TIMES)]
    settings = [{
        "u_left": {"direction": _direction(rng)},
        "u_right": {"direction": _direction(rng)},
        "t_interact_s": times[i % len(times)],
    } for i in range(size)]
    config = {"gate_state": {"preset": "singlet"},
              "experiment": {"seed": _experiment_seed(rng)},
              "tomography": {"mode": "two_spin", "noise": "shot", "settings": settings}}
    return Workload(name, seed, variant, size, "tomography", config, n_settings=size,
                    items=size, item_unit="settings",
                    distinct_pairs=len(set(times[:size])))


def parse_csv(payload: bytes):
    """Split CLI CSV output into (metadata dict of raw strings, header, rows)."""
    meta, body = {}, []
    for line in payload.decode("utf-8").splitlines(keepends=True):
        if line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("".join(body))))
    return meta, rows[0], rows[1:]


def extract(workload: Workload, payload: bytes) -> dict:
    """The gated quantities of one execution's output."""
    meta, header, rows = parse_csv(payload)
    col = {name: i for i, name in enumerate(header)}
    if workload.command == "sweep":
        return {
            "n_pulses": [int(r[col["n_pulses"]]) for r in rows],
            "pr": [float(r[col["pr"]]) for r in rows],
            "status": [r[col["status"]] for r in rows],
        }
    return {
        "rank": int(meta["rank"]),
        "theta_hat": [float(r[col["theta_hat"]]) for r in rows],
        "theta_true": [float(r[col["theta_true"]]) for r in rows],
        "std_pred": [float(r[col["std_pred"]]) for r in rows],
    }


def reference_of(workload: Workload, payload: bytes) -> dict:
    """The part of an execution's output that is recorded as reference."""
    got = extract(workload, payload)
    if workload.command == "sweep":
        return {"n_pulses": got["n_pulses"], "pr": got["pr"]}
    return {"rank": got["rank"], "theta_hat": got["theta_hat"]}


def check(workload: Workload, payload: bytes, ref: dict) -> list:
    """Compare one execution's output with its reference; returns failures."""
    try:
        got = extract(workload, payload)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    failures = []
    if workload.command == "sweep":
        bad = [i for i, s in enumerate(got["status"]) if s != "ok"]
        if bad:
            failures.append(f"{len(bad)} rows with error status, first row {bad[0]}")
        if got["n_pulses"] != ref["n_pulses"]:
            failures.append("n_pulses differ from the reference")
        if len(got["pr"]) != len(ref["pr"]) or any(
                abs(a - b) > PR_REL_TOL * abs(b) for a, b in zip(got["pr"], ref["pr"])):
            failures.append(f"pr differs from the reference by more than {PR_REL_TOL} relative")
        return failures

    if got["rank"] != ref["rank"] or got["rank"] != TOMOGRAPHY_RANK:
        failures.append(f"rank {got['rank']}, reference {ref['rank']}, expected {TOMOGRAPHY_RANK}")
    if len(got["theta_hat"]) != len(ref["theta_hat"]) or any(
            abs(a - b) > THETA_ABS_TOL for a, b in zip(got["theta_hat"], ref["theta_hat"])):
        failures.append(f"theta_hat differs from the reference by more than {THETA_ABS_TOL}")
    for hat, true, std in zip(got["theta_hat"], got["theta_true"], got["std_pred"]):
        if abs(hat - true) > THETA_SIGMAS * std:
            failures.append(f"theta_hat {hat} is more than {THETA_SIGMAS} std_pred from {true}")
            break
    return failures


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json.gz")


def load_reference(workload: Workload) -> dict:
    """Recorded reference for the workload's variant.

    Raises:
        KeyError: if the recorded file was made at another size.
    """
    with gzip.open(reference_path(workload.name), "rt", encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["size"] != SIZES[workload.name]:
        raise KeyError(f"reference recorded at size {stored['size']}, workload size "
                       f"{SIZES[workload.name]}")
    return stored["variants"][str(workload.variant)]


def save_reference(name: str, variants: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    payload = json.dumps({"size": SIZES[name], "variants": variants},
                         sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical when re-recorded unchanged.
    with open(reference_path(name), "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(payload.encode("utf-8"))
