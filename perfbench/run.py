#!/usr/bin/env python3
"""Benchmark of the spinturnstile command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload setting_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each run generates its workload from ``--seed``. For ``--seconds`` seconds it
starts one worker interpreter at a time (worker.py), each timing one
``spinturnstile.cli.main`` execution. It checks every output against the
recorded reference and prints one JSON object as its last line. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` alternates untraced and traced
workers and reports the per-layer metrics. Metric names, units and the
reasons behind each workload are in README.md.
"""

import argparse
import ctypes
import glob
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

PACKAGE = "spinturnstile"
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
# Set before numpy loads, here and in every worker: the benchmark uses one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = 3
# A sample takes about a second; a hung worker must not hold the run past
# the three minutes a run may take.
WORKER_TIMEOUT_S = 60
# The warm-up input: another variant, at this size.
WARMUP_SIZES = {"propagate_chain": 200, "setting_grid": 10, "tomography_grid": 20}
# Duration of worker.calibration_kernel at the reference host speed.
CAL_REFERENCE_S = 0.03


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _commit(root: str):
    # The ceiling stops git from finding a repository that encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
        "commit": _commit(root),
        "workload_seed": seed,
    }


class Sampler:
    """Runs one worker per sample on a workload and gates every output.

    Host-speed scaling: the host's speed drifts by tens of percent over
    seconds to minutes, so raw times of runs made minutes apart disagree by
    more than any useful regression bound. Each worker times a fixed
    calibration kernel after its import and before and after its execution.
    A time is reported multiplied by ``CAL_REFERENCE_S`` over the adjacent
    kernel time(s): its seconds on a host where the kernel takes
    ``CAL_REFERENCE_S``.
    """

    def __init__(self, workload, reference, run_dir: str, src: str):
        """``reference`` None takes the first output as the reference."""
        self.workload = workload
        self.reference = reference
        self.out_path = os.path.join(run_dir, "out.csv")
        config, warmup = os.path.join(run_dir, "config.json"), os.path.join(run_dir, "warmup.json")
        warm = workloads.generate(workload.name, workload.seed + 1, WARMUP_SIZES[workload.name])
        for path, wl in ((config, workload), (warmup, warm)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(wl.config, fh)
        self.argv = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
                     "--command", workload.command, "--config", config,
                     "--warmup-config", warmup, "--out", self.out_path,
                     "--n-settings", str(workload.n_settings)]
        # Workers write and reuse the bytecode cache, as an installed package
        # would, whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(THREAD_ENV)
        self.attempted = 0
        self.failures = []
        self.first_payload = None

    def __call__(self, trace: int = 0) -> dict:
        """One sample: the worker's result plus ``setup_wall_s`` and the
        scaled ``setup_s`` and ``exec_s_scaled``, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            done = subprocess.run(self.argv + ["--trace", str(trace)], env=self.env,
                                  capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail([f"worker ran over {WORKER_TIMEOUT_S} s"])
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (json.JSONDecodeError, IndexError):
            return self._fail([f"worker exit {done.returncode}: {done.stderr[-300:]}"])
        problems = result["problems"]
        if not problems:
            with open(self.out_path, "rb") as fh:
                payload = fh.read()
            if self.reference is None:
                self.reference = workloads.reference_of(self.workload, payload)
            problems += workloads.check(self.workload, payload, self.reference)
            if self.first_payload is None:
                self.first_payload = payload
            elif payload != self.first_payload:
                problems.append("output bytes differ from the first execution")
        if problems:
            return self._fail(problems)
        after_import, before, after = result["kernel_s"]
        result["setup_wall_s"] = result["import_end"] - t0
        result["setup_s"] = result["setup_wall_s"] * CAL_REFERENCE_S / after_import
        result["exec_s_scaled"] = result["exec_s"] * CAL_REFERENCE_S / (0.5 * (before + after))
        return result

    def _fail(self, problems: list) -> None:
        self.failures.append((self.attempted, problems))


def timed_loop(step, seconds: float):
    """Call ``step`` until ``seconds`` have passed and it ran MIN_SAMPLES times."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_SAMPLES or time.perf_counter() < deadline:
        step()
        n += 1


def end_to_end(sampler, workload, seconds: float) -> tuple:
    samples = []
    timed_loop(lambda: samples.append(sampler()), seconds)
    samples = [s for s in samples if s is not None]
    if not samples:
        return {}, {}
    exec_s = statistics.median(s["exec_s_scaled"] for s in samples)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "exec_s": (exec_s, "s"),
        "items_per_s": (workload.items / exec_s, "1/s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in samples), "MB"),
    }
    detail = {key: [s[key] for s in samples]
              for key in ("exec_s", "exec_s_scaled", "setup_wall_s", "setup_s", "kernel_s",
                          "peak_rss_mb")}
    detail["exec_wall_median_s"] = statistics.median(detail["exec_s"])
    return metrics, detail


def per_layer(sampler, workload, seconds: float, run_dir: str) -> tuple:
    import tracing

    pairs = []

    def pair():
        plain, traced = sampler(0), sampler(1)
        if plain is not None and traced is not None:
            pairs.append((plain, traced))

    timed_loop(pair, seconds)
    if not pairs:
        return {}, {}
    spans = tracing.write_jsonl(os.path.join(run_dir, "spans.jsonl.gz"),
                                [(i, traced.pop("spans")) for i, (_, traced) in enumerate(pairs)])
    metrics = {}
    for name, (_, unit) in pairs[0][1]["layers"].items():
        metrics[name] = (statistics.median(t["layers"][name][0] for _, t in pairs), unit)
    # Every gated output equals the first one.
    metrics["results.bytes"] = (len(sampler.first_payload), "bytes")
    # Each worker's time is scaled by its own kernels, so the pair compares
    # like with like even when the host's speed moved between the two.
    metrics["trace.overhead_ratio"] = (statistics.median(
        t["exec_s_scaled"] / p["exec_s_scaled"] for p, t in pairs), "ratio")
    detail = {"absent": pairs[0][1]["absent"], "spans": spans,
              "exec_s_untraced": [p["exec_s"] for p, _ in pairs],
              "exec_s_traced": [t["exec_s"] for _, t in pairs]}
    return metrics, detail


def prepare_run_dir(root: str, label: str) -> str:
    path = os.path.join(root, OUT_DIR, label)
    os.makedirs(path, exist_ok=True)
    return path


def package_source(root: str) -> str:
    """The checkout's ``src`` directory.

    Raises:
        FileNotFoundError: if it holds no package.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise FileNotFoundError(f"no package source at {src}/{PACKAGE}; "
                                "run from the repository root")
    return src


def measure(workload, reference, trace: int, seconds: float, root: str) -> dict:
    """One benchmark run; returns the result record (also saved as result.json)."""
    label = f"{workload.name}-seed{workload.seed}-trace{trace}"
    if workload.size != workloads.SIZES[workload.name]:
        label += f"-size{workload.size}"
    run_dir = prepare_run_dir(root, label)
    sampler = Sampler(workload, reference, run_dir, package_source(root))
    if trace:
        metrics, detail = per_layer(sampler, workload, seconds, run_dir)
    else:
        metrics, detail = end_to_end(sampler, workload, seconds)
    record = {
        "environment": environment(root, workload.seed),
        "workload": {"name": workload.name, "seed": workload.seed, "variant": workload.variant,
                     "n_settings": workload.n_settings, "items": workload.items,
                     "item_unit": workload.item_unit,
                     "distinct_pairs_per_setting": workload.pairs_per_setting},
        "trace": trace,
        "correct": not sampler.failures,
        "attempted": sampler.attempted,
        "failed": len(sampler.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": sampler.failures,
        "detail": detail,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Print the record for a reader, then the one-line result last."""
    wl = record["workload"]
    print(f"workload {wl['name']}: seed {wl['seed']} (variant {wl['variant']}), "
          f"{wl['n_settings']} settings, {wl['items']} {wl['item_unit']} per execution, "
          f"{wl['distinct_pairs_per_setting']:.4g} distinct (model, t) pairs per setting")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    if record["detail"].get("absent"):
        print("absent from the package, not traced: " + ", ".join(record["detail"]["absent"]))
    for index, problems in record["failures"][:5]:
        print(f"execution {index} failed: " + "; ".join(problems))
    for name, m in record["metrics"].items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    if "items_per_s" in record["metrics"]:
        alias = f"{wl['item_unit']}_per_s"
        print(f"{alias:<34} {record['metrics']['items_per_s']['value']:>14.6g} 1/s "
              "(reported as items_per_s)")
    print(f"{'failed_frac':<34} {record['failed'] / record['attempted']:>14.6g} frac "
          f"({record['failed']} of {record['attempted']} executions)")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_workload(name: str, args, root: str) -> int:
    workload = workloads.generate(name, args.seed)
    try:
        package_source(root)
        reference = workloads.load_reference(workload)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(measure(workload, reference, args.trace, args.seconds, root))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    os.environ.update(THREAD_ENV)
    for name in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        status = run_workload(name, args, root)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
