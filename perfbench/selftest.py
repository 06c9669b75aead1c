#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks, in about 20 seconds:

1. every workload at a tiny size passes its gates, traced output is
   byte-identical to untraced output, and the traced counts match the
   program (instruments and propagators per setting);
2. a perturbed reference fails every execution and shows in the result's
   ``failed`` count and ``correct`` flag;
3. every workload at full size passes its recorded reference (variant 0);
4. a traced name the package lacks is reported absent instead of raising;
5. in a directory holding only the benchmark, ``run.py`` exits non-zero
   without printing a result.

Exits 1 with the failed checks listed, 0 when all pass.
"""

import copy
import json
import os
import shutil
import statistics
import subprocess
import sys

import run
import tracing
import workloads

TINY = {"propagate_chain": 2000, "setting_grid": 30, "tomography_grid": 30}

# Counts per setting at this commit, and the propagator_useful_frac of the
# tiny inputs: setting_grid evaluates each distinct (H, t) twice;
# tomography_grid's 30 settings share 10 interaction times over 60 calls.
EXPECTED = {
    "propagate_chain": {"model.hamiltonians_per_setting": 1.0,
                        "algebra.propagators_per_setting": 2.0,
                        "cycle.instruments_per_setting": 1.0},
    "setting_grid": {"model.hamiltonians_per_setting": 1.0,
                     "algebra.propagators_per_setting": 2.0,
                     "algebra.propagator_useful_frac": 0.5,
                     "cycle.instruments_per_setting": 1.0},
    "tomography_grid": {"model.hamiltonians_per_setting": 2.0,
                        "algebra.propagators_per_setting": 2.0,
                        "algebra.propagator_useful_frac": 10 / 60,
                        "cycle.instruments_per_setting": 2.0},
}


def perturbed(workload, reference: dict) -> list:
    """References that each differ from ``reference`` in one gated value."""
    out = []
    if workload.command == "sweep":
        for key, change in (("n_pulses", lambda v: v + 1), ("pr", lambda v: v * (1 + 1e-9))):
            ref = copy.deepcopy(reference)
            ref[key][-1] = change(ref[key][-1])
            out.append((key, ref))
    else:
        ref = copy.deepcopy(reference)
        ref["theta_hat"][0] += 1e-6
        out.append(("theta_hat", ref))
        ref = copy.deepcopy(reference)
        ref["rank"] -= 1
        out.append(("rank", ref))
    return out


def check_tiny(src: str, root: str, errors: list) -> None:
    for name, size in TINY.items():
        workload = workloads.generate(name, 7, size=size)
        first = run.Sampler(workload, None, run.prepare_run_dir(root, f"selftest-{name}"), src)
        first()
        reference = first.reference
        traced = run.measure(workload, reference, trace=1, seconds=0.5, root=root)
        if traced["failed"]:
            errors.append(f"{name}: tiny traced run failed: {traced['failures'][0]}")
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        for key, want in EXPECTED[name].items():
            if abs(metrics.get(key, float("nan")) - want) > 1e-12:
                errors.append(f"{name}: {key} is {metrics.get(key)}, expected {want}")
        if name == "propagate_chain":
            chain_s = metrics["experiment.shots_us_per_cycle"] * 1e-6 * workload.items
            share = chain_s / statistics.median(traced["detail"]["exec_s_traced"])
            if not 0.9 < share <= 1.0:
                errors.append(f"propagate_chain: chain share of traced exec_s is {share:.3f}")

        for key, ref in perturbed(workload, reference):
            bad = run.measure(workload, ref, trace=0, seconds=0.1, root=root)
            if bad["correct"] or bad["failed"] != bad["attempted"]:
                errors.append(f"{name}: perturbed {key} failed {bad['failed']} of "
                              f"{bad['attempted']} executions, expected all")


def check_full(src: str, root: str, errors: list) -> None:
    for name in workloads.WORKLOADS:
        workload = workloads.generate(name, 0)
        sampler = run.Sampler(workload, workloads.load_reference(workload),
                              run.prepare_run_dir(root, f"selftest-full-{name}"), src)
        sampler()
        if sampler.failures:
            errors.append(f"{name}: recorded reference fails: {sampler.failures[0][1]}")


def check_absent(errors: list) -> None:
    layers = {"cycle": ["cycle:induced_instrument", "cycle:no_such_function",
                        "no_such_module:f", "cycle:QuantumInstrument.no_such_method"]}
    tracer = tracing.Tracer(layers)
    tracer.install()
    tracer.uninstall()
    if tracer.absent != layers["cycle"][1:] or tracer.names != layers["cycle"][:1]:
        errors.append(f"absent names reported as {tracer.absent}")


def check_bare_directory(root: str, errors: list) -> None:
    bare = os.path.join(root, run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    done = subprocess.run([sys.executable, os.path.join(os.path.basename(here), "run.py"),
                           "--workload", "setting_grid", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        errors.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")


def main() -> int:
    root = os.getcwd()
    os.environ.update(run.THREAD_ENV)
    src = run.package_source(root)
    sys.path.insert(0, src)
    errors = []
    check_absent(errors)
    check_tiny(src, root, errors)
    check_full(src, root, errors)
    check_bare_directory(root, errors)
    for line in errors:
        print("FAIL " + line)
    print(json.dumps({"selftest": "fail" if errors else "pass", "failures": len(errors)}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
