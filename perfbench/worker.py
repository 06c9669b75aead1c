#!/usr/bin/env python3
"""One measured CLI execution in a fresh interpreter; run.py starts one per sample.

A command-line user pays for every run in a fresh process. So each timed
execution starts with no state left by an earlier execution of the same
input, and a cache filled by an earlier sample cannot speed it up. The
worker:

1. imports ``spinturnstile.cli`` from ``--src`` and stamps the end of the
   import on the system-wide monotonic clock (the set-up sample);
2. times ``calibration_kernel``;
3. runs the command once, untimed, on ``--warmup-config``, a small input of
   another variant, so lazy one-time work in numpy and the package is done;
4. times the kernel, the execution of ``--config`` (traced with
   ``--trace 1``) and the kernel again;
5. prints one JSON object with the times, any problems, its peak memory and,
   when traced, the per-layer numbers and spans.

The kernels run in the same process as the work they calibrate, on the same
CPU at nearly the same moment.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
import warnings

CAL_STEPS = 500


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of work resembling the package's:
    small dense eigensolves, products and einsums, float formatting, JSON and
    hashing. It is benchmark code, so changes to the package do not move it."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = a + a.conj().T
    k = rng.standard_normal((4, 4, 4)) + 0j
    t0 = time.perf_counter()
    for i in range(CAL_STEPS):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * (1e-3 * i))) @ v.conj().T
        rho = np.einsum("kij,jl,klm->im", k, u[:4, :4], k, optimize=False)
        text = json.dumps([format(x, ".17g") for x in w.tolist()] + [float(np.trace(rho).real)])
        hashlib.sha256(text.encode()).digest()
    return time.perf_counter() - t0


def run_cli(cli, argv) -> list:
    """Run ``cli.main(argv)``; returns the problems (warnings, exit code, error)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception:  # an escaped error fails this execution, not the run
            problems = [traceback.format_exc(limit=-3)]
    return [f"{w.category.__name__}: {w.message}" for w in caught] + problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    for name in ("--src", "--command", "--config", "--warmup-config", "--out"):
        parser.add_argument(name, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-settings", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from spinturnstile import cli

    import_end = time.perf_counter()
    result = {"import_end": import_end, "kernel_s": [calibration_kernel()]}
    warm_out = args.out + ".warmup"
    problems = [f"warm-up: {p}" for p in run_cli(
        cli, [args.command, "--config", args.warmup_config, "--out", warm_out])]
    result["kernel_s"].append(calibration_kernel())

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        problems += run_cli(cli, [args.command, "--config", args.config, "--out", args.out])
        result["exec_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["kernel_s"].append(calibration_kernel())
    result["problems"] = problems
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["absent"] = tracer.absent
        result["layers"] = tracer.layer_metrics(args.n_settings)
        result["spans"] = tracer.columns()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
