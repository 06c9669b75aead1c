#!/usr/bin/env python3
"""Record the reference outputs that the benchmark gates every execution on.

Run from the repository root, once per change that is meant to alter
outputs (and say so in CHANGES.md):

    python3 perfbench/record.py

Every variant of each workload runs once at full size. An output that fails
the checks needing no reference (exit code, warnings, row status, tomography
rank and error bars) is not recorded and the command exits 1.
"""

import os
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    os.environ.update(run.THREAD_ENV)
    try:
        src = run.package_source(root)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = run.prepare_run_dir(root, "record")
    for name in workloads.WORKLOADS:
        variants = {}
        for variant in range(workloads.N_VARIANTS):
            sampler = run.Sampler(workloads.generate(name, variant), None, run_dir, src)
            sampler()
            if sampler.failures:
                print(f"error: {name} variant {variant}: {sampler.failures[0][1]}",
                      file=sys.stderr)
                return 1
            variants[str(variant)] = sampler.reference
        workloads.save_reference(name, variants)
        print(f"recorded {name}: {workloads.N_VARIANTS} variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
