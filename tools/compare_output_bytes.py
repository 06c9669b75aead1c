"""Compare the command line's output bytes of two source trees on every
benchmark variant and on the default configuration.

    python tools/compare_output_bytes.py BASE_SRC [HEAD_SRC]

Runs ``python -m spinturnstile`` once with each tree on ``PYTHONPATH``
(HEAD_SRC defaults to this checkout's ``src``), in both output formats, csv
and jsonl, on each of the 48 perfbench variants (the configs of
``perfbench/workloads.generate``, seeds 0-15 of each workload) with its own
command, and on ``{}`` with each of the five commands: 106 runs, each of
which writes the configuration's echo. It prints in Markdown how many runs
differ in stdout, stderr or exit code, and which. It exits 0 whatever
differs: a change of the random stream changes bytes on purpose.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

COMMANDS = ("rates", "cycle", "sweep", "calibrate", "tomography")
FORMATS = ("csv", "jsonl")


def _run(src: str, command: str, config: str, fmt: str) -> tuple:
    done = subprocess.run([sys.executable, "-m", "spinturnstile", command, "--config", config, "--format", fmt],
                          env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def _write(path: str, config: dict) -> str:
    with open(path, "w") as f:
        json.dump(config, f)
    return path


def main(argv: list) -> None:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    base = os.path.abspath(argv[0])
    head = os.path.abspath(argv[1] if len(argv) == 2 else os.path.join(ROOT, "src"))
    cases, differ = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in range(workloads.N_VARIANTS):
                workload = workloads.generate(name, seed)
                config = _write(os.path.join(tmp, f"{name}-{seed}.json"), workload.config)
                cases.append((f"{name}-{seed}", workload.command, config))
        empty = _write(os.path.join(tmp, "empty.json"), {})
        cases += [(f"{command} on {{}}", command, empty) for command in COMMANDS]
        for label, command, config in cases:
            for fmt in FORMATS:
                if _run(head, command, config, fmt) != _run(base, command, config, fmt):
                    differ.append(f"{label}, {fmt}")
    print(f"{len(differ)} of {len(cases) * len(FORMATS)} runs differ in stdout, stderr or exit code.")
    for run in differ:
        print(f"- {run}")


if __name__ == "__main__":
    main(sys.argv[1:])
