"""Compare the command line's output bytes of two source trees on every
benchmark variant, on the default configuration, on sweeps with error rows
and on invalid documents.

    python tools/compare_output_bytes.py BASE_SRC [HEAD_SRC]

Runs ``python -m spinturnstile`` once with each tree on ``PYTHONPATH``
(HEAD_SRC defaults to this checkout's ``src``), in both output formats, csv
and jsonl, on each of the 48 perfbench variants (the configs of
``perfbench/workloads.generate``, seeds 0-15 of each workload) with its own
command, on ``{}`` with each of the five commands, on a refresh and a
propagate sweep of an ok row, a row whose propagator phase is lost and a row
whose model overflows, and with ``sweep`` on a document that fails
validation (exit 3) and on one that is not JSON (exit 2): 114 runs. It
prints in Markdown how many runs differ in stdout, stderr or exit code, and
which. It exits 0 whatever differs: a change of the random stream changes
bytes on purpose.
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
# An ok row, a row whose propagator phase is lost and a row whose model overflows.
ERROR_ROWS = [{}, {"t_interact_s": 1e10}, {"model": {"exchange_per_s": 1e308}}]
# Documents that exit 3 (validation) and 2 (syntax) before any command runs.
INVALID = {"invalid": '{"leads": {"u_left": {"magnitude": 2}}}', "syntax": "{"}


def _run(src: str, command: str, config: str, fmt: str) -> tuple:
    done = subprocess.run([sys.executable, "-m", "spinturnstile", command, "--config", config, "--format", fmt],
                          env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def _write(path: str, config) -> str:
    """Write ``config``, a document's text or a value to dump as JSON, to ``path``."""
    with open(path, "w") as f:
        f.write(config if isinstance(config, str) else json.dumps(config))
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
        for mode in ("refresh", "propagate"):
            config = {"experiment": {"mode": mode, "n_cycles": 2000}, "sweep": {"settings": ERROR_ROWS}}
            cases.append((f"{mode} sweep with error rows", "sweep",
                          _write(os.path.join(tmp, f"errors-{mode}.json"), config)))
        cases += [(f"sweep on the {name} document", "sweep", _write(os.path.join(tmp, f"{name}.json"), text))
                  for name, text in INVALID.items()]
        for label, command, config in cases:
            for fmt in FORMATS:
                if _run(head, command, config, fmt) != _run(base, command, config, fmt):
                    differ.append(f"{label}, {fmt}")
    print(f"{len(differ)} of {len(cases) * len(FORMATS)} runs differ in stdout, stderr or exit code.")
    for run in differ:
        print(f"- {run}")


if __name__ == "__main__":
    main(sys.argv[1:])
