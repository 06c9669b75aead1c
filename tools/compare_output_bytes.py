"""Compare the command line's output bytes of two source trees on every
benchmark variant, on the default configuration, on sweeps with error rows
and on invalid documents.

    python tools/compare_output_bytes.py BASE_SRC [HEAD_SRC]

Runs ``python -m spinturnstile`` with each tree on ``PYTHONPATH``
(HEAD_SRC defaults to this checkout's ``src``), in both output formats, csv
and jsonl, on each of the 48 perfbench variants (the configs of
``perfbench/workloads.generate``, seeds 0-15 of each workload) with its own
command, on ``{}`` with each of the five commands, on a refresh and a
propagate sweep of an ok row, a row whose propagator phase is lost and a row
whose model overflows, and with ``sweep`` on a document that fails
validation (exit 3) and on one that is not JSON (exit 2): 114 cases. Each
case runs twice per tree, once to stdout and once with ``--out FILE``: 228
runs per tree. It prints in Markdown how many of one tree's 228 runs differ
from the other's in stdout, the bytes written to ``--out``, stderr or exit
code, and which; and how many of the 228 ``--out`` runs of both trees wrote
other bytes than the same tree's run printed to stdout, or another stderr or
exit code, and which. It exits 0 whatever differs: a change of the random
stream changes bytes on purpose.
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


def _run(src: str, command: str, config: str, fmt: str, out: str | None = None) -> tuple:
    """Stdout, the bytes of the file written to ``out`` (None if there is
    none), stderr and exit code of one run, with ``--out out`` if given."""
    argv = [sys.executable, "-m", "spinturnstile", command, "--config", config, "--format", fmt]
    done = subprocess.run(argv + (["--out", out] if out else []),
                          env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL, capture_output=True)
    written = None
    if out and os.path.exists(out):
        with open(out, "rb") as f:
            written = f.read()
        os.remove(out)
    return done.stdout, written, done.stderr, done.returncode


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
    cases, differ, mismatch = [], [], []
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
        out = os.path.join(tmp, "out")
        for label, command, config in cases:
            for fmt in FORMATS:
                runs = {}
                for tree, src in (("head", head), ("base", base)):
                    piped, to_file = _run(src, command, config, fmt), _run(src, command, config, fmt, out)
                    runs[tree] = piped, to_file
                    stdout, _, stderr, code = piped
                    # the file holds what the run prints, and a run that fails writes none
                    if to_file != (b"", stdout if code == 0 else None, stderr, code):
                        mismatch.append(f"{label}, {fmt}, {tree}")
                for k, way in enumerate(("stdout", "--out")):
                    if runs["head"][k] != runs["base"][k]:
                        differ.append(f"{label}, {fmt}, {way}")
    n_runs = 2 * len(cases) * len(FORMATS)
    print(f"{len(differ)} of {n_runs} runs differ in stdout, the bytes written to --out, stderr or exit code.")
    for run in differ:
        print(f"- {run}")
    print()
    print(f"{len(mismatch)} of {n_runs} runs with --out, both trees', differ from the same tree's run to stdout.")
    for run in mismatch:
        print(f"- {run}")


if __name__ == "__main__":
    main(sys.argv[1:])
