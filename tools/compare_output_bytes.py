"""Compare the command line's output bytes of two source trees on every
benchmark variant.

    python tools/compare_output_bytes.py BASE_SRC [HEAD_SRC]

Runs ``python -m spinturnstile`` on each of the 48 perfbench variants (the
configs of ``perfbench/workloads.generate``, seeds 0-15 of each workload) once
with each tree on ``PYTHONPATH`` (HEAD_SRC defaults to this checkout's
``src``), and prints in Markdown how many variants differ in stdout, stderr
or exit code, and which. It exits 0 whatever differs: a change of the random
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


def _run(src: str, command: str, config: str) -> tuple:
    done = subprocess.run([sys.executable, "-m", "spinturnstile", command, "--config", config],
                          env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main(argv: list) -> None:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    base = os.path.abspath(argv[0])
    head = os.path.abspath(argv[1] if len(argv) == 2 else os.path.join(ROOT, "src"))
    variants, differ = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in range(workloads.N_VARIANTS):
                workload = workloads.generate(name, seed)
                config = os.path.join(tmp, f"{name}-{seed}.json")
                with open(config, "w") as f:
                    json.dump(workload.config, f)
                variants += 1
                if _run(head, workload.command, config) != _run(base, workload.command, config):
                    differ.append(f"{name}-{seed}")
    print(f"{len(differ)} of {variants} variants differ in stdout, stderr or exit code.")
    for variant in differ:
        print(f"- {variant}")


if __name__ == "__main__":
    main(sys.argv[1:])
