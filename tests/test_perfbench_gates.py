"""The benchmark's reference gates, in-process: every variant of every
perfbench workload runs through ``cli.main`` and must exit 0 with no
warning and pass ``perfbench/workloads.py``'s ``check`` against its recorded
reference, and a variant's echo is held once. The benchmark module is
loaded from its file and only read."""

import importlib.util
import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from spinturnstile.cli import EXIT_OK, main
from spinturnstile.config import parse_config, resolved_json
from spinturnstile.results import JsonText

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
try:
    _SPEC.loader.exec_module(workloads)
finally:
    sys.dont_write_bytecode = _writes_bytecode


@pytest.mark.parametrize("name, variant", [(name, variant) for name in workloads.WORKLOADS
                                           for variant in range(workloads.N_VARIANTS)])
def test_variant_passes_its_gates(tmp_path, name, variant):
    workload = workloads.generate(name, variant)
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps(workload.config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([workload.command, "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    assert workloads.check(workload, out.read_bytes(), workloads.load_reference(workload)) == []


def test_json_text_holds_the_echo_itself():
    # the echo of setting_grid's variant 3 is about 282,000 characters, and
    # its JsonText keeps that text, not a copy of it
    echo = resolved_json(parse_config(json.dumps(workloads.generate("setting_grid", 3).config)))
    tracemalloc.start()
    try:
        text = JsonText(echo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.text is echo and len(echo) > 250_000
    assert peak < 1024
