"""Golden bytes: the command line's CSV and JSONL output of fixed sweep and
tomography grids, pinned by SHA-256.

Each grid has 40 settings with per-setting model overrides, so the run
covers full and partial instrument blocks, seed derivation, the resolved
configuration line and every row renderer. A digest changes when any output
byte does: a change that alters output on purpose records the new digests
here and says why. The digests hold for one numpy/BLAS build; another
build may round the instruments differently in the last digit.
"""

import hashlib
import json
import random

import pytest

from spinturnstile.cli import EXIT_OK, main

N_SETTINGS = 40


def _lead(rng: random.Random) -> dict:
    return {"direction": [rng.uniform(-1.0, 1.0) for _ in range(3)],
            "magnitude": rng.uniform(0.5, 1.0)}


def _settings(rng: random.Random, times=None) -> list:
    # Couplings and times inside the perfbench ranges, which keep both
    # time-scale ratios above the default threshold: no HierarchyWarning.
    settings = []
    for i in range(N_SETTINGS):
        setting = {"u_left": _lead(rng), "u_right": _lead(rng),
                   "t_interact_s": times[i % len(times)] if times else rng.uniform(1e-7, 5e-6)}
        if i % 4 != 3:
            keys = ("exchange_per_s", "hyperfine_gate_per_s", "hyperfine_ancilla_per_s")
            setting["model"] = {key: rng.uniform(2e5, 5e6) for key in keys[:1 + i % 3]}
        settings.append(setting)
    return settings


def _config(name: str) -> tuple:
    """(command, configuration) of one golden grid."""
    rng = random.Random(f"golden:{name}")
    if name == "tomography":
        times = [rng.uniform(1e-7, 5e-6) for _ in range(5)]
        return "tomography", {
            "gate_state": {"preset": "singlet"},
            "experiment": {"n_cycles": 5000, "seed": 2024},
            "tomography": {"mode": "two_spin", "noise": "shot", "settings": _settings(rng, times)},
        }
    return "sweep", {
        "experiment": {"mode": name, "n_cycles": 3000, "seed": 77},
        "gate_state": {"theta_single_spin": [0.2, -0.3, 0.4]},
        "sweep": {"settings": _settings(rng)},
    }


def output_digest(tmp_path, name: str, fmt: str) -> str:
    command, config = _config(name)
    cfg_path, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.{fmt}"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(out_path), "--format", fmt]) == EXIT_OK
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


GOLDEN = {
    ("refresh", "csv"): "a9c9c390f997e42f4ed303b4843b3a8908ce1a2c2a748e7a31b161581ab2b389",
    ("refresh", "jsonl"): "cab1edcd52210dcdfd709c4c98b38f8f06e61c027456bb6d9e4ad2cc2bd23bcb",
    ("propagate", "csv"): "f3fef561cdbd1bb8a36e36dbdbeb220f64f6d10fdf59f33e0b35fa1d04371790",
    ("propagate", "jsonl"): "3e7e1991c06c8dac3f3414a2cfa046180618b3755cbf73b3947c1a716a83852b",
    ("tomography", "csv"): "368e5c3bd666a06c5794bdb3886092de8841d6d127d90491c69715352ffe000a",
    ("tomography", "jsonl"): "9880fc91fe28dde4cc9d27f248ddcf9ab025c833e5e900821bf92e41ac3e5e85",
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, name, fmt):
    assert output_digest(tmp_path, name, fmt) == GOLDEN[name, fmt]
