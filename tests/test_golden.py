"""Golden bytes: the command line's CSV and JSONL output of fixed sweep and
tomography grids and of one fixed cycle and calibration, pinned by SHA-256.

Each grid has 40 settings with per-setting model overrides, so the run
covers full and partial instrument blocks, seed derivation, the resolved
configuration line and every row renderer. The ``cycle`` and ``calibrate``
runs share one setting off every axis: tilted partial leads, a detection
constant of 0.3, an overridden model and a correlated two-spin gate state.
The ``edges`` sweep holds the values whose text is easiest to get wrong:
axis-name leads, a null ``exchange_per_s`` derived from ``hopping_per_s`` and
``coulomb_u_per_s``, direction components of 1e-300 and 1e200 (whose squares
under- and overflow), signed zeros and an interaction time of 0. A digest changes when any output
byte does: a change that alters output on purpose records the new digests
here and says why. The digests hold for one numpy/BLAS build; another
build may round the instruments differently in the last digit.

``PYTHONPATH=src python tests/test_golden.py`` prints the current digests
in ``GOLDEN``'s form. Diff the outputs column by column against the previous
code before recording them.
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

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


def _edge_settings() -> list:
    derived = {"exchange_per_s": None, "hopping_per_s": 1.2e6, "coulomb_u_per_s": 4.0e6}
    return [
        {"u_left": {"direction": "x"}, "u_right": {"direction": "y", "magnitude": 0.5},
         "t_interact_s": 0.0},
        {"u_left": {"direction": [1e-300, -0.0, 1e-300], "magnitude": 1.0},
         "u_right": {"direction": [1e200, -1e200, 0.0], "magnitude": 0.75},
         "t_interact_s": 1.5e-6, "model": derived},
        {"u_left": {"direction": [-0.0, 0.0, 1.0], "magnitude": 0.0},
         "u_right": {"direction": "z"}, "t_interact_s": -0.0,
         "model": {**derived, "b_field_tesla": [-0.0, 0.0, 0.01]}},
        {"u_left": {"direction": [1e200, 3e-300, -1e200], "magnitude": 0.9},
         "u_right": {"direction": [2e-300, 1e-300, -3e-300], "magnitude": 1.0},
         "t_interact_s": 2.5e-6, "model": {"exchange_per_s": 9.5e5}},
    ]


def _config(name: str) -> tuple:
    """(command, configuration) of one golden run."""
    rng = random.Random(f"golden:{name}")
    if name == "edges":
        return "sweep", {
            "model": {"exchange_per_s": None, "hopping_per_s": 1.0e6, "coulomb_u_per_s": 3.0e6},
            "leads": {"u_left": {"direction": "y"}, "u_right": {"direction": [0.0, -0.0, 1e200]}},
            "experiment": {"mode": "refresh", "n_cycles": 3000, "seed": 5},
            "gate_state": {"preset": "pure_up"},
            "sweep": {"settings": _edge_settings()},
        }
    if name in ("cycle", "calibrate"):
        return name, {
            "model": {"exchange_per_s": 1.3e6, "hyperfine_gate_per_s": 2.6e6,
                      "hyperfine_ancilla_per_s": 0.8e6},
            "schedule": {"t_interact_s": 2.3e-6},
            "leads": {"u_left": {"direction": [0.3, -0.5, 0.8], "magnitude": 0.9},
                      "u_right": {"direction": [-0.6, 0.2, 0.7], "magnitude": 0.8}},
            "detection": {"c": 0.3},
            "gate_state": {"theta_two_spin": [0.1, -0.2, 0.15, 0.05, 0.2, -0.1, 0.1, 0.05,
                                              -0.1, 0.15, 0.0, 0.1, -0.05, 0.1, 0.2]},
            "experiment": {"n_cycles": 5000, "seed": 99},
        }
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
    ("refresh", "csv"): "57f9a761ef76f5c79623272c893f25feb9ce19fb75c90628ee620d22ebe1f1d1",
    ("refresh", "jsonl"): "f2ddab66538dc7b6601cdcff23f228d3d2039fdb16cdaa6b653b45fe24ea10dc",
    ("propagate", "csv"): "688289d2a8861674317a58f6f9cf0c4062fcaeea9eccbda0dde459361c0e2144",
    ("propagate", "jsonl"): "2472bf58c62895d487294832e1c5d3da7eb846f3eaf179cbbdb4c13c5dae20d2",
    ("tomography", "csv"): "c844c787f6b7894cd793cf2363a7f6f4e9e2ffbc72c246968a3eeb692fa33352",
    ("tomography", "jsonl"): "2fbff3248de660d76a4bad01420cd8b06627b07c5368a31285b3e451832f4b0e",
    ("cycle", "csv"): "760363394166091904fea59b70164cf6ba5ebaec2673bfecd271bdf9998631a8",
    ("cycle", "jsonl"): "233c6e1f51404efb586927ffa44c89a216429403c1a5ffb499733b832c19358c",
    ("calibrate", "csv"): "f59b8e5e8bf72e2c94240c37d2638c7685457e05ff77fa0ccc327a591ac3665f",
    ("calibrate", "jsonl"): "ee682c3bf3af06349655b07e57bacd0917e2a0b07d65403ae5f0929de2b484e4",
    ("edges", "csv"): "c6548666fe9019573ca047ac9aaf56412903b18194501549009fd4f8c0641641",
    ("edges", "jsonl"): "858baba28d69fb36ec10532e7d8796f4c90fa203a54b0a60b8add5bcc8eb15a9",
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, name, fmt):
    assert output_digest(tmp_path, name, fmt) == GOLDEN[name, fmt]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name, fmt in GOLDEN:
            print(f'    ("{name}", "{fmt}"): "{output_digest(Path(tmp), name, fmt)}",')
        print("}")
