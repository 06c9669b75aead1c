"""Golden bytes: the command line's CSV and JSONL output of fixed sweep and
tomography grids and of one fixed cycle and calibration, pinned by SHA-256.

Each grid has 40 settings with per-setting model overrides, so the run
covers seed derivation, the resolved configuration line and every row
renderer. The ``blocks`` sweep has ``2 * BLOCK_ROWS + 3`` settings, so its
instruments come in two full blocks and a partial one; its rows mix model
overrides with the run's model, axis-name leads with vector leads, and
given leads and times with the run's own. The ``cycle`` and ``calibrate``
runs share one setting off every axis: tilted partial leads, a detection
constant of 0.3, an overridden model and a correlated two-spin gate state.
The ``edges`` sweep holds the values whose text is easiest to get wrong:
axis-name leads, a null ``exchange_per_s`` derived from ``hopping_per_s`` and
``coulomb_u_per_s``, direction components of 1e-300 and 1e200 (whose squares
under- and overflow), signed zeros and an interaction time of 0. The
``errors`` sweep mixes ok rows with a row whose propagator phase is lost
(an interaction time of 1e10 s) and one whose model overflows (couplings of
1e308), so empty cells and error statuses are pinned; in the ``kappa``
sweep a detection constant of 10 gives every row the kappa message, whose
commas the CSV quotes. The ``rates`` runs pin the device time scales on
the default configuration and on three edges of the time-scale hierarchy
(``HIERARCHY_EDGES``): an exchange too strong for resonant escape, a model
and tunnel with no dynamics and no escape (every time infinite, every ratio
0), and a leakage rate that underflows to 0 (``tau_non`` infinite) beside a
model that overflows. No golden run warns; the ``cycle`` and ``sweep`` runs
of the three edges are pinned by their ``HierarchyWarning`` messages
(``HIERARCHY_WARNINGS``) instead. A digest changes when any output
byte does: a change that alters output on purpose records the new digests
here and says why. The digests hold for one numpy/BLAS build; another
build may round the instruments differently in the last digit.

Every golden run also reproduces itself from its own ``resolved_config``:
run on that echo, the command prints the same lines but ``config_sha256``.

``PYTHONPATH=src python tests/test_golden.py`` prints the current digests
in ``GOLDEN``'s form, and names every run whose echo does not reproduce it,
so that no digest is recorded for such an echo. Diff the outputs column by
column against the previous code before recording them.
"""

import hashlib
import itertools
import json
import random
import tempfile
import warnings
from pathlib import Path

import pytest

from spinturnstile.cli import EXIT_OK, main
from spinturnstile.cycle import BLOCK_ROWS

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


def _block_settings(rng: random.Random) -> list:
    settings = []
    for i in range(2 * BLOCK_ROWS + 3):
        setting = {"u_left": _lead(rng), "u_right": _lead(rng), "t_interact_s": rng.uniform(1e-7, 5e-6)}
        if i % 5 == 0:
            setting["u_left"] = {"direction": "xyz"[i % 3]}
        if i % 7 == 3:
            setting["u_right"] = {"direction": "zyx"[i % 3], "magnitude": rng.uniform(0.5, 1.0)}
        if i % 11 == 6:
            del setting["u_left"]  # the run's left lead
        if i % 13 == 9:
            del setting["t_interact_s"]  # the run's interaction time
        if i % 3 != 2:
            keys = ("exchange_per_s", "hyperfine_gate_per_s", "hyperfine_ancilla_per_s")
            setting["model"] = {key: rng.uniform(2e5, 5e6) for key in keys[i % 3:]}
        settings.append(setting)
    return settings


def _error_settings(rng: random.Random) -> list:
    settings = _settings(rng)[:6]
    settings[2] = {**settings[2], "t_interact_s": 1e10}  # lost propagator phase
    settings[4] = {**settings[4], "model": {"exchange_per_s": 1e308, "hyperfine_gate_per_s": 1e308,
                                            "hyperfine_ancilla_per_s": 1e308}}  # overflows
    return settings


# Configurations at the edges of the time-scale hierarchy.
HIERARCHY_EDGES = {
    "exchange": {"model": {"exchange_per_s": 5e9}},
    "still": {"model": {"b_field_tesla": [0, 0, 0], "g_nuclear": 0, "hyperfine_gate_per_s": 0,
                        "hyperfine_ancilla_per_s": 0, "exchange_per_s": 0},
              "tunnel": {"interdot_sq_per_s": 0}},
    "leakage": {"tunnel": {"gamma0_per_s": 1e-300, "detuning_per_s": 1e300},
                "sweep": {"settings": [{"model": {"exchange_per_s": 5e9}}, {},
                                       {"model": {"exchange_per_s": 1e308, "hyperfine_gate_per_s": 1e308,
                                                  "hyperfine_ancilla_per_s": 1e308}}]}},
}


def _config(name: str) -> tuple:
    """(command, configuration) of one golden run."""
    if name == "rates" or name.startswith("rates-"):
        return "rates", HIERARCHY_EDGES.get(name[len("rates-"):], {})
    rng = random.Random(f"golden:{name}")
    if name == "errors":
        return "sweep", {
            "experiment": {"mode": "refresh", "n_cycles": 2000, "seed": 404},
            "gate_state": {"preset": "pure_up"},
            "sweep": {"settings": _error_settings(rng)},
        }
    if name == "kappa":
        return "sweep", {
            "detection": {"c": 10.0},
            "experiment": {"mode": "refresh", "n_cycles": 2000, "seed": 17},
            "sweep": {"settings": _settings(rng)[:5]},
        }
    if name == "edges":
        return "sweep", {
            "model": {"exchange_per_s": None, "hopping_per_s": 1.0e6, "coulomb_u_per_s": 3.0e6},
            "leads": {"u_left": {"direction": "y"}, "u_right": {"direction": [0.0, -0.0, 1e200]}},
            "experiment": {"mode": "refresh", "n_cycles": 3000, "seed": 5},
            "gate_state": {"preset": "pure_up"},
            "sweep": {"settings": _edge_settings()},
        }
    if name == "blocks":
        return "sweep", {
            "schedule": {"t_interact_s": 1.7e-6},
            "leads": {"u_left": {"direction": [0.2, -0.4, 0.9], "magnitude": 0.8}},
            "experiment": {"mode": "refresh", "n_cycles": 4000, "seed": 31},
            "gate_state": {"preset": "pure_up"},
            "sweep": {"settings": _block_settings(rng)},
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


def _run(tmp_path, command: str, config_text: str, fmt: str, tag: str) -> tuple:
    """(output bytes, warnings caught) of one successful run."""
    cfg_path, out_path = tmp_path / f"{tag}.json", tmp_path / f"{tag}.{fmt}"
    cfg_path.write_text(config_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg_path), "--out", str(out_path), "--format", fmt]) == EXIT_OK
    return out_path.read_bytes(), caught


def _output(tmp_path, command: str, config_text: str, fmt: str, tag: str) -> bytes:
    output, caught = _run(tmp_path, command, config_text, fmt, tag)
    assert [str(w.message) for w in caught] == []
    return output


def output_digest(tmp_path, name: str, fmt: str) -> str:
    command, config = _config(name)
    return hashlib.sha256(_output(tmp_path, command, json.dumps(config), fmt, name)).hexdigest()


ECHO = b"# resolved_config = "


def echo_rerun_changes(tmp_path, name: str) -> list:
    """The CSV lines of a golden run, but its ``config_sha256`` line, that
    change when the run is repeated on its own ``resolved_config``."""
    command, config = _config(name)
    first = _output(tmp_path, command, json.dumps(config), "csv", name).splitlines()
    (echo,) = [line[len(ECHO):] for line in first if line.startswith(ECHO)]
    again = _output(tmp_path, command, echo.decode(), "csv", f"{name}-echo").splitlines()
    return [line for line, rerun in itertools.zip_longest(first, again)
            if line != rerun and not (line or b"").startswith(b"# config_sha256 = ")]


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
    ("blocks", "csv"): "9629027e5fb2db4203ec2017ab5aecd20ce5439fd12cf9e9ec1ccde32f779ff7",
    ("blocks", "jsonl"): "15b22d284d5682c36c423b70fc58f9a69403c2ac62c116e36c5ec53e05ff72e3",
    ("errors", "csv"): "4623b14cebbf38a9bf648632b69b8ce3feb8783928753c34784ce8126c16f6f4",
    ("errors", "jsonl"): "1cdf44eb246e11f6808387a63cb70e75029ffff7531a225e46f56d1f90cdc003",
    ("kappa", "csv"): "993fa9e5b3fa9ec8a56efb46461eb8ade9c226a0658b7a20ebed7fb3be8eddc7",
    ("kappa", "jsonl"): "2389a83daa3a952ebb26869d6df7134966d90d08ba2126ab311512f559a40f72",
    ("rates", "csv"): "de24b3d7718ddd6f01848546fc5d52e101eb92829b5d4d7580ead16155807d23",
    ("rates", "jsonl"): "af98847f7534001f0c2b56075728f95f78715027a1a72b9d7a7753690d899111",
    ("rates-exchange", "csv"): "970588fe28ec9b054ac16b336efa88a1087adf44816ca9dbd7590728e9f22156",
    ("rates-exchange", "jsonl"): "6068bb1b79d2a6c4ca9112bf37913b678ad6e0dd935429cfa592f447932d7ccb",
    ("rates-leakage", "csv"): "39be2b99eaf563371deb53e912bea8d1a6ba729ec306024402811d13e84c0458",
    ("rates-leakage", "jsonl"): "f2b446b36c48f79969bfb55a4d7594997344641ea040c9deb93c1ae51499c16a",
    ("rates-still", "csv"): "850afc6222859e95bb308f6d31e3d89f893c8a51a9baaaa35add8ed867aa768a",
    ("rates-still", "jsonl"): "dcad14701d9a673cc0b9ab7c165a84ff7ef2b2b34655b9a2d2490cfa49e9e9b6",
}


NAMES = sorted({name for name, _ in GOLDEN})


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_output_bytes_are_pinned(tmp_path, name, fmt):
    assert output_digest(tmp_path, name, fmt) == GOLDEN[name, fmt]


@pytest.mark.parametrize("name", NAMES)
def test_resolved_config_reproduces_the_run(tmp_path, name):
    assert echo_rerun_changes(tmp_path, name) == []


def _unsatisfied(ratios: str) -> str:
    return f"time-scale hierarchy tau_res << tau_dyn << tau_non not satisfied (ratios {ratios})"


# The HierarchyWarning messages of each edge's cycle and sweep, in order: one
# per setting whose model's time scales are not separated, none for a model
# that overflows.
HIERARCHY_WARNINGS = {
    ("exchange", "cycle"): [_unsatisfied("0.419, 2.39e+06")],
    ("exchange", "sweep"): [_unsatisfied("0.419, 2.39e+06")] * 3,
    ("still", "cycle"): [_unsatisfied("0, 0")],
    ("still", "sweep"): [_unsatisfied("0, 0")] * 3,
    ("leakage", "cycle"): [],
    ("leakage", "sweep"): [_unsatisfied("0.419, inf")],
}


@pytest.mark.parametrize("name, command", sorted(HIERARCHY_WARNINGS))
def test_hierarchy_warnings_are_pinned(tmp_path, name, command):
    _, caught = _run(tmp_path, command, json.dumps(HIERARCHY_EDGES[name]), "csv", name)
    assert [(w.category.__name__, str(w.message)) for w in caught] == [
        ("HierarchyWarning", message) for message in HIERARCHY_WARNINGS[name, command]]
    # each names the command's line in the command line module
    assert {Path(w.filename).name for w in caught} <= {"cli.py"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name, fmt in GOLDEN:
            print(f'    ("{name}", "{fmt}"): "{output_digest(Path(tmp), name, fmt)}",')
        print("}")
        for name in NAMES:
            changed = echo_rerun_changes(Path(tmp), name)
            if changed:
                print(f"{name}: rerun on its resolved_config changes {len(changed)} lines, "
                      "so its digests must not be recorded")
