import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinturnstile
from spinturnstile.config import (
    ConfigSyntaxError,
    ConfigValidationError,
    GATE_PRESETS,
    _MODEL_FIELDS,
    _ROOT_FIELDS,
    config_digest,
    parse_config,
    resolved_json,
)
from spinturnstile.cli import (
    COMMANDS,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    build_parser,
    execute,
    main,
)
from spinturnstile import cycle, results
from spinturnstile.algebra import evolve_unitaries
from spinturnstile.cycle import HierarchyWarning
from spinturnstile.experiment import sample_counts
from spinturnstile.model import SpinModelParams, model_coefficients, model_values
from spinturnstile.results import RENDERERS, JsonText, ResultTable, render_csv, render_jsonl, write_results
from spinturnstile.tomography import TWO_SPIN, RankDeficientWarning, theta_to_density

from oracles import render_csv_by_writer


def package_env() -> dict:
    """The environment, with PYTHONPATH finding the package this test run imported."""
    src = str(Path(spinturnstile.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


MINIMAL = "{}"

FULL = {
    "model": {
        "b_field_tesla": [0.0, 0.0, 0.01],
        "g_nuclear": 1.2314e-3,
        "hyperfine_gate_per_s": 2.0e6,
        "hyperfine_ancilla_per_s": 1.1e6,
        "exchange_per_s": 7.0e5,
    },
    "tunnel": {"gamma0_per_s": 1.0e9, "interdot_sq_per_s": 1.0e9, "detuning_per_s": 1.0e12,
               "tau_detect_s": 1.0e-10, "tau_cycle_s": 1.0e-6},
    "schedule": {"t_interact_s": 1.0e-6},
    "leads": {
        "u_left": {"direction": [0, 0, 1], "magnitude": 1.0},
        "u_right": {"direction": [1, 0, 0], "magnitude": 1.0},
    },
    "detection": {"c": 1.0},
    "gate_state": {"preset": "pure_up"},
    "experiment": {"n_cycles": 5000, "seed": 77, "mode": "refresh"},
}


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.gate_state.preset == "maximally_mixed"
        assert np.allclose(cfg.gate_state.density(), np.eye(4) / 4)
        assert cfg.experiment.mode == "refresh"
        assert len(cfg.sweep_settings.t_interact) == 3
        assert len(cfg.tomography.settings.t_interact) == 3

    def test_magnitude_out_of_range_names_field(self):
        doc = json.dumps({"leads": {"u_left": {"direction": [0, 0, 1], "magnitude": 1.5}}})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(doc)
        assert "leads.u_left.magnitude" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps({"modle": {}}))
        assert "modle" in str(err.value)
        with pytest.raises(ConfigValidationError):
            parse_config(json.dumps({"tunnel": {"gamma_per_s": 1.0}}))

    def test_syntax_error(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config(b"{not json")

    def test_round_trip_equality(self, tmp_path):
        # The resolved configuration a run embeds parses to the run's own
        # configuration, and run on it the command repeats the output except
        # for the digest of the configuration bytes.
        cfg = parse_config(json.dumps(FULL))
        code, out = run_cli(tmp_path, "sweep", FULL, fmt="jsonl")
        assert code == EXIT_OK
        first = out.read_text().splitlines()[0]
        start = first.index('"resolved_config":') + len('"resolved_config":')
        resolved, end = json.JSONDecoder().raw_decode(first, start)
        text = first[start:end]
        assert resolved == json.loads(first)["metadata"]["resolved_config"]
        again = parse_config(text)
        assert again == cfg
        assert text == resolved_json(again) == resolved_json(cfg)

        _, out = run_cli(tmp_path, "sweep", FULL)
        resolved_path = tmp_path / "resolved.json"
        resolved_path.write_text(text)
        rerun_path = tmp_path / "rerun.csv"
        assert main(["sweep", "--config", str(resolved_path), "--out", str(rerun_path)]) == EXIT_OK
        lines, rerun = out.read_bytes().splitlines(), rerun_path.read_bytes().splitlines()
        differ = [a for a, b in zip(lines, rerun) if a != b]
        assert len(lines) == len(rerun)
        assert [line.split(b" = ")[0] for line in differ] == [b"# config_sha256"]

    def test_resolved_setting_text(self):
        # A setting's text: axis names as vectors, floats at 17 digits with
        # -0.0 as -0, and a null exchange as null.
        setting = {"u_left": {"direction": "y"},
                   "u_right": {"direction": [-0.0, 5e-324, 1e200], "magnitude": 0.1},
                   "t_interact_s": -0.0,
                   "model": {"exchange_per_s": None, "hopping_per_s": 1e6, "coulomb_u_per_s": 4e6}}
        text = resolved_json(parse_config(json.dumps({"sweep": {"settings": [setting]}})))
        assert ('"sweep":{"settings":[{"u_left":{"direction":[0,1,0],"magnitude":1},'
                '"u_right":{"direction":[-0,4.9406564584124654e-324,9.9999999999999997e+199],'
                '"magnitude":0.10000000000000001},"t_interact_s":-0,"model":{') in text
        assert '"coulomb_u_per_s":4000000,"exchange_per_s":null,"level_offset_per_s":0}}]}' in text

    def test_negative_zero_literal_keeps_its_sign(self, tmp_path, capsys):
        # The echo writes -0.0 as -0, so wherever a float is read, a JSON -0
        # is -0.0; an integer field rejects it and names the field (exit 3).
        cfg = parse_config('{"leads": {"u_left": {"direction": [-0, 0, 1]}}, '
                           '"schedule": {"t_interact_s": -0}, "model": {"b_field_tesla": [0, -0, 1]}}')
        signs = [np.copysign(1.0, v) for v in (*cfg.setting.given_left[0][0], cfg.setting.t_interact[0],
                                               *cfg.model.b_field)]
        assert signs == [-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0]
        for key in ("seed", "n_cycles"):
            with pytest.raises(ConfigValidationError) as err:
                parse_config(f'{{"experiment": {{"{key}": -0}}}}')
            assert str(err.value) == f"experiment.{key}: expected an integer"
        cfg_path = tmp_path / "seed.json"
        cfg_path.write_text('{"experiment": {"seed": -0}}')
        argv = ["calibrate", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_VALIDATION
        assert "experiment.seed: expected an integer" in capsys.readouterr().err
        assert parse_config('{"experiment": {"seed": 0}}').experiment.seed == 0

    def test_presets_are_physical(self):
        for name, theta in GATE_PRESETS.items():
            rho = theta_to_density(np.asarray(theta), TWO_SPIN)
            assert np.linalg.eigvalsh(rho).min() > -1e-12, name
            assert np.isclose(np.trace(rho).real, 1.0)

    def test_pure_up_density(self):
        cfg = parse_config(json.dumps({"gate_state": {"preset": "pure_up"}}))
        assert np.allclose(cfg.gate_state.density(), np.diag([1.0, 0, 0, 0]))

    def test_unphysical_theta_rejected(self):
        doc = json.dumps({"gate_state": {"theta_single_spin": [1.0, 1.0, 1.0]}})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(doc)
        assert "gate_state" in str(err.value)

    @pytest.mark.parametrize("key, theta, physical", [
        # a single-spin state's smallest eigenvalue is (1 - |theta|) / 4
        ("theta_single_spin", [1.0 + 3e-10, 0.0, 0.0], True),
        ("theta_single_spin", [1.0 + 5e-10, 0.0, 0.0], False),
        ("theta_two_spin", [0.0] * 14 + [-1.0], True),
        ("theta_two_spin", [0.0] * 12 + [-1.0, -1.0, -1.0 - 1e-9], False),
    ])
    def test_physicality_is_the_tomography_test(self, key, theta, physical):
        doc = json.dumps({"gate_state": {key: theta}})
        if physical:
            parse_config(doc)
        else:
            with pytest.raises(ConfigValidationError,
                               match=f"^gate_state.{key}: parameters give an unphysical state$"):
                parse_config(doc)

    @pytest.mark.parametrize("path, doc", [
        ("leads.u_left.direction",
         {"leads": {"u_left": {"direction": [1.7e308, 1.7e308, 0], "magnitude": 1.0}}}),
        ("sweep.settings[1].u_right.direction",
         {"sweep": {"settings": [{}, {"u_right": {"direction": [0, -1.7e308, 1.7e308]}}]}}),
    ])
    def test_direction_with_overflowing_norm_exit_3(self, tmp_path, capsys, path, doc):
        # the norm exceeds the float range, and inf would make the lead unpolarized
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert f"{path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"leads": {"u_left": {"direction": [0, 0, 0]}}},
         "leads.u_left.direction: must be a nonzero vector"),
        ({"leads": {"u_right": {"direction": [1.7e308, 1.7e308, 0]}}},
         "leads.u_right.direction: norm must be finite"),
        ({"tomography": {"settings": [{"u_left": {"direction": [0.0, -0.0, 0], "magnitude": 0.5}}]}},
         "tomography.settings[0].u_left.direction: must be a nonzero vector"),
    ])
    def test_direction_norm_messages(self, doc, message):
        with pytest.raises(ConfigValidationError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("direction, same_as", [
        ([1e-200, 1e-200, 0], [1, 1, 0]),
        ([5e-324, 0, 0], [1, 0, 0]),
        ([1e200, 1e200, 0], [1, 1, 0]),
    ])
    def test_direction_with_extreme_squares_is_accepted(self, tmp_path, direction, same_as):
        # the squares under- or overflow, but the norm is nonzero and finite
        values = []
        for tag, d in (("", direction), ("_same", same_as)):
            code, out = run_cli(tmp_path, "cycle", {"leads": {"u_left": {"direction": d}}}, tag=tag)
            assert code == EXIT_OK
            (row,) = csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#"))
            values.append([float(v) for v in row.values()])
        assert np.allclose(values[0], values[1], rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("direction, scaled", [
        ([5e-324, 0, 0], [1, 0, 0]),
        ([-0.0, 5e-324, 5e-324], [-0.0, 1, 1]),
        ([3e-323, -1e-323, 2e-323], [3, -1, 2]),
    ])
    def test_subnormal_direction_keeps_its_magnitude(self, direction, scaled):
        # magnitude * direction would round a subnormal direction's bits away
        # (once to a polarization of norm sqrt(2)): it is scaled up first
        vectors = [parse_config({"leads": {"u_left": {"direction": d, "magnitude": 0.9}}}).setting.u_left[0]
                   for d in (direction, scaled)]
        assert np.allclose(vectors[0], vectors[1], rtol=0.0, atol=1e-15)
        assert abs(np.linalg.norm(vectors[0]) - 0.9) < 1e-15

    @pytest.mark.parametrize("path, doc", [
        ("detection.c", {"detection": {"c": 10**400}}),
        ("model.g_electron", {"model": {"g_electron": -(10**400)}}),
        ("sweep.settings[0].t_interact_s", {"sweep": {"settings": [{"t_interact_s": 10**400}]}}),
    ])
    def test_integer_beyond_float_range_exit_3(self, tmp_path, capsys, path, doc):
        code, _ = run_cli(tmp_path, "cycle", doc)
        assert code == EXIT_VALIDATION
        assert f"{path}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n_cycles, expected", [
        (2**63 - 1, EXIT_OK),
        (2**63, EXIT_VALIDATION),
        (10**19, EXIT_VALIDATION),
    ])
    def test_n_cycles_bounded_by_sampler(self, tmp_path, capsys, n_cycles, expected):
        # the binomial sampler takes counts up to the int64 maximum
        code, _ = run_cli(tmp_path, "sweep", {"experiment": {"n_cycles": n_cycles, "seed": 2**63 - 1}})
        assert code == expected
        if expected == EXIT_VALIDATION:
            assert "experiment.n_cycles: must be <= 9223372036854775807" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, expected", [(2**63 - 1, EXIT_OK), (2**63, EXIT_VALIDATION)])
    def test_seed_bounded_by_seed_mixing(self, tmp_path, capsys, seed, expected):
        # derive_setting_seeds mixes a master seed's low 63 bits, and calibrate
        # draws with the master seed itself
        code, out = run_cli(tmp_path, "calibrate", {"experiment": {"seed": seed}})
        assert (code, out.exists()) == (expected, expected == EXIT_OK)
        if expected == EXIT_VALIDATION:
            assert "experiment.seed: must be <= 9223372036854775807" in capsys.readouterr().err

    def test_axis_name_directions(self):
        doc = json.dumps({"leads": {"u_right": {"direction": "x", "magnitude": 0.5}}})
        cfg = parse_config(doc)
        assert np.allclose(cfg.setting.u_right[0], [0.5, 0, 0])

    def test_derived_exchange_from_hopping(self):
        doc = json.dumps({"model": {"exchange_per_s": None, "hopping_per_s": 1e6,
                                    "coulomb_u_per_s": 1e9}})
        cfg = parse_config(doc)
        assert model_coefficients([model_values(cfg.model)])[0, 10] == pytest.approx(4e3)

    def test_setting_model_override_merges(self):
        doc = json.dumps({
            "sweep": {"settings": [
                {"t_interact_s": 1e-6, "model": {"exchange_per_s": 9.9e5}},
            ]},
        })
        cfg = parse_config(doc)
        # the override's values, in model_values order: the run model's but the exchange
        assert cfg.sweep_settings.models[0] == model_values(dataclasses.replace(cfg.model, exchange=9.9e5))

    def test_model_table_follows_model_values(self):
        # the echo's model template and the override walk take model_values in table order
        assert [attr for attr, _ in _MODEL_FIELDS.values()] == [
            f.name for f in dataclasses.fields(SpinModelParams)]

    def test_overrides_build_no_model(self, monkeypatch):
        # an override is checked as values in the grid's stacked pass: parsing
        # 500 of them builds one SpinModelParams, the run's model
        built = []
        check = SpinModelParams.__post_init__
        monkeypatch.setattr(SpinModelParams, "__post_init__", lambda p: (built.append(p), check(p)))
        doc = {"sweep": {"settings": [{"model": {"exchange_per_s": 1e5 + i, "hopping_per_s": i}}
                                      for i in range(500)]}}
        cfg = parse_config(json.dumps(doc))
        assert built == [cfg.model]
        assert cfg.sweep_settings.models[499] == model_values(
            dataclasses.replace(cfg.model, exchange=1e5 + 499, hopping=499.0))

    def test_digest_stable(self):
        raw = json.dumps(FULL).encode()
        assert config_digest(raw) == config_digest(raw)
        assert config_digest(raw) != config_digest(raw + b" ")


# A valid value other than its default for each field that a section's table
# reads with a reader, in table order, then for the root's
# hierarchy_threshold (section None).
NON_DEFAULT_FIELDS = [
    ("tunnel", "gamma0_per_s", 2.5e9),
    ("tunnel", "interdot_sq_per_s", 0.0),
    ("tunnel", "detuning_per_s", -3.0e11),
    ("tunnel", "tau_detect_s", 2.0e-10),
    ("tunnel", "tau_cycle_s", 3.0e-6),
    ("schedule", "t_interact_s", 2.5e-7),
    ("schedule", "include_gate_hamiltonian", False),
    ("detection", "c", 0.25),
    ("experiment", "n_cycles", 7),
    ("experiment", "seed", 0),
    ("experiment", "mode", "propagate"),
    ("tomography", "mode", "two_spin"),
    ("tomography", "noise", "shot"),
    (None, "hierarchy_threshold", 7.5),
]


class TestSchema:
    def test_every_field_with_a_reader_has_a_case(self):
        read = [(section, key) for section, (_, _, fields) in _ROOT_FIELDS.items() if isinstance(fields, dict)
                for key, (_, _, reader) in fields.items() if reader is not None]
        assert [(section, key) for section, key, _ in NON_DEFAULT_FIELDS] == read + [(None, "hierarchy_threshold")]

    @pytest.mark.parametrize("section, key, value", NON_DEFAULT_FIELDS)
    def test_a_given_field_is_echoed_at_its_key(self, section, key, value):
        # a document that gives one field echoes it at its key, every section's
        # keys in its table's order, and the echo parses to the same configuration
        cfg = parse_config(json.dumps({key: value} if section is None else {section: {key: value}}))
        text = resolved_json(cfg)
        echo, default = json.loads(text), json.loads(resolved_json(parse_config(MINIMAL)))
        assert list(echo) == list(_ROOT_FIELDS)
        for name, (_, _, fields) in _ROOT_FIELDS.items():
            if isinstance(fields, dict):
                assert list(echo[name]) == list(fields)
        if section is not None:
            echo, default = echo[section], default[section]
        assert echo[key] == value != default[key]
        if isinstance(value, bool):
            assert echo[key] is value and f'"{key}":{json.dumps(value)}' in text
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("section", [key for key, (_, default, _) in _ROOT_FIELDS.items()
                                         if isinstance(default, dict)])
    def test_an_unknown_section_key_exits_3(self, tmp_path, capsys, section):
        code, out = run_cli(tmp_path, "rates", {section: {"unknown_field": 1.0}})
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == f"error: {section}.unknown_field: unknown key\n"


class TestResultTable:
    def table(self):
        return ResultTable(
            columns=("name", "value", "flag"),
            rows=[("a", 0.1, True), ("b", float(1 / 3), False)],
            metadata={"tool": "x", "n": 2, "nested": {"k": [1, 2.5]}},
        )

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            ResultTable(columns=("a",), rows=[(1, 2)])

    def test_unordered_metadata_rejected(self):
        # a set has no deterministic order to write
        with pytest.raises(TypeError, match="^cannot serialize set deterministically$"):
            render_jsonl(ResultTable(columns=("a",), rows=[], metadata={"k": {1}}))

    @pytest.mark.parametrize("render", [render_csv, render_jsonl])
    def test_metadata_containers_are_written_alike(self, render):
        # a tuple is a JSON array in both formats, and a set is rejected by both
        tuple_text = render(ResultTable(columns=("a",), rows=[], metadata={"k": (1, 2)})).decode()
        assert tuple_text.startswith("# k = [1,2]\n" if render is render_csv else '{"metadata":{"k":[1,2]}}')
        with pytest.raises(TypeError, match="^cannot serialize set deterministically$"):
            render(ResultTable(columns=("a",), rows=[], metadata={"k": {"x", "y", "z"}}))

    def test_csv_round_trip_exact_floats(self):
        payload = render_csv(self.table()).decode()
        lines = [l for l in payload.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["name", "value", "flag"]
        assert float(rows[2][1]) == 1 / 3  # 17 significant digits round-trip exactly
        assert rows[1][2] == "true"

    def test_csv_metadata_preamble(self):
        payload = render_csv(self.table()).decode()
        assert payload.startswith("# tool = x\n")
        assert '# nested = {"k":[1,2.5]}' in payload

    def test_jsonl_metadata_first(self):
        lines = render_jsonl(self.table()).decode().splitlines()
        first = json.loads(lines[0])
        assert "metadata" in first and first["metadata"]["tool"] == "x"
        row = json.loads(lines[1])
        assert row == {"name": "a", "value": 0.1, "flag": True}

    def test_deterministic_bytes(self):
        assert render_csv(self.table()) == render_csv(self.table())
        assert render_jsonl(self.table()) == render_jsonl(self.table())

    def long_table(self):
        """Text metadata values longer than one slice, a plain one and a
        JsonText, and a row count that is not a multiple of the row block."""
        rows = [(k, k / 7, "a,b" if k % 2 else None) for k in range(2 * results._ROW_BLOCK + 3)]
        return ResultTable(columns=("k", "v", "s"), rows=rows, metadata={
            "text": 'ключ,"' + "x" * results._SLICE,
            "echo": JsonText("[" + ",".join(["1.5"] * results._SLICE) + "]"),
        })

    def test_formats_are_the_renderer_table(self, tmp_path):
        for table in (self.table(), self.long_table()):
            for fmt, render in RENDERERS.items():
                dest, stream = tmp_path / f"out.{fmt}", io.BytesIO()
                assert write_results(table, fmt, dest) == write_results(table, fmt, stream) == len(render(table))
                assert dest.read_bytes() == stream.getvalue() == render(table)
        # the long texts' slices and the rows' blocks join to the texts and lines themselves
        table = self.long_table()
        assert render_csv(table) == render_csv_by_writer(table)
        metadata, *rows = map(json.loads, render_jsonl(table).decode().splitlines())
        assert metadata == {"metadata": {**table.metadata, "echo": json.loads(table.metadata["echo"])}}
        assert rows == [dict(zip(table.columns, row)) for row in table.rows]
        with pytest.raises(ValueError, match="unknown output format"):
            write_results(self.table(), "xml", tmp_path / "out.xml")
        (fmt,) = [a for a in build_parser()._actions if a.dest == "format"]
        assert tuple(fmt.choices) == tuple(RENDERERS)

    @pytest.mark.parametrize("fmt", tuple(RENDERERS))
    def test_write_holds_no_copy_of_its_payload(self, tmp_path, fmt):
        # a text value of several MB and thousands of rows: the write holds a
        # slice of the one and a block of the others, not a line, the
        # document or its encoding
        echo = JsonText("[" + ",".join(["0.30000000000000004"] * 200_000) + "]")
        table = ResultTable(columns=("row", "value", "label"), rows=[(k, k / 7, f"r{k}") for k in range(5000)],
                            metadata={"tool": "x", "resolved_config": echo})
        dest = tmp_path / f"out.{fmt}"
        tracemalloc.start()
        try:
            n = write_results(table, fmt, dest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == dest.stat().st_size > len(echo)
        assert peak < n / 2

    def test_write_returns_byte_count(self, tmp_path):
        dest = tmp_path / "out.csv"
        n = write_results(self.table(), "csv", dest)
        assert n == dest.stat().st_size

    def test_empty_table_has_header_and_metadata(self):
        t = ResultTable(columns=("a", "b"), rows=[], metadata={"k": "v"})
        text = render_csv(t).decode()
        assert text == "# k = v\na,b\n"


def run_cli(tmp_path, command, cfg_dict, fmt="csv", seed=None, name="cfg.json", tag=""):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg_dict))
    out_path = tmp_path / f"out_{command}{tag}.{fmt}"
    argv = [command, "--config", str(cfg_path), "--out", str(out_path), "--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out_path


class TestCli:
    @pytest.mark.parametrize("doc, message", [
        ({"experiment": {"n_cycles": 0}}, "experiment.n_cycles: must be >= 1"),
        ({"experiment": {"seed": -1}}, "experiment.seed: must be >= 0"),
        ({"schedule": {"include_gate_hamiltonian": 1}},
         "schedule.include_gate_hamiltonian: expected a boolean"),
        ({"sweep": {"settings": []}}, "sweep.settings: expected a nonempty array"),
        ({"tomography": {"settings": {}}}, "tomography.settings: expected a nonempty array"),
        ({"gate_state": {}},
         "gate_state: exactly one of preset/theta_single_spin/theta_two_spin is required"),
        ({"gate_state": {"preset": "pure_up", "theta_single_spin": [0, 0, 0]}},
         "gate_state: exactly one of preset/theta_single_spin/theta_two_spin is required"),
        ({"gate_state": {"theta_single_spin": [0, 0]}},
         "gate_state.theta_single_spin: expected an array of 3 numbers"),
        ({"tunnel": {"gamma0_per_s": 0}}, "tunnel: gamma0 must be positive"),
        ({"tunnel": {"interdot_sq_per_s": -1}}, "tunnel: interdot_sq must be nonnegative"),
        ({"tunnel": {"tau_cycle_s": -1}}, "tunnel: tau_detect and tau_cycle must be positive"),
        ({"model": {"b_field_tesla": [0, 0.01]}}, "model.b_field_tesla: expected a 3-component array"),
        # a choice field given an array or an object
        ({"experiment": {"mode": []}}, "experiment.mode: must be one of ['propagate', 'refresh']"),
        ({"tomography": {"mode": {}}}, "tomography.mode: must be one of ['single_spin', 'two_spin']"),
        ({"tomography": {"noise": ["shot"]}}, "tomography.noise: must be one of ['none', 'shot']"),
        ({"gate_state": {"preset": {"pure_up": 1}}},
         "gate_state.preset: must be one of ['maximally_mixed', 'pure_up', 'singlet']"),
    ])
    def test_validation_messages_exit_3(self, tmp_path, capsys, doc, message):
        code, out = run_cli(tmp_path, "sweep", doc)
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rates_contains_resonant_time(self, tmp_path):
        code, out = run_cli(tmp_path, "rates", FULL)
        assert code == EXIT_OK
        text = out.read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert float(row[header.index("tau_res_s")]) == pytest.approx(1e-9)

    def test_cycle_calibration_point(self, tmp_path):
        cfg = dict(FULL)
        cfg["schedule"] = {"t_interact_s": 0.0}
        cfg["leads"] = {
            "u_left": {"direction": [0, 0, 1], "magnitude": 1.0},
            "u_right": {"direction": [0, 0, 1], "magnitude": 1.0},
        }
        code, out = run_cli(tmp_path, "cycle", cfg)
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = lines[1].split(",")
        pr = float(row[header.index("pr_pulse")])
        assert pr == pytest.approx(2 * 1.0 * 1e-10 * 1e9, abs=1e-12)

    @pytest.mark.parametrize("command", ["rates", "cycle", "sweep", "calibrate", "tomography"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_determinism_all_commands(self, tmp_path, command, fmt):
        code1, out1 = run_cli(tmp_path, command, FULL, fmt=fmt)
        data1 = out1.read_bytes()
        code2, out2 = run_cli(tmp_path, command, FULL, fmt=fmt)
        assert code1 == code2 == EXIT_OK
        assert data1 == out2.read_bytes()

    def test_seed_override_changes_shot_noise(self, tmp_path):
        _, out1 = run_cli(tmp_path, "sweep", FULL, seed=1, tag="_a")
        _, out2 = run_cli(tmp_path, "sweep", FULL, seed=2, tag="_b")
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize("seed, expected", [(2**63 - 1, EXIT_OK), (2**63, EXIT_VALIDATION),
                                                (-1, EXIT_VALIDATION)])
    def test_seed_override_range(self, tmp_path, capsys, seed, expected):
        code, out = run_cli(tmp_path, "sweep", FULL, seed=seed)
        assert (code, out.exists()) == (expected, expected == EXIT_OK)
        if expected == EXIT_VALIDATION:
            assert capsys.readouterr().err == "error: --seed must lie in [0, 9223372036854775807]\n"

    def test_malformed_json_exit_2(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{oops")
        assert main(["rates", "--config", str(cfg_path)]) == EXIT_PARSE

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("text, limit", [
        ('{"model": ' + "[" * 5000 + "]" * 5000 + "}", f"recursion limit of {sys.getrecursionlimit()}"),
        ("[" * 100_000 + "]" * 100_000, f"recursion limit of {sys.getrecursionlimit()}"),
        ('{"experiment": {"seed": ' + "1" * 5000 + "}}", f"{sys.get_int_max_str_digits()} digits"),
        ('{"detection": {"c": ' + "7" * 5000 + "}}", f"{sys.get_int_max_str_digits()} digits"),
    ], ids=["nested_model", "nested_top", "long_seed", "long_c"])
    def test_undecodable_json_exit_2(self, tmp_path, capsys, command, text, limit):
        # nesting past the recursion limit and integers past int's digit
        # limit are syntax errors, named by their limit
        cfg_path, out = tmp_path / "deep.json", tmp_path / "out.csv"
        cfg_path.write_text(text)
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1
        assert limit in err and "Traceback" not in err
        assert not out.exists()

    def test_validation_exit_3(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"leads": {"u_left": {"magnitude": 2.0}}}))
        assert main(["rates", "--config", str(cfg_path)]) == EXIT_VALIDATION

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["rates", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_out_under_a_text_only_stdout(self, tmp_path):
        # a notebook's sys.stdout, like redirect_stdout's, has no binary buffer
        cfg_path, dest = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(MINIMAL)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["rates", "--config", str(cfg_path), "--out", str(dest)]) == EXIT_OK
        assert stdout.getvalue() == ""
        assert dest.read_bytes().startswith(b"# tool = spinturnstile\n")

    def test_unwritable_out_exit_4(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(MINIMAL)
        dest = tmp_path / "no_dir" / "out.csv"
        assert main(["rates", "--config", str(cfg_path), "--out", str(dest)]) == EXIT_IO

    def test_unphysical_detection_strength_exit_3(self, tmp_path):
        cfg = dict(FULL)
        cfg["detection"] = {"c": 100.0}
        code, _ = run_cli(tmp_path, "cycle", cfg)
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["cycle", "calibrate"])
    def test_detection_strength_above_one_exit_3(self, tmp_path, capsys, command):
        # kappa = 2 * 1 * 6e-10 * 1e9 = 1.2, while the calibration probability
        # c tau gamma0 (1 + 0.25) = 0.75 alone would look valid
        cfg = {"tunnel": {"tau_detect_s": 6e-10},
               "leads": {"u_left": {"magnitude": 0.5}, "u_right": {"magnitude": 0.5}}}
        code, out = run_cli(tmp_path, command, cfg)
        assert code == EXIT_VALIDATION
        assert not out.exists()
        # the message names the config keys that set kappa
        assert "gamma0_per_s" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        FULL,
        {"leads": {"u_left": {"magnitude": 0}}},
        {"leads": {"u_right": {"magnitude": 0}}},
        # kappa ~ 2e-310 is subnormal: the closed form read c as 1.0000000000000495
        {"tunnel": {"gamma0_per_s": 1e-300}},
    ])
    def test_calibrate_reads_c_exactly(self, tmp_path, doc):
        # the noiseless row divides the model's probability by itself,
        # unpolarized leads included
        code, out = run_cli(tmp_path, "calibrate", doc)
        assert code == EXIT_OK
        rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert list(rows[0]) == ["kind", "pr_measured", "c_true", "c_hat", "abs_rel_error",
                                 "n_cycles"]
        assert [r["kind"] for r in rows] == ["noiseless", "shot_noise"]
        assert rows[0]["c_hat"] == rows[0]["c_true"] == "1"
        assert rows[0]["abs_rel_error"] == "0"

    def test_calibrate_without_detection_exit_3(self, tmp_path, capsys):
        # at c = 0 no pulse occurs, so nothing measures c
        code, out = run_cli(tmp_path, "calibrate", {"detection": {"c": 0}})
        assert code == EXIT_VALIDATION and not out.exists()
        assert capsys.readouterr().err.startswith("error: detection.c: must be positive")

    @pytest.mark.parametrize("gamma0", [1e-150, 1e-170, 1e-300, 5e-324])
    @pytest.mark.parametrize("command", ["rates", "cycle"])
    def test_tiny_gamma0_runs(self, tmp_path, command, gamma0):
        # gamma0**2 underflows to 0 from about 1e-162 on: the leakage rate
        # must vanish (tau_non = inf) instead of dividing zero by zero
        code, out = run_cli(tmp_path, command, {"tunnel": {"gamma0_per_s": gamma0}})
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        if command == "rates":
            assert row["tau_non_s"] == "inf"
            assert float(row["rate_non_per_s"]) == 0.0
            assert float(row["tau_res_s"]) == pytest.approx(1e-9)
        else:
            assert 0.0 <= float(row["pr_pulse"]) < 1e-100

    @pytest.mark.parametrize("interdot_sq", [0.0, 5e-324])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rates_without_tunneling_or_dynamics_has_no_nan(self, tmp_path, fmt, interdot_sq):
        # tau_res and tau_dyn are both infinite: their ratio reads 0 (not
        # separated), as ratio_non_dyn does, instead of inf / inf = nan
        cfg = {"tunnel": {"interdot_sq_per_s": interdot_sq},
               "model": {"b_field_tesla": [0, 0, 0], "hyperfine_gate_per_s": 0,
                         "hyperfine_ancilla_per_s": 0, "exchange_per_s": 0}}
        code, out = run_cli(tmp_path, "rates", cfg, fmt=fmt)
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        if fmt == "csv":
            row = dict(zip(lines[0].split(","), lines[1].split(",")))
            assert "nan" not in out.read_text()
        else:
            row = json.loads(lines[-1])
        assert float(row["ratio_dyn_res"]) == 0.0 and float(row["ratio_non_dyn"]) == 0.0
        assert row["satisfied"] in ("false", False)
        for command in ("cycle", "sweep"):
            with pytest.warns(HierarchyWarning) as caught:
                assert run_cli(tmp_path, command, cfg, fmt=fmt)[0] == EXIT_OK
            assert all("ratios 0, 0" in str(w.message) for w in caught if w.category is HierarchyWarning)

    def test_jsonl_writes_a_non_finite_float_as_its_csv_text(self, tmp_path):
        # no tunneling and no dynamics: every time scale is infinite. JSONL
        # writes the CSV cell text as a string, so an infinite time is not
        # read as a missing value (null)
        cfg = {"tunnel": {"interdot_sq_per_s": 0},
               "model": {"b_field_tesla": [0, 0, 0], "hyperfine_gate_per_s": 0,
                         "hyperfine_ancilla_per_s": 0, "exchange_per_s": 0}}
        _, csv_out = run_cli(tmp_path, "rates", cfg)
        _, jsonl_out = run_cli(tmp_path, "rates", cfg, fmt="jsonl")
        lines = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")]
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        row = json.loads(jsonl_out.read_text().splitlines()[-1])
        assert row["tau_res_s"] == row["tau_dyn_s"] == row["tau_non_s"] == "inf"
        assert list(row) == list(cells)
        for column, value in row.items():
            if isinstance(value, str):
                assert value == cells[column]
            else:
                assert value == json.loads(cells[column])

    @pytest.mark.parametrize("noise, expected", [("shot", EXIT_VALIDATION), ("none", EXIT_OK)])
    def test_repeated_tomography_setting(self, tmp_path, capsys, noise, expected):
        # a repeated setting derives a repeated seed: under shot noise its
        # draws would repeat, and reconstruct would count them as independent
        probes = [{"u_right": {"direction": ax}} for ax in "xyzx"]
        cfg = {"tomography": {"noise": noise, "settings": probes}}
        code, out = run_cli(tmp_path, "tomography", cfg)
        assert code == expected
        err = capsys.readouterr().err
        if expected == EXIT_VALIDATION:
            assert not out.exists()
            assert "tomography.settings[0]" in err and "tomography.settings[3]" in err

    @pytest.mark.parametrize("noise, expected", [("shot", EXIT_VALIDATION), ("none", EXIT_OK)])
    def test_two_identical_tomography_settings(self, tmp_path, capsys, noise, expected):
        # the seeds of a shot-noise run come from one pass over all settings;
        # the first repeat is named with the setting it repeats
        setting = {"u_right": {"direction": [1, 0, 0]}, "t_interact_s": 2e-6}
        cfg = {"tomography": {"noise": noise, "settings": [setting, dict(setting)]}}
        if expected == EXIT_VALIDATION:
            code, out = run_cli(tmp_path, "tomography", cfg)
            assert code == expected and not out.exists()
            assert capsys.readouterr().err == (
                "error: tomography.settings[0] and tomography.settings[1] derive the same seed, so "
                "their shot-noise draws would be identical, not independent; list each setting once\n")
        else:
            # without draws the pair is only a rank-1 design
            with pytest.warns(RankDeficientWarning):
                code, out = run_cli(tmp_path, "tomography", cfg)
            assert code == expected and out.exists()

    @pytest.mark.parametrize("n_settings", [5, 7])
    def test_tomography_draws_each_settings_lone_probability(self, tmp_path, monkeypatch, n_settings):
        # Each setting's shot draw takes, bit for bit, the pulse probability of
        # its own instrument alone. A dense gate state makes the grid's
        # probabilities differ in the last digit when one matrix product over
        # the rows forms them.
        rng = random.Random(f"dense:{n_settings}")

        def lead():
            return {"direction": [rng.uniform(-1.0, 1.0) for _ in range(3)], "magnitude": rng.uniform(0.5, 1.0)}

        settings = [{"u_left": lead(), "u_right": lead(), "t_interact_s": rng.uniform(1e-7, 5e-6)}
                    for _ in range(n_settings)]
        doc = {
            "model": {"exchange_per_s": 1.3e6, "hyperfine_gate_per_s": 2.6e6, "hyperfine_ancilla_per_s": 0.8e6},
            "detection": {"c": 0.3},
            "gate_state": {"theta_two_spin": [0.1, -0.2, 0.15, 0.05, 0.2, -0.1, 0.1, 0.05,
                                              -0.1, 0.15, 0.0, 0.1, -0.05, 0.1, 0.2]},
            "experiment": {"n_cycles": 1000},
            "tomography": {"mode": "two_spin", "noise": "shot", "settings": settings},
        }
        drawn = []

        def recording(probabilities, n, seeds):
            drawn.append(list(probabilities))
            return sample_counts(probabilities, n, seeds)

        monkeypatch.setattr(spinturnstile.cli, "sample_counts", recording)
        with pytest.warns(RankDeficientWarning):
            code, _ = run_cli(tmp_path, "tomography", doc)
        assert code == EXIT_OK
        lone = []
        for setting in settings:
            one = parse_config(json.dumps({**doc, "tomography": {"settings": [setting]}}))
            block = cycle.setting_instrument(one.tomography.settings, one.model, one.tunnel, one.detection_c)
            lone.append(float(block.pulse_probabilities(one.gate_state.density())[0]).hex())
        assert [[p.hex() for p in row] for row in drawn] == [lone]

    @pytest.mark.parametrize("command, section, builds", [
        ("sweep", {"experiment": {"mode": "refresh"}}, False),
        ("tomography", {"tomography": {"noise": "none"}}, False),
        ("tomography", {"tomography": {"noise": "shot"}}, False),
        ("calibrate", {}, False),
        ("sweep", {"experiment": {"mode": "propagate", "n_cycles": 10}}, True),
        ("cycle", {}, True),
    ])
    def test_only_chain_and_cycle_build_transfer_matrices(self, tmp_path, monkeypatch, capsys,
                                                          command, section, builds):
        # the other commands read Pr off the pulse effect alone
        import spinturnstile.cycle
        import spinturnstile.experiment

        calls = []

        def refuse(block):
            calls.append(command)
            raise RuntimeError("transfer matrices built")

        for module in (spinturnstile.cycle, spinturnstile.experiment):
            monkeypatch.setattr(module, "transfer_matrices", refuse)
        code, _ = run_cli(tmp_path, command, {**FULL, **section})
        assert (code, len(calls)) == ((EXIT_INTERNAL, 1) if builds else (EXIT_OK, 0))
        assert ("transfer matrices built" in capsys.readouterr().err) == builds

    @pytest.mark.parametrize("mode", ["single_spin", "two_spin"])
    def test_tiny_gamma0_tomography_is_finite(self, tmp_path, mode):
        # kappa ~ 2e-310: the design's singular values are subnormal, so the
        # design carries no information instead of an overflowing inverse
        from spinturnstile.tomography import RankDeficientWarning

        cfg = {"tunnel": {"gamma0_per_s": 1e-300}, "tomography": {"mode": mode, "noise": "shot"}}
        with pytest.warns(RankDeficientWarning):
            code, out = run_cli(tmp_path, "tomography", cfg)
        assert code == EXIT_OK
        text = out.read_text()
        assert "nan" not in text
        assert "# rank = 0" in text.splitlines()

    @pytest.mark.parametrize("command", ["cycle", "tomography"])
    def test_lost_phase_precision_exit_3(self, tmp_path, command):
        code, _ = run_cli(tmp_path, command, {"schedule": {"t_interact_s": 1e300}})
        assert code == EXIT_VALIDATION

    def test_lost_phase_precision_marks_sweep_rows(self, tmp_path):
        code, out = run_cli(tmp_path, "sweep", {"schedule": {"t_interact_s": 1e300}})
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 3
        assert all(r["status"].startswith("error: propagator phase") for r in rows)

    def test_overflowing_hamiltonian(self, tmp_path, capsys):
        # g mu_B B overflows float64, or every entry is finite but the norm
        # (-3 J) is not: rates and cycle exit 3, and each sweep row becomes
        # an error row instead of failing the whole sweep. The error names
        # the overflow, so no HierarchyWarning repeats it.
        overflow = "the model Hamiltonian overflows float64"
        for cfg in ({"model": {"g_electron": 1e300, "b_field_tesla": [0, 0, 1e300]}},
                    {"model": {"exchange_per_s": 6e307}}):
            with warnings.catch_warnings():
                warnings.simplefilter("error", HierarchyWarning)
                for command in ("rates", "cycle"):
                    assert run_cli(tmp_path, command, cfg)[0] == EXIT_VALIDATION
                    assert capsys.readouterr().err == f"error: {overflow}\n"
                code, out = run_cli(tmp_path, "sweep", cfg)
            assert code == EXIT_OK
            rows = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
            assert len(rows) == 3 and all(r["status"] == f"error: {overflow}" for r in rows)

    @pytest.mark.parametrize("threshold, warned", [(100.0, False), (1e9, True)])
    @pytest.mark.parametrize("command", ["cycle", "sweep"])
    def test_hierarchy_threshold_reaches_cycle_and_sweep(self, tmp_path, command, threshold, warned):
        # the default device passes the default threshold of 100 but not 1e9
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"hierarchy_threshold": threshold}))
        proc = subprocess.run(
            [sys.executable, "-m", "spinturnstile", command, "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=120, env=package_env(),
        )
        assert proc.returncode == 0
        assert ("HierarchyWarning" in proc.stderr) == warned

    def test_metadata_embeds_digest_and_seed(self, tmp_path):
        code, out = run_cli(tmp_path, "rates", FULL, fmt="jsonl", seed=31337)
        meta = json.loads(out.read_text().splitlines()[0])["metadata"]
        raw = (tmp_path / "cfg.json").read_bytes()
        assert meta["config_sha256"] == config_digest(raw)
        assert meta["seed"] == 31337
        assert meta["resolved_config"]["experiment"]["seed"] == 31337

    def test_stdin_config(self, tmp_path, monkeypatch):
        out_path = tmp_path / "out.csv"

        class FakeStdin:
            buffer = io.BytesIO(json.dumps(FULL).encode())

        monkeypatch.setattr(sys, "stdin", FakeStdin)
        assert main(["rates", "--config", "-", "--out", str(out_path)]) == EXIT_OK
        assert out_path.exists()

    def test_subcommands_are_the_command_table(self, capsys):
        parser = build_parser()
        (command,) = [a for a in parser._actions if a.dest == "command"]
        assert list(command.choices) == list(COMMANDS)
        # --help lists each command with its help text, in the table's order
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        listing = capsys.readouterr().out
        lines = [re.search(rf"^ +{name} +{re.escape(text)}$", listing, re.M)
                 for name, (_, text) in COMMANDS.items()]
        assert all(lines) and sorted(m.start() for m in lines) == [m.start() for m in lines]
        # every command takes the four options after its name
        for name in COMMANDS:
            args = parser.parse_args([name, "--config", "c.json", "--out", "o.jsonl",
                                      "--format", "jsonl", "--seed", "7"])
            assert vars(args) == {"command": name, "config": "c.json", "out": "o.jsonl",
                                  "format": "jsonl", "seed": 7}
        cfg = parse_config(MINIMAL)
        assert execute("rates", cfg, "0" * 64).metadata["command"] == "rates"
        with pytest.raises(ValueError, match="unknown command 'bogus'"):
            execute("bogus", cfg, "0" * 64)

    def test_overflowing_sweep_row_reports_overflow(self, tmp_path):
        # one setting whose couplings overflow float64 beside a normal one:
        # the first row names the overflow as `rates` does, the second is
        # unchanged, and no numpy warning, ratio or HierarchyWarning reaches
        # stderr
        huge = {key: 1e308 for key in ("exchange_per_s", "hyperfine_gate_per_s",
                                       "hyperfine_ancilla_per_s")}

        def sweep(settings):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"sweep": {"settings": settings}}))
            proc = subprocess.run(
                [sys.executable, "-m", "spinturnstile", "sweep", "--config", str(cfg_path)],
                capture_output=True, text=True, timeout=120, env=package_env(),
            )
            assert proc.returncode == EXIT_OK
            return [l for l in proc.stdout.splitlines() if not l.startswith("#")], proc.stderr

        rows, err = sweep([{"model": huge}, {}])
        # the same block size, so the same batched arithmetic for row 1
        reference, _ = sweep([{"t_interact_s": 2e-6}, {}])
        assert rows[1].endswith(",error: the model Hamiltonian overflows float64")
        assert rows[2] == reference[2]
        # the row's error names the overflow, so stderr stays empty
        assert err == ""

    def test_overrides_differing_in_level_offset_share_a_propagator(self, tmp_path, monkeypatch):
        # the offset is a global phase, so two overrides that differ in it
        # alone have one Hamiltonian: one propagator row and bit-equal pr
        rows = []

        def recording(h, t):
            rows.append(len(h))
            return evolve_unitaries(h, t)

        monkeypatch.setattr(cycle, "evolve_unitaries", recording)
        settings = [{"model": {"level_offset_per_s": offset}} for offset in (1.0, 2.0)]
        code, out = run_cli(tmp_path, "sweep", {"sweep": {"settings": settings}})
        assert code == EXIT_OK
        table = list(csv.DictReader(l for l in out.read_text().splitlines() if not l.startswith("#")))
        assert [r["status"] for r in table] == ["ok", "ok"]
        assert table[0]["pr"] == table[1]["pr"]
        assert rows == [1]

    def test_console_entrypoint_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FULL))
        proc = subprocess.run(
            [sys.executable, "-m", "spinturnstile", "rates", "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=120, env=package_env(),
        )
        assert proc.returncode == 0
        assert "tau_res_s" in proc.stdout

    def test_rank_deficient_tomography_emits_valid_jsonl(self, tmp_path):
        cfg = {
            "tomography": {
                "mode": "single_spin", "noise": "none",
                "settings": [{"t_interact_s": 0.0, "u_right": {"direction": ax}} for ax in "xyz"],
            },
        }
        from spinturnstile.tomography import RankDeficientWarning

        with pytest.warns(RankDeficientWarning):
            code, out = run_cli(tmp_path, "tomography", cfg, fmt="jsonl")
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["metadata"]  # must parse: no bare inf/nan
        assert meta["rank"] == 0
        assert meta["condition_number"] == "inf"  # a non-finite float is its CSV text
        assert not meta["identifiable"]
        for line in lines[1:]:
            json.loads(line)

    @pytest.mark.parametrize("mode, settings, identified", [
        # both leads along z: only ZI reaches the pulse probability
        ("single_spin", [{"u_left": {"direction": "z"}, "u_right": {"direction": "z"}}], {"ZI"}),
        # the default three settings: rank 3 of 15
        ("two_spin", None, set()),
    ])
    def test_unidentified_parameters_have_no_std_pred(self, tmp_path, mode, settings, identified):
        tomo = {"mode": mode, "noise": "shot"}
        if settings is not None:
            tomo["settings"] = settings
        from spinturnstile.tomography import RankDeficientWarning

        with pytest.warns(RankDeficientWarning):
            code, out = run_cli(tmp_path, "tomography", {"tomography": tomo})
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert {r["parameter"] for r in rows if r["std_pred"] != ""} == identified
        for r in rows:
            if r["parameter"] in identified:
                assert 0.0 < float(r["std_pred"]) < 1.0

    def test_tomography_noiseless_recovers_state(self, tmp_path):
        cfg = dict(FULL)
        cfg["gate_state"] = {"theta_single_spin": [0.2, -0.3, 0.4]}
        cfg["tomography"] = {"mode": "single_spin", "noise": "none"}
        code, out = run_cli(tmp_path, "tomography", cfg, fmt="jsonl")
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])["metadata"]
        rows = [json.loads(l) for l in lines[1:]]
        assert meta["rank"] == 3
        for row in rows:
            assert row["abs_error"] < 1e-8


def refresh_sweep(n):
    """A refresh sweep of n settings that share no interaction time."""
    return {"sweep": {"settings": [{"t_interact_s": 1e-7 * (k + 1)} for k in range(n)]},
            "experiment": {"n_cycles": 1000, "mode": "refresh"}}


class TestGcPause:
    """``main`` runs with the cyclic garbage collector paused and gives the
    caller back the state it had, on every way out."""

    def raise_internal(self, *args):
        raise RuntimeError("boom")

    # case -> (configuration text, None for a missing file; command line,
    # with {cfg} and {out} for the paths; exit code; whether argparse exits)
    CASES = {
        "ok": ("{}", "rates --config {cfg} --out {out}", EXIT_OK, False),
        "internal": ("{}", "rates --config {cfg} --out {out}", EXIT_INTERNAL, False),
        "syntax": ("{not json", "rates --config {cfg}", EXIT_PARSE, False),
        "validation": ('{"experiment": {"n_cycles": 0}}', "rates --config {cfg}", EXIT_VALIDATION, False),
        "io": (None, "rates --config {cfg}", EXIT_IO, False),
        "help": ("{}", "--help", 0, True),
        "unknown command": ("{}", "bogus --config {cfg}", 2, True),
        "missing config": ("{}", "rates", 2, True),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", list(CASES))
    def test_caller_state_restored(self, tmp_path, monkeypatch, capsys, case, enabled):
        text, line, expected, exits = self.CASES[case]
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        argv = [word.format(cfg=cfg_path, out=tmp_path / "out.csv") for word in line.split()]
        if case == "internal":
            monkeypatch.setattr(spinturnstile.cli, "execute", self.raise_internal)
        # the collector's state while the parser is built, inside the pause
        inside, build = [], spinturnstile.cli.build_parser
        monkeypatch.setattr(spinturnstile.cli, "build_parser",
                            lambda: inside.append(gc.isenabled()) or build())
        (gc.enable if enabled else gc.disable)()
        try:
            if exits:
                with pytest.raises(SystemExit) as exited:
                    main(argv)
                code = exited.value.code
            else:
                code = main(argv)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert (code, inside, after) == (expected, [False], enabled)
        if case == "internal":
            assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_no_collection_inside_a_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(refresh_sweep(200)))
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(record)
        try:
            code = main(argv)
        finally:
            gc.callbacks.remove(record)
        assert (code, started) == (EXIT_OK, [])

    def test_garbage_does_not_grow_with_the_grid(self, tmp_path):
        # a run leaves the collector the same objects for 10 rows as for
        # 200, so pausing it cannot hold memory that grows with the grid;
        # the collector stays off until the count, or the first allocation
        # after a long run would collect them
        def garbage(n):
            gc.collect()
            gc.disable()
            try:
                code, _ = run_cli(tmp_path, "sweep", refresh_sweep(n), tag=str(n))
                return code, gc.collect()
            finally:
                gc.enable()

        garbage(3)  # what only a first run leaves
        assert garbage(10) == garbage(200) == (EXIT_OK, garbage(10)[1])
