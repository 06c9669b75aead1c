"""Property-based checks of the transfer-matrix instrument over random
settings, of calibration against the pulse-probability formula, of the
tomography parameterization over random vectors, of the configuration's
resolved form over random documents, of the time-scale hierarchy over
random norms and tunnels, of the output writers, the setting seeds, the
stacked time scales, the model coefficients and the stacked settings parse
against their oracles, of the command line's exits on hostile documents, and
of every command's output under any finite level offset."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinturnstile.algebra import pauli_coordinates
from spinturnstile.cli import COMMANDS, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from spinturnstile.config import (
    ConfigValidationError,
    _lead_norms,
    lead_vectors,
    parse_config,
    resolved_json,
)
from spinturnstile.constants import G_NUCLEAR_P31, STRUCTURAL_TOL
from spinturnstile import cycle
from spinturnstile.cycle import (
    BLOCK_ROWS,
    HierarchyWarning,
    MeasurementSetting,
    setting_instrument,
    setting_instruments,
    transfer_matrices,
)
from spinturnstile.experiment import (
    RUN_BLOCK,
    ShotRecord,
    _seed_states,
    _uint32_words,
    calibrate,
    derive_setting_seed,
    derive_setting_seeds,
    propagate_cycles,
    sample_counts,
    sample_cycles,
)
from spinturnstile.model import (
    SpinModelParams,
    TunnelParams,
    _OVERFLOW_ERROR,
    _norm_bracket,
    _time_scales,
    _unsettled_norms,
    build_total_hamiltonian,
    hierarchy_norms,
    model_coefficients,
    model_values,
)
from spinturnstile.results import JsonText, ResultTable, _time_texts, render_csv, render_jsonl
from spinturnstile.tomography import (
    SINGLE_SPIN,
    TWO_SPIN,
    build_design,
    density_to_theta,
    forward_probabilities,
    is_physical,
    project_physical,
    theta_to_density,
)

from oracles import (
    choi_from_transfer,
    detection_probability,
    hierarchy_report,
    induced_instrument,
    json_scalar,
    kraus_instrument,
    liouville_matrix,
    model_coefficients_by_model,
    pauli_product_basis,
    random_density,
    random_hermitian,
    reference_config,
    reference_lead_norm,
    render_csv_by_writer,
    resolved_dict,
    setting_seed,
    spin_hamiltonian,
    stepwise_chain,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

unit_interval = st.floats(0.0, 1.0, allow_nan=False)
polarizations = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), unit_interval,
).map(lambda v: v[3] * np.array(v[:3]) / max(np.linalg.norm(v[:3]), 1e-12))
readout_cycles = st.fixed_dictionaries({
    "u_left": polarizations,
    "u_right": polarizations,
    "h_seed": st.integers(0, 2**32 - 1),
    "t": st.floats(0.0, 5.0, allow_nan=False),
    "kappa": unit_interval,
})


def build(cycle):
    h = random_hermitian(np.random.default_rng(cycle["h_seed"]), 8)
    # kappa = 2 c tau_detect t_sq with tau_detect = t_sq = 1
    return induced_instrument(cycle["u_left"], cycle["u_right"], h, cycle["t"],
                              0.5 * cycle["kappa"], 1.0, 1.0)


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_completeness(cycle):
    pulse, nopulse, _ = transfer_matrices(build(cycle))
    assert np.abs(pulse[0, 0] + nopulse[0, 0] - np.eye(16)[0]).max() < 1e-12


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_complete_positivity(cycle):
    pulse, nopulse, _ = transfer_matrices(build(cycle))
    for transfer in (pulse[0], nopulse[0]):
        choi = choi_from_transfer(transfer)
        assert np.abs(choi - choi.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(choi).min() > -1e-10


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_pulse_row_is_detection_formula(cycle):
    # Pr = kappa/2 (1 + u_right . u_ancilla), with u_ancilla = ancilla_bloch @ x
    pulse, _, ancilla_bloch = transfer_matrices(build(cycle))
    expected = 0.5 * cycle["kappa"] * (np.eye(16)[0] + cycle["u_right"] @ ancilla_bloch[0])
    assert np.abs(pulse[0, 0] - expected).max() < 1e-12


unit_directions = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: np.array(v) / np.linalg.norm(v))
block_rows = st.fixed_dictionaries({
    # random leads, or antiparallel unit leads (no pulse whatever the state)
    "leads": st.tuples(polarizations, polarizations) | unit_directions.map(lambda u: (u, -u)),
    "couplings": st.tuples(*[st.floats(-2e6, 2e6)] * 3),
    "b_field": st.tuples(*[st.floats(-1e-5, 1e-5)] * 3),
    "t": st.just(0.0) | st.floats(0.0, 1e-6),
})


@PROPERTY_SETTINGS
@given(st.lists(block_rows, min_size=1, max_size=BLOCK_ROWS + 1),
       st.just(1.0) | unit_interval, st.booleans(), st.integers(0, 2**32 - 1))
def test_block_matches_the_kraus_route(rows, kappa, include, seed):
    # the block's effects and its lazily built transfer matrices against
    # Kraus operators by double eigendecomposition and their Liouville matrices
    settings_ = [
        MeasurementSetting(row["leads"][0], row["leads"][1], row["t"], model=SpinModelParams(
            b_field=row["b_field"], g_ancilla=2.0, exchange=row["couplings"][0],
            hyperfine_gate=row["couplings"][1], hyperfine_ancilla=row["couplings"][2]))
        for row in rows
    ]
    tunnel = TunnelParams()  # kappa = 2 c tau_detect gamma0 with tau_detect * gamma0 = 0.1
    blocks = list(setting_instruments(settings_, SpinModelParams(), tunnel, 5.0 * kappa, include))
    rho = random_density(np.random.default_rng(seed), 4)
    x = pauli_coordinates(rho)
    e0 = np.eye(16)[0]
    for block in blocks:
        probabilities = block.pulse_probabilities(rho)
        maps = transfer_matrices(block)
        for k, s in enumerate(settings_[block.start:block.start + len(block.errors)]):
            assert block.errors[k] is None
            w, v = np.linalg.eigh(spin_hamiltonian(s.model, include))
            u = (v * np.exp(-1j * w * s.t_interact)) @ v.conj().T
            kraus_p, kraus_n = kraus_instrument(s.u_left, s.u_right, u, kappa)
            pulse = liouville_matrix(kraus_p)
            assert np.abs(block.effects[k] - pulse[0]).max() < 1e-14
            assert np.abs(maps[0][k] - pulse).max() < 1e-14
            assert np.abs(maps[1][k] - liouville_matrix(kraus_n)).max() < 1e-14
            # a unit pulse effect E along axis a has tr(E P_j) / 4 = (e0 + ancilla_bloch[a]) / 2
            for a, axis in enumerate(np.eye(3)):
                effect = sum(kr.conj().T @ kr for kr in kraus_instrument(s.u_left, axis, u, 1.0)[0])
                half = 0.25 * np.array([np.trace(effect @ p).real for p in pauli_product_basis()])
                assert np.abs(maps[2][k, a] - (2.0 * half - e0)).max() < 1e-14
            pr = sum(np.trace(kr @ rho @ kr.conj().T).real for kr in kraus_p)
            assert abs(probabilities[k] - min(max(pr, 0.0), 1.0)) < 1e-14
            assert abs(block.effects[k] @ x - pr) < 1e-14


@PROPERTY_SETTINGS
@given(block_rows, st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.integers(0, 2**32 - 1),
       unit_directions, unit_interval, unit_interval)
def test_pulse_probability_is_proportional_to_c(row, c, c_other, seed, direction, mag_l, mag_r):
    # kappa = 2 c tau_detect gamma0 = c here, and every pulse map is
    # proportional to kappa, so calibrate reads c off a ratio of probabilities
    tunnel = TunnelParams(gamma0=0.5, tau_detect=1.0, tau_cycle=1.0)
    model = SpinModelParams(b_field=row["b_field"], g_ancilla=2.0, exchange=row["couplings"][0],
                            hyperfine_gate=row["couplings"][1], hyperfine_ancilla=row["couplings"][2])
    rho = random_density(np.random.default_rng(seed), 4)

    def pr(setting, c_):
        return setting_instrument(setting, model, tunnel, c_).pulse_probabilities(rho)[0]

    setting = MeasurementSetting(row["leads"][0], row["leads"][1], row["t"])
    pr_c, pr_other = pr(setting, c), pr(setting, c_other)
    assert abs(pr_other - (c_other / c) * pr_c) <= 1e-12 * c_other
    if pr_c >= 1e-3 * c:
        assert abs(calibrate(pr_other, pr_c, c) - c_other) <= 1e-12 * c_other
    # the calibration geometry: parallel leads, interaction off
    u_left, u_right = mag_l * direction, mag_r * direction
    want = detection_probability(u_left, u_right, c_other, tunnel.tau_detect, tunnel.gamma0)
    assert abs(pr(MeasurementSetting(u_left, u_right, 0.0), c_other) - want) <= 1e-12 * c_other


@PROPERTY_SETTINGS
@given(readout_cycles, st.integers(0, 2**32 - 1))
def test_chain_state_stays_physical(cycle, seed):
    rho0 = random_density(np.random.default_rng(seed), 4)
    pulse, nopulse, _ = transfer_matrices(build(cycle))
    rec = propagate_cycles(pulse[0], nopulse[0], rho0, 50, seed=seed)
    rho = rec.rho_final
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-9


@PROPERTY_SETTINGS
@given(readout_cycles, st.integers(1, 3 * RUN_BLOCK + 5), st.integers(0, 2**32 - 1))
def test_chain_matches_stepwise_rule(cycle, n, seed):
    pulse, nopulse, _ = transfer_matrices(build(cycle))
    rho0 = random_density(np.random.default_rng(seed), 4)
    maps = pulse[0], nopulse[0]
    rec = propagate_cycles(*maps, rho0, n, seed=seed)
    outcomes, probs, rho_final, resets = stepwise_chain(*maps, rho0, np.random.default_rng(seed).random(n))
    assert np.array_equal(rec.outcomes, outcomes)
    assert np.abs(rec.probs - probs).max() < 1e-12
    assert np.abs(rec.rho_final - rho_final).max() < 1e-10
    assert rec.resets == resets == 0


def assert_count_only_is_the_chain_count(maps, rho0, n, seed):
    """The count-only chain's record is the full chain's ``shots``, and its
    count that of the per-cycle rule on the same uniforms."""
    shots = propagate_cycles(*maps, rho0, n, seed, count_only=True)
    outcomes, _, _, _ = stepwise_chain(*maps, rho0, np.random.default_rng(seed).random(n))
    assert type(shots) is ShotRecord
    assert shots == propagate_cycles(*maps, rho0, n, seed).shots
    assert shots.n_pulses == int(outcomes.sum())
    return shots


@PROPERTY_SETTINGS
@given(readout_cycles, st.integers(1, 3 * RUN_BLOCK + 5), st.integers(0, 2**32 - 1))
def test_count_only_chain_is_the_chain_count(cycle, n, seed):
    pulse, nopulse, _ = transfer_matrices(build(cycle))
    rho0 = random_density(np.random.default_rng(seed), 4)
    assert_count_only_is_the_chain_count((pulse[0], nopulse[0]), rho0, n, seed)


def test_long_low_probability_count_only_chain():
    # at c = 0.01 the default z probe pulses in under 1% of cycles, so nearly
    # every block of the 2e5 cycles runs whole
    cfg = parse_config({"detection": {"c": 0.01}})
    (block,) = setting_instruments(cfg.sweep_settings, cfg.model, cfg.tunnel, cfg.detection_c,
                                   cfg.include_gate_hamiltonian)
    pulse, nopulse, _ = transfer_matrices(block)
    shots = assert_count_only_is_the_chain_count((pulse[2], nopulse[2]), cfg.gate_state.density(), 200_000,
                                                 seed=29)
    assert 0 < shots.pr_hat < 0.01


DESIGN_MODEL = SpinModelParams(b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31,
                               hyperfine_gate=2.0e6, hyperfine_ancilla=1.1e6, exchange=7.0e5)
measurement_settings = st.builds(
    MeasurementSetting, u_left=polarizations, u_right=polarizations,
    t_interact=st.floats(0.0, 2e-5, allow_nan=False),
)


@PROPERTY_SETTINGS
@given(st.lists(measurement_settings, min_size=1, max_size=4), unit_interval,
       polarizations, polarizations, st.integers(0, 2**32 - 1), unit_interval)
def test_design_is_affine_in_the_state(settings_, kappa, pol_a, pol_b, seed, lam):
    # kappa = 2 c tau_detect gamma0 with the default tau_detect * gamma0 = 0.1
    rng = np.random.default_rng(seed)
    states = {
        SINGLE_SPIN: [theta_to_density(p, SINGLE_SPIN) for p in (pol_a, pol_b)],
        TWO_SPIN: [random_density(rng, 4) for _ in range(2)],
    }
    for mode, (rho_a, rho_b) in states.items():
        design = build_design(settings_, DESIGN_MODEL, TunnelParams(), 5.0 * kappa, mode=mode)

        def probabilities(rho):
            exact = design.pulse_rows @ pauli_coordinates(rho)
            affine = forward_probabilities(design, density_to_theta(rho, mode))
            assert np.abs(affine - exact).max() < 1e-12
            return exact

        mixed = probabilities(lam * rho_a + (1.0 - lam) * rho_b)
        expected = lam * probabilities(rho_a) + (1.0 - lam) * probabilities(rho_b)
        assert np.abs(mixed - expected).max() < 1e-12


@PROPERTY_SETTINGS
@given(st.tuples(*3 * [st.floats(-2.0, 2.0)]).map(np.array))
def test_single_spin_is_two_spin_with_zero_padding(theta):
    padded = np.concatenate([theta, np.zeros(12)])
    assert np.array_equal(theta_to_density(theta, SINGLE_SPIN), theta_to_density(padded, TWO_SPIN))
    single, double = project_physical(theta, SINGLE_SPIN), project_physical(padded, TWO_SPIN)
    assert np.abs(single - double[:3]).max() <= 1e-12
    assert np.abs(double[3:]).max() <= 1e-12
    # the single-spin state is physical exactly when |theta| <= 1
    norm = np.linalg.norm(theta)
    if abs(norm - 1.0) > 1e-9:
        assert is_physical(theta, SINGLE_SPIN) == is_physical(padded, TWO_SPIN) == (norm < 1.0)


def with_edges(edges, strategy):
    """``strategy``, plus the listed edge values drawn as often as the rest."""
    return st.one_of(st.sampled_from(edges), strategy)


finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = finite | st.integers(-10**6, 10**6)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
model_blocks = st.fixed_dictionaries({}, optional={
    "b_field_tesla": st.lists(numbers, min_size=3, max_size=3),
    "g_electron": numbers,
    "g_nuclear": numbers,
    "g_ancilla": numbers,
    "hyperfine_gate_per_s": numbers,
    "hyperfine_ancilla_per_s": numbers,
    "hopping_per_s": numbers,
    "coulomb_u_per_s": st.floats(min_value=0.0, allow_infinity=False),
    "exchange_per_s": st.none() | numbers,
    "level_offset_per_s": numbers,
})
# Lead directions as axis names or vectors: components whose squares under-
# or overflow, on both sides of the 2**500 bound from which a lead's squares
# can overflow, and signed zeros; any norm stays finite and nonzero.
direction_components = with_edges([-0.0, 0.0, 5e-324, 1e-300, 1e200, 2.0**500, -2.0**500,
                                   math.nextafter(2.0**500, 0.0)], st.floats(-1e300, 1e300))
lead_blocks = st.fixed_dictionaries({}, optional={
    "direction": st.sampled_from(["x", "y", "z"])
                 | st.lists(direction_components, min_size=3, max_size=3).filter(any),
    "magnitude": with_edges([0.0, -0.0, 1.0], st.floats(0.0, 1.0)),
})
interaction_times = with_edges([0.0, -0.0, 5e-324, 1e200], st.floats(0.0, 1e-3))
setting_lists = st.lists(st.fixed_dictionaries({}, optional={
    "u_left": lead_blocks,
    "u_right": lead_blocks,
    "t_interact_s": interaction_times,
    "model": model_blocks,
}), min_size=1, max_size=3)
config_documents = st.fixed_dictionaries({}, optional={
    "model": model_blocks,
    "schedule": st.fixed_dictionaries({}, optional={"t_interact_s": interaction_times}),
    "leads": st.fixed_dictionaries({}, optional={"u_left": lead_blocks, "u_right": lead_blocks}),
    "tunnel": st.fixed_dictionaries({}, optional={
        "gamma0_per_s": positive,
        "interdot_sq_per_s": st.floats(min_value=0.0, allow_infinity=False),
        "detuning_per_s": finite,
        "tau_detect_s": positive,
        "tau_cycle_s": positive,
    }),
    "experiment": st.fixed_dictionaries({}, optional={
        "n_cycles": st.integers(1, 2**63 - 1),
        "seed": st.integers(0, 2**63 - 1),
        "mode": st.sampled_from(["refresh", "propagate"]),
    }),
    "sweep": st.fixed_dictionaries({"settings": setting_lists}),
    "tomography": st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["single_spin", "two_spin"]),
        "noise": st.sampled_from(["none", "shot"]),
        "settings": setting_lists,
    }),
})
DEFAULT_MODEL = json.loads(resolved_json(parse_config("{}")))["model"]


def exchange_derivable(model: dict) -> bool:
    # A null exchange is derived from hopping, which needs a positive coulomb_u.
    return not (model["exchange_per_s"] is None and model["hopping_per_s"] != 0
                and model["coulomb_u_per_s"] <= 0)


def given_settings(doc: dict) -> list:
    return [*doc.get("sweep", {}).get("settings", []),
            *doc.get("tomography", {}).get("settings", [])]


def parsed_document(doc: dict):
    """The configuration parsed from ``doc``'s JSON text. A document with a
    model whose exchange cannot be derived is skipped."""
    run_model = {**DEFAULT_MODEL, **doc.get("model", {})}
    overrides = [s.get("model", {}) for s in given_settings(doc)]
    assume(all(exchange_derivable({**run_model, **o}) for o in [{}, *overrides]))
    return parse_config(json.dumps(doc))


@PROPERTY_SETTINGS
@given(config_documents)
def test_resolved_config_parses_to_the_same_config(doc):
    cfg = parsed_document(doc)
    text = resolved_json(cfg)
    assert parse_config(text) == cfg
    resolved = json.loads(text)
    for section in ("model", "tunnel", "experiment"):
        for key, value in doc.get(section, {}).items():
            assert resolved[section][key] == value
    pairs = [pair for grid in ("sweep", "tomography")
             for pair in zip(doc.get(grid, {}).get("settings", []), resolved[grid]["settings"])]
    for given_setting, setting in pairs:
        assert ("model" in setting) == ("model" in given_setting)
        override = given_setting.get("model", {})
        for key, value in setting.get("model", {}).items():
            assert value == override.get(key, resolved["model"][key])
        if "t_interact_s" in given_setting:
            assert setting["t_interact_s"] == given_setting["t_interact_s"]


# the largest component whose squares cannot overflow their sum, the
# smallest that can, and the smallest whose square overflows by itself
SQUARES_BOUNDS = [math.nextafter(2.0**500, 0.0), 2.0**500, -2.0**500, 2.0**512]


@PROPERTY_SETTINGS
@given(st.tuples(*[with_edges([0.0, -0.0, 5e-324, 1e-170, 1e154, 1e200, 1.7e308,
                               *SQUARES_BOUNDS], finite)] * 3))
def test_lead_norm_keeps_the_dot_product_bits(direction):
    # A direction whose x.dot(x) neither under- nor overflows keeps the norm
    # of that route, bit for bit: a plain sum of squares differs on about
    # one vector in ten. No finite direction lets a RuntimeWarning escape,
    # whether its squares overflow or not.
    with np.errstate(over="ignore"):
        expected = float(np.linalg.norm(direction))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = float(_lead_norms(np.array([direction]))[0])
    if 0.0 < expected < math.inf:
        assert norm.hex() == expected.hex()
    elif not any(direction):
        assert norm == 0.0  # the norm the configuration rejects


@PROPERTY_SETTINGS
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.integers(-1070, 1020))
def test_lead_direction_scale_does_not_matter(direction, exponent):
    # exact scaling by 2**exponent, but for components that become subnormal;
    # the squares under- or overflow for most exponents
    assume(max(abs(x) for x in direction) >= 0.5)
    scaled = tuple(math.ldexp(x, exponent) for x in direction)
    assert np.allclose(lead_vectors([(scaled, 0.9)]), lead_vectors([(direction, 0.9)]),
                       rtol=0.0, atol=1e-15)


def test_lead_norms_guard_and_rescale_each_row():
    # one stack of a row whose squares overflow, a plain row, a row whose
    # squares underflow and a zero row: each row's norm is the one it gets alone
    rows = [(2.0**512, -(2.0**512), 1.0), (3.0, 4.0, 12.0), (1e-300, -1e-300, 1e-300), (0.0, -0.0, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _lead_norms(np.array(rows))
        with pytest.raises(ConfigValidationError,
                           match=r"^sweep\.settings\[3\]\.u_left\.direction: must be a nonzero vector$"):
            parse_config({"sweep": {"settings": [{"u_left": {"direction": list(r)}} for r in rows]}})
    assert [n.hex() for n in norms.tolist()] == [reference_lead_norm(r).hex() for r in rows]
    with np.errstate(over="ignore"):
        plain = [float(np.linalg.norm(r)) for r in rows]
    assert plain[0] == math.inf and norms[0] == 2.0**512 * math.sqrt(2.0)
    assert norms[1] == plain[1] == 13.0
    assert plain[2] == 0.0 and norms[2] == 1e-300 * math.sqrt(3.0)
    assert norms[3] == 0.0


# Faults of a setting row, as (path in the row, value): a wrong type or an
# unknown key, a magnitude outside [0, 1], a zero or infinite-norm
# direction, a negative, NaN or huge time; and a few valid edge values.
ROW_FAULTS = [
    (("bogus",), 1), (("u_left",), 3), (("u_right",), []), (("u_left", "bogus"), 0.5),
    (("u_right", "direction"), "w"), (("u_left", "direction"), [1.0, 0.0]),
    (("u_right", "direction"), [0.0, "a", 1.0]), (("u_left", "direction"), [math.nan, 0.0, 1.0]),
    (("u_left", "direction"), [0, 0, 0]), (("u_right", "direction"), [-0.0, 0.0, -0.0]),
    (("u_left", "direction"), [1.7e308, -1.7e308, 0.0]), (("u_right", "direction"), [5e-324, 0, 0]),
    (("u_left", "direction"), [-0.0, 5e-324, 1e-323]),
    (("u_left", "magnitude"), -0.5), (("u_right", "magnitude"), 1.5),
    (("u_left", "magnitude"), math.nextafter(1.0, 2.0)), (("u_right", "magnitude"), -5e-324),
    (("u_left", "magnitude"), "a"), (("u_right", "magnitude"), True), (("u_left", "magnitude"), math.inf),
    (("u_right", "magnitude"), -0.0), (("t_interact_s",), -1e-9), (("t_interact_s",), -5e-324),
    (("t_interact_s",), math.nan), (("t_interact_s",), 10**400), (("t_interact_s",), 1e300),
    (("t_interact_s",), None), (("model",), "m"), (("model", "coulomb_u_per_s"), -1.0),
    (("model", "bogus_per_s"), 1.0), (("model", "hyperfine_gate_per_s"), "2e6"),
    (("model", "g_electron"), True), (("model", "hopping_per_s"), math.nan),
    (("model", "level_offset_per_s"), 10**400), (("model", "b_field_tesla"), [0.0, 0.01]),
    (("model", "b_field_tesla"), [0.0, "a", 0.01]),
    (("model",), {"exchange_per_s": None, "hopping_per_s": 1.0e6, "coulomb_u_per_s": 0}),
    (("model", "exchange_per_s"), 900_000), (("model", "b_field_tesla"), [0, -1, 2]),
    (("model", "coulomb_u_per_s"), 0),
]
# the run's own setting takes lead faults only, and the run's model section
# the model faults
LEAD_FAULTS = [fault for fault in ROW_FAULTS if fault[0][0] in ("u_left", "u_right")]
MODEL_FAULTS = [fault for fault in ROW_FAULTS if fault[0][0] == "model"]
# Faults of the tunnel section, which the run's model section precedes.
TUNNEL_FAULTS = [(("tunnel", "gamma0_per_s"), 0.0), (("tunnel", "tau_detect_s"), "a"),
                 (("tunnel", "bogus"), 1.0), (("tunnel",), [])]


def apply_fault(row: dict, fault) -> None:
    (*outer, key), value = fault
    for name in outer:
        row = row.setdefault(name, {})
        if not isinstance(row, dict):  # an earlier fault replaced the object
            return
    row[key] = dict(value) if isinstance(value, dict) else value  # a second fault may extend it


@st.composite
def faulty_documents(draw):
    """A configuration document with a fault at a random field of the run's
    model section, of the run's leads or of a random row of a settings
    array, and maybe a second one: in any of those, in the other lead or the
    same model of the same row, or, after a fault of the run's model, in its
    tunnel section."""
    doc = draw(config_documents)
    rows = [(doc, MODEL_FAULTS), (doc.setdefault("leads", {}), LEAD_FAULTS)] + [
        (row, ROW_FAULTS) for grid in ("sweep", "tomography") for row in doc.get(grid, {}).get("settings", [])]
    row, faults = draw(st.sampled_from(rows))
    fault = draw(st.sampled_from(faults))
    apply_fault(row, fault)
    second = draw(st.sampled_from(["none", "any row", "other lead", "same model", "tunnel"]))
    if second == "any row":
        other_row, other_faults = draw(st.sampled_from(rows))
        apply_fault(other_row, draw(st.sampled_from(other_faults)))
    elif second == "same model" and fault[0][0] == "model":
        apply_fault(row, draw(st.sampled_from(MODEL_FAULTS)))
    elif second == "tunnel" and row is doc:
        apply_fault(doc, draw(st.sampled_from(TUNNEL_FAULTS)))
    elif second == "other lead" and fault[0][0] in ("u_left", "u_right"):
        other = "u_right" if fault[0][0] == "u_left" else "u_left"
        apply_fault(row, draw(st.sampled_from([f for f in LEAD_FAULTS if f[0][0] == other])))
    return doc


def parsed_or_error(parse, text: str):
    try:
        return parse(text)
    except ConfigValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config_documents | faulty_documents())
# a bound before a later field's fault, in the run's model and in an override
@example({"model": {"level_offset_per_s": 10**400, "coulomb_u_per_s": -1.0}})
@example({"sweep": {"settings": [{"model": {"exchange_per_s": "a", "coulomb_u_per_s": -1.0}}]}})
# an override's fault and a later row's time fault, which has no override, in
# both orders; a lead's fault after its own row's override fault in document
# order; an unknown key after an earlier row's bad override number
@example({"sweep": {"settings": [{"model": {"coulomb_u_per_s": -1.0}}, {"t_interact_s": -1e-9}]}})
@example({"sweep": {"settings": [{"t_interact_s": -1e-9}, {"model": {"coulomb_u_per_s": -1.0}}]}})
@example({"tomography": {"settings": [{}, {"model": {"g_electron": "a"}, "u_left": {"magnitude": 1.5}}]}})
@example({"tomography": {"settings": [{}, {"model": {"hopping_per_s": math.nan}}, {"bogus": 1}]}})
def test_stacked_settings_match_the_row_by_row_parse(doc):
    # The stacked parse reports the first bad field in document order, as
    # the row-by-row parse does, a fault of the run's model before one of
    # its tunnel; a document both accept gives bit-identical leads, times
    # and models, the same run model, the same seeds and the same resolved text.
    text = json.dumps(doc)
    got, want = parsed_or_error(parse_config, text), parsed_or_error(reference_config, text)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert repr(got.model) == repr(want.model)
    grids = [(got.setting, [want.setting]), (got.sweep_settings, want.sweep_settings),
             (got.tomography.settings, want.tomography.settings)]
    for grid, rows in grids:
        assert len(grid.t_interact) == len(rows)
        for ul, ur, t, model, row in zip(grid.u_left, grid.u_right, grid.t_interact, grid.models, rows):
            assert [x.hex() for x in (*ul, *ur, t)] == [
                x.hex() for x in (*row.u_left.vector(), *row.u_right.vector(), row.t_interact)]
            assert repr(model) == repr(None if row.model is None else model_values(row.model))
        library = [MeasurementSetting(r.u_left.vector(), r.u_right.vector(), r.t_interact, r.model)
                   for r in rows]
        assert derive_setting_seeds(got.experiment.seed, grid) == derive_setting_seeds(
            got.experiment.seed, library)
    assert resolved_json(got) == json_scalar(resolved_dict(want))


# Values no schema field takes, as JSON text: wrong types, nests past the
# recursion limit, integers past the float range and past the digit limit,
# the non-finite literals json accepts, and bytes that are not UTF-8.
HOSTILE_VALUES = [
    b'"x"', b"[]", b"{}", b"true", b"null", b"-1", b"[1, 2]",
    b"[" * 5000 + b"]" * 5000, b'{"a":' * 3000 + b"0" + b"}" * 3000,
    b"9" * 400, b"-" + b"9" * 400, b"1" * 5000,
    b"NaN", b"Infinity", b"-Infinity",
    b'"\xff\xfe"', b"\xff",
]
_MUTANT = "@@mutant@@"


def document_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from document_paths(item, (*path, key))


@st.composite
def cli_documents(draw):
    """A configuration document's bytes, maybe with a hostile value at a
    random path (the root included)."""
    doc = draw(config_documents)
    experiment = doc.setdefault("experiment", {})
    # a propagate row costs time in proportion to its cycles
    experiment["n_cycles"] = min(experiment.get("n_cycles", 2000), 2000)
    path = draw(st.sampled_from([None, *document_paths(doc)]))
    if path is None:
        return json.dumps(doc).encode()
    mutant = draw(st.sampled_from(HOSTILE_VALUES))
    if not path:
        return mutant
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = _MUTANT
    return json.dumps(doc).encode().replace(json.dumps(_MUTANT).encode(), mutant)


def run_main(argv: list) -> tuple:
    """``cli.main(argv)``'s exit code, stderr text and warnings."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    return code, stderr.getvalue(), [(w.category, str(w.message)) for w in caught]


# a detection strength that overflows to inf, which every row reports
INFINITE_KAPPA = b'{"tunnel": {"gamma0_per_s": 4.45e210, "tau_detect_s": 1.0e98}}'
# the same rows in a propagate sweep, which has no chain to build maps for
INFINITE_KAPPA_CHAINS = INFINITE_KAPPA[:-1] + b', "experiment": {"mode": "propagate"}}'


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=cli_documents(), command=st.sampled_from(sorted(COMMANDS)), fmt=st.sampled_from(["csv", "jsonl"]))
@example(text=INFINITE_KAPPA, command="calibrate", fmt="csv")
@example(text=INFINITE_KAPPA, command="cycle", fmt="jsonl")
@example(text=INFINITE_KAPPA, command="sweep", fmt="csv")
@example(text=INFINITE_KAPPA_CHAINS, command="sweep", fmt="csv")
@example(text=INFINITE_KAPPA, command="tomography", fmt="jsonl")
# a choice field given an array or an object
@example(text=b'{"experiment": {"mode": []}}', command="sweep", fmt="csv")
@example(text=b'{"tomography": {"mode": {}}}', command="tomography", fmt="jsonl")
@example(text=b'{"tomography": {"noise": ["shot"]}}', command="tomography", fmt="csv")
@example(text=b'{"gate_state": {"preset": {"pure_up": 1}}}', command="cycle", fmt="jsonl")
def test_cli_exits_cleanly_and_reproducibly(text, command, fmt):
    # every document ends in a result, a syntax error or a validation error,
    # never in a traceback or a numpy RuntimeWarning, and twice in the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_bytes(text)
        runs = []
        for name in ("first", "second"):
            out = Path(tmp, name)
            code, err, caught = run_main([command, "--config", str(config), "--out", str(out),
                                          "--format", fmt])
            runs.append((code, err, caught, out.read_bytes() if out.exists() else None))
    code, err, caught, _ = runs[0]
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION), err
    assert "Traceback" not in err
    assert not [message for category, message in caught if issubclass(category, RuntimeWarning)]
    assert runs[0] == runs[1]


# Every command, a sweep in both modes; the propagate one with few cycles,
# since a chain's time grows with them.
OFFSET_RUNS = [("rates", {}), ("cycle", {}), ("sweep", {}), ("sweep", {"mode": "propagate", "n_cycles": 300}),
               ("calibrate", {}), ("tomography", {})]


def offset_run(command: str, experiment: dict, offset: float) -> tuple:
    """Exit code, stderr, warnings and stdout of ``command`` with the run
    model's level offset at ``offset``, the stdout without the
    ``config_sha256`` and ``resolved_config`` lines, which echo the offset."""
    doc = {"model": {"level_offset_per_s": offset}, "experiment": experiment}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps(doc))
        stdout = io.TextIOWrapper(io.BytesIO())
        with contextlib.redirect_stdout(stdout):
            code, err, caught = run_main([command, "--config", str(config)])
    lines = stdout.buffer.getvalue().splitlines(keepends=True)
    return code, err, caught, [l for l in lines if not l.startswith((b"# config_sha256 ", b"# resolved_config "))]


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(offset=st.floats(-1.7e308, 1.7e308))
@example(offset=1e13)
@example(offset=1e19)
@example(offset=1.7e308)
def test_level_offset_changes_no_output(offset):
    # a global phase: any finite offset of the run's model gives every
    # command the output of offset 0, the echo aside
    for command, experiment in OFFSET_RUNS:
        got = offset_run(command, experiment, offset)
        assert got[0] == EXIT_OK, got[1]
        assert got == offset_run(command, experiment, 0.0), command


@PROPERTY_SETTINGS
@given(
    # what hierarchy_norms can return: a finite norm, or NaN for an overflow
    norm=with_edges([0.0, 5e-324, 1.0, 1.7e308, math.nan], st.floats(0.0, 1.7e308)),
    gamma0=with_edges([5e-324, 1e-300, 1e9], st.floats(5e-324, 1e300)),
    interdot_sq=with_edges([0.0, 5e-324, 1e9], st.floats(0.0, 1e300)),
    detuning=with_edges([0.0, 1e12, 1e300], st.floats(-1e300, 1e300)),
    threshold=st.floats(0.0, 1e12),
)
def test_hierarchy_ratios_are_never_nan(norm, gamma0, interdot_sq, detuning, threshold):
    tunnel = TunnelParams(gamma0=gamma0, interdot_sq=interdot_sq, detuning=detuning)
    report = _time_scales(np.array([norm]), tunnel, threshold)
    ratio_dyn_res, ratio_non_dyn, satisfied = report.ratio_dyn_res[0], report.ratio_non_dyn[0], report.satisfied[0]
    # nan compares false, so this also rules it out
    assert ratio_dyn_res >= 0.0 and ratio_non_dyn >= 0.0
    assert satisfied == (ratio_dyn_res >= threshold and ratio_non_dyn >= threshold)


@PROPERTY_SETTINGS
@given(
    norms=st.lists(with_edges([0.0, 5e-324, 1.0, 1.7e308, math.nan], st.floats(0.0, 1.7e308)),
                   min_size=1, max_size=6),
    gamma0=with_edges([5e-324, 1e-300, 1e9], st.floats(5e-324, 1e300)),
    interdot_sq=with_edges([0.0, 5e-324, 1e9], st.floats(0.0, 1e300)),
    detuning=with_edges([-1e300, 0.0, 1e12, 1e300], st.floats(-1e300, 1e300)),
    threshold=with_edges([0.0, 1.0, 100.0], st.floats(0.0, 1e12)),
)
def test_stacked_time_scales_match_the_row_by_row_report(norms, gamma0, interdot_sq, detuning, threshold):
    # every field of every row bit for bit, and satisfied, as the oracle's
    # per-row Python floats give them; a numpy warning fails the test
    tunnel = TunnelParams(gamma0=gamma0, interdot_sq=interdot_sq, detuning=detuning)
    stacked = _time_scales(np.array(norms), tunnel, threshold)
    assert type(stacked.tau_res) is float and type(stacked.tau_non) is float
    for k, norm in enumerate(norms):
        expected = hierarchy_report(norm, tunnel, threshold)
        row = (stacked.tau_res, stacked.tau_dyn[k], stacked.tau_non,
               stacked.ratio_dyn_res[k], stacked.ratio_non_dyn[k])
        assert [float(v).hex() for v in row] == [v.hex() for v in expected[:5]]
        assert bool(stacked.satisfied[k]) is expected.satisfied


# leads and times, valid or not: NaN, infinities, negative and overlong
# values drawn about as often as valid ones
lead_components = with_edges([math.nan, math.inf, -math.inf, 0.0, -1.0, 1.0, 1e308],
                             st.floats(-1.0, 1.0))
raw_leads = st.one_of(polarizations.map(tuple),
                      st.tuples(lead_components, lead_components, lead_components))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u_left=raw_leads, u_right=raw_leads,
       t=with_edges([math.nan, math.inf, -math.inf, -1e-9, 0.0], st.floats(0.0, 3e-6)))
def test_induced_instrument_checks_the_setting(u_left, u_right, t):
    # MeasurementSetting, the one check of raw leads and times, rejects the
    # first bad field with its exact message; a valid setting gets the same
    # arrays bit for bit from the oracle's raw-Hamiltonian induced_instrument
    # as from setting_instrument
    model = SpinModelParams(b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31,
                            hyperfine_gate=2e6, hyperfine_ancilla=1.1e6, exchange=7e5)
    tunnel = TunnelParams()
    bad_leads = [name for name, u in (("u_left", u_left), ("u_right", u_right))
                 if not (all(map(math.isfinite, u))
                         and math.fsum(x * x for x in u) <= (1.0 + STRUCTURAL_TOL) ** 2)]
    if bad_leads:
        expected = f"{bad_leads[0]} must be finite with norm <= 1"
    elif not (math.isfinite(t) and t >= 0.0):
        expected = "t_interact must be finite and nonnegative"
    else:
        expected = None
    if expected is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            MeasurementSetting(u_left, u_right, t)
        return
    setting = MeasurementSetting(u_left, u_right, t)
    got = induced_instrument(u_left, u_right, build_total_hamiltonian(model), t, 1.0,
                             tunnel.tau_detect, tunnel.gamma0)
    want = setting_instrument(setting, model, tunnel, 1.0)
    assert np.array_equal(got.effects, want.effects)
    for got_map, want_map in zip(transfer_matrices(got), transfer_matrices(want)):
        assert np.array_equal(got_map, want_map)
    assert got.kappa == want.kappa


@PROPERTY_SETTINGS
@given(config_documents)
# a repeated time and both zeros, in rows with and without an override
@example({"tomography": {"settings": [
    {"t_interact_s": 2e-6}, {"t_interact_s": -0.0, "model": {"exchange_per_s": 5e5}}, {"t_interact_s": 0.0},
    {"t_interact_s": 2e-6, "model": {"exchange_per_s": None}}, {"t_interact_s": -0.0}]}})
def test_resolved_config_line_matches_the_oracle(doc):
    # the template text is the value-by-value writer's, and both renderers
    # embed it as it is
    cfg = parsed_document(doc)
    text = json_scalar(resolved_dict(reference_config(json.dumps(doc))))
    assert resolved_json(cfg) == text
    table = ResultTable(columns=(), rows=[],
                        metadata={"resolved_config": JsonText(resolved_json(cfg))})
    assert render_csv(table) == f"# resolved_config = {text}\n\n".encode()
    assert render_jsonl(table) == f'{{"metadata":{{"resolved_config":{text}}}}}\n'.encode()


json_floats = with_edges([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                          1.7976931348623157e308, math.inf, -math.inf, math.nan], st.floats())
json_leaves = (json_floats | json_floats.map(np.float64) | st.integers(-2**70, 2**70)
               | st.booleans() | st.none() | st.text())
json_trees = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text() | st.integers(), inner, max_size=4)),
    max_leaves=30)


def nonfinite_as_text(value):
    """``value`` with each non-finite float replaced by its CSV text, the
    string JSONL writes for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return [nonfinite_as_text(v) for v in value]
    if isinstance(value, dict):
        return {k: nonfinite_as_text(v) for k, v in value.items()}
    return value


@PROPERTY_SETTINGS
@given(json_trees)
def test_json_writer_matches_the_oracle(tree):
    # the oracle's bytes, with a non-finite float as the string of its CSV
    # text instead of null
    want = json_scalar(nonfinite_as_text(tree))
    row = ResultTable(columns=("v", "ключ"), rows=[(tree, 1)])
    assert render_jsonl(row).decode().splitlines()[1] == f'{{"v":{want},{json_scalar("ключ")}:1}}'
    meta = ResultTable(columns=(), rows=[], metadata={"tree": [tree]})
    assert render_csv(meta) == f"# tree = [{want}]\n\n".encode()


# CSV cells of every type a row may hold, and text that needs quoting or not
csv_texts = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "\t", "é"]), max_size=5) | st.text()
csv_cells = (json_floats | json_floats.map(np.float64) | st.integers(-2**200, 2**200) | st.booleans()
             | st.none() | csv_texts)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(0, 4))
    columns = draw(st.lists(csv_texts, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(csv_cells, min_size=width, max_size=width).map(tuple), max_size=6))
    return ResultTable(columns=columns, rows=rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_tables())
@example(ResultTable(columns=("status",), rows=[("",), (None,), (" ",), ("a,b",)]))
def test_csv_rows_match_the_writer(table):
    # a one-column row whose only cell is empty is "" (csv.writer's form of
    # a row that is not blank)
    assert render_csv(table) == render_csv_by_writer(table)


# floats whose repr takes every form: signed zero, subnormal, exponent
model_numbers = (with_edges([-0.0, 5e-324, 1e16, -1e200, 1.7976931348623157e308],
                            st.floats(-1e7, 1e7))
                 | st.integers(-10**6, 10**6))
seed_models = st.builds(
    SpinModelParams,
    b_field=st.tuples(model_numbers, model_numbers, model_numbers),
    g_electron=model_numbers, g_nuclear=model_numbers, g_ancilla=model_numbers,
    hyperfine_gate=model_numbers, hyperfine_ancilla=model_numbers, hopping=model_numbers,
    coulomb_u=st.floats(1.0, 1e12) | st.integers(1, 10**9),
    exchange=st.none() | model_numbers, level_offset=model_numbers,
)
seed_leads = polarizations.map(tuple) | st.sampled_from([(0, 0, 1), (1, 0, 0), (0, 0, 0)])
seed_settings = st.builds(
    MeasurementSetting, u_left=seed_leads, u_right=seed_leads,
    t_interact=(st.integers(0, 10) | with_edges([-0.0, 5e-324, 1e200], st.floats(0.0, 1e-3))
                | st.floats(0.0, 1e-3).map(np.float64)),
    model=st.none() | seed_models,
)


# couplings whose coefficients overflow to inf, or to nan (inf * 0), too
coupling_values = model_numbers | with_edges([1e308, -1.7e308, 1e300], st.floats(-1e308, 1e308))
coefficient_models = st.builds(
    SpinModelParams,
    b_field=st.tuples(coupling_values, coupling_values, coupling_values),
    g_electron=coupling_values, g_nuclear=coupling_values, g_ancilla=coupling_values,
    hyperfine_gate=coupling_values, hyperfine_ancilla=coupling_values, hopping=coupling_values,
    coulomb_u=with_edges([5e-324, 1e-300], st.floats(1.0, 1e300)),
    exchange=st.none() | coupling_values, level_offset=coupling_values,
)


@PROPERTY_SETTINGS
@given(st.lists(coefficient_models, min_size=1, max_size=5))
def test_stacked_coefficients_match_each_model(models):
    # bit for bit, an overflow's inf and nan included, with no numpy warning
    got = model_coefficients([model_values(p) for p in models])
    want = np.array([model_coefficients_by_model(p) for p in models])
    assert got.shape == want.shape
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]


@PROPERTY_SETTINGS
@given(master=st.integers(0, 2**70), setting=seed_settings)
def test_setting_seed_matches_the_oracle(master, setting):
    assert derive_setting_seed(master, setting) == setting_seed(master, setting)


entropy_words = st.integers(0, 2**32 - 1) | st.just(0)


@PROPERTY_SETTINGS
@given(width=st.integers(0, 4), data=st.data(), k=st.integers(1, 9))
def test_stacked_seed_states_match_seed_sequence(width, data, k):
    rows = data.draw(st.lists(st.lists(entropy_words, min_size=width, max_size=width), min_size=1,
                              max_size=6))
    words = np.array(rows, dtype=np.uint32).reshape(len(rows), width)
    want = [np.random.SeedSequence(np.array(row, dtype=np.uint32)).generate_state(k) for row in rows]
    assert np.array_equal(_seed_states(words, k), want)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**64 - 1), min_size=1, max_size=6))
def test_stacked_seed_states_of_int_entropies(values):
    # a seed below 2**32 is one word, padded with a zero word
    want = [np.random.SeedSequence(v).generate_state(8) for v in values]
    assert np.array_equal(_seed_states(_uint32_words(values), 8), want)


@PROPERTY_SETTINGS
@given(master=st.integers(0, 2**70), settings_=st.lists(seed_settings, max_size=5))
# repeated times, both zeros and an int, in rows with and without an override
@example(master=7, settings_=[
    MeasurementSetting((0, 0, 1), (1, 0, 0), t, model)
    for t, model in zip([1e-6, -0.0, 0.0, 1e-6, -0.0, 3],
                        [None, DESIGN_MODEL, None, SpinModelParams(coulomb_u=1e9), DESIGN_MODEL, None])])
def test_setting_seeds_match_the_oracle_in_any_order(master, settings_):
    seeds = derive_setting_seeds(master, settings_)
    assert seeds == [setting_seed(master, s) for s in settings_]
    assert derive_setting_seeds(master, settings_[::-1]) == seeds[::-1]


time_edges = [0.0, -0.0, 1, 1.0, 3e-6, math.inf, -math.inf, math.nan]


@PROPERTY_SETTINGS
@given(times=st.lists(with_edges(time_edges, st.floats() | st.integers(-3, 3)), max_size=12),
       fmt=st.sampled_from(["%r", "%.17g"]))
# each edge twice, in the other order, and a NaN both as one object and as another
@example(times=time_edges + [float("nan")] + time_edges[::-1], fmt="%r")
@example(times=time_edges + [float("nan")] + time_edges[::-1], fmt="%.17g")
def test_time_texts_are_each_times_format(times, fmt):
    assert _time_texts(times, fmt) == [fmt % t for t in times]


edge_probabilities = st.sampled_from([0.0, 5e-324, 0.5, 1 - 2**-53, 1.0]) | unit_interval
cycle_counts = st.sampled_from([1, 2**31, 2**63 - 1]) | st.integers(1, 10**6)


@PROPERTY_SETTINGS
@given(rows=st.lists(st.tuples(edge_probabilities, st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
       n=cycle_counts)
def test_sample_counts_equal_default_rng(rows, n):
    prs, seeds = [p for p, _ in rows], [s for _, s in rows]
    want = [int(np.random.default_rng(s).binomial(n, p)) for p, s in rows]
    assert sample_counts(prs, n, seeds) == want


@pytest.mark.parametrize("pr, n, message", [
    (math.nan, 10, "pulse probability nan outside [0, 1]"),
    (1.2, 10, "pulse probability 1.2 outside [0, 1]"),
    (0.5, 0, "n must be at least 1"),
    (0.5, -3, "n must be at least 1"),
])
def test_sample_counts_rejects_what_sample_cycles_rejects(pr, n, message):
    for draw in (lambda: sample_cycles(pr, n, 7), lambda: sample_counts([0.25, pr], n, [1, 7])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw()


coefficient_values = with_edges([0.0, 5e-324, 1e307, -6e307, 1e308, -1.7e308, math.inf, -math.inf,
                                 math.nan], st.floats(-1e300, 1e300))


# finite values of either sign, their exponent uniform from subnormal to huge
log_uniform_values = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-320.0, 300.0)).map(
    lambda s: s[0] * 10.0 ** s[1])


@PROPERTY_SETTINGS
@given(st.lists(st.lists(coefficient_values, min_size=13, max_size=13)
                | st.lists(st.just(0.0) | log_uniform_values, min_size=13, max_size=13), min_size=1, max_size=5))
# finite rows: one that overflows, and one that the bound cannot settle but does not overflow
@example([[1e308] * 13, [1e308] + [0.0] * 12])
def test_overflow_bound_agrees_with_the_eigenvalues(rows):
    # without a threshold, _unsettled_norms computes the norm of every row
    # that _norm_bracket's upper bound cannot clear of an overflow, so its NaN norms
    # mark every overflowing row
    coefficients = np.array(rows)
    unsettled, norms = _unsettled_norms(coefficients)
    overflows = np.zeros(len(coefficients), dtype=bool)
    overflows[unsettled[np.isnan(norms)]] = True
    assert np.array_equal(overflows, np.isnan(hierarchy_norms(coefficients)))


def test_rows_near_the_float_maximum_get_exact_norms():
    # Each row's triangle bound lies in [max / 4, max): below the float
    # maximum but not below _SAFE_NORM_BOUND, its margin for rounding. So no
    # row is settled by its bound, with or without a threshold, and each gets
    # its computed norm. The tunnel passes both ratios of every bracket: its
    # leakage rate vanishes, and its resonant time is 1e-308 s.
    big = np.finfo(float).max
    coefficients = np.zeros((6, 13))
    coefficients[0, 0] = big / 4
    coefficients[1, 0] = 0.9 * big
    coefficients[2, 9] = big / 6  # sigma . sigma, spectral norm 3
    coefficients[3, :4] = big / 8
    coefficients[4, [0, 3, 9]] = big / 4, -big / 4, big / 12
    coefficients[5, [4, 10]] = big / 3, big / 9
    tunnel = TunnelParams(gamma0=1.0, interdot_sq=1e308, detuning=1e300)
    lower, upper = _norm_bracket(coefficients)
    assert _time_scales(np.concatenate((lower, upper)), tunnel, 1.0).satisfied.all()
    for unsettled, norms in (_unsettled_norms(coefficients), _unsettled_norms(coefficients, tunnel, 1.0)):
        assert unsettled.tolist() == list(range(len(coefficients)))
        assert np.array_equal(norms, hierarchy_norms(coefficients), equal_nan=True)


# how far a fitted tunnel puts a row's exact ratios from the threshold, as
# a fraction of it: on both sides of the bracket's margin, and far from it
ratio_slack = st.floats(-0.9, 10.0) | st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 3e-9, -3e-9, 1e-6, -1e-6])


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(rows=st.lists(st.lists(st.just(0.0) | coefficient_values.filter(math.isfinite) | log_uniform_values,
                              min_size=13, max_size=13), min_size=1, max_size=5),
       exponent=st.floats(-300.0, 300.0) | st.none(),
       threshold=st.floats(1.0, 1e6),
       fitted=st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2), ratio_slack, ratio_slack)
       | st.none(),
       gamma0=with_edges([5e-324, 1e-300, 1e9], st.floats(5e-324, 1e300)),
       interdot_sq=with_edges([0.0, 5e-324, 1e9], st.floats(0.0, 1e300)),
       detuning=with_edges([0.0, 1e12, 1e300], st.floats(-1e300, 1e300)))
def test_norm_bracket_is_sound(rows, exponent, threshold, fitted, gamma0, interdot_sq, detuning):
    # the widened bracket holds the computed norm of every finite row that
    # has one, and every row it settles is satisfied by its exact time
    # scales. A fitted tunnel puts one row's ratios at threshold * (1 + slack),
    # each that of its lower bound, its exact norm or its upper bound (so
    # that the row settles, or just fails to): ratio_dyn_res = 2 pi
    # interdot_sq / norm and ratio_non_dyn = norm / (2 pi gamma_rate(detuning)),
    # with interdot_sq / gamma_rate(detuning) = 1 + (detuning / gamma0)^2. The
    # drawn tunnels include vanishing rates.
    # With an exponent, each row is scaled to the largest magnitude 10**exponent.
    coefficients = np.array(rows)
    if exponent is not None:
        largest = np.abs(coefficients).max(axis=1, keepdims=True)
        coefficients = coefficients / np.where(largest > 0.0, largest, 1.0) * 10.0 ** exponent
    norms = hierarchy_norms(coefficients)
    lower, upper = _norm_bracket(coefficients)
    if fitted is not None:
        k, fast, slow, dyn_res, non_dyn = fitted
        ends = np.column_stack((lower, norms, upper))
        ends = ends[((ends > 0.0) & (ends < math.inf)).all(axis=1)]
        if len(ends):
            fastest, slowest = float(ends[k % len(ends), fast]), float(ends[k % len(ends), slow])
            fit = (threshold * (1.0 + dyn_res) * fastest / (2.0 * math.pi),
                   gamma0 * math.sqrt(max(0.0, threshold ** 2 * (1.0 + dyn_res) * (1.0 + non_dyn)
                                          * fastest / slowest - 1.0)))
            if all(map(math.isfinite, fit)):
                interdot_sq, detuning = fit
    tunnel = TunnelParams(gamma0=gamma0, interdot_sq=interdot_sq, detuning=detuning)
    known = ~np.isnan(norms)
    assert (lower[known] <= norms[known]).all() and (norms[known] <= upper[known]).all()
    unsettled, unsettled_norms = _unsettled_norms(coefficients, tunnel, threshold)
    assert np.array_equal(unsettled_norms, norms[unsettled], equal_nan=True)
    settled = np.ones(len(coefficients), dtype=bool)
    settled[unsettled] = False
    assert known[settled].all()
    assert _time_scales(norms, tunnel, threshold).satisfied[settled].all()


couplings = (st.sampled_from([0.0, 1e300, -1e300, 1e308])
             | st.tuples(st.sampled_from([1.0, -1.0]), st.floats(2.0, 10.0)).map(lambda s: s[0] * 10.0 ** s[1]))
override_models = st.none() | st.builds(
    lambda j, gate, ancilla, bz: SpinModelParams(b_field=(0.0, 0.0, bz), g_nuclear=G_NUCLEAR_P31, exchange=j,
                                                 hyperfine_gate=gate, hyperfine_ancilla=ancilla),
    couplings, couplings, couplings, st.sampled_from([0.0, 0.01]))


@PROPERTY_SETTINGS
@given(models=st.lists(override_models, min_size=1, max_size=13),
       t=st.sampled_from([0.0, 1e-7, 1e-6]),
       threshold=st.floats(1.0, 1e4),
       interdot_sq=st.sampled_from([1e9, 1e7, 0.0]),
       detuning=st.sampled_from([1e12, 1e10]))
def test_hierarchy_warnings_match_the_exact_route(models, t, threshold, interdot_sq, detuning):
    # 4-row blocks, so that a grid spans several; the exact route computes
    # hierarchy_norms on every row, and its messages come from the per-row
    # oracle. Both give the same warnings, in order, and the same errors.
    base = SpinModelParams(b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31, hyperfine_gate=2e6,
                           hyperfine_ancilla=1.1e6, exchange=7e5)
    tunnel = TunnelParams(interdot_sq=interdot_sq, detuning=detuning)
    settings_ = [MeasurementSetting((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), t, model=m) for m in models]

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            errors = [b.errors for b in setting_instruments(settings_, base, tunnel, 1.0, threshold=threshold)]
        assert all(w.category is HierarchyWarning for w in caught)
        return errors, [str(w.message) for w in caught]

    norms = hierarchy_norms(model_coefficients([model_values(m or base) for m in models]))
    expected = []
    for norm in norms:
        report = hierarchy_report(norm, tunnel, threshold)
        if not (math.isnan(norm) or report.satisfied):
            expected.append("time-scale hierarchy tau_res << tau_dyn << tau_non not satisfied "
                            f"(ratios {report.ratio_dyn_res:.3g}, {report.ratio_non_dyn:.3g})")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycle, "BLOCK_ROWS", 4)
        errors, messages = run()
        patch.setattr(cycle, "_unsettled_norms", lambda c, *_: (np.arange(len(c)), hierarchy_norms(c)))
        exact_errors, exact_messages = run()
    assert messages == exact_messages == expected
    assert errors == exact_errors
    assert [len(e) for e in errors] == [4] * ((len(models) - 1) // 4) + [(len(models) - 1) % 4 + 1]
    assert [e == _OVERFLOW_ERROR for block in errors for e in block] == np.isnan(norms).tolist()


# Row models of a grid, each a new object per call: the run's model, equal
# twins, a -0.0 field and coupling beside their +0.0 twin, a weak model that
# fails the hierarchy and one that overflows float64.
_GRID_MODELS = (
    lambda: None,
    lambda: SpinModelParams(b_field=(2e-5, 0.0, 1e-4), g_electron=2.0, g_ancilla=2.0, exchange=7e5,
                            hyperfine_gate=2e6),
    lambda: SpinModelParams(b_field=(-0.0, 3e-5, 1e-4), g_electron=2.0, g_ancilla=1.5,
                            hyperfine_gate=2e6, hyperfine_ancilla=-0.0),
    lambda: SpinModelParams(b_field=(0.0, 3e-5, 1e-4), g_electron=2.0, g_ancilla=1.5,
                            hyperfine_gate=2e6, hyperfine_ancilla=0.0),
    lambda: SpinModelParams(exchange=1e2),
    lambda: SpinModelParams(exchange=1e308, hyperfine_gate=1e308),
)
# Times: -0.0 beside 0.0, and 1e300 s, where every nonzero Hamiltonian loses
# its phase. The leads come from a few fixed vectors, so that a failing grid
# shrinks quickly.
_GRID_LEADS = [np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
               np.array([0.48, -0.36, 0.6])]
grid_rows = st.tuples(st.integers(0, len(_GRID_MODELS) - 1), st.sampled_from([0.0, -0.0, 1e-6, 2e-6, 1e300]),
                      st.sampled_from(_GRID_LEADS), st.sampled_from(_GRID_LEADS))


@PROPERTY_SETTINGS
@given(rows=st.lists(grid_rows, min_size=1, max_size=16), block_rows=st.integers(3, 5),
       c=st.sampled_from([1.0, 20.0]), threshold=st.sampled_from([None, 100.0]), include=st.booleans())
def test_grid_sharing_matches_the_lone_rows(rows, block_rows, c, threshold, include):
    # Blocks of 3-5 rows over a few models and times, so that (model, t)
    # pairs recur within and across blocks. Every row's effect, propagator,
    # transfer matrices and error are those of its setting alone, bit for
    # bit, and the warnings are the lone rows' warnings in row order. c = 20
    # gives kappa = 4, an error of every row.
    base = SpinModelParams(b_field=(0.0, 0.0, 1e-4), g_electron=2.0, g_ancilla=2.0, exchange=1.3e6,
                           hyperfine_gate=2e6, hyperfine_ancilla=4e5)
    tunnel = TunnelParams()
    settings_ = [MeasurementSetting(left, right, t, model=_GRID_MODELS[m]()) for m, t, left, right in rows]

    def run(grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocks = list(setting_instruments(grid, base, tunnel, c, include, threshold=threshold))
        assert all(w.category is HierarchyWarning for w in caught)
        return blocks, [str(w.message) for w in caught]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cycle, "BLOCK_ROWS", block_rows)
        blocks, messages = run(settings_)
    assert [b.start for b in blocks] == list(range(0, len(settings_), block_rows))
    lone_messages = []
    for block in blocks:
        arrays = (block.effects, block.propagators, *transfer_matrices(block))
        for k, setting in enumerate(settings_[block.start:block.start + len(block.errors)]):
            (alone,), alone_messages = run([setting])
            lone_messages += alone_messages
            assert block.errors[k] == alone.errors[0]
            for got, want in zip(arrays, (alone.effects, alone.propagators, *transfer_matrices(alone))):
                assert np.array_equal(got[k], want[0])
    assert messages == lone_messages
