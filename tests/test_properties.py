"""Property-based checks of the transfer-matrix instrument over random
settings, of calibration against the pulse-probability formula, of the
tomography parameterization over random vectors, of the configuration's
resolved form over random documents, of the time-scale hierarchy report over
random norms and tunnels, and of the output writer and the setting seeds
against their oracles."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinturnstile.algebra import pauli_coordinates
from spinturnstile.config import ConfigValidationError, LeadSpec, parse_config, resolved_json
from spinturnstile.constants import G_NUCLEAR_P31, STRUCTURAL_TOL
from spinturnstile.cycle import (
    BLOCK_ROWS,
    MeasurementSetting,
    setting_instrument,
    setting_instruments,
)
from spinturnstile.experiment import (
    RUN_BLOCK,
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
    _hierarchy_overflows,
    build_total_hamiltonian,
    hierarchy_norms,
    hierarchy_report,
)
from spinturnstile.results import JsonText, ResultTable, render_csv, render_jsonl
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
    induced_instrument,
    json_scalar,
    kraus_instrument,
    liouville_matrix,
    pauli_product_basis,
    random_density,
    random_hermitian,
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
    inst = build(cycle)
    assert np.abs(inst.pulse[0, 0] + inst.nopulse[0, 0] - np.eye(16)[0]).max() < 1e-12


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_complete_positivity(cycle):
    inst = build(cycle)
    for transfer in (inst.pulse[0], inst.nopulse[0]):
        choi = choi_from_transfer(transfer)
        assert np.abs(choi - choi.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(choi).min() > -1e-10


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_pulse_row_is_detection_formula(cycle):
    # Pr = kappa/2 (1 + u_right . u_ancilla), with u_ancilla = ancilla_bloch @ x
    inst = build(cycle)
    expected = 0.5 * cycle["kappa"] * (np.eye(16)[0] + cycle["u_right"] @ inst.ancilla_bloch[0])
    assert np.abs(inst.pulse[0, 0] - expected).max() < 1e-12


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
        for k, s in enumerate(settings_[block.start:block.start + len(block.errors)]):
            assert block.errors[k] is None
            w, v = np.linalg.eigh(spin_hamiltonian(s.model, include))
            u = (v * np.exp(-1j * w * s.t_interact)) @ v.conj().T
            kraus_p, kraus_n = kraus_instrument(s.u_left, s.u_right, u, kappa)
            pulse = liouville_matrix(kraus_p)
            assert np.abs(block.effects[k] - pulse[0]).max() < 1e-14
            assert np.abs(block.pulse[k] - pulse).max() < 1e-14
            assert np.abs(block.nopulse[k] - liouville_matrix(kraus_n)).max() < 1e-14
            # a unit pulse effect E along axis a has tr(E P_j) / 4 = (e0 + ancilla_bloch[a]) / 2
            for a, axis in enumerate(np.eye(3)):
                effect = sum(kr.conj().T @ kr for kr in kraus_instrument(s.u_left, axis, u, 1.0)[0])
                half = 0.25 * np.array([np.trace(effect @ p).real for p in pauli_product_basis()])
                assert np.abs(block.ancilla_bloch[k, a] - (2.0 * half - e0)).max() < 1e-14
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
    inst = build(cycle)
    rec = propagate_cycles(inst.pulse[0], inst.nopulse[0], rho0, 50, seed=seed)
    rho = rec.rho_final
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-9


@PROPERTY_SETTINGS
@given(readout_cycles, st.integers(1, 3 * RUN_BLOCK + 5), st.integers(0, 2**32 - 1))
def test_chain_matches_stepwise_rule(cycle, n, seed):
    inst = build(cycle)
    rho0 = random_density(np.random.default_rng(seed), 4)
    maps = inst.pulse[0], inst.nopulse[0]
    rec = propagate_cycles(*maps, rho0, n, seed=seed)
    outcomes, probs, rho_final, resets = stepwise_chain(*maps, rho0, np.random.default_rng(seed).random(n))
    assert np.array_equal(rec.outcomes, outcomes)
    assert np.abs(rec.probs - probs).max() < 1e-12
    assert np.abs(rec.rho_final - rho_final).max() < 1e-10
    assert rec.resets == resets == 0


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
# or overflow, on both sides of the 2**500 bound above which LeadSpec guards
# the overflow, and signed zeros; any norm stays finite and nonzero.
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


# the largest component LeadSpec does not guard against an overflow of the
# sum of squares, the smallest it guards, and the smallest whose square
# overflows by itself
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
        try:
            norm = LeadSpec(direction, 1.0).norm
        except ConfigValidationError:  # a zero or infinite norm
            norm = None
    if 0.0 < expected < math.inf:
        assert norm.hex() == expected.hex()
    elif not any(direction):
        assert norm is None


@PROPERTY_SETTINGS
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.integers(-1070, 1020))
def test_lead_direction_scale_does_not_matter(direction, exponent):
    # exact scaling by 2**exponent, but for components that become subnormal;
    # the squares under- or overflow for most exponents
    assume(max(abs(x) for x in direction) >= 0.5)
    scaled = tuple(math.ldexp(x, exponent) for x in direction)
    assert np.allclose(LeadSpec(scaled, 0.9).vector(), LeadSpec(direction, 0.9).vector(),
                       rtol=0.0, atol=1e-15)


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
    report = hierarchy_report(norm, tunnel, threshold=threshold)
    # nan compares false, so this also rules it out
    assert report.ratio_dyn_res >= 0.0 and report.ratio_non_dyn >= 0.0
    assert report.satisfied == (report.ratio_dyn_res >= threshold and report.ratio_non_dyn >= threshold)


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
    for name in ("effects", "pulse", "nopulse", "ancilla_bloch"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.kappa == want.kappa


@PROPERTY_SETTINGS
@given(config_documents)
def test_resolved_config_line_matches_the_oracle(doc):
    # the template text is the value-by-value writer's, and both renderers
    # embed it as it is
    cfg = parsed_document(doc)
    text = json_scalar(resolved_dict(cfg))
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
def test_setting_seeds_match_the_oracle_in_any_order(master, settings_):
    seeds = derive_setting_seeds(master, settings_)
    assert seeds == [setting_seed(master, s) for s in settings_]
    assert derive_setting_seeds(master, settings_[::-1]) == seeds[::-1]


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


@PROPERTY_SETTINGS
@given(st.lists(st.lists(coefficient_values, min_size=13, max_size=13), min_size=1, max_size=5))
def test_overflow_bound_agrees_with_the_eigenvalues(rows):
    coefficients = np.array(rows)
    assert np.array_equal(_hierarchy_overflows(coefficients), np.isnan(hierarchy_norms(coefficients)))
