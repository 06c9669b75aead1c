"""Property-based checks of the transfer-matrix instrument over random
settings, of the tomography parameterization over random vectors, of the
configuration's resolved form over random documents, and of the time-scale
hierarchy report over random norms and tunnels."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinturnstile.algebra import pauli_coordinates
from spinturnstile.config import parse_config, resolved_dict
from spinturnstile.constants import G_NUCLEAR_P31
from spinturnstile.cycle import MeasurementSetting, induced_instrument, setting_instrument
from spinturnstile.experiment import RUN_BLOCK, propagate_cycles
from spinturnstile.model import (
    SpinModelParams,
    TunnelParams,
    build_total_hamiltonian,
    hierarchy_report,
)
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

from oracles import choi_from_transfer, random_density, random_hermitian, stepwise_chain

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
    assert np.abs(inst.pulse[0] + inst.nopulse[0] - np.eye(16)[0]).max() < 1e-12


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_complete_positivity(cycle):
    inst = build(cycle)
    for transfer in (inst.pulse, inst.nopulse):
        choi = choi_from_transfer(transfer)
        assert np.abs(choi - choi.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(choi).min() > -1e-10


@PROPERTY_SETTINGS
@given(readout_cycles)
def test_pulse_row_is_detection_formula(cycle):
    # Pr = kappa/2 (1 + u_right . u_ancilla), with u_ancilla = ancilla_bloch @ x
    inst = build(cycle)
    expected = 0.5 * cycle["kappa"] * (np.eye(16)[0] + cycle["u_right"] @ inst.ancilla_bloch)
    assert np.abs(inst.pulse[0] - expected).max() < 1e-12


@PROPERTY_SETTINGS
@given(readout_cycles, st.integers(0, 2**32 - 1))
def test_chain_state_stays_physical(cycle, seed):
    rho0 = random_density(np.random.default_rng(seed), 4)
    rec = propagate_cycles(build(cycle), rho0, 50, seed=seed)
    rho = rec.rho_final
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-9


@PROPERTY_SETTINGS
@given(readout_cycles, st.integers(1, 3 * RUN_BLOCK + 5), st.integers(0, 2**32 - 1))
def test_chain_matches_stepwise_rule(cycle, n, seed):
    inst = build(cycle)
    rho0 = random_density(np.random.default_rng(seed), 4)
    rec = propagate_cycles(inst, rho0, n, seed=seed)
    outcomes, probs, rho_final, resets = stepwise_chain(inst, rho0, np.random.default_rng(seed).random(n))
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
config_documents = st.fixed_dictionaries({}, optional={
    "model": model_blocks,
    "tunnel": st.fixed_dictionaries({}, optional={
        "gamma0_per_s": positive,
        "interdot_sq_per_s": st.floats(min_value=0.0, allow_infinity=False),
        "detuning_per_s": finite,
        "tau_detect_s": positive,
        "tau_cycle_s": positive,
    }),
    "experiment": st.fixed_dictionaries({}, optional={
        "n_cycles": st.integers(1, 2**63 - 1),
        "seed": st.integers(0, 10**30),
        "mode": st.sampled_from(["refresh", "propagate"]),
    }),
    "sweep": st.fixed_dictionaries({
        "settings": st.lists(st.fixed_dictionaries({}, optional={"model": model_blocks}),
                             min_size=1, max_size=3),
    }),
})
DEFAULT_MODEL = resolved_dict(parse_config("{}"))["model"]


def exchange_derivable(model: dict) -> bool:
    # A null exchange is derived from hopping, which needs a positive coulomb_u.
    return not (model["exchange_per_s"] is None and model["hopping_per_s"] != 0
                and model["coulomb_u_per_s"] <= 0)


@PROPERTY_SETTINGS
@given(config_documents)
def test_resolved_config_parses_to_the_same_config(doc):
    run_model = {**DEFAULT_MODEL, **doc.get("model", {})}
    overrides = [s.get("model", {}) for s in doc.get("sweep", {}).get("settings", [])]
    assume(all(exchange_derivable({**run_model, **o}) for o in [{}, *overrides]))
    cfg = parse_config(json.dumps(doc))
    resolved = resolved_dict(cfg)
    assert parse_config(resolved) == cfg
    for section in ("model", "tunnel", "experiment"):
        for key, value in doc.get(section, {}).items():
            assert resolved[section][key] == value
    for given_setting, setting in zip(doc.get("sweep", {}).get("settings", []),
                                      resolved["sweep"]["settings"]):
        assert ("model" in setting) == ("model" in given_setting)
        override = given_setting.get("model", {})
        for key, value in setting.get("model", {}).items():
            assert value == override.get(key, resolved["model"][key])


def with_edges(edges, strategy):
    """``strategy``, plus the listed edge values drawn as often as the rest."""
    return st.one_of(st.sampled_from(edges), strategy)


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
    # induced_instrument raises exactly when MeasurementSetting does, and
    # otherwise builds setting_instrument's arrays bit for bit
    model = SpinModelParams(b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31,
                            hyperfine_gate=2e6, hyperfine_ancilla=1.1e6, exchange=7e5)
    tunnel = TunnelParams()
    args = (build_total_hamiltonian(model), t, 1.0, tunnel.tau_detect, tunnel.gamma0)
    try:
        setting = MeasurementSetting(u_left, u_right, t)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            induced_instrument(u_left, u_right, *args)
        return
    got = induced_instrument(u_left, u_right, *args)
    want = setting_instrument(setting, model, tunnel, 1.0)
    for name in ("pulse", "nopulse", "ancilla_bloch"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.kappa == want.kappa
