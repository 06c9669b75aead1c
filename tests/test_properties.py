"""Property-based checks of the transfer-matrix instrument over random settings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinturnstile.algebra import pauli_coordinates
from spinturnstile.constants import G_NUCLEAR_P31
from spinturnstile.cycle import MeasurementSetting, induced_instrument
from spinturnstile.experiment import RUN_BLOCK, propagate_cycles
from spinturnstile.model import SpinModelParams, TunnelParams
from spinturnstile.tomography import (
    SINGLE_SPIN,
    TWO_SPIN,
    build_design,
    density_to_theta,
    forward_probabilities,
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
