import numpy as np
import pytest

from spinturnstile.algebra import check_density_matrix, evolve_unitary
from spinturnstile.cycle import induced_instrument
from spinturnstile.experiment import propagate_cycles
from spinturnstile.model import SpinModelParams, build_total_hamiltonian

from oracles import kraus_chain, kraus_instrument, random_density

U_LEFT, U_RIGHT = [0, 0, 1.0], [1.0, 0, 0]


def make_hamiltonian(exchange=3e5):
    p = SpinModelParams(
        b_field=(0, 0, 1e-4), g_nuclear=1.2e-3, g_ancilla=2.0,
        exchange=exchange, hyperfine_ancilla=1e5,
    )
    return build_total_hamiltonian(p)


def make_instrument(exchange=3e5, t=4e-6, kappa_c=0.9):
    return induced_instrument(U_LEFT, U_RIGHT, make_hamiltonian(exchange), t, kappa_c, 1e-10, 1e9)


class TestPropagateCycles:
    def test_final_state_valid(self):
        rng = np.random.default_rng(40)
        rec = propagate_cycles(make_instrument(), random_density(rng, 4), 500, seed=1)
        assert rec.outcomes.shape == (500,)
        assert np.all((rec.probs >= 0) & (rec.probs <= 1))
        check_density_matrix(rec.rho_final, tol=1e-9)

    def test_deterministic_given_uniforms(self):
        inst = make_instrument()
        rho0 = random_density(np.random.default_rng(42), 4)
        a = propagate_cycles(inst, rho0, 300, seed=2)
        b = propagate_cycles(inst, rho0, 300, seed=2)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.rho_final, b.rho_final)

    def test_first_cycle_probability_matches_instrument(self):
        inst = make_instrument()
        rho0 = random_density(np.random.default_rng(43), 4)
        rec = propagate_cycles(inst, rho0, 5, seed=3)
        assert rec.probs[0] == pytest.approx(inst.pulse_probability(rho0), abs=1e-12)

    def test_uninformative_instrument_keeps_state_fixed(self):
        # with no interaction the conditional maps leave the gate untouched
        inst = make_instrument(exchange=0.0, t=0.0)
        rho0 = random_density(np.random.default_rng(44), 4)
        rec = propagate_cycles(inst, rho0, 200, seed=4)
        assert np.allclose(rec.rho_final, rho0, atol=1e-10)
        assert np.allclose(rec.probs, rec.probs[0], atol=1e-12)

    def test_matches_kraus_chain(self):
        # outcome for outcome on the same uniforms against plain Kraus sums
        h, t, c = make_hamiltonian(), 4e-6, 1.0
        inst = induced_instrument(U_LEFT, U_RIGHT, h, t, c, 1e-10, 1e9)
        kraus_pulse, kraus_nopulse = kraus_instrument(U_LEFT, U_RIGHT, evolve_unitary(h, t), inst.kappa)
        rho0 = np.eye(4) / 4
        n, seed = 3000, 5
        rec = propagate_cycles(inst, rho0, n, seed=seed)
        outcomes, probs, rho_final = kraus_chain(
            kraus_pulse, kraus_nopulse, rho0, np.random.default_rng(seed).random(n))
        assert 0 < rec.n_pulses < n
        assert np.array_equal(rec.outcomes, outcomes)
        assert np.abs(rec.probs - probs).max() < 1e-12
        assert np.abs(rec.rho_final - rho_final).max() < 1e-10
