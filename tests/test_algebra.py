import numpy as np
import pytest

from spinturnstile import cycle, model
from spinturnstile.algebra import (
    GATE_PAULI_BASIS,
    IDENTITY_2,
    MAX_PHASE,
    PAULI_PRODUCT_LABELS,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    evolve_unitaries,
    evolve_unitary,
    kron,
    pauli_coordinates,
)
from spinturnstile.cycle import MeasurementSetting
from spinturnstile.model import _GENERATORS

from oracles import (
    ancilla_state,
    check_density_matrix,
    kron_bruteforce,
    partial_trace_bruteforce,
    random_bloch,
    random_density,
    random_hermitian,
    rk4_von_neumann,
    spin_half,
)


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_with_identity(self):
        assert np.allclose(kron(SIGMA_Z, IDENTITY_2), np.diag([1, 1, -1, -1]))

    def test_no_operand_rejected(self):
        with pytest.raises(ValueError, match="^kron requires at least one operand$"):
            kron()

    def test_matches_bruteforce_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert np.allclose(kron(a, b), kron_bruteforce(a, b), atol=1e-14)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            expected = np.trace(kron_bruteforce(a, b))
            assert np.isclose(np.trace(kron(a, b)), expected)
            assert np.isclose(expected, np.trace(a) * np.trace(b))

    def test_associativity(self):
        rng = np.random.default_rng(9)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        # entrywise up to the rounding of reassociated complex products
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), rtol=1e-14, atol=1e-14)

    def test_stacks_give_the_bits_of_np_kron(self):
        # stacks broadcast against each other; every product is np.kron's,
        # signed zeros included
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        b = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        a[::2, 0, 1] = -0.0
        b[1, 2] = complex(-0.0, 1.0)
        pairs, table = kron(a, b), kron(a[:, None], b)
        assert pairs.shape == (4, 6, 6) and table.shape == (4, 4, 6, 6)
        for i in range(4):
            assert pairs[i].tobytes() == np.kron(a[i], b[i]).tobytes()
            for j in range(4):
                assert table[i, j].tobytes() == np.kron(a[i], b[j]).tobytes()

    def test_import_tables_are_their_kron_definitions(self):
        # each table is one stacked product, with the bytes of one np.kron per matrix
        factor = {"I": IDENTITY_2, "X": PAULIS[0], "Y": PAULIS[1], "Z": PAULIS[2]}
        basis = np.array([np.kron(factor[l[0]], factor[l[1]]) for l in ("II",) + PAULI_PRODUCT_LABELS])
        assert GATE_PAULI_BASIS.tobytes() == basis.tobytes()
        sites = np.array([[np.kron(np.kron(*(p if k == site else IDENTITY_2 for k in range(2))),
                                   p if site == 2 else IDENTITY_2) for p in PAULIS] for site in range(3)])
        assert model._SITE_PAULIS.tobytes() == sites.tobytes()
        ancilla = np.array([np.kron(s, np.eye(4)) for s in (IDENTITY_2,) + PAULIS]).reshape(4, 64)
        assert cycle._ANCILLA_BASIS.tobytes() == ancilla.tobytes()
        joint = np.array([np.kron(IDENTITY_2, p) for p in basis])
        assert cycle._GATE_RIGHT.tobytes() == joint.transpose(1, 0, 2).reshape(8, 128).tobytes()
        assert cycle._GATE_READ.tobytes() == (0.25 * joint.reshape(16, 64).conj().T).tobytes()


def test_pauli_coordinates_take_gate_operators_only():
    with pytest.raises(ValueError, match="^expected a 4x4 gate operator$"):
        pauli_coordinates(IDENTITY_2)


class TestPartialTrace:
    # The package keeps no partial trace; these pin the oracle the
    # instrument and ancilla-pathway tests rely on.
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(10)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 4)
        reduced = partial_trace_bruteforce(kron(rho_a, rho_b), [2, 4], keep=[0])
        assert np.allclose(reduced, rho_a, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace_bruteforce(rho, [2, 2], keep=[0]), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_random_8x8(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 8)
        got = partial_trace_bruteforce(rho, [2, 2, 2], keep=[1, 2])
        check_density_matrix(got, dims=[2, 2], tol=1e-12)
        # tracing out in two steps gives the same single-site state
        assert np.allclose(partial_trace_bruteforce(got, [2, 2], keep=[1]),
                           partial_trace_bruteforce(rho, [2, 2, 2], keep=[2]), atol=1e-14)

    def test_matches_bruteforce_on_random_keeps(self):
        # Duality: tr(Tr_rest(m) A) = tr(m embed(A)) for product A on the kept sites.
        rng = np.random.default_rng(12)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            factors = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) if s in keep
                       else IDENTITY_2 for s in range(3)]
            a = kron(*(factors[s] for s in keep))
            lhs = np.trace(partial_trace_bruteforce(m, [2, 2, 2], keep) @ a)
            assert np.isclose(lhs, np.trace(m @ kron(*factors)), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        n = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a, b = 0.7, -1.3
        lhs = partial_trace_bruteforce(a * m + b * n, [2, 2, 2], [0])
        rhs = (a * partial_trace_bruteforce(m, [2, 2, 2], [0])
               + b * partial_trace_bruteforce(n, [2, 2, 2], [0]))
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestEvolveUnitary:
    def test_zero_hamiltonian_gives_identity(self):
        assert np.allclose(evolve_unitary(np.zeros((4, 4)), 17.3), np.eye(4), atol=1e-14)

    def test_sigma_z_analytic_phases(self):
        u = evolve_unitary(SIGMA_Z, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.allclose(u, expected, atol=1e-12)

    def test_agrees_with_rk4_oracle(self):
        rng = np.random.default_rng(14)
        h = random_hermitian(rng, 8)
        rho0 = random_density(rng, 8)
        t = 1.7
        u = evolve_unitary(h, t)
        direct = u @ rho0 @ u.conj().T
        oracle = rk4_von_neumann(h, rho0, t, n_steps=3000)
        assert np.abs(direct - oracle).max() < 1e-6

    def test_unitarity_over_random_sweep(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(1000):
            h = random_hermitian(rng, 8, scale=rng.uniform(0.1, 10.0))
            u = evolve_unitary(h, rng.uniform(0, 5))
            worst = max(worst, np.abs(u.conj().T @ u - np.eye(8)).max())
        assert worst < 1e-10

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(16)
        h = random_hermitian(rng, 8)
        rho = random_density(rng, 8)
        u = evolve_unitary(h, 2.2)
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(u @ rho @ u.conj().T))
        assert np.abs(before - after).max() < 1e-10

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            evolve_unitary(bad, 1.0)

    def test_lost_phase_precision_rejected(self):
        # largest |eigenvalue| is 2, so the phase is 2 t
        h = 2.0 * SIGMA_Z
        u = evolve_unitary(h, 0.5 * MAX_PHASE)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        with pytest.raises(ValueError, match="phase"):
            evolve_unitary(h, 0.6 * MAX_PHASE)
        with pytest.raises(ValueError, match="phase"):
            evolve_unitary(-h, -0.6 * MAX_PHASE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        # a NaN time used to give an all-NaN propagator, and an infinite one
        # on a zero generator the identity
        h = 2.0 * SIGMA_Z
        for generator in (h, np.zeros((2, 2))):
            with pytest.raises(ValueError, match="finite time"):
                evolve_unitary(generator, bad)
        u, errors = evolve_unitaries(np.stack([h, h, np.zeros((2, 2))]), [0.3, bad, bad])
        assert errors[0] is None and all("finite time" in e for e in errors[1:])
        assert np.array_equal(u[0], evolve_unitary(h, 0.3))
        assert np.array_equal(u[1:], np.stack([np.eye(2)] * 2))


def ancilla_bloch_of(u) -> np.ndarray:
    """Polarization read back by the ancilla-pathway oracle from an ancilla in
    ``spin_half(u)`` next to a maximally mixed gate."""
    return ancilla_state(kron(spin_half(u), np.eye(4) / 4))[1]


class TestBlochConversions:
    def test_zero_vector_is_maximally_mixed(self):
        assert np.allclose(spin_half([0, 0, 0]), np.eye(2) / 2)

    def test_pure_up(self):
        assert np.allclose(spin_half([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_pure_x(self):
        assert np.allclose(spin_half([1, 0, 0]), 0.5 * np.ones((2, 2)))

    def test_eigenvalues_from_norm(self):
        rho = spin_half(0.7 * np.array([1.0, 0, 0]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), [0.15, 0.85])

    def test_overlong_vector_rejected(self):
        # MeasurementSetting, the one check of raw lead polarizations,
        # rejects either lead beyond the unit ball.
        for bad in ([1.1, 0, 0], [np.nan, 0, 0]):
            with pytest.raises(ValueError, match="u_left"):
                MeasurementSetting(bad, [0, 0, 1], 1.0)
            with pytest.raises(ValueError, match="u_right"):
                MeasurementSetting([0, 0, 1], bad, 1.0)

    def test_maximally_mixed_maps_to_zero(self):
        assert np.allclose(ancilla_bloch_of([0, 0, 0]), np.zeros(3))

    def test_diag_10_maps_to_z(self):
        assert np.allclose(ancilla_bloch_of([0, 0, 1]), [0, 0, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            u = random_bloch(rng)
            worst = max(worst, np.abs(ancilla_bloch_of(u) - u).max())
        assert worst < 1e-12


class TestSpinOperators:
    # The embedded single-site Paulis are the first nine generators of the
    # model's Hamiltonian stack: gate electron, nucleus, then ancilla.
    SITE_ROWS = {1: slice(0, 3), 2: slice(3, 6), 0: slice(6, 9)}

    def paulis(self, site):
        return _GENERATORS[self.SITE_ROWS[site]].reshape(3, 8, 8)

    def test_single_site_traceless(self):
        for site in range(3):
            for op in self.paulis(site):
                assert abs(np.trace(op)) == 0.0

    def test_distinct_sites_commute(self):
        a = self.paulis(0)[0]
        b = self.paulis(1)[1]
        assert np.allclose(a @ b - b @ a, 0)
        assert a.shape == (8, 8)

    def test_same_site_commutator(self):
        for site in range(3):
            sx, sy, sz = self.paulis(site)
            assert np.allclose(sx @ sy - sy @ sx, 2j * sz, atol=1e-14)

    def test_squares_to_identity_and_hermitian(self):
        for site in range(3):
            for op in self.paulis(site):
                assert np.allclose(op @ op, np.eye(8))
                assert np.allclose(op, op.conj().T)

    def test_zz_eigenvalues(self):
        zz = self.paulis(0)[2] @ self.paulis(1)[2]
        assert np.allclose(np.sort(np.linalg.eigvalsh(zz)), [-1] * 4 + [1] * 4)


class TestDensityValidation:
    def test_valid_passes(self):
        rng = np.random.default_rng(18)
        check_density_matrix(random_density(rng, 4), dims=[2, 2])

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]))

    def test_pauli_identities(self):
        assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
        for p in PAULIS:
            assert np.allclose(p @ p, np.eye(2))
