import numpy as np
import pytest

from spinturnstile.algebra import (
    IDENTITY_2,
    MAX_PHASE,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_to_density,
    check_density_matrix,
    density_to_bloch,
    evolve_unitary,
    kron,
    partial_trace,
    spin_operators,
)

from oracles import (
    kron_bruteforce,
    partial_trace_bruteforce,
    random_bloch,
    random_density,
    random_hermitian,
    rk4_von_neumann,
)


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_with_identity(self):
        assert np.allclose(kron(SIGMA_Z, IDENTITY_2), np.diag([1, 1, -1, -1]))

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


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(10)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 4)
        reduced = partial_trace(kron(rho_a, rho_b), [2, 4], keep=[0])
        assert np.allclose(reduced, rho_a, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace(rho, [2, 2], keep=[0]), np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_random_8x8(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 8)
        expected = partial_trace_bruteforce(rho, [2, 2, 2], keep=[1, 2])
        got = partial_trace(rho, [2, 2, 2], keep=[1, 2])
        assert np.allclose(got, expected, atol=1e-13)
        assert np.isclose(np.trace(got).real, 1.0, atol=1e-12)

    def test_matches_bruteforce_on_random_keeps(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            assert np.allclose(
                partial_trace(m, [2, 2, 2], keep),
                partial_trace_bruteforce(m, [2, 2, 2], keep),
                atol=1e-13,
            )

    def test_linearity(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        n = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a, b = 0.7, -1.3
        lhs = partial_trace(a * m + b * n, [2, 2, 2], [0])
        rhs = a * partial_trace(m, [2, 2, 2], [0]) + b * partial_trace(n, [2, 2, 2], [0])
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2, 2], [0])
        with pytest.raises(ValueError):
            partial_trace(np.eye(8), [2, 2, 2], [])


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


class TestBlochConversions:
    def test_zero_vector_is_maximally_mixed(self):
        assert np.allclose(bloch_to_density([0, 0, 0]), np.eye(2) / 2)

    def test_pure_up(self):
        assert np.allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_pure_x(self):
        assert np.allclose(bloch_to_density([1, 0, 0]), 0.5 * np.ones((2, 2)))

    def test_eigenvalues_from_norm(self):
        rho = bloch_to_density(0.7 * np.array([1.0, 0, 0]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), [0.15, 0.85])

    def test_overlong_vector_rejected(self):
        with pytest.raises(ValueError):
            bloch_to_density([1.1, 0, 0])

    def test_maximally_mixed_maps_to_zero(self):
        assert np.allclose(density_to_bloch(np.eye(2) / 2), np.zeros(3))

    def test_diag_10_maps_to_z(self):
        assert np.allclose(density_to_bloch(np.diag([1.0, 0.0])), [0, 0, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            u = random_bloch(rng)
            worst = max(worst, np.abs(density_to_bloch(bloch_to_density(u)) - u).max())
        assert worst < 1e-12

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            density_to_bloch(np.eye(4) / 4)


class TestSpinOperators:
    def test_single_site_traceless(self):
        ops = spin_operators(1)
        for axis in "xyz":
            assert abs(np.trace(ops.op(0, axis))) == 0.0

    def test_distinct_sites_commute(self):
        ops = spin_operators(3)
        a = ops.op(0, "x")
        b = ops.op(1, "y")
        assert np.allclose(a @ b - b @ a, 0)
        assert a.shape == (8, 8)

    def test_same_site_commutator(self):
        ops = spin_operators(2)
        for site in range(2):
            sx, sy, sz = (ops.op(site, ax) for ax in "xyz")
            assert np.allclose(sx @ sy - sy @ sx, 2j * sz, atol=1e-14)

    def test_squares_to_identity_and_hermitian(self):
        ops = spin_operators(2)
        for site in range(2):
            for axis in "xyz":
                op = ops.op(site, axis)
                assert np.allclose(op @ op, np.eye(4))
                assert np.allclose(op, op.conj().T)

    def test_zz_eigenvalues(self):
        ops = spin_operators(2)
        zz = ops.op(0, "z") @ ops.op(1, "z")
        assert np.allclose(np.sort(np.linalg.eigvalsh(zz)), [-1, -1, 1, 1])

    def test_size_guard(self):
        with pytest.raises(ValueError):
            spin_operators(0)
        with pytest.raises(ValueError):
            spin_operators(13)


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
