import numpy as np
import pytest

from spinturnstile.cycle import MeasurementSetting
from spinturnstile.model import SpinModelParams, TunnelParams
from spinturnstile.tomography import (
    SINGLE_SPIN,
    TWO_SPIN,
    PAULI_PRODUCT_LABELS,
    RankDeficientWarning,
    build_design,
    density_to_theta,
    forward_probabilities,
    is_physical,
    n_parameters,
    project_physical,
    reconstruct,
    theta_to_density,
    unidentifiable_directions,
)

from oracles import eigclip_project, partial_trace_bruteforce, random_density

AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
C, TAU, TSQ = 1.0, 1e-10, 1e9  # kappa = 0.2
TUNNEL = TunnelParams(gamma0=TSQ, tau_detect=TAU)


def exchange_model(j=1.2e7):
    return SpinModelParams(exchange=j)


def rich_model():
    # couples the nucleus strongly enough to identify all 15 parameters
    return SpinModelParams(
        b_field=(0.0, 0.0, 0.01), g_nuclear=1.2314e-3,
        hyperfine_gate=2.0e6, hyperfine_ancilla=1.1e6, exchange=7.0e5,
    )


def swap_axes_settings(j=1.2e7):
    t_swap = np.pi / (4 * j)
    return [
        MeasurementSetting(u_left=AXES["z"], u_right=AXES[ax], t_interact=t_swap)
        for ax in ("x", "y", "z")
    ]


def two_spin_settings():
    base = 2 * np.pi / 6.4e6
    times = [0.35 * base, 0.8 * base, 1.45 * base, 2.2 * base]
    out = []
    for t in times:
        for la in ("x", "z"):
            for lr in ("x", "y", "z"):
                out.append(MeasurementSetting(u_left=AXES[la], u_right=AXES[lr], t_interact=t))
    return out


def random_single_theta(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0, 1)


class TestParameterization:
    def test_round_trip_two_spin(self):
        rng = np.random.default_rng(60)
        rho = random_density(rng, 4)
        theta = density_to_theta(rho, TWO_SPIN)
        assert np.abs(theta_to_density(theta, TWO_SPIN) - rho).max() < 1e-12

    def test_round_trip_single_spin(self):
        rng = np.random.default_rng(61)
        theta = random_single_theta(rng)
        rho = theta_to_density(theta, SINGLE_SPIN)
        assert np.allclose(density_to_theta(rho, SINGLE_SPIN), theta, atol=1e-12)

    def test_single_spin_nucleus_maximally_mixed(self):
        rho = theta_to_density(np.array([0.2, -0.3, 0.5]), SINGLE_SPIN)
        nuc = partial_trace_bruteforce(rho, [2, 2], keep=[1])
        assert np.allclose(nuc, np.eye(2) / 2, atol=1e-14)

    def test_label_count(self):
        assert len(PAULI_PRODUCT_LABELS) == 15
        assert n_parameters(SINGLE_SPIN) == 3 and n_parameters(TWO_SPIN) == 15


class TestProjection:
    def test_physical_input_unchanged(self):
        theta = np.array([0.3, 0.0, 0.4])
        assert np.allclose(project_physical(theta, SINGLE_SPIN), theta)

    def test_overlong_vector_shrinks_radially(self):
        theta = np.array([2.0, 0.0, 0.0])
        proj = project_physical(theta, SINGLE_SPIN)
        assert np.allclose(proj, [1.0, 0.0, 0.0])

    def test_two_spin_matches_eigclip_oracle(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 4)
        theta = density_to_theta(rho, TWO_SPIN)
        theta_bad = theta * 1.4  # pushes an eigenvalue negative
        assert not is_physical(theta_bad, TWO_SPIN)
        proj = project_physical(theta_bad, TWO_SPIN)
        oracle = eigclip_project(theta_to_density(theta_bad, TWO_SPIN))
        assert np.abs(theta_to_density(proj, TWO_SPIN) - oracle).max() < 1e-10
        assert is_physical(proj, TWO_SPIN)

    @pytest.mark.parametrize("mode", [SINGLE_SPIN, TWO_SPIN])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, mode, bad):
        # NaN used to end in LinAlgError "Eigenvalues did not converge"
        theta = np.zeros(n_parameters(mode))
        theta[1] = bad
        for check in (is_physical, project_physical):
            with pytest.raises(ValueError, match="finite"):
                check(theta, mode)

    def test_idempotent(self):
        rng = np.random.default_rng(63)
        for mode, dim in ((SINGLE_SPIN, 3), (TWO_SPIN, 15)):
            theta = rng.normal(size=dim)
            once = project_physical(theta, mode)
            twice = project_physical(once, mode)
            assert np.allclose(once, twice, atol=1e-10)


class TestBuildDesign:
    def test_no_interaction_rank_zero(self):
        settings = [
            MeasurementSetting(u_left=AXES["z"], u_right=AXES[ax], t_interact=0.0)
            for ax in ("x", "y", "z")
        ]
        design = build_design(settings, exchange_model(), TUNNEL, C, mode=SINGLE_SPIN)
        assert design.rank == 0
        assert np.abs(design.matrix).max() < 1e-12

    def test_swap_design_rank_three(self):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        assert design.rank == 3
        assert design.condition_number < 1.0 + 1e-9

    def test_duplicated_rows_leave_rank_unchanged(self):
        settings = swap_axes_settings()
        d1 = build_design(settings, exchange_model(), TUNNEL, C, mode=SINGLE_SPIN,
                          include_gate_hamiltonian=False)
        d2 = build_design(settings + settings, exchange_model(), TUNNEL, C,
                          mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        assert d1.rank == d2.rank == 3

    def test_rank_monotone_in_settings(self):
        settings = two_spin_settings()
        model = rich_model()
        ranks = []
        for k in (3, 6, 12, len(settings)):
            ranks.append(build_design(settings[:k], model, TUNNEL, C, mode=TWO_SPIN).rank)
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_affine_forward_model_matches_simulation(self):
        # Pr = A theta + b must reproduce the direct instrument pathway
        from spinturnstile.cycle import induced_instrument
        from spinturnstile.model import build_total_hamiltonian

        rng = np.random.default_rng(64)
        model = rich_model()
        settings = two_spin_settings()[::5]
        design = build_design(settings, model, TUNNEL, C, mode=TWO_SPIN)
        h = build_total_hamiltonian(model)
        for _ in range(5):
            rho = random_density(rng, 4)
            theta = density_to_theta(rho, TWO_SPIN)
            predicted = forward_probabilities(design, theta)
            for i, s in enumerate(settings):
                inst = induced_instrument(s.u_left, s.u_right, h, s.t_interact, C, TAU, TSQ)
                assert abs(predicted[i] - inst.pulse_probability(rho)) < 1e-10

    def test_affine_combination_linearity(self):
        rng = np.random.default_rng(65)
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        t1, t2 = random_single_theta(rng), random_single_theta(rng)
        alpha = 0.3
        combo = alpha * t1 + (1 - alpha) * t2
        lhs = forward_probabilities(design, combo)
        rhs = alpha * forward_probabilities(design, t1) + (1 - alpha) * forward_probabilities(design, t2)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestReconstruct:
    def test_noiseless_exact_recovery_single_spin(self):
        rng = np.random.default_rng(66)
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        for _ in range(25):
            theta = random_single_theta(rng)
            pr = forward_probabilities(design, theta)
            result = reconstruct(design, pr)
            assert np.linalg.norm(result.theta_hat - theta) < 1e-8
            assert result.residual_norm < 1e-12

    def test_noiseless_exact_recovery_two_spin(self):
        rng = np.random.default_rng(67)
        design = build_design(two_spin_settings(), rich_model(), TUNNEL, C, mode=TWO_SPIN)
        assert design.rank == 15
        for _ in range(10):
            theta = density_to_theta(random_density(rng, 4), TWO_SPIN)
            pr = forward_probabilities(design, theta)
            result = reconstruct(design, pr)
            assert np.linalg.norm(result.theta_hat - theta) < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_rejected(self, bad):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        pr = forward_probabilities(design, np.array([0.3, 0.2, 0.1]))
        pr[1] = bad
        with pytest.raises(ValueError, match="finite"):
            reconstruct(design, pr, shot_counts=1000)

    def test_rank_zero_returns_zero_with_warning(self):
        settings = [
            MeasurementSetting(u_left=AXES["z"], u_right=AXES[ax], t_interact=0.0)
            for ax in ("x", "y", "z")
        ]
        design = build_design(settings, exchange_model(), TUNNEL, C, mode=SINGLE_SPIN)
        pr = forward_probabilities(design, np.array([0.3, 0.2, 0.1]))
        with pytest.warns(RankDeficientWarning):
            result = reconstruct(design, pr)
        assert np.allclose(result.theta_hat, 0.0)

    def test_unphysical_estimate_reports_projection(self):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        theta = np.array([0.0, 0.0, 0.999])
        pr = forward_probabilities(design, theta)
        noisy = pr + np.array([2e-3, 0.0, 2e-3])  # push |u| past 1
        result = reconstruct(design, noisy)
        if not result.physical:
            assert result.physical_projection is not None
            assert is_physical(result.physical_projection, SINGLE_SPIN)
        else:
            assert result.physical_projection is None

    def test_covariance_matches_monte_carlo(self):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        theta = np.array([0.2, -0.4, 0.5])
        pr = forward_probabilities(design, theta)
        n = 20_000
        estimates = []
        predicted = None
        for rep in range(200):
            rng = np.random.default_rng(1000 + rep)
            pr_hat = rng.binomial(n, pr) / n
            result = reconstruct(design, pr_hat, shot_counts=n)
            estimates.append(result.theta_hat)
            predicted = result.covariance
        empirical = np.cov(np.array(estimates).T)
        for j in range(3):
            ratio = empirical[j, j] / predicted[j, j]
            assert 1 / 1.5 < ratio < 1.5

    def test_shot_noise_error_scaling(self):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        theta = np.array([0.1, 0.3, -0.5])
        pr = forward_probabilities(design, theta)
        sizes = [10**4, 10**5, 10**6]
        mean_errs = []
        for n in sizes:
            errs = []
            for rep in range(30):
                rng = np.random.default_rng(5000 + rep)
                pr_hat = rng.binomial(n, pr) / n
                errs.append(np.linalg.norm(reconstruct(design, pr_hat).theta_hat - theta))
            mean_errs.append(np.mean(errs))
        slope = np.polyfit(np.log10(sizes), np.log10(mean_errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_row_count_mismatch(self):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        with pytest.raises(ValueError):
            reconstruct(design, np.zeros(5))


class TestIdentifiability:
    def test_full_rank_reported_identifiable(self):
        design = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        assert design.rank == design.n_params == 3
        assert not unidentifiable_directions(design)

    def test_decoupled_nucleus_flagged(self):
        # with both hyperfine couplings off the nucleus never talks to the
        # ancilla: every nuclear-involved parameter is unidentifiable
        model = SpinModelParams(exchange=1.2e7, hyperfine_gate=0.0, hyperfine_ancilla=0.0)
        settings = [
            MeasurementSetting(u_left=AXES[a], u_right=AXES[b], t_interact=t)
            for a in ("x", "z") for b in ("x", "y", "z")
            for t in (np.pi / (4 * 1.2e7), np.pi / (8 * 1.2e7))
        ]
        design = build_design(settings, model, TUNNEL, C, mode=TWO_SPIN,
                              include_gate_hamiltonian=False)
        assert design.rank == 3
        # nuclear and correlator columns carry no signal
        assert np.abs(design.matrix[:, 3:]).max() < 1e-12
        assert design.rank < design.n_params
        assert len(unidentifiable_directions(design)) == 12

    def test_empty_null_space_iff_full_rank(self):
        d_full = build_design(swap_axes_settings(), exchange_model(), TUNNEL, C,
                              mode=SINGLE_SPIN, include_gate_hamiltonian=False)
        assert d_full.null_space.shape[1] == 0
        assert d_full.rank == d_full.n_params
        d_zero = build_design(
            [MeasurementSetting(u_left=AXES["z"], u_right=AXES["z"], t_interact=0.0)],
            exchange_model(), TUNNEL, C, mode=SINGLE_SPIN,
        )
        assert d_zero.null_space.shape[1] == 3 - d_zero.rank
