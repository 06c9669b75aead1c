import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spinturnstile import cycle
from spinturnstile.algebra import (
    PAULIS,
    evolve_unitaries,
    evolve_unitary,
    kron,
    pauli_coordinates,
    pauli_operator,
)
from spinturnstile.constants import G_NUCLEAR_P31, MU_B_PER_HBAR
from spinturnstile.cycle import (
    BLOCK_ROWS,
    HierarchyWarning,
    MeasurementSetting,
    detection_strength,
    run_cycle,
    setting_grid,
    setting_instrument,
    setting_instruments,
    transfer_matrices,
)
from spinturnstile.config import parse_config
from spinturnstile.model import (
    _OVERFLOW_ERROR,
    SpinModelParams,
    TunnelParams,
    build_total_hamiltonian,
    gamma_rate,
    hierarchy_norms,
    model_coefficients,
    model_values,
)

from oracles import (
    ancilla_state,
    check_density_matrix,
    detection_probability,
    hierarchy_report,
    induced_instrument,
    joint_evolve,
    kraus_instrument,
    liouville_matrix,
    partial_trace_bruteforce,
    prepare_ancilla,
    random_bloch,
    random_density,
    random_hermitian,
    rotate_about_axis,
    spin_half,
    spin_hamiltonian,
)

RNG_SCALE = 1.0  # random Hamiltonians in these tests use order-1 rad/s and order-1 s


def hierarchy_ok_params(**overrides):
    """Model params whose time scales satisfy the hierarchy with margin."""
    defaults = dict(
        b_field=(0.0, 0.0, 1e-4),
        g_nuclear=G_NUCLEAR_P31,
        g_ancilla=2.0,
        exchange=0.0,
    )
    defaults.update(overrides)
    return SpinModelParams(**defaults)


def quiet_tunnel():
    return TunnelParams(gamma0=1e9, interdot_sq=1e9, detuning=1e14, tau_detect=1e-10, tau_cycle=1e-6)


def effect_operators(block):
    """The 4x4 pulse and no-pulse effects of a one-row instrument block."""
    return pauli_operator(block.effects[0]), pauli_operator(transfer_matrices(block)[1][0, 0])


class TestPrepareAncilla:
    def test_pure_up(self):
        assert np.allclose(prepare_ancilla([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_unpolarized(self):
        assert np.allclose(prepare_ancilla([0, 0, 0]), np.eye(2) / 2)

    def test_partial_polarization_eigenvalues(self):
        rho = prepare_ancilla([0.7, 0, 0])
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), [0.15, 0.85])


class TestJointEvolve:
    def test_t_zero_is_product(self):
        rng = np.random.default_rng(20)
        rho_a = random_density(rng, 2)
        rho_s = random_density(rng, 4)
        h = random_hermitian(rng, 8)
        got = joint_evolve(rho_a, rho_s, h, 0.0)
        assert np.allclose(got, kron(rho_a, rho_s), atol=1e-14)

    def test_zero_hamiltonian_is_product(self):
        rng = np.random.default_rng(21)
        rho_a = random_density(rng, 2)
        rho_s = random_density(rng, 4)
        got = joint_evolve(rho_a, rho_s, np.zeros((8, 8)), 3.7)
        assert np.allclose(got, kron(rho_a, rho_s), atol=1e-14)

    def test_exchange_swap_point(self):
        # pure isotropic exchange with the nucleus a spectator: at the swap
        # time the ancilla and gate-electron polarizations trade places
        j = 1.0
        p = SpinModelParams(exchange=j)
        h = build_total_hamiltonian(p, include_gate_hamiltonian=False)
        t_swap = np.pi / (4 * j)
        rho_a = spin_half([0, 0, 1.0])
        rho_el = spin_half([0, 0, -1.0])
        rho_s = kron(rho_el, np.eye(2) / 2)
        joint = joint_evolve(rho_a, rho_s, h, t_swap)
        _, u_a = ancilla_state(joint)
        assert np.allclose(u_a, [0, 0, -1.0], atol=1e-10)
        # and the electron picked up the ancilla polarization
        rho_el_after = partial_trace_bruteforce(joint, [2, 2, 2], keep=[1])
        u_el = np.array([np.trace(rho_el_after @ s).real for s in PAULIS])
        assert np.allclose(u_el, [0, 0, 1.0], atol=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            joint = joint_evolve(
                random_density(rng, 2), random_density(rng, 4),
                random_hermitian(rng, 8), rng.uniform(0, 5),
            )
            assert np.isclose(np.trace(joint).real, 1.0, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            joint_evolve(np.eye(4) / 4, np.eye(2) / 2, np.zeros((8, 8)), 1.0)


class TestAncillaState:
    def test_product_input_recovers_ancilla(self):
        rng = np.random.default_rng(23)
        rho_a = random_density(rng, 2)
        rho_s = random_density(rng, 4)
        got, u = ancilla_state(kron(rho_a, rho_s))
        assert np.allclose(got, rho_a, atol=1e-12)

    def test_entangled_pair_is_unpolarized(self):
        # maximally entangled ancilla-electron pair, nucleus in a pure state
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        bell = np.outer(phi, phi.conj())
        rho = kron(bell, np.diag([1.0, 0.0])).reshape(8, 8)
        # reorder: bell lives on (ancilla, electron); kron already orders it so
        _, u = ancilla_state(rho)
        assert np.allclose(u, 0, atol=1e-12)

    def test_polarization_never_exceeds_one(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            joint = joint_evolve(
                spin_half(random_bloch(rng)), random_density(rng, 4),
                random_hermitian(rng, 8), rng.uniform(0, 5),
            )
            _, u = ancilla_state(joint)
            assert np.linalg.norm(u) <= 1 + 1e-10


class TestDetectionProbability:
    def test_antiparallel_unit_vectors(self):
        assert detection_probability([0, 0, 1], [0, 0, -1], 1.0, 1e-10, 1e9) == 0.0

    def test_parallel_unit_vectors(self):
        pr = detection_probability([0, 0, 1], [0, 0, 1], 1.0, 1e-10, 1e9)
        assert pr == pytest.approx(2 * 1.0 * 1e-10 * 1e9, abs=1e-15)

    def test_unpolarized_ancilla(self):
        pr = detection_probability([0, 0, 0], [0.3, 0.4, 0.5], 1.0, 1e-10, 1e9)
        assert pr == pytest.approx(1.0 * 1e-10 * 1e9, abs=1e-15)

    def test_strength_formula(self):
        assert detection_strength(0.5, 1e-10, 1e9) == pytest.approx(0.1)


class TestInducedInstrument:
    def test_no_interaction_effect_is_uninformative(self):
        p = hierarchy_ok_params()
        h = build_total_hamiltonian(p)
        inst = induced_instrument([0, 0, 1], [1, 0, 0], h, 0.0, 1.0, 1e-10, 1e9)
        # proportional to identity: zero information about the gate
        effect_pulse, _ = effect_operators(inst)
        diag = effect_pulse[0, 0]
        assert np.allclose(effect_pulse, diag * np.eye(4), atol=1e-12)

    def test_two_path_consistency_random(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            u_l = random_bloch(rng)
            u_r = random_bloch(rng)
            h = random_hermitian(rng, 8)
            t = rng.uniform(0, 4)
            c, tau, t_sq = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            if detection_strength(c, tau, t_sq) > 1:
                tau = 0.4 / (c * t_sq)
            rho_s = random_density(rng, 4)
            inst = induced_instrument(u_l, u_r, h, t, c, tau, t_sq)
            joint = joint_evolve(spin_half(u_l), rho_s, h, t)
            _, u_a = ancilla_state(joint)
            pr_formula = detection_probability(u_a, u_r, c, tau, t_sq)
            assert abs(inst.pulse_probabilities(rho_s)[0] - pr_formula) < 1e-10

    def test_completeness_and_positivity(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            inst = induced_instrument(
                random_bloch(rng), random_bloch(rng), random_hermitian(rng, 8),
                rng.uniform(0, 4), rng.uniform(0, 1), 0.5, rng.uniform(0, 1),
            )
            effects = effect_operators(inst)
            assert np.abs(sum(effects) - np.eye(4)).max() < 1e-10
            for e in effects:
                assert np.linalg.eigvalsh(e).min() > -1e-10

    def test_transfer_matrices_match_kraus_liouville(self):
        # the transfer matrices are the Liouville matrices of the conditional
        # maps built independently as Kraus sums
        rng = np.random.default_rng(27)
        for _ in range(20):
            u_l, u_r, h = random_bloch(rng), random_bloch(rng), random_hermitian(rng, 8)
            t, c, t_sq = rng.uniform(0, 4), rng.uniform(0.1, 1), rng.uniform(0.1, 1)
            inst = induced_instrument(u_l, u_r, h, t, c, 0.4, t_sq)
            kraus_pulse, kraus_nopulse = kraus_instrument(u_l, u_r, evolve_unitary(h, t), inst.kappa)
            pulse, nopulse, _ = transfer_matrices(inst)
            assert np.abs(pulse[0] - liouville_matrix(kraus_pulse)).max() < 1e-10
            assert np.abs(nopulse[0] - liouville_matrix(kraus_nopulse)).max() < 1e-10

    def test_post_states_are_valid(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            inst = induced_instrument(
                random_bloch(rng, 0.9), random_bloch(rng, 0.9), random_hermitian(rng, 8),
                rng.uniform(0, 4), rng.uniform(0.1, 1), 0.4, rng.uniform(0.1, 1),
            )
            x = pauli_coordinates(random_density(rng, 4))
            probs = []
            pulse, nopulse, _ = transfer_matrices(inst)
            for transfer in (pulse[0], nopulse[0]):
                post = transfer @ x
                if post[0] > 1e-14:
                    check_density_matrix(pauli_operator(post / post[0]) / 4.0, dims=[2, 2], tol=1e-9)
                probs.append(max(post[0], 0.0))
            assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_unphysical_strength_rejected(self):
        with pytest.raises(ValueError):
            induced_instrument([0, 0, 1], [0, 0, 1], np.zeros((8, 8)), 0.0, 1.0, 1e-8, 1e9)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1e-9])
    def test_invalid_time_rejected(self, t):
        # the setting's own check: a NaN time used to give an all-NaN instrument
        with pytest.raises(ValueError, match="^t_interact must be finite and nonnegative$"):
            induced_instrument([0, 0, 1], [0, 0, 1], np.zeros((8, 8)), t, 1.0, 1e-10, 1e9)


class TestRunCycle:
    def test_zeeman_only_closed_form(self):
        # no ancilla-gate coupling: the ancilla polarization just precesses
        # about the field axis; pulse probability follows the rotated vector
        p = hierarchy_ok_params()
        tp = quiet_tunnel()
        t = 3.3e-7
        u_l = np.array([1.0, 0, 0])
        u_r = np.array([0, 0, 1.0])
        rng = np.random.default_rng(29)
        rho_s = random_density(rng, 4)
        out = run_cycle(MeasurementSetting(u_l, u_r, t), p, tp, rho_s, c=1.0)
        b = np.array(p.b_field)
        angle = 2.0 * p.g_ancilla * MU_B_PER_HBAR * np.linalg.norm(b) * t
        u_pred = rotate_about_axis(u_l, b / np.linalg.norm(b), angle)
        assert np.allclose(out.u_ancilla, u_pred, atol=1e-10)
        pr_pred = 1.0 * tp.tau_detect * tp.gamma0 * (1 + u_r @ u_pred)
        assert out.pr_pulse == pytest.approx(pr_pred, abs=1e-12)

    def test_calibration_point(self):
        p = hierarchy_ok_params()
        tp = quiet_tunnel()
        setting = MeasurementSetting([0, 0, 1.0], [0, 0, 1.0], 0.0)
        out = run_cycle(setting, p, tp, np.eye(4) / 4, c=1.0)
        assert out.pr_pulse == pytest.approx(2 * 1.0 * tp.tau_detect * tp.gamma0, abs=1e-12)

    def test_outcome_invariants_random_sweep(self):
        rng = np.random.default_rng(30)
        p = hierarchy_ok_params(exchange=2e5, hyperfine_ancilla=1e5, hyperfine_gate=3e5)
        tp = quiet_tunnel()
        for _ in range(20):
            t = rng.uniform(0, 2e-5)
            setting = MeasurementSetting(random_bloch(rng), random_bloch(rng), t)
            out = run_cycle(setting, p, tp, random_density(rng, 4), c=rng.uniform(0.1, 1.0))
            assert 0.0 <= out.pr_pulse <= 1.0
            assert np.linalg.norm(out.u_ancilla) <= 1 + 1e-10
            total = sum(effect_operators(out.instrument))
            assert np.abs(total - np.eye(4)).max() < 1e-10
            if out.rho_gate_pulse is not None:
                check_density_matrix(out.rho_gate_pulse, tol=1e-9)
            if out.rho_gate_nopulse is not None:
                check_density_matrix(out.rho_gate_nopulse, tol=1e-9)

    def test_level_offset_invariance(self):
        p = hierarchy_ok_params(exchange=2e5, hyperfine_gate=3e5)
        tp = quiet_tunnel()
        setting = MeasurementSetting([0.3, 0.1, 0.9], [0, 1.0, 0], 5e-6)
        rng = np.random.default_rng(31)
        rho_s = random_density(rng, 4)
        base = run_cycle(setting, p, tp, rho_s, c=0.8)
        import dataclasses

        shifted_params = dataclasses.replace(p, level_offset=2.0e9)
        shifted = run_cycle(setting, shifted_params, tp, rho_s, c=0.8)
        assert abs(base.pr_pulse - shifted.pr_pulse) < 1e-10
        assert np.abs(base.u_ancilla - shifted.u_ancilla).max() < 1e-10
        assert np.abs(effect_operators(base.instrument)[0]
                      - effect_operators(shifted.instrument)[0]).max() < 1e-10
        assert np.abs(base.rho_gate_pulse - shifted.rho_gate_pulse).max() < 1e-10

    def test_global_rotation_invariance(self):
        # rotating the field, both leads and the gate state together changes nothing
        from spinturnstile.algebra import PAULIS

        rng = np.random.default_rng(32)
        p = hierarchy_ok_params(exchange=2e5, hyperfine_ancilla=1e5, hyperfine_gate=3e5,
                                b_field=(3e-5, -2e-5, 9e-5))
        tp = quiet_tunnel()
        u_l, u_r = random_bloch(rng), random_bloch(rng)
        rho_s = random_density(rng, 4)
        base = run_cycle(MeasurementSetting(u_l, u_r, 4e-6), p, tp, rho_s, c=0.7)

        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, 2 * np.pi)
        rot = np.array([rotate_about_axis(e, axis, angle) for e in np.eye(3)]).T
        su2 = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * (
            axis[0] * PAULIS[0] + axis[1] * PAULIS[1] + axis[2] * PAULIS[2]
        )
        big = kron(su2, su2)
        import dataclasses

        p_rot = dataclasses.replace(p, b_field=tuple(rot @ np.array(p.b_field)))
        rotated = run_cycle(
            MeasurementSetting(rot @ u_l, rot @ u_r, 4e-6), p_rot, tp, big @ rho_s @ big.conj().T, c=0.7
        )
        assert abs(base.pr_pulse - rotated.pr_pulse) < 1e-10

    def test_purity_never_increases_from_mixed_gate(self):
        rng = np.random.default_rng(33)
        p = hierarchy_ok_params(exchange=3e5, hyperfine_ancilla=2e5)
        tp = quiet_tunnel()
        for _ in range(10):
            t = rng.uniform(0, 2e-5)
            u_l = random_bloch(rng)
            out = run_cycle(MeasurementSetting(u_l, random_bloch(rng), t), p, tp, np.eye(4) / 4, c=0.5)
            purity_before = float(np.trace(spin_half(u_l) @ spin_half(u_l)).real)
            rho_a_after = spin_half(out.u_ancilla)
            purity_after = float(np.trace(rho_a_after @ rho_a_after).real)
            assert purity_after <= purity_before + 1e-10

    def test_hierarchy_violation_warns(self):
        p = SpinModelParams(exchange=1e3)  # agonizingly slow gate dynamics
        tp = TunnelParams(gamma0=1e9, interdot_sq=1e9, detuning=1e10)
        setting = MeasurementSetting([0, 0, 1], [0, 0, 1], 1e-6)
        with pytest.warns(HierarchyWarning):
            run_cycle(setting, p, tp, np.eye(4) / 4, c=1.0)

    def test_hierarchy_threshold_is_honoured(self):
        p = hierarchy_ok_params(exchange=3e5)
        tp = quiet_tunnel()
        args = (MeasurementSetting([0, 0, 1], [0, 0, 1], 1e-6), p, tp, np.eye(4) / 4, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HierarchyWarning)
            run_cycle(*args)
        with pytest.warns(HierarchyWarning):
            run_cycle(*args, threshold=1e12)

    def test_one_setting_routes_reject_other_counts(self):
        # a grid of two rows whose models fail the hierarchy, in either
        # order, and an empty one: each one-setting route raises before it
        # builds an instrument, so it emits no warning
        p = SpinModelParams(exchange=1e3)
        tp = TunnelParams(gamma0=1e9, interdot_sq=1e9, detuning=1e10)
        s1 = MeasurementSetting([0, 0, 1], [0, 0, 1], 1e-6)
        s2 = MeasurementSetting([0, 0, 1], [1, 0, 0], 2e-6)
        for grid, count in (([s1, s2], 2), ([s2, s1], 2), ([], 0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match=f"^expected one setting, got {count}$"):
                    setting_instrument(grid, p, tp, 1.0)
                with pytest.raises(ValueError, match=f"^expected one setting, got {count}$"):
                    run_cycle(setting_grid(grid), p, tp, np.eye(4) / 4, 1.0)
            assert caught == []

    def test_post_states_match_kraus_route(self):
        # both conditional states against sum_k K rho K^dag / tr of Kraus
        # operators built from the same model's propagator; the last case,
        # antiparallel unit leads at t = 0, has no pulse branch
        rng = np.random.default_rng(35)
        tp = quiet_tunnel()
        cases = []
        for _ in range(30):
            p = hierarchy_ok_params(exchange=rng.uniform(1e5, 2e6), hyperfine_gate=rng.uniform(1e5, 3e6),
                                    hyperfine_ancilla=rng.uniform(1e5, 2e6))
            setting = MeasurementSetting(random_bloch(rng), random_bloch(rng), rng.uniform(0, 2e-5))
            cases.append((setting, p, rng.uniform(0.1, 1.0)))
        u = random_bloch(rng)
        u /= np.linalg.norm(u)
        cases.append((MeasurementSetting(u, -u, 0.0), hierarchy_ok_params(), 1.0))
        for i, (setting, p, c) in enumerate(cases):
            rho = random_density(rng, 4)
            out = run_cycle(setting, p, tp, rho, c=c)
            propagator = evolve_unitary(build_total_hamiltonian(p), setting.t_interact)
            kraus = kraus_instrument(setting.u_left, setting.u_right, propagator,
                                     detection_strength(c, tp.tau_detect, tp.gamma0))
            for got, ops in zip((out.rho_gate_pulse, out.rho_gate_nopulse), kraus):
                sigma = sum(k @ rho @ k.conj().T for k in ops)
                prob = np.trace(sigma).real
                if got is None:
                    assert abs(prob) < 1e-14
                else:
                    assert np.abs(got - sigma / prob).max() < 1e-10
            assert out.rho_gate_nopulse is not None
            assert (out.rho_gate_pulse is None) == (i == len(cases) - 1)

    def test_antiparallel_unit_leads_give_zero_probability(self):
        # rounding leaves u_right . u_left a few ulp below -1; the probability
        # must still be exactly 0, not a tiny negative number
        rng = np.random.default_rng(34)
        tp = quiet_tunnel()
        for _ in range(50):
            u = random_bloch(rng)
            u /= np.linalg.norm(u)
            out = run_cycle(MeasurementSetting(u, -u, 0.0), hierarchy_ok_params(), tp, np.eye(4) / 4, c=1.0)
            assert 0.0 <= out.pr_pulse < 1e-15


class TestMeasurementSetting:
    def test_validates_norm(self):
        with pytest.raises(ValueError):
            MeasurementSetting(u_left=(2.0, 0, 0), u_right=(0, 0, 1), t_interact=0.0)

    def test_validates_time(self):
        with pytest.raises(ValueError):
            MeasurementSetting(u_left=(0, 0, 1), u_right=(0, 0, 1), t_interact=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        # nan slips past "norm > 1" and "t < 0", which are both False for it
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting(u_left=(bad, 0, 0), u_right=(0, 0, 1), t_interact=0.0)
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting(u_left=(0, 0, 1), u_right=(0, bad, 0), t_interact=0.0)
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting(u_left=(0, 0, 1), u_right=(0, 0, 1), t_interact=bad)

    @pytest.mark.parametrize("u", [(1e308, 1e308, 0.0), (0.8, 0.8, 0.0), (np.nan, 0.0, 0.0),
                                   (np.inf, np.nan, 0.0)])
    def test_message_names_the_lead(self, u):
        # 1e308 components: the norm test itself must not overflow
        for name, kw in (("u_left", dict(u_left=u, u_right=(0, 0, 1))),
                         ("u_right", dict(u_left=(0, 0, 1), u_right=u))):
            with pytest.raises(ValueError, match=f"^{name} must be finite with norm <= 1$"):
                MeasurementSetting(t_interact=0.0, **kw)

    def test_three_components_required(self):
        with pytest.raises(ValueError, match="^u_right must have 3 components$"):
            MeasurementSetting(u_left=(0, 0, 1), u_right=(0, 1), t_interact=0.0)


class TestSettingInstruments:
    """The batched setting -> instrument route against the oracles, row by row."""

    N = 2 * BLOCK_ROWS + 3  # two full blocks and a partial one

    def settings(self, rng):
        zero = SpinModelParams()  # H = 0 whatever the gate terms
        zeeman_only = SpinModelParams(b_field=(3e-5, -2e-5, 1e-4), g_electron=2.0, g_ancilla=1.5)
        out = []
        for k in range(self.N):
            if k % 4 == 1:
                model = SpinModelParams(
                    b_field=tuple(rng.normal(scale=1e-4, size=3)), g_electron=rng.uniform(-2, 2),
                    g_nuclear=rng.uniform(-2e-3, 2e-3), g_ancilla=rng.uniform(-2, 2),
                    hyperfine_gate=rng.normal(scale=2e6), hyperfine_ancilla=rng.normal(scale=2e6),
                    exchange=rng.normal(scale=2e6), level_offset=rng.normal(scale=1e6))
            else:
                model = (None, None, zero, zeeman_only)[k % 4]
            t = 0.0 if k % 5 == 0 else rng.uniform(1e-7, 3e-6)
            out.append(MeasurementSetting(u_left=tuple(random_bloch(rng)),
                                          u_right=tuple(random_bloch(rng)), t_interact=t, model=model))
        return out

    # The rows' models include H = 0, which no threshold above 0 separates:
    # these checks are of the instruments alone, so they check no hierarchy.
    @staticmethod
    def stacked(settings, base, tunnel, c, include):
        blocks = list(setting_instruments(settings, base, tunnel, c, include, threshold=0.0))
        assert [b.start for b in blocks] == list(range(0, len(settings), BLOCK_ROWS))
        assert all(e is None for b in blocks for e in b.errors)
        return [np.concatenate(maps) for maps in zip(*map(transfer_matrices, blocks))]

    @pytest.mark.parametrize("include", [True, False])
    def test_rows_match_oracles(self, include):
        rng = np.random.default_rng(2024)
        base = hierarchy_ok_params(exchange=1.3e6, hyperfine_ancilla=4e5, hyperfine_gate=2e6,
                                   b_field=(2e-5, 0.0, 1e-4))
        tunnel, c = quiet_tunnel(), 3.1
        kappa = detection_strength(c, tunnel.tau_detect, tunnel.gamma0)
        settings = self.settings(rng)
        pulse, nopulse, bloch = self.stacked(settings, base, tunnel, c, include)
        for k, s in enumerate(settings):
            h = spin_hamiltonian(s.model or base, include)
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(-1j * w * s.t_interact)) @ v.conj().T
            kraus_p, kraus_n = kraus_instrument(s.u_left, s.u_right, u, kappa)
            assert np.abs(pulse[k] - liouville_matrix(kraus_p)).max() < 1e-12
            assert np.abs(nopulse[k] - liouville_matrix(kraus_n)).max() < 1e-12
            # ancilla pathway: a second joint evolution and a partial trace
            rho = random_density(rng, 4)
            _, u_anc = ancilla_state(joint_evolve(prepare_ancilla(s.u_left), rho, h, s.t_interact))
            x = pauli_coordinates(rho)
            assert np.abs(bloch[k] @ x - u_anc).max() < 1e-12
            pr = detection_probability(u_anc, s.u_right, c, tunnel.tau_detect, tunnel.gamma0)
            assert abs(pulse[k, 0] @ x - pr) < 1e-12

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(2025)
        base, tunnel = hierarchy_ok_params(exchange=1.3e6), quiet_tunnel()
        settings = self.settings(rng)
        perm = rng.permutation(self.N)
        ordered = self.stacked(settings, base, tunnel, 2.0, True)
        shuffled = self.stacked([settings[i] for i in perm], base, tunnel, 2.0, True)
        for a, b in zip(ordered, shuffled):
            assert np.array_equal(a[perm], b)

    @pytest.mark.parametrize("include", [True, False])
    def test_instrument_does_not_depend_on_its_block(self, include):
        # a setting alone, at each position of a full block among other
        # settings, and as the lone last row of a (BLOCK_ROWS + 1)-row pass
        # gets the same effect, transfer matrices and pulse probability bit
        # for bit (a one-row product would round differently); the checked
        # settings are rotated through one block, so that each of them takes
        # every position once
        rng = np.random.default_rng(2026)
        base, tunnel = hierarchy_ok_params(exchange=1.3e6, hyperfine_gate=2e6), quiet_tunnel()
        settings = self.settings(rng)
        rho = random_density(rng, 4)
        others, checked = settings[:BLOCK_ROWS], settings[BLOCK_ROWS:]

        def rows(block, k):
            return [block.effects[k], block.pulse_probabilities(rho)[k]] + [
                maps[k] for maps in transfer_matrices(block)]

        wants = []
        for setting in checked:
            (alone,) = setting_instruments([setting], base, tunnel, 2.0, include, threshold=0.0)
            want = rows(alone, 0)
            wants.append(want)
            assert np.array_equal(want[2][0], want[0])  # the first pulse row is the effect
            _, last = setting_instruments(others + [setting], base, tunnel, 2.0, include, threshold=0.0)
            assert len(last.errors) == 1
            assert all(np.array_equal(g, w) for g, w in zip(rows(last, 0), want))
            # the single-instrument route reads the same probability
            single = setting_instrument(setting, base, tunnel, 2.0, include, threshold=0.0)
            assert single.pulse_probabilities(rho)[0] == want[1]
        assert len(checked) > BLOCK_ROWS
        for shift in range(len(checked)):
            order = [(shift + k) % len(checked) for k in range(BLOCK_ROWS)]
            (got,) = setting_instruments([checked[i] for i in order], base, tunnel, 2.0, include, threshold=0.0)
            for k, i in enumerate(order):
                assert all(np.array_equal(g, w) for g, w in zip(rows(got, k), wants[i]))

    @staticmethod
    def record_propagator_rows(monkeypatch):
        """Route ``cycle.evolve_unitaries`` through a recorder; the returned
        list gets, per call, the (Hamiltonian, time) byte keys of its rows."""
        calls = []

        def recording(h, t):
            calls.append([hk.tobytes() + np.float64(tk).tobytes() for hk, tk in zip(h, t)])
            return evolve_unitaries(h, t)

        monkeypatch.setattr(cycle, "evolve_unitaries", recording)
        return calls

    def test_shared_propagators_match_their_lone_rows(self, monkeypatch):
        # (model, t) pairs repeat inside a block and across block boundaries:
        # equal-valued but distinct model objects, a -0.0 field component
        # beside its +0.0 twin, lost-phase rows and overflowing models. Each
        # row is the setting alone, bit for bit, and the whole pass evolves
        # each distinct (H, t) pair once, in the first block that uses it
        rng = np.random.default_rng(2027)
        base, tunnel = hierarchy_ok_params(exchange=1.3e6, hyperfine_gate=2e6), quiet_tunnel()

        def twin():  # a new object per call, equal in value to the others
            return SpinModelParams(b_field=(2e-5, 0.0, 1e-4), g_electron=2.0, g_ancilla=2.0,
                                   exchange=7e5, hyperfine_gate=2e6)

        def signed(zero):
            return SpinModelParams(b_field=(zero, 3e-5, 1e-4), g_electron=2.0, g_ancilla=1.5,
                                   hyperfine_ancilla=4e5)

        huge = SpinModelParams(exchange=1e308, hyperfine_gate=1e308, hyperfine_ancilla=1e308)
        pool = [(lambda: None, 1e-6), (twin, 1e-6), (lambda: None, 2e-6),
                (lambda: signed(-0.0), 1e-6), (lambda: signed(0.0), 1e-6),
                (lambda: None, 1e300), (lambda: huge, 1e-6), (twin, 2e-6),
                (lambda: SpinModelParams(exchange=1e308), 1e300)]
        settings = []
        for k in range(2 * BLOCK_ROWS + 5):
            model, t = pool[k % len(pool)]
            settings.append(MeasurementSetting(u_left=tuple(random_bloch(rng)),
                                               u_right=tuple(random_bloch(rng)), t_interact=t,
                                               model=model()))
        calls = self.record_propagator_rows(monkeypatch)
        blocks = list(setting_instruments(settings, base, tunnel, 2.0))
        grid_calls = calls[:]
        names = ("effects", "propagators", "pulse", "nopulse", "ancilla_bloch")
        lone_keys = []
        for block in blocks:
            arrays = (block.effects, block.propagators, *transfer_matrices(block))
            for k, setting in enumerate(settings[block.start:block.start + len(block.errors)]):
                (alone,) = setting_instruments([setting], base, tunnel, 2.0)
                (key,) = calls[-1]
                lone_keys.append(key)
                assert block.errors[k] == alone.errors[0]
                for name, got, want in zip(names, arrays,
                                           (alone.effects, alone.propagators, *transfer_matrices(alone))):
                    assert np.array_equal(got[k], want[0]), name
        errors = [e for block in blocks for e in block.errors]
        assert errors.count(None) < len(errors) and len(set(errors)) == 3
        assert sorted(key for keys in grid_calls for key in keys) == sorted(set(lone_keys))
        assert len(set(lone_keys)) == len(pool) - 1  # the -0.0 and +0.0 twins are one pair
        # a pair is evolved in the first block that uses it: in the first block here
        assert len(grid_calls) == 1

    def test_tomography_grid_evolves_each_time_once_per_grid(self, monkeypatch):
        # 500 settings over 10 interaction times and the base model, as in a
        # tomography design: 10 propagators for the whole grid, one per time,
        # all in the first block, and one model coefficient pass
        rng = np.random.default_rng(2028)
        times = rng.uniform(1e-7, 3e-6, size=10)
        settings = [MeasurementSetting(u_left=tuple(random_bloch(rng)),
                                       u_right=tuple(random_bloch(rng)), t_interact=times[k % 10])
                    for k in range(500)]
        calls = self.record_propagator_rows(monkeypatch)
        passes = []
        monkeypatch.setattr(cycle, "model_coefficients",
                            lambda values: passes.append(len(values)) or model_coefficients(values))
        blocks = list(setting_instruments(settings, hierarchy_ok_params(exchange=1.3e6),
                                          quiet_tunnel(), 2.0))
        assert [len(b.errors) for b in blocks] == [BLOCK_ROWS] * 7 + [500 - 7 * BLOCK_ROWS]
        assert [len(keys) for keys in calls] == [10] and len(set(calls[0])) == 10
        assert passes == [1]

    def test_a_propagator_is_held_only_while_a_later_block_uses_it(self):
        # a grid of 16 blocks whose (model, t) pairs never repeat holds no
        # propagator from one block to the next, so consuming it peaks within
        # 1.25x of a 4-block grid; a tomography grid of 10 interaction times
        # holds its 10 propagators between blocks, and no more
        rng = np.random.default_rng(2031)
        base, tunnel = hierarchy_ok_params(exchange=1.3e6), quiet_tunnel()

        def grid(times):
            return setting_grid([MeasurementSetting(tuple(random_bloch(rng)), tuple(random_bloch(rng)), t)
                                 for t in times])

        def consume(grid):
            """Peak traced bytes of consuming the grid's blocks, and the most
            8x8 matrices their generator holds between two blocks."""
            blocks, held = setting_instruments(grid, base, tunnel, 2.0), []
            tracemalloc.start()
            try:
                for _ in blocks:
                    held.append(sum(len(v) for v in blocks.gi_frame.f_locals.values()
                                    if isinstance(v, np.ndarray) and v.shape[1:] == (8, 8)))
                return tracemalloc.get_traced_memory()[1], max(held)
            finally:
                tracemalloc.stop()

        small, large = (grid(rng.uniform(1e-7, 3e-6, size=n * BLOCK_ROWS)) for n in (4, 16))
        consume(small)  # one-time allocations of numpy and the package
        (small_peak, small_held), (large_peak, large_held) = consume(small), consume(large)
        assert small_held == large_held == 0
        assert large_peak <= 1.25 * small_peak
        times = rng.uniform(1e-7, 3e-6, size=10)
        assert consume(grid([times[k % 10] for k in range(500)]))[1] == 10

    def test_model_arrays_released_with_the_last_new_pair(self):
        # the generator drops the grid's model coefficients and per-pair
        # index once it has built the block that evolves the last new pair:
        # after the first block of 10 repeating times, after the last one
        # when every row brings a new time
        rng = np.random.default_rng(2033)
        times = rng.uniform(1e-7, 3e-6, size=10)
        base, tunnel = hierarchy_ok_params(exchange=1.3e6), quiet_tunnel()

        def released(times):
            """Per block, whether the generator has dropped each of the arrays."""
            blocks, dropped = setting_instruments([MeasurementSetting((0, 0, 1), (1, 0, 0), t) for t in times],
                                                  base, tunnel, 2.0), []
            for _ in blocks:
                frame = blocks.gi_frame.f_locals
                dropped.append([frame[name] is None for name in ("coefficients", "pair_slots", "pair_times")])
            return dropped

        assert released([times[k % 10] for k in range(3 * BLOCK_ROWS)]) == [[True] * 3] * 3
        assert released(rng.uniform(1e-7, 3e-6, size=3 * BLOCK_ROWS)) == [[False] * 3] * 2 + [[True] * 3]


class TestHierarchyNormCalls:
    """The eigenvalues of the hierarchy check are paid only for the rows whose
    coefficient norm bracket cannot settle it (``model._unsettled_norms``)."""

    @pytest.fixture
    def norm_rows(self, monkeypatch):
        """Route ``hierarchy_norms`` through a recorder, wherever the package
        calls it from; the returned list gets, per call, the coefficient rows
        it received."""
        from spinturnstile import model

        calls = []

        def recording(coefficients):
            calls.append(coefficients.tolist())
            return hierarchy_norms(coefficients)

        for module in (model, cycle):
            monkeypatch.setattr(module, "hierarchy_norms", recording, raising=False)
        return calls

    @staticmethod
    def sweep_config(models, times):
        """A sweep document of default leads, one setting per (model, time)."""
        return parse_config({"sweep": {"settings": [
            {"u_left": {"direction": [0.0, 0.0, 1.0]}, "u_right": {"direction": [1.0, 0.0, 0.0]},
             "t_interact_s": t, "model": m}
            for m, t in zip(models, times)]}})

    @staticmethod
    def instruments(cfg):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blocks = list(setting_instruments(cfg.sweep_settings, cfg.model, cfg.tunnel, cfg.detection_c,
                                              threshold=cfg.hierarchy_threshold))
        return blocks, [w for w in caught if w.category is HierarchyWarning]

    def test_benchmark_range_grid_needs_no_eigenvalues(self, norm_rows):
        # 200 settings drawn as the benchmark's setting_grid draws them:
        # couplings log-uniform over 2e5-5e6 rad/s, times over 1e-7-1e-5 s
        rng = np.random.default_rng(2029)
        models = [dict(zip(("exchange_per_s", "hyperfine_gate_per_s", "hyperfine_ancilla_per_s"),
                           np.exp(rng.uniform(np.log(2e5), np.log(5e6), size=3)).tolist()))
                  for _ in range(200)]
        times = np.exp(rng.uniform(np.log(1e-7), np.log(1e-5), size=200)).tolist()
        blocks, caught = self.instruments(self.sweep_config(models, times))
        assert sum(len(b.errors) for b in blocks) == 200 and not caught
        assert all(e is None for b in blocks for e in b.errors)
        assert norm_rows == []

    def test_only_unsettled_rows_get_eigenvalues(self, norm_rows):
        # settled rows among rows the bracket cannot settle: a zero, a weak
        # and a huge Hamiltonian (they fail the threshold), an overflowing
        # one, and a lone gate hyperfine whose exact ratio_non_dyn passes (130
        # against 100) while its lower bound, sqrt(3) below the norm, cannot
        tunnel = parse_config({}).tunnel
        tau_non = 1.0 / gamma_rate(tunnel.detuning, tunnel)
        zero = dict.fromkeys(("exchange_per_s", "hyperfine_gate_per_s", "hyperfine_ancilla_per_s",
                              "g_nuclear"), 0.0)
        pool = [({}, "settled"), (dict(exchange_per_s=3e6), "settled"), (zero, "warns"),
                (dict(zero, exchange_per_s=1e2), "warns"), (dict(exchange_per_s=1e300), "warns"),
                (dict(zero, hyperfine_gate_per_s=130 * 2 * math.pi / (3 * tau_non)), "passes"),
                (dict(exchange_per_s=1e308, hyperfine_gate_per_s=1e308), "overflows")]
        models, kinds = zip(*(pool[k % len(pool)] for k in range(2 * BLOCK_ROWS + 3)))
        cfg = self.sweep_config(models, [1e-6] * len(models))
        blocks, caught = self.instruments(cfg)
        coefficients = model_coefficients([model_values(cfg.model) if m is None else m
                                           for m in cfg.sweep_settings.models])
        # each distinct unsettled model once, in the order of its first row, in one call
        unsettled = [i for i, kind in enumerate(kinds[:len(pool)]) if kind != "settled"]
        assert norm_rows == [coefficients[unsettled].tolist()]
        # the warnings, one per failing row in row order, read as the per-row route's
        expected = []
        for row, (kind, norm) in enumerate(zip(kinds, hierarchy_norms(coefficients))):
            report = hierarchy_report(norm, cfg.tunnel, cfg.hierarchy_threshold)
            if kind == "warns":
                expected.append(f"setting {row}: time-scale hierarchy tau_res << tau_dyn << tau_non not satisfied "
                                f"(ratios {report.ratio_dyn_res:.3g}, {report.ratio_non_dyn:.3g})")
        assert [str(w.message) for w in caught] == expected and len(expected) == kinds.count("warns")
        errors = [e for b in blocks for e in b.errors]
        assert [e == _OVERFLOW_ERROR for e in errors] == [kind == "overflows" for kind in kinds]

    def test_rates_gets_the_exact_norm(self, norm_rows, tmp_path):
        from spinturnstile.cli import EXIT_OK, main

        config, out = tmp_path / "c.json", tmp_path / "out.csv"
        config.write_text("{}")
        assert main(["rates", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert norm_rows == [model_coefficients([model_values(parse_config({}).model)]).tolist()]
