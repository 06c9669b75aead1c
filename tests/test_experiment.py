import warnings

import numpy as np
import pytest

from spinturnstile.algebra import pauli_coordinates
from spinturnstile.constants import ELEMENTARY_CHARGE, G_NUCLEAR_P31
from spinturnstile.cycle import BLOCK_ROWS, HierarchyWarning, MeasurementSetting, run_cycle
from spinturnstile.experiment import (
    ChainRecord,
    ShotRecord,
    calibrate,
    derive_setting_seed,
    estimate_current,
    propagate_cycles,
    run_sweep,
    sample_cycles,
)
from spinturnstile.model import SpinModelParams, TunnelParams
from spinturnstile.tomography import TWO_SPIN, build_design

from oracles import check_density_matrix, random_bloch, random_density, spin_half


def quiet_model(**overrides):
    defaults = dict(
        b_field=(0.0, 0.0, 1e-4), g_nuclear=G_NUCLEAR_P31, g_ancilla=2.0,
        exchange=3e5, hyperfine_ancilla=1e5,
    )
    defaults.update(overrides)
    return SpinModelParams(**defaults)


def quiet_tunnel():
    return TunnelParams(gamma0=1e9, interdot_sq=1e9, detuning=1e14, tau_detect=1e-10, tau_cycle=1e-6)


class TestSampleCycles:
    def test_zero_probability(self):
        rec = sample_cycles(0.0, 1000, seed=1)
        assert rec.n_pulses == 0 and rec.pr_hat == 0.0

    def test_unit_probability(self):
        rec = sample_cycles(1.0, 1000, seed=1)
        assert rec.n_pulses == 1000 and rec.pr_hat == 1.0

    def test_identical_seed_identical_record(self):
        assert sample_cycles(0.37, 10_000, seed=99) == sample_cycles(0.37, 10_000, seed=99)

    def test_binomial_concentration(self):
        # |pr_hat - pr| < 3 sigma in at least 99 of 100 seeds
        pr, n = 0.3, 10**6
        bound = 3 * np.sqrt(pr * (1 - pr) / n)
        hits = sum(abs(sample_cycles(pr, n, seed=s).pr_hat - pr) < bound for s in range(100))
        assert hits >= 99

    def test_error_scaling_minus_half(self):
        pr = 0.3
        sizes = [10**3, 10**4, 10**5, 10**6]
        errs = []
        for n in sizes:
            errors = [abs(sample_cycles(pr, n, seed=s).pr_hat - pr) for s in range(60)]
            errs.append(np.mean(errors))
        slope = np.polyfit(np.log10(sizes), np.log10(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            sample_cycles(1.2, 10, seed=0)


class TestEstimateCurrent:
    def test_zero(self):
        rec = sample_cycles(0.0, 10, seed=0)
        assert estimate_current(rec, 1e-6).amperes == 0.0

    def test_unit_probability_value(self):
        rec = sample_cycles(1.0, 10, seed=0)
        assert estimate_current(rec, 1e-6).amperes == pytest.approx(ELEMENTARY_CHARGE / 1e-6)

    def test_halving_period_doubles_current(self):
        rec = sample_cycles(0.4, 10**5, seed=3)
        assert estimate_current(rec, 0.5e-6).amperes == pytest.approx(
            2 * estimate_current(rec, 1e-6).amperes
        )

    def test_linear_in_pr_hat(self):
        a = sample_cycles(0.2, 10**6, seed=5)
        b = sample_cycles(0.4, 10**6, seed=5)
        ia = estimate_current(a, 1e-6).amperes
        ib = estimate_current(b, 1e-6).amperes
        assert ia / a.pr_hat == pytest.approx(ib / b.pr_hat)


class TestCalibrate:
    def test_noiseless_unit_constant(self):
        tau, t_sq = 1e-10, 1e9
        pr = 1.0 * tau * t_sq * (1 + 1.0 * 1.0)
        res = calibrate(pr, 1.0, 1.0, TunnelParams(gamma0=t_sq, tau_detect=tau))
        assert res.c_hat == pytest.approx(1.0, abs=1e-12)
        assert res.residual < 1e-12

    def test_forward_then_inverse_half(self):
        tau, t_sq = 1e-10, 1e9
        pr = 0.5 * tau * t_sq * (1 + 1.0)
        assert pr == pytest.approx(tau * t_sq)
        res = calibrate(pr, 1.0, 1.0, TunnelParams(gamma0=t_sq, tau_detect=tau))
        assert res.c_hat == pytest.approx(0.5, abs=1e-12)

    def test_shot_noise_percent_accuracy(self):
        tau, t_sq, c_true = 1e-10, 1e9, 0.5
        mag = 0.8
        pr = c_true * tau * t_sq * (1 + mag * mag)  # ~0.082
        rec = sample_cycles(pr, 10**6, seed=7)
        res = calibrate(rec.pr_hat, mag, mag, TunnelParams(gamma0=t_sq, tau_detect=tau))
        assert abs(res.c_hat - c_true) / c_true < 0.01

    def test_invalid_magnitudes(self):
        with pytest.raises(ValueError):
            calibrate(0.1, 0.0, 1.0, TunnelParams(gamma0=1e9, tau_detect=1e-10))
        with pytest.raises(ValueError):
            calibrate(0.1, 1.0, 1.5, TunnelParams(gamma0=1e9, tau_detect=1e-10))


class TestSettingSeeds:
    def test_equal_settings_equal_seed(self):
        a = MeasurementSetting(u_left=(0, 0, 1), u_right=(1, 0, 0), t_interact=1e-6)
        b = MeasurementSetting(u_left=(0, 0, 1), u_right=(1, 0, 0), t_interact=1e-6)
        assert derive_setting_seed(42, a) == derive_setting_seed(42, b)

    def test_different_settings_differ(self):
        a = MeasurementSetting(u_left=(0, 0, 1), u_right=(1, 0, 0), t_interact=1e-6)
        b = MeasurementSetting(u_left=(0, 0, 1), u_right=(0, 1, 0), t_interact=1e-6)
        assert derive_setting_seed(42, a) != derive_setting_seed(42, b)

    def test_master_seed_matters(self):
        a = MeasurementSetting(u_left=(0, 0, 1), u_right=(1, 0, 0), t_interact=1e-6)
        assert derive_setting_seed(1, a) != derive_setting_seed(2, a)

    def test_model_override_seed_is_pinned(self):
        # the digest covers every model field in declaration order, a null
        # exchange included; a changed payload would reseed every override row
        model = SpinModelParams(b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31,
                                hyperfine_gate=2e6, hopping=1e6, coulomb_u=1e9)
        a = MeasurementSetting(u_left=(0, 0, 1), u_right=(1, 0, 0), t_interact=1e-6, model=model)
        assert model.exchange is None
        assert derive_setting_seed(42, a) == 1358241148


class TestSweep:
    def axes_settings(self, t=4e-6):
        axes = [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]
        return [MeasurementSetting(u_left=(0, 0, 1.0), u_right=ax, t_interact=t) for ax in axes]

    def common(self):
        return dict(model=quiet_model(), tunnel=quiet_tunnel(),
                    c=1.0, n_cycles=10_000, seed=123)

    def test_single_point_composes_cycle_and_sampling(self):
        kw = self.common()
        setting = self.axes_settings()[2]
        rows = run_sweep([setting], rho_gate=np.eye(4) / 4, **kw)
        assert len(rows) == 1 and rows[0].status == "ok"
        outcome = run_cycle(setting, kw["model"], kw["tunnel"], np.eye(4) / 4, 1.0)
        assert rows[0].pr == pytest.approx(outcome.pr_pulse, abs=1e-15)
        expected = sample_cycles(outcome.pr_pulse, 10_000, derive_setting_seed(123, setting))
        assert rows[0].record == expected

    def test_deterministic(self):
        kw = self.common()
        rows1 = run_sweep(self.axes_settings(), rho_gate=np.eye(4) / 4, **kw)
        rows2 = run_sweep(self.axes_settings(), rho_gate=np.eye(4) / 4, **kw)
        assert rows1 == rows2

    def test_permutation_moves_rows_intact(self):
        kw = self.common()
        settings = self.axes_settings()
        rows = run_sweep(settings, rho_gate=np.eye(4) / 4, **kw)
        perm = [2, 0, 1]
        rows_perm = run_sweep([settings[i] for i in perm], rho_gate=np.eye(4) / 4, **kw)
        for new_idx, old_idx in enumerate(perm):
            assert rows_perm[new_idx].setting == rows[old_idx].setting
            assert rows_perm[new_idx].record == rows[old_idx].record
            assert rows_perm[new_idx].pr == rows[old_idx].pr

    def test_zero_time_axis_probes_recover_left_lead(self):
        # at t=0 the ancilla carries u_left unchanged, so the three axis
        # probabilities linearly encode its components
        kw = self.common()
        u_l = np.array([0.48, -0.36, 0.6])
        settings = [
            MeasurementSetting(u_left=tuple(u_l), u_right=ax, t_interact=0.0)
            for ax in [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]
        ]
        rows = run_sweep(settings, rho_gate=np.eye(4) / 4, **kw)
        kappa = 2 * kw["c"] * 1e-10 * kw["tunnel"].gamma0
        recovered = np.array([2 * row.pr / kappa - 1.0 for row in rows])
        assert np.allclose(recovered, u_l, atol=1e-12)

    def test_recovers_lead_polarization_at_swap_time(self):
        # exchange-swap transfers the gate-electron polarization onto the
        # ancilla; right-axis probes then read off its components
        j = 3e5
        model = quiet_model(exchange=j, hyperfine_ancilla=0.0, g_ancilla=0.0,
                            g_nuclear=0.0, b_field=(0.0, 0.0, 0.0))
        t_swap = np.pi / (4 * j)
        kw = self.common()
        kw["model"] = model
        u_el = np.array([0.3, -0.5, 0.6])
        from spinturnstile.algebra import kron

        rho_gate = kron(spin_half(u_el), np.eye(2) / 2)
        import warnings

        from spinturnstile.cycle import HierarchyWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HierarchyWarning)
            rows = run_sweep(self.axes_settings(t=t_swap), rho_gate=rho_gate, **kw)
        kappa = 2 * 1.0 * 1e-10 * 1e9
        for row, comp in zip(rows, u_el):
            assert row.pr == pytest.approx(kappa / 2 * (1 + comp), abs=1e-10)

    def test_error_rows_do_not_abort(self):
        kw = self.common()
        kw["c"] = 100.0  # unphysical detection strength: every row fails
        rows = run_sweep(self.axes_settings(), rho_gate=np.eye(4) / 4, **kw)
        assert len(rows) == 3
        assert all(r.status.startswith("error:") for r in rows)
        assert all(r.record is None for r in rows)

    def test_lost_phase_rows_mixed_in(self):
        # rows whose propagator phase carries no information become error rows
        # at their own indices, without numpy warnings and without touching
        # the valid rows around them, across block boundaries
        kw = self.common()
        valid = [MeasurementSetting(u_left=(0, 0, 1.0), u_right=ax, t_interact=t)
                 for t in (1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 7e-6, 8e-6, 9e-6, 1e-5, 1.1e-5, 1.2e-5)
                 for ax in [(1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)]]
        bad = MeasurementSetting(u_left=(0, 0, 1.0), u_right=(1.0, 0, 0), t_interact=1e300)
        settings = [s for k, v in enumerate(valid) for s in ((bad, v) if k % 3 == 0 else (v,))]
        assert len(settings) > 2 * BLOCK_ROWS
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_sweep(settings, rho_gate=np.eye(4) / 4, **kw)
            alone = run_sweep(valid, rho_gate=np.eye(4) / 4, **kw)
        ok_rows = []
        for row, s in zip(rows, settings):
            if s is bad:
                assert row.status.startswith("error: propagator phase")
                assert "exceeds" in row.status and row.record is None
            else:
                ok_rows.append(row)
        assert [r.index for r in rows] == list(range(len(settings)))
        assert len(ok_rows) == len(alone)
        for row, ref in zip(ok_rows, alone):
            assert row.status == "ok" and row.setting == ref.setting
            assert row.record == ref.record and row.pr == ref.pr

        with pytest.warns(HierarchyWarning) as caught:
            run_sweep(settings, rho_gate=np.eye(4) / 4, threshold=1e9, **kw)
        assert len([w for w in caught if w.category is HierarchyWarning]) == len(settings)

    def test_unallocatable_chain_is_an_error_row(self, monkeypatch):
        # A propagate row whose chain cannot be allocated (e.g. 1e13 cycles)
        # becomes an error row; the stand-in raises without allocating.
        import spinturnstile.experiment as experiment

        settings = self.axes_settings()
        chain = experiment.propagate_cycles

        def propagate_or_fail(instrument, rho_gate, n, seed):
            if seed == derive_setting_seed(123, settings[1]):
                raise MemoryError("Unable to allocate 72.8 TiB for an array")
            return chain(instrument, rho_gate, n, seed)

        monkeypatch.setattr(experiment, "propagate_cycles", propagate_or_fail)
        rows = run_sweep(settings, rho_gate=np.eye(4) / 4, mode="propagate", **self.common())
        assert [r.status for r in rows[::2]] == ["ok", "ok"]
        assert rows[1].status == "error: Unable to allocate 72.8 TiB for an array"
        assert rows[1].record is None and rows[1].current is None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], rho_gate=np.eye(4) / 4, **self.common())

    def test_antiparallel_unit_leads_are_ok_rows(self):
        # u_right = -u_left at unit magnitude and t = 0: the true probability
        # is 0, and rounding just below it must not turn a row into an error
        rng = np.random.default_rng(37)
        settings = []
        for _ in range(100):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            settings.append(MeasurementSetting(u_left=tuple(u), u_right=tuple(-u), t_interact=0.0))
        rows = run_sweep(settings, rho_gate=np.eye(4) / 4, **self.common())
        assert [r.status for r in rows] == ["ok"] * len(settings)
        assert all(0.0 <= r.pr < 1e-15 for r in rows)


@pytest.mark.parametrize("include_gate_hamiltonian", [True, False])
def test_sweep_cycle_and_design_agree(include_gate_hamiltonian):
    # one setting -> instrument route: a sweep row, a single cycle and a
    # tomography design row give the same probability, model overrides included
    rng = np.random.default_rng(38)
    base, tunnel, c = quiet_model(), quiet_tunnel(), 0.8
    settings = [
        MeasurementSetting(
            u_left=tuple(random_bloch(rng)), u_right=tuple(random_bloch(rng)),
            t_interact=rng.uniform(1e-7, 1e-5),
            model=None if k == 0 else quiet_model(exchange=rng.uniform(2e5, 5e6),
                                                  hyperfine_gate=rng.uniform(2e5, 5e6)),
        )
        for k in range(6)
    ]
    rho = random_density(rng, 4)
    rows = run_sweep(settings, model=base, tunnel=tunnel, rho_gate=rho, c=c, n_cycles=10,
                     seed=1, include_gate_hamiltonian=include_gate_hamiltonian)
    design = build_design(settings, base, tunnel, c, mode=TWO_SPIN,
                          include_gate_hamiltonian=include_gate_hamiltonian)
    pr_design = design.pulse_rows @ pauli_coordinates(rho)
    for row, s, pr_row in zip(rows, settings, pr_design):
        out = run_cycle(s, base, tunnel, rho, c, include_gate_hamiltonian)
        assert row.status == "ok"
        assert abs(row.pr - out.pr_pulse) <= 1e-15
        assert abs(row.pr - pr_row) <= 1e-15


class TestPropagate:
    def make_instrument(self):
        from spinturnstile.cycle import induced_instrument
        from spinturnstile.model import build_total_hamiltonian

        model = quiet_model()
        h = build_total_hamiltonian(model)
        return induced_instrument([0, 0, 1.0], [1.0, 0, 0], h, 4e-6, 1.0, 1e-10, 1e9)

    def test_deterministic(self):
        inst = self.make_instrument()
        rng = np.random.default_rng(50)
        rho = random_density(rng, 4)
        a = propagate_cycles(inst, rho, 500, seed=7)
        b = propagate_cycles(inst, rho, 500, seed=7)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert a.n_pulses == b.n_pulses

    def test_uninformative_chain_matches_binomial(self):
        # a zero-time instrument has no back-action: the chain is iid and
        # must reproduce the plain binomial draw statistics
        from spinturnstile.cycle import induced_instrument
        from spinturnstile.model import build_total_hamiltonian

        h = build_total_hamiltonian(quiet_model())
        inst = induced_instrument([0, 0, 1.0], [1.0, 0, 0], h, 0.0, 1.0, 1e-10, 1e9)
        pr = inst.pulse_probability(np.eye(4) / 4)
        rec = propagate_cycles(inst, np.eye(4) / 4, 20_000, seed=11)
        assert abs(rec.pr_hat - pr) < 4 * np.sqrt(pr * (1 - pr) / 20_000)

    def test_chain_record_extends_shot_record(self):
        inst = self.make_instrument()
        rec = propagate_cycles(inst, np.eye(4) / 4, 2_000, seed=13)
        assert isinstance(rec, ChainRecord) and isinstance(rec, ShotRecord)
        assert rec.pr_hat == rec.n_pulses / 2_000
        assert rec.std_err == np.sqrt(rec.pr_hat * (1 - rec.pr_hat) / 2_000)

    def test_propagate_row_keeps_the_count(self):
        # a propagate sweep row holds the chain's ShotRecord fields, not its arrays
        kw = dict(model=quiet_model(), tunnel=quiet_tunnel(), rho_gate=np.eye(4) / 4, c=1.0,
                  n_cycles=700, seed=3, mode="propagate")
        setting = MeasurementSetting([0, 0, 1.0], [1.0, 0, 0], 4e-6)
        (row,) = run_sweep([setting], **kw)
        chain = propagate_cycles(self.make_instrument(), np.eye(4) / 4, 700,
                                 derive_setting_seed(3, setting))
        assert type(row.record) is ShotRecord
        assert row.record == ShotRecord(chain.n_cycles, chain.n_pulses, chain.pr_hat,
                                        chain.std_err, chain.seed)

    def test_final_state_valid(self):
        inst = self.make_instrument()
        rec = propagate_cycles(inst, np.eye(4) / 4, 2_000, seed=13)
        check_density_matrix(rec.rho_final, tol=1e-8)
        assert rec.outcomes.shape == (2_000,)
        assert 0 <= rec.pr_hat <= 1
