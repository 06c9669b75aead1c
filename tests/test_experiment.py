import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from spinturnstile.algebra import pauli_coordinates
from spinturnstile.constants import ELEMENTARY_CHARGE, G_NUCLEAR_P31
from spinturnstile.cycle import (
    BLOCK_ROWS,
    HierarchyWarning,
    MeasurementSetting,
    run_cycle,
    setting_instrument,
    transfer_matrices,
)
from spinturnstile.experiment import (
    ChainRecord,
    ShotRecord,
    _count_record,
    _seed_states,
    _uint32_words,
    calibrate,
    derive_setting_seed,
    estimate_current,
    propagate_cycles,
    run_sweep,
    sample_counts,
    sample_cycles,
)
from spinturnstile.model import SpinModelParams, TunnelParams
from spinturnstile.tomography import TWO_SPIN, build_design

from oracles import check_density_matrix, induced_instrument, random_bloch, random_density, spin_half


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

    @pytest.mark.parametrize("n", [3, 10_000, 12_345_678_901])
    def test_std_err_is_the_numpy_square_root(self, n):
        # math.sqrt and numpy.sqrt are both the correctly rounded square root
        for count in (0, 1, n // 2, n - 1, n):
            pr_hat = count / n
            std_err = _count_record(count, n, seed=1).std_err
            assert type(std_err) is float
            assert std_err.hex() == float(np.sqrt(pr_hat * (1.0 - pr_hat) / n)).hex()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            sample_cycles(1.2, 10, seed=0)


class TestSampleCounts:
    # 1000 seeds: every derived seed is below 2**32, and a master seed, which
    # the calibrate command draws with, is below 2**63
    SEEDS = [*range(990), 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**48 + 7, 3**40, 2**63,
             2**33 + 1, 5**27, 12345]

    def test_seeding_matches_numpy_over_a_fixed_table(self):
        states = _seed_states(_uint32_words(self.SEEDS), 8)
        changed = [s for s, state in zip(self.SEEDS, states)
                   if not np.array_equal(state, np.random.SeedSequence(s).generate_state(8))]
        assert not changed, (
            f"numpy's SeedSequence no longer matches experiment._seed_states (seeds {changed[:5]}): "
            "a numpy upgrade changed its seeding, so the stacked copy must follow it")
        prs = [(0.0, 5e-324, 0.3, 0.5, 1 - 2**-53, 1.0)[i % 6] for i in range(len(self.SEEDS))]
        for n in (1, 1000, 2**63 - 1):
            want = [int(np.random.default_rng(s).binomial(n, p)) for p, s in zip(prs, self.SEEDS)]
            got = sample_counts(prs, n, self.SEEDS)
            changed = [s for s, a, b in zip(self.SEEDS, got, want) if a != b]
            assert not changed, (
                f"sample_counts differs from default_rng(seed).binomial({n}, pr) for seeds "
                f"{changed[:5]}: a numpy upgrade changed how PCG64 starts from its seed")

    def test_one_row_case(self):
        assert sample_cycles(0.37, 10_000, seed=99).n_pulses == sample_counts([0.37], 10_000, [99])[0]
        assert sample_counts([], 10, []) == []

    def test_invalid_rows(self):
        with pytest.raises(ValueError, match=r"^pulse probability 1.2 outside \[0, 1\]$"):
            sample_counts([0.5, 1.2, math.nan], 10, [1, 2, 3])
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"^seeds must lie in \[0, 2\*\*64\)$"):
                sample_counts([0.5], 10, [seed])
        with pytest.raises(ValueError, match="^sample_counts needs one seed per probability$"):
            sample_counts([0.5, 0.5], 10, [1])


class TestEstimateCurrent:
    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError, match="^tau_cycle must be positive$"):
            estimate_current(sample_cycles(0.5, 10, seed=0), 0.0)

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
    # the calibration geometry: parallel leads along z, interaction off, where
    # the pulse probability is c tau_detect gamma0 (1 + |u_right| |u_left|)
    TUNNEL = TunnelParams(gamma0=1e9, tau_detect=1e-10)

    def pr_model(self, mag):
        # the model's probability at c = 1, read off the pulse effect
        setting = MeasurementSetting(u_left=(0, 0, mag), u_right=(0, 0, mag), t_interact=0.0)
        instrument = setting_instrument(setting, quiet_model(), self.TUNNEL, 1.0)
        return instrument.pulse_probabilities(np.eye(4) / 4)[0]

    def test_noiseless_unit_constant(self):
        pr = self.pr_model(1.0)
        assert pr == pytest.approx(1.0 * 1e-10 * 1e9 * (1 + 1.0 * 1.0), abs=1e-12)
        assert calibrate(pr, pr, 1.0) == 1.0

    def test_forward_then_inverse_half(self):
        tau, t_sq = 1e-10, 1e9
        pr = 0.5 * tau * t_sq * (1 + 1.0)
        assert pr == pytest.approx(tau * t_sq)
        assert calibrate(pr, self.pr_model(1.0), 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_shot_noise_percent_accuracy(self):
        tau, t_sq, c_true = 1e-10, 1e9, 0.5
        mag = 0.8
        pr = c_true * tau * t_sq * (1 + mag * mag)  # ~0.082
        rec = sample_cycles(pr, 10**6, seed=7)
        c_hat = calibrate(rec.pr_hat, self.pr_model(mag), 1.0)
        assert abs(c_hat - c_true) / c_true < 0.01

    def test_nonpositive_model_probability(self):
        for pr_model in (0.0, -0.0, math.nan):
            with pytest.raises(ValueError, match="must be positive to calibrate"):
                calibrate(0.1, pr_model, 1.0)


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

    def test_int_and_float_inputs_share_a_seed(self):
        # json.dumps writes 1 and 1.0 differently: the values are kept as
        # floats, so equal settings write one text and derive one seed
        as_int = MeasurementSetting(u_left=(0, 0, 1), u_right=(1, 0, 0), t_interact=1)
        as_float = MeasurementSetting(u_left=(0.0, 0.0, 1.0), u_right=(1.0, 0.0, 0.0), t_interact=1.0)
        assert as_int == as_float and type(as_int.t_interact) is float
        assert derive_setting_seed(1, as_int) == derive_setting_seed(1, as_float) == 152993821

        int_model = SpinModelParams(b_field=[0, 0, 1], g_electron=2, g_nuclear=-1, g_ancilla=2,
                                    hyperfine_gate=10**6, hyperfine_ancilla=10**5, hopping=10**6,
                                    coulomb_u=10**9, level_offset=3)
        float_model = SpinModelParams(b_field=(0.0, 0.0, 1.0), g_electron=2.0, g_nuclear=-1.0,
                                      g_ancilla=2.0, hyperfine_gate=1e6, hyperfine_ancilla=1e5,
                                      hopping=1e6, coulomb_u=1e9, level_offset=3.0)
        assert int_model == float_model and int_model.exchange is None
        assert all(type(getattr(int_model, f.name)) is float for f in fields(int_model) if f.name not in
                   ("b_field", "exchange"))
        assert all(type(v) is float for v in int_model.b_field)
        assert type(SpinModelParams(exchange=3).exchange) is float
        seeds = {derive_setting_seed(1, replace(setting, model=model))
                 for setting in (as_int, as_float) for model in (int_model, float_model)}
        assert len(seeds) == 1


class TestSweep:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown sweep mode 'bogus'$"):
            run_sweep(self.axes_settings(), rho_gate=np.eye(4) / 4, mode="bogus", **self.common())

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
        settings_perm = [settings[i] for i in perm]
        rows_perm = run_sweep(settings_perm, rho_gate=np.eye(4) / 4, **kw)
        for new_idx, old_idx in enumerate(perm):
            assert settings_perm[new_idx] == settings[old_idx]
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
                 for t in [k * 1e-6 for k in range(1, 34)]
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
                ok_rows.append((row, s))
        assert len(rows) == len(settings)
        assert len(ok_rows) == len(alone)
        for (row, s), ref, s_ref in zip(ok_rows, alone, valid):
            assert row.status == "ok" and s == s_ref
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

        def propagate_or_fail(pulse, nopulse, rho_gate, n, seed, **kwargs):
            if seed == derive_setting_seed(123, settings[1]):
                raise MemoryError("Unable to allocate 72.8 TiB for an array")
            return chain(pulse, nopulse, rho_gate, n, seed, **kwargs)

        monkeypatch.setattr(experiment, "propagate_cycles", propagate_or_fail)
        rows = run_sweep(settings, rho_gate=np.eye(4) / 4, mode="propagate", **self.common())
        assert [r.status for r in rows[::2]] == ["ok", "ok"]
        assert rows[1].status == "error: Unable to allocate 72.8 TiB for an array"
        assert rows[1].record is None

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


def test_row_pr_is_the_cycle_pr_bit_for_bit():
    # a setting's pr is the same alone, in a (BLOCK_ROWS + 1)-row sweep and from run_cycle
    rng = np.random.default_rng(39)
    base, tunnel, c = quiet_model(), quiet_tunnel(), 0.8
    settings = [
        MeasurementSetting(u_left=tuple(random_bloch(rng)), u_right=tuple(random_bloch(rng)),
                           t_interact=rng.uniform(1e-7, 1e-5),
                           model=quiet_model(exchange=rng.uniform(2e5, 5e6)))
        for _ in range(BLOCK_ROWS + 1)
    ]
    rho = random_density(rng, 4)
    kw = dict(model=base, tunnel=tunnel, rho_gate=rho, c=c, n_cycles=10, seed=1)
    together = [row.pr for row in run_sweep(settings, **kw)]
    for s, pr in zip(settings, together):
        (alone,) = run_sweep([s], **kw)
        assert alone.pr == pr == run_cycle(s, base, tunnel, rho, c).pr_pulse


class TestPropagate:
    def make_maps(self):
        """(pulse, nopulse) of the x-probe instrument at 4 us."""
        from spinturnstile.model import build_total_hamiltonian

        model = quiet_model()
        h = build_total_hamiltonian(model)
        inst = induced_instrument([0, 0, 1.0], [1.0, 0, 0], h, 4e-6, 1.0, 1e-10, 1e9)
        pulse, nopulse, _ = transfer_matrices(inst)
        return pulse[0], nopulse[0]

    def test_deterministic(self):
        maps = self.make_maps()
        rng = np.random.default_rng(50)
        rho = random_density(rng, 4)
        a = propagate_cycles(*maps, rho, 500, seed=7)
        b = propagate_cycles(*maps, rho, 500, seed=7)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert a.shots.n_pulses == b.shots.n_pulses

    def test_uninformative_chain_matches_binomial(self):
        # a zero-time instrument has no back-action: the chain is iid and
        # must reproduce the plain binomial draw statistics
        from spinturnstile.model import build_total_hamiltonian

        h = build_total_hamiltonian(quiet_model())
        inst = induced_instrument([0, 0, 1.0], [1.0, 0, 0], h, 0.0, 1.0, 1e-10, 1e9)
        pr = inst.pulse_probabilities(np.eye(4) / 4)[0]
        pulse, nopulse, _ = transfer_matrices(inst)
        rec = propagate_cycles(pulse[0], nopulse[0], np.eye(4) / 4, 20_000, seed=11)
        assert abs(rec.shots.pr_hat - pr) < 4 * np.sqrt(pr * (1 - pr) / 20_000)

    def test_chain_record_holds_its_count(self):
        chain = propagate_cycles(*self.make_maps(), np.eye(4) / 4, 2_000, seed=13)
        rec = chain.shots
        assert isinstance(chain, ChainRecord) and type(rec) is ShotRecord
        assert rec.pr_hat == rec.n_pulses / 2_000
        assert rec.std_err == np.sqrt(rec.pr_hat * (1 - rec.pr_hat) / 2_000)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            propagate_cycles(*self.make_maps(), np.eye(4) / 4, 0, seed=13)

    def test_propagate_row_keeps_the_count(self):
        # a propagate sweep row holds the chain's own count record, not its arrays
        kw = dict(model=quiet_model(), tunnel=quiet_tunnel(), rho_gate=np.eye(4) / 4, c=1.0,
                  n_cycles=700, seed=3, mode="propagate")
        setting = MeasurementSetting([0, 0, 1.0], [1.0, 0, 0], 4e-6)
        (row,) = run_sweep([setting], **kw)
        chain = propagate_cycles(*self.make_maps(), np.eye(4) / 4, 700,
                                 derive_setting_seed(3, setting))
        assert type(row.record) is ShotRecord
        assert row.record == chain.shots

    def test_final_state_valid(self):
        rec = propagate_cycles(*self.make_maps(), np.eye(4) / 4, 2_000, seed=13)
        check_density_matrix(rec.rho_final, tol=1e-8)
        assert rec.outcomes.shape == (2_000,)
        assert 0 <= rec.shots.pr_hat <= 1


class TestTransferMatrixBuilds:
    """The 16x16 maps are built where they are read, once per block: only for
    a propagate sweep's chains, and only in blocks with a row to chain. (The
    commands, ``calibrate`` among them, are pinned by
    ``test_config_cli.py::TestCli::test_only_chain_and_cycle_build_transfer_matrices``.)"""

    @pytest.fixture
    def builds(self, monkeypatch):
        import spinturnstile.cycle
        import spinturnstile.experiment

        calls = []

        def counted(block):
            calls.append(block.start)
            return transfer_matrices(block)

        for module in (spinturnstile.cycle, spinturnstile.experiment):
            monkeypatch.setattr(module, "transfer_matrices", counted)
        return calls

    def settings(self, n, t=4e-6):
        return [MeasurementSetting([0, 0, 1.0], [1.0, 0, 0], t * (1 + k / n)) for k in range(n)]

    def sweep(self, settings, mode, c=1.0):
        return run_sweep(settings, model=quiet_model(), tunnel=quiet_tunnel(), rho_gate=np.eye(4) / 4,
                         c=c, n_cycles=50, seed=5, mode=mode)

    def test_refresh_sweep_and_design_build_none(self, builds):
        rows = self.sweep(self.settings(BLOCK_ROWS + 1), "refresh")
        build_design(self.settings(3), quiet_model(), quiet_tunnel(), 1.0)
        assert all(r.status == "ok" for r in rows) and len(builds) == 0

    def test_propagate_sweep_builds_once_per_block_with_a_chain(self, builds):
        # the middle block's rows all lose their propagator phase
        settings = (self.settings(BLOCK_ROWS) + self.settings(BLOCK_ROWS, t=1e300)
                    + self.settings(1))
        rows = self.sweep(settings, "propagate")
        assert [r.status == "ok" for r in rows] == [True] * BLOCK_ROWS + [False] * BLOCK_ROWS + [True]
        assert builds == [0, 2 * BLOCK_ROWS]

    def test_block_of_failed_rows_builds_none(self, builds):
        # c = 10 gives kappa = 2, an error of every row
        rows = self.sweep(self.settings(3), "propagate", c=10.0)
        assert all(r.status.startswith("error: detection strength") for r in rows)
        assert len(builds) == 0
