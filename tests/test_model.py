from dataclasses import replace

import numpy as np
import pytest

from spinturnstile import model
from spinturnstile.algebra import IDENTITY_2, SIGMA_Z, kron
from spinturnstile.config import ConfigValidationError, parse_config
from spinturnstile.constants import G_NUCLEAR_P31, MU_B_PER_HBAR
from spinturnstile.model import (
    HierarchyReport,
    SpinModelParams,
    TunnelParams,
    build_total_hamiltonian,
    characteristic_times,
    gamma_rate,
    model_coefficients,
    model_values,
)

from oracles import hubbard_dimer_exchange, spin_hamiltonian


def rand_params(rng):
    return SpinModelParams(
        b_field=tuple(rng.normal(scale=0.01, size=3)),
        g_electron=rng.uniform(-2, 2),
        g_nuclear=rng.uniform(-2e-3, 2e-3),
        g_ancilla=rng.uniform(-2, 2),
        hyperfine_gate=rng.normal(scale=1e7),
        hyperfine_ancilla=rng.normal(scale=1e7),
        exchange=rng.normal(scale=1e7),
        level_offset=rng.normal(scale=1e6),
    )


def gate_only(p):
    """``p`` with the ancilla terms (exchange, ancilla hyperfine, ancilla
    Zeeman) zeroed, so its total Hamiltonian is the gate's own."""
    return replace(p, exchange=0.0, hyperfine_ancilla=0.0, g_ancilla=0.0)


class TestGateHamiltonian:
    def test_field_needs_3_components(self):
        with pytest.raises(ValueError, match="^b_field must have 3 components$"):
            SpinModelParams(b_field=(0.0, 1.0))

    def test_all_zero(self):
        h = build_total_hamiltonian(SpinModelParams())
        assert np.allclose(h, 0)

    def test_electron_zeeman_spectrum(self):
        bz = 0.004
        p = SpinModelParams(b_field=(0, 0, bz), g_electron=2.0)
        w = np.linalg.eigvalsh(build_total_hamiltonian(p))
        scale = 2.0 * MU_B_PER_HBAR * bz
        # +/- g mu_B B_z, each 4-fold degenerate
        assert np.allclose(np.sort(w), [-scale] * 4 + [scale] * 4, rtol=1e-12)

    def test_hyperfine_spectrum(self):
        a = 3.7e6
        p = SpinModelParams(hyperfine_gate=a)
        w = np.sort(np.linalg.eigvalsh(build_total_hamiltonian(p)))
        # singlet/triplet structure of sigma.sigma, doubled by the ancilla
        assert np.allclose(w, [-3 * a] * 2 + [a] * 6, rtol=1e-9)

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = build_total_hamiltonian(gate_only(rand_params(rng)))
            assert np.array_equal(h, h.conj().T)

    def test_commutes_with_total_sz_for_axial_field(self):
        p = SpinModelParams(b_field=(0, 0, 0.01), g_electron=2.0, g_nuclear=G_NUCLEAR_P31)
        h = build_total_hamiltonian(p)
        total_sz = (kron(SIGMA_Z, IDENTITY_2, IDENTITY_2) + kron(IDENTITY_2, SIGMA_Z, IDENTITY_2)
                    + kron(IDENTITY_2, IDENTITY_2, SIGMA_Z))
        comm = h @ total_sz - total_sz @ h
        assert np.abs(comm).max() < 1e-10 * max(1.0, np.abs(h).max())


class TestInteractionHamiltonian:
    def test_zero_couplings(self):
        assert np.allclose(build_total_hamiltonian(SpinModelParams(), include_gate_hamiltonian=False), 0)

    def test_exchange_spectrum(self):
        j = 5.5e6
        p = SpinModelParams(exchange=j)
        w = np.sort(np.linalg.eigvalsh(build_total_hamiltonian(p, include_gate_hamiltonian=False)))
        assert np.allclose(w, [-3 * j] * 2 + [j] * 6, rtol=1e-9)

    def test_hermitian_for_random_params(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = build_total_hamiltonian(rand_params(rng), include_gate_hamiltonian=False)
            assert np.array_equal(h, h.conj().T)

    def test_total_includes_ancilla_zeeman_only_when_gate_terms_on(self):
        p = SpinModelParams(b_field=(0, 0, 0.01), g_ancilla=2.0, exchange=1e6)
        full = build_total_hamiltonian(p, include_gate_hamiltonian=True)
        bare = build_total_hamiltonian(p, include_gate_hamiltonian=False)
        assert np.allclose(bare, spin_hamiltonian(p, include_gate_hamiltonian=False))
        assert np.allclose(full, spin_hamiltonian(p, include_gate_hamiltonian=True))
        ancilla_zeeman = 2.0 * MU_B_PER_HBAR * 0.01 * kron(SIGMA_Z, IDENTITY_2, IDENTITY_2)
        assert np.allclose(full - bare, ancilla_zeeman)


def exchange_column(p: SpinModelParams) -> float:
    """The exchange the commands use: column 10 of the model's coefficients."""
    return float(model_coefficients([model_values(p)])[0, 10])


def derived_exchange(hopping: float, coulomb_u: float) -> float:
    """The exchange of a model whose exchange is derived from hopping."""
    return exchange_column(SpinModelParams(hopping=hopping, coulomb_u=coulomb_u))


class TestEffectiveExchange:
    def test_zero_hopping(self):
        assert derived_exchange(0.0, 0.0) == 0.0

    def test_formula_point(self):
        assert derived_exchange(1.0, 4.0) == pytest.approx(1.0)

    def test_large_scale_point(self):
        assert derived_exchange(1e6, 1e9) == pytest.approx(4e3)

    @pytest.mark.parametrize("t_hop,u_rep", [(1.0, 4.0), (1e6, 1e9), (2.0, 5e3)])
    def test_matches_hubbard_dimer_at_small_t_over_u(self, t_hop, u_rep):
        exact = hubbard_dimer_exchange(t_hop, u_rep)
        approx = derived_exchange(t_hop, u_rep)
        # superexchange is the t << U limit; correction is O((t/U)^2)
        rel = abs(approx - exact) / exact
        assert rel < 10 * (t_hop / u_rep) ** 2 + 1e-12

    def test_invalid_coulomb(self):
        with pytest.raises(ValueError):
            derived_exchange(1.0, 0.0)
        with pytest.raises(ValueError):
            SpinModelParams(hopping=1.0, coulomb_u=0.0)

    @pytest.mark.parametrize("hopping, coulomb_u, exchange", [
        (0.0, -1.0, None), (1.0, -1.0, None), (1.0, -1.0, 7.0), (0.0, -5e-324, 0.0),
        (1.0, -0.0, None), (1.0, 0.0, 7.0), (0.0, 0.0, None), (1.0, 4.0, None),
    ])
    def test_params_reject_what_the_config_rejects(self, hopping, coulomb_u, exchange):
        # one rule per field: a model built in Python is rejected where the
        # config's model section is, with the config's message, so a negative
        # coulomb_u by its own bound before the derive rule
        section = {"hopping_per_s": hopping, "coulomb_u_per_s": coulomb_u, "exchange_per_s": exchange}
        try:
            parse_config({"model": section})
        except ConfigValidationError as exc:
            with pytest.raises(ValueError) as raised:
                SpinModelParams(hopping=hopping, coulomb_u=coulomb_u, exchange=exchange)
            assert str(exc).endswith(str(raised.value).removeprefix("coulomb_u "))
        else:
            SpinModelParams(hopping=hopping, coulomb_u=coulomb_u, exchange=exchange)

    def test_params_derive_exchange(self):
        p = SpinModelParams(hopping=1e6, coulomb_u=1e9)
        assert exchange_column(p) == pytest.approx(4e3)
        q = SpinModelParams(hopping=1e6, coulomb_u=1e9, exchange=7.0)
        assert exchange_column(q) == 7.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_exchange_rejected(self, bad):
        # it used to construct, then overflow characteristic_times and fail
        # run_cycle with a non-Hermitian generator
        with pytest.raises(ValueError, match="finite"):
            SpinModelParams(exchange=bad)


class TestGammaRate:
    def test_resonant_value_exact(self):
        tp = TunnelParams(gamma0=1e9, interdot_sq=3.3e8)
        assert gamma_rate(0.0, tp) == 3.3e8

    def test_far_detuned_limit(self):
        g0 = 1e9
        tp = TunnelParams(gamma0=g0, interdot_sq=g0)
        got = gamma_rate(10 * g0, tp)
        limit = g0 * (g0**2 / (10 * g0) ** 2)
        assert abs(got - limit) / limit < 0.01

    def test_half_width_point(self):
        g0 = 2e9
        tp = TunnelParams(gamma0=g0, interdot_sq=g0)
        assert gamma_rate(g0, tp) == pytest.approx(g0 / 2)

    def test_even_and_maximal_at_zero(self):
        tp = TunnelParams(gamma0=1e9, interdot_sq=1e9)
        rng = np.random.default_rng(2)
        peak = gamma_rate(0.0, tp)
        for _ in range(100):
            d = rng.uniform(-1e12, 1e12)
            assert gamma_rate(d, tp) == gamma_rate(-d, tp)
            assert gamma_rate(d, tp) <= peak


class TestCharacteristicTimes:
    def nuclear_only(self):
        return SpinModelParams(b_field=(0, 0, 0.01), g_nuclear=G_NUCLEAR_P31)

    def test_resonant_time_nanosecond(self):
        tp = TunnelParams(gamma0=1e9, interdot_sq=1e9)
        report = characteristic_times(self.nuclear_only(), tp)
        assert report.tau_res == pytest.approx(1e-9)

    def test_nuclear_larmor_megahertz_scale(self):
        tp = TunnelParams(gamma0=1e9, interdot_sq=1e9)
        report = characteristic_times(self.nuclear_only(), tp)
        assert 1e5 <= 1.0 / report.tau_dyn <= 1e7

    def test_non_resonant_ratio(self):
        g0 = 1e9
        tp = TunnelParams(gamma0=g0, interdot_sq=g0, detuning=1000 * g0)
        report = characteristic_times(self.nuclear_only(), tp)
        assert report.tau_non / report.tau_res == pytest.approx(1e6, rel=1e-2)

    def test_monotone_in_detuning(self):
        tp = TunnelParams()
        p = self.nuclear_only()
        taus = [characteristic_times(p, replace(tp, detuning=d)).tau_non for d in (1e10, 1e11, 1e12, 1e13)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))

    def test_zero_hamiltonian_flagged_not_thrown(self):
        report = characteristic_times(SpinModelParams(), TunnelParams())
        assert not report.satisfied
        assert np.isinf(report.tau_dyn)

    def test_level_offset_does_not_change_tau_dyn(self):
        tp = TunnelParams()
        a = characteristic_times(self.nuclear_only(), tp)
        shifted = SpinModelParams(b_field=(0, 0, 0.01), g_nuclear=G_NUCLEAR_P31, level_offset=1e12)
        b = characteristic_times(shifted, tp)
        assert a.tau_dyn == pytest.approx(b.tau_dyn, rel=1e-12)

    def test_overflow_bound_weighs_each_term_by_its_norm(self):
        # _norm_bracket bounds the norm by sum_k |c_k| ||G_k||
        stack = model._GENERATORS.reshape(len(model._GENERATORS), 8, 8)
        assert np.array_equal(model._GENERATOR_NORMS, np.abs(np.linalg.eigvalsh(stack)).max(axis=1))

    def test_norm_bracket_weighs_each_term_by_its_frobenius_norm(self):
        # _norm_bracket's sqrt(sum_k w_k c_k^2) is ||H||_F / sqrt(8) because
        # the hierarchy generators are orthogonal under tr(A^dag B)
        stack = model._GENERATORS[model._HIERARCHY_TERMS]
        weights = [1.0] * 6 + [3.0] * 3
        assert np.array_equal(stack.conj() @ stack.T / 8, np.diag(weights))
        assert model._ROOT_WEIGHTS ** 2 == pytest.approx(weights, rel=1e-15)

    def test_satisfied_definition(self):
        report = characteristic_times(self.nuclear_only(), TunnelParams(), threshold=100.0)
        expect = report.ratio_dyn_res >= 100.0 and report.ratio_non_dyn >= 100.0
        assert report.satisfied == expect
        assert isinstance(report, HierarchyReport)


class TestTunnelParams:
    @pytest.mark.parametrize("field", ["gamma0", "interdot_sq", "detuning", "tau_detect", "tau_cycle"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, bad):
        # nan passes "<= 0" and "< 0" checks; inf passes them too
        with pytest.raises(ValueError, match="^all tunnel parameters must be finite$"):
            TunnelParams(**{field: bad})
