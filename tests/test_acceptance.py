"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or on failure) and checks its stated tolerance and runtime budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spinturnstile.constants import G_NUCLEAR_P31
from spinturnstile.cycle import MeasurementSetting, run_cycle, setting_instrument, transfer_matrices
from spinturnstile.algebra import evolve_unitary, pauli_operator
from spinturnstile.cli import main
from spinturnstile.experiment import calibrate, sample_cycles
from spinturnstile.model import (
    SpinModelParams,
    TunnelParams,
    characteristic_times,
    gamma_rate,
)
from spinturnstile.tomography import (
    SINGLE_SPIN,
    TWO_SPIN,
    build_design,
    density_to_theta,
    forward_probabilities,
    reconstruct,
)

from oracles import (
    ancilla_state,
    detection_probability,
    induced_instrument,
    joint_evolve,
    random_bloch,
    random_density,
    random_hermitian,
    rk4_von_neumann,
    spin_half,
)

AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


@contextmanager
def criterion(num, title, budget_s):
    start = time.perf_counter()
    state = {"elapsed": None}
    try:
        yield state
    except Exception:
        print(f"[FAIL] criterion {num}: {title}")
        raise
    elapsed = time.perf_counter() - start
    state["elapsed"] = elapsed
    if elapsed >= budget_s:
        print(f"[FAIL] criterion {num}: {title} (runtime {elapsed:.2f}s over budget {budget_s}s)")
        pytest.fail(f"criterion {num} exceeded runtime budget: {elapsed:.2f}s >= {budget_s}s")
    print(f"[PASS] criterion {num}: {title} ({elapsed:.2f}s)")


def test_criterion_1_rate_limits():
    with criterion(1, "resonant and far-detuned tunneling-rate limits", 1.0):
        g0 = 1.0e9
        tp = TunnelParams(gamma0=g0, interdot_sq=g0, detuning=1e12)
        assert gamma_rate(0.0, tp) == tp.interdot_sq  # exact on resonance
        got = gamma_rate(100.0 * g0, tp)
        limit = g0**3 / (100.0 * g0) ** 2
        assert abs(got - limit) / limit < 1e-4  # within 0.01%


def test_criterion_2_time_scales():
    with criterion(2, "nanosecond resonance, megahertz gate dynamics, slow leakage", 1.0):
        g0 = 1.0e9
        params = SpinModelParams(b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31)
        tp = TunnelParams(gamma0=g0, interdot_sq=g0, detuning=1000.0 * g0)
        report = characteristic_times(params, tp)
        assert report.tau_res == pytest.approx(1e-9, rel=1e-12)
        assert 1e5 <= 1.0 / report.tau_dyn <= 1e7
        assert report.ratio_non_dyn >= 100.0


def test_criterion_3_pulse_probability_analytics():
    with criterion(3, "pulse probability at parallel/antiparallel magnetizations", 1.0):
        params = SpinModelParams(b_field=(0.0, 0.0, 1e-4), g_nuclear=G_NUCLEAR_P31)
        tp = TunnelParams(gamma0=1e9, interdot_sq=1e9, detuning=1e14)
        c = 1.0
        rho = np.eye(4) / 4
        parallel = run_cycle(MeasurementSetting(AXES["z"], AXES["z"], 0.0), params, tp, rho, c)
        assert abs(parallel.pr_pulse - 2.0 * c * tp.tau_detect * tp.gamma0) < 1e-12
        anti = run_cycle(MeasurementSetting(AXES["z"], (0.0, 0.0, -1.0), 0.0), params, tp, rho, c)
        assert abs(anti.pr_pulse) < 1e-12


def test_criterion_4_instrument_theorem():
    with criterion(4, "effect-based probabilities match the ancilla pathway (500 configs)", 30.0):
        rng = np.random.default_rng(2024)
        worst_pr, worst_complete = 0.0, 0.0
        for _ in range(500):
            u_l, u_r = random_bloch(rng), random_bloch(rng)
            h = random_hermitian(rng, 8, scale=rng.uniform(0.2, 2.0))
            t = rng.uniform(0.0, 4.0)
            c = rng.uniform(0.05, 1.0)
            tau = rng.uniform(0.05, 1.0)
            t_sq = rng.uniform(0.05, 1.0)
            if 2 * c * tau * t_sq > 1.0:
                tau = 0.45 / (c * t_sq)
            rho_s = random_density(rng, 4)
            inst = induced_instrument(u_l, u_r, h, t, c, tau, t_sq)
            joint = joint_evolve(spin_half(u_l), rho_s, h, t)
            _, u_a = ancilla_state(joint)
            pr_formula = detection_probability(u_a, u_r, c, tau, t_sq)
            worst_pr = max(worst_pr, abs(inst.pulse_probabilities(rho_s)[0] - pr_formula))
            pulse, nopulse, _ = transfer_matrices(inst)
            effects = pauli_operator(pulse[0, 0]) + pauli_operator(nopulse[0, 0])
            comp = np.abs(effects - np.eye(4)).max()
            worst_complete = max(worst_complete, comp)
        assert worst_pr < 1e-10
        assert worst_complete < 1e-10


def test_criterion_5_dynamics_oracle():
    with criterion(5, "eigendecomposition evolution matches 4th-order integration (50 configs)", 60.0):
        rng = np.random.default_rng(2025)
        worst = 0.0
        for _ in range(50):
            h = random_hermitian(rng, 8, scale=rng.uniform(0.3, 1.0))
            rho0 = random_density(rng, 8)
            t = rng.uniform(0.3, 1.5)
            u = evolve_unitary(h, t)
            direct = u @ rho0 @ u.conj().T
            oracle = rk4_von_neumann(h, rho0, t, n_steps=2500)
            worst = max(worst, np.abs(direct - oracle).max())
        assert worst < 1e-6


def _swap_design():
    j = 1.2e7
    model = SpinModelParams(exchange=j)
    settings = [
        MeasurementSetting(u_left=AXES["z"], u_right=AXES[ax], t_interact=np.pi / (4 * j))
        for ax in ("x", "y", "z")
    ]
    return build_design(settings, model, TunnelParams(gamma0=1e9, tau_detect=1e-10), 1.0, mode=SINGLE_SPIN,
                        include_gate_hamiltonian=False)


def _rich_two_spin_design():
    model = SpinModelParams(
        b_field=(0.0, 0.0, 0.01), g_nuclear=G_NUCLEAR_P31,
        hyperfine_gate=2.0e6, hyperfine_ancilla=1.1e6, exchange=7.0e5,
    )
    base = 2 * np.pi / 6.4e6
    settings = [
        MeasurementSetting(u_left=AXES[la], u_right=AXES[lr], t_interact=f * base)
        for f in (0.35, 0.8, 1.45, 2.2)
        for la in ("x", "z")
        for lr in ("x", "y", "z")
    ]
    return build_design(settings, model, TunnelParams(gamma0=1e9, tau_detect=1e-10), 1.0, mode=TWO_SPIN)


def test_criterion_6_exact_tomography():
    with criterion(6, "noiseless reconstruction error < 1e-8 (single- and two-spin)", 60.0):
        rng = np.random.default_rng(2026)
        design3 = _swap_design()
        assert design3.rank == 3
        worst = 0.0
        for _ in range(100):
            theta = random_bloch(rng)
            result = reconstruct(design3, forward_probabilities(design3, theta))
            worst = max(worst, float(np.linalg.norm(result.theta_hat - theta)))
        assert worst < 1e-8

        design15 = _rich_two_spin_design()
        assert design15.rank == 15
        worst = 0.0
        for _ in range(100):
            theta = density_to_theta(random_density(rng, 4), TWO_SPIN)
            result = reconstruct(design15, forward_probabilities(design15, theta))
            worst = max(worst, float(np.linalg.norm(result.theta_hat - theta)))
        assert worst < 1e-8


def test_criterion_7_noise_scaling():
    with criterion(7, "shot-noise reconstruction error scales as n^(-1/2)", 300.0):
        design = _swap_design()
        theta = np.array([0.25, -0.45, 0.55])
        pr = forward_probabilities(design, theta)
        sizes = [10**4, 10**5, 10**6]
        mean_errs = []
        for n in sizes:
            errs = []
            for rep in range(40):
                rng = np.random.default_rng(9000 + rep)
                pr_hat = rng.binomial(n, pr) / n
                errs.append(np.linalg.norm(reconstruct(design, pr_hat).theta_hat - theta))
            mean_errs.append(np.mean(errs))
        slope = float(np.polyfit(np.log10(sizes), np.log10(mean_errs), 1)[0])
        assert -0.6 <= slope <= -0.4


def test_criterion_8_calibration():
    with criterion(8, "detection constant exact noiselessly, within 1% at 1e6 cycles", 10.0):
        tau, t_sq = 1e-10, 1e9
        c_true, mag = 0.5, 1.0
        pr = c_true * tau * t_sq * (1 + mag * mag)  # = 0.1
        assert pr == pytest.approx(0.1)
        tunnel = TunnelParams(gamma0=t_sq, tau_detect=tau)
        setting = MeasurementSetting(u_left=(0, 0, mag), u_right=(0, 0, mag), t_interact=0.0)

        def model_pr(c):  # read off the pulse effect
            instrument = setting_instrument(setting, SpinModelParams(), tunnel, c)
            return instrument.pulse_probabilities(np.eye(4) / 4)[0]

        pr_model = model_pr(1.0)
        assert calibrate(model_pr(c_true), pr_model, 1.0) == c_true
        assert abs(calibrate(pr, pr_model, 1.0) - c_true) < 1e-12
        rec = sample_cycles(pr, 10**6, seed=314159)
        noisy = calibrate(rec.pr_hat, pr_model, 1.0)
        assert abs(noisy - c_true) / c_true < 0.01


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "identical config+seed produce byte-identical CLI output", 120.0):
        cfg = {
            "model": {"exchange_per_s": 7.0e5},
            "leads": {
                "u_left": {"direction": [0, 0, 1], "magnitude": 1.0},
                "u_right": {"direction": [1, 0, 0], "magnitude": 1.0},
            },
            "gate_state": {"theta_single_spin": [0.2, -0.3, 0.4]},
            "experiment": {"n_cycles": 20000, "seed": 4242},
            "tomography": {"mode": "single_spin", "noise": "shot"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("rates", "cycle", "sweep", "calibrate", "tomography"):
            for fmt in ("csv", "jsonl"):
                out_a = tmp_path / f"{command}_a.{fmt}"
                out_b = tmp_path / f"{command}_b.{fmt}"
                code_a = main([command, "--config", str(cfg_path), "--out", str(out_a), "--format", fmt])
                code_b = main([command, "--config", str(cfg_path), "--out", str(out_b), "--format", fmt])
                assert code_a == 0 and code_b == 0, command
                assert out_a.read_bytes() == out_b.read_bytes(), (command, fmt)


def test_criterion_10_identifiability_sanity():
    with criterion(10, "zero-time designs rank 0; orthogonal-axis designs rank 3", 10.0):
        model = SpinModelParams(exchange=1.2e7)
        zero_t = [
            MeasurementSetting(u_left=AXES["z"], u_right=AXES[ax], t_interact=0.0)
            for ax in ("x", "y", "z")
        ]
        design0 = build_design(zero_t, model, TunnelParams(gamma0=1e9, tau_detect=1e-10), 1.0, mode=SINGLE_SPIN)
        assert design0.rank == 0

        design3 = _swap_design()
        assert design3.rank == 3
