"""Multi-cycle statistics: shot sampling, currents, calibration and sweeps.

A measurement run repeats the cycle many times and counts current pulses.
Cycles are treated as statistically independent with the gate re-prepared
identically each time ("refresh" mode, binomial counting statistics); an
optional "propagate" mode instead carries the conditional post-measurement
gate state from cycle to cycle, exposing measurement back-action. The average
current through the dot chain is the pulse probability times one electron
charge per cycle period.

Reproducibility: every stochastic quantity is drawn from a
``numpy.random.Generator`` seeded deterministically. Sweep rows derive their
seeds from the master seed and a content digest of the row's setting, so the
result attached to a given setting does not depend on row order or on any
parallel execution schedule.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import pauli_coordinates, pauli_operator
from .cycle import MeasurementSetting, QuantumInstrument, setting_instrument, warn_on_hierarchy
from .constants import ELEMENTARY_CHARGE
from .model import HIERARCHY_THRESHOLD, SpinModelParams, TunnelParams

__all__ = [
    "ShotRecord",
    "ChainRecord",
    "CalibrationResult",
    "CurrentEstimate",
    "SweepRow",
    "sample_cycles",
    "propagate_cycles",
    "estimate_current",
    "calibrate",
    "derive_setting_seed",
    "run_sweep",
]

_MIXED_COORDINATES = np.eye(16)[0]


@dataclass(frozen=True)
class ShotRecord:
    """Pulse count over a number of independent cycles."""

    n_cycles: int
    n_pulses: int
    pr_hat: float
    std_err: float
    seed: int


@dataclass(frozen=True)
class ChainRecord:
    """Pulse statistics of a back-action chain (cycles not independent)."""

    n_cycles: int
    n_pulses: int
    pr_hat: float
    std_err: float
    seed: int
    outcomes: np.ndarray
    probs: np.ndarray
    rho_final: np.ndarray


class CurrentEstimate(NamedTuple):
    amperes: float
    std_err_amperes: float


@dataclass(frozen=True)
class CalibrationResult:
    """Detection constant inferred from a parallel-magnetization run."""

    c_hat: float
    residual: float
    pr_measured: float
    u_left_mag: float
    u_right_mag: float


@dataclass(frozen=True)
class SweepRow:
    """Result of one sweep setting; ``status`` is 'ok' or an error message."""

    index: int
    setting: MeasurementSetting
    pr: float
    record: ShotRecord | None
    current: CurrentEstimate | None
    status: str = "ok"


def sample_cycles(pr: float, n: int, seed: int) -> ShotRecord:
    """Draw the pulse count of ``n`` independent cycles at pulse probability ``pr``.

    Identical ``(pr, n, seed)`` always yields the identical record.
    """
    if not 0.0 <= pr <= 1.0:
        raise ValueError(f"pulse probability {pr} outside [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    n_pulses = int(rng.binomial(n, pr))
    pr_hat = n_pulses / n
    std_err = float(np.sqrt(pr_hat * (1.0 - pr_hat) / n))
    return ShotRecord(n_cycles=n, n_pulses=n_pulses, pr_hat=pr_hat, std_err=std_err, seed=int(seed))


def propagate_cycles(instrument: QuantumInstrument, rho_gate: np.ndarray, n: int, seed: int) -> ChainRecord:
    """Run ``n`` cycles carrying the conditional gate state across cycles.

    Each cycle applies the pulse transfer matrix to the gate state's Pauli
    coordinates; the first entry of the result is the pulse probability. The
    outcome is drawn against a uniform variate pre-drawn from the seeded
    generator, and the state is replaced by the selected branch renormalized
    by its first entry.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    pulse, nopulse = instrument.pulse, instrument.nopulse
    x = pauli_coordinates(rho_gate)
    outcomes = np.zeros(n, dtype=np.uint8)
    probs = np.empty(n)
    for i, uniform in enumerate(rng.random(n).tolist()):
        post = pulse @ x
        p_pulse = min(max(float(post[0]), 0.0), 1.0)
        probs[i] = p_pulse
        if uniform < p_pulse:
            outcomes[i] = 1
            x = post / p_pulse
        else:
            post = nopulse @ x
            p_no = float(post[0])
            # Unreachable for a valid instrument; keep the chain alive.
            x = post / p_no if p_no > 0.0 else _MIXED_COORDINATES
    n_pulses = int(outcomes.sum())
    pr_hat = n_pulses / n
    # Binomial-shaped error bar; only indicative since the chain correlates cycles.
    std_err = float(np.sqrt(pr_hat * (1.0 - pr_hat) / n))
    return ChainRecord(
        n_cycles=n,
        n_pulses=n_pulses,
        pr_hat=pr_hat,
        std_err=std_err,
        seed=int(seed),
        outcomes=outcomes,
        probs=probs,
        rho_final=pauli_operator(x) / 4.0,
    )


def estimate_current(record, tau_cycle: float) -> CurrentEstimate:
    """Average current ``e * pr_hat / tau_cycle`` through the dot chain."""
    if tau_cycle <= 0:
        raise ValueError("tau_cycle must be positive")
    scale = ELEMENTARY_CHARGE / tau_cycle
    return CurrentEstimate(amperes=record.pr_hat * scale, std_err_amperes=record.std_err * scale)


def calibrate(
    measured_pr: float,
    u_left_mag: float,
    u_right_mag: float,
    tau_detect: float,
    t_sq: float,
) -> CalibrationResult:
    """Infer the detection constant from a parallel-magnetization, zero-interaction run.

    With both lead magnetizations parallel and the gate interaction off, the
    ancilla polarization equals the left-lead one, so the pulse probability
    reduces to ``c * tau_detect * t_sq * (1 + |u_right| |u_left|)`` and can be
    inverted for ``c``. Magnitudes must lie in (0, 1]; they are assumed known.
    """
    if not 0.0 < u_left_mag <= 1.0 or not 0.0 < u_right_mag <= 1.0:
        raise ValueError("lead magnetization magnitudes must lie in (0, 1]")
    denom = tau_detect * t_sq * (1.0 + u_right_mag * u_left_mag)
    if denom <= 0.0:
        raise ValueError("tau_detect * t_sq must be positive to calibrate")
    c_hat = measured_pr / denom
    residual = abs(c_hat * denom - measured_pr)
    return CalibrationResult(
        c_hat=c_hat,
        residual=residual,
        pr_measured=measured_pr,
        u_left_mag=u_left_mag,
        u_right_mag=u_right_mag,
    )


def derive_setting_seed(master_seed: int, setting: MeasurementSetting) -> int:
    """Deterministic per-setting seed from the master seed and the setting content.

    Content addressing (rather than row position) makes a setting's stochastic
    result invariant under grid reordering and safe to compute in parallel.
    Identical settings in one grid share a seed and therefore a result.
    """
    payload = {
        "u_left": list(setting.u_left),
        "u_right": list(setting.u_right),
        "t_interact": setting.t_interact,
    }
    if setting.model is not None:
        m = setting.model
        payload["model"] = [
            list(m.b_field), m.g_electron, m.g_nuclear, m.g_ancilla,
            m.hyperfine_gate, m.hyperfine_ancilla, m.hopping, m.coulomb_u,
            m.exchange, m.level_offset,
        ]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).digest()
    sub = int.from_bytes(digest[:8], "big")
    return int(np.random.SeedSequence([int(master_seed) & (2**63 - 1), sub]).generate_state(1)[0])


def run_sweep(
    settings,
    *,
    model: SpinModelParams,
    tunnel: TunnelParams,
    rho_gate: np.ndarray,
    c: float,
    n_cycles: int,
    seed: int,
    mode: str = "refresh",
    include_gate_hamiltonian: bool = True,
    threshold: float = HIERARCHY_THRESHOLD,
):
    """Evaluate a grid of measurement settings with shot statistics.

    Each row checks its model's time-scale hierarchy against ``threshold``,
    builds the setting's instrument, then samples ``n_cycles`` shots.
    ``mode`` chooses between independent cycles ("refresh") and the
    back-action chain ("propagate"). Invalid settings produce a row with an
    error status instead of aborting the sweep.

    Returns:
        list of :class:`SweepRow`, ordered like ``settings``.
    """
    if mode not in ("refresh", "propagate"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    settings = list(settings)
    if not settings:
        raise ValueError("sweep requires at least one setting")

    rows = []
    for idx, setting in enumerate(settings):
        try:
            warn_on_hierarchy(setting.model if setting.model is not None else model, tunnel, threshold)
            instrument = setting_instrument(setting, model, tunnel, c, include_gate_hamiltonian)
            pr = instrument.pulse_probability(rho_gate)
            row_seed = derive_setting_seed(seed, setting)
            if mode == "refresh":
                record = sample_cycles(pr, n_cycles, row_seed)
            else:
                chain = propagate_cycles(instrument, rho_gate, n_cycles, row_seed)
                record = ShotRecord(
                    n_cycles=chain.n_cycles,
                    n_pulses=chain.n_pulses,
                    pr_hat=chain.pr_hat,
                    std_err=chain.std_err,
                    seed=chain.seed,
                )
            current = estimate_current(record, tunnel.tau_cycle)
            rows.append(SweepRow(index=idx, setting=setting, pr=pr, record=record, current=current))
        except ValueError as exc:
            rows.append(SweepRow(index=idx, setting=setting, pr=float("nan"),
                                 record=None, current=None, status=f"error: {exc}"))
    return rows
