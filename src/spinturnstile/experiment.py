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
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .algebra import pauli_coordinates, pauli_operator
from .cycle import MeasurementSetting, QuantumInstrument, setting_instruments
from .constants import ELEMENTARY_CHARGE
from .model import HIERARCHY_THRESHOLD, SpinModelParams, TunnelParams

__all__ = [
    "RUN_BLOCK",
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

_IDENTITY = np.eye(16)
_MIXED_COORDINATES = _IDENTITY[0]

# Cycles of a no-pulse run decided by one stacked product in
# :func:`propagate_cycles`; a chain's stacks hold 2 * (RUN_BLOCK + 1) 16x16
# matrices (0.14 MB).
RUN_BLOCK = 32
# Run probabilities are ratios over no-pulse survivals ``(Q^j x)[0]``; below
# this floor a ratio could carry over 2**16 times the rounding of the
# per-cycle rule, so the run is renormalized there or stepped one cycle.
_SURVIVAL_FLOOR = 2.0 ** -16


@dataclass(frozen=True)
class ShotRecord:
    """Pulse count over a number of independent cycles."""

    n_cycles: int
    n_pulses: int
    pr_hat: float
    std_err: float
    seed: int


@dataclass(frozen=True)
class ChainRecord(ShotRecord):
    """Pulse statistics of a back-action chain (cycles not independent), with
    the chain's outcomes, pulse probabilities and final state.

    ``std_err`` keeps the binomial form, which is only indicative here since
    the chain correlates cycles. ``resets`` counts no-pulse branches of
    nonpositive probability, after which the state was reset to maximally
    mixed; a valid instrument has none.
    """

    outcomes: np.ndarray
    probs: np.ndarray
    rho_final: np.ndarray
    resets: int


class CurrentEstimate(NamedTuple):
    amperes: float
    std_err_amperes: float


@dataclass(frozen=True)
class CalibrationResult:
    """Detection constant inferred from a parallel-magnetization run."""

    c_hat: float
    residual: float


@dataclass(frozen=True)
class SweepRow:
    """Result of one sweep setting; ``status`` is 'ok' or an error message."""

    index: int
    setting: MeasurementSetting
    pr: float
    record: ShotRecord | None
    current: CurrentEstimate | None
    status: str = "ok"


def _count_record(n_pulses: int, n: int, seed: int, record=ShotRecord, **chain):
    """``record`` of ``n_pulses`` in ``n`` cycles, with their ``pr_hat`` and its
    binomial ``std_err``."""
    pr_hat = n_pulses / n
    return record(n_cycles=n, n_pulses=n_pulses, pr_hat=pr_hat,
                  std_err=float(np.sqrt(pr_hat * (1.0 - pr_hat) / n)), seed=int(seed), **chain)


def sample_cycles(pr: float, n: int, seed: int) -> ShotRecord:
    """Draw the pulse count of ``n`` independent cycles at pulse probability ``pr``.

    Identical ``(pr, n, seed)`` always yields the identical record.
    """
    if not 0.0 <= pr <= 1.0:
        raise ValueError(f"pulse probability {pr} outside [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    return _count_record(int(np.random.default_rng(seed).binomial(n, pr)), n, seed)


def _run_stacks(pulse: np.ndarray, nopulse: np.ndarray, m: int):
    """Stacks for sampling no-pulse runs of up to ``m`` cycles.

    Returns ``(powers, jumps, heads)``: ``powers[j] = Q^j`` with
    ``Q = nopulse``, built by doubling, and ``jumps[j] = pulse @ Q^j``, both
    for ``j <= m``; ``heads`` stacks their first rows, so that ``heads @ x``
    holds every survival ``(Q^j x)[0]`` and then every pulse numerator
    ``(pulse Q^j x)[0]``.
    """
    powers = np.empty((m + 1, 16, 16))
    powers[0] = _IDENTITY
    powers[1] = nopulse
    filled = 2
    while filled <= m:
        # Q^(filled + r) = Q^(filled - 1) Q^(1 + r) from rows already filled.
        step = min(filled - 1, m + 1 - filled)
        np.matmul(powers[filled - 1], powers[1:1 + step], out=powers[filled:filled + step])
        filled += step
    jumps = pulse @ powers
    return powers, jumps, np.concatenate((powers[:, 0], jumps[:, 0]))


def propagate_cycles(instrument: QuantumInstrument, rho_gate: np.ndarray, n: int, seed: int) -> ChainRecord:
    """Run ``n`` cycles carrying the conditional gate state across cycles.

    The state is the gate's Pauli coordinates ``x``. Cycle ``i`` pulses when
    the ``i``-th uniform variate pre-drawn from the seeded generator lies
    below the pulse probability ``(pulse @ x)[0]``; the state becomes the
    selected branch renormalized by its first entry.

    The chain is sampled run by run. Between pulses the state is
    deterministic: ``j`` no-pulse cycles after ``x`` it is ``Q^j x``
    renormalized, with ``Q = nopulse``, and the pulse probability there is
    ``(pulse[0] Q^j x) / (Q^j x)[0]``. A cycle after a pulse is checked
    alone. After a no-pulse cycle, one product of ``x`` with stacked rows of
    ``Q^j`` and ``pulse[0] Q^j`` gives the probabilities of the next
    ``RUN_BLOCK`` cycles; the first uniform below its probability marks the
    next pulse, and a stacked ``pulse Q^j`` takes ``x`` to the state after
    it. A block without a pulse moves ``x`` along the run by a stacked
    ``Q^j``. The state is renormalized at every pulse and at every block
    end. The uniforms and the comparisons are those of the per-cycle rule,
    so the outcomes equal it unless a uniform lies within rounding (about
    1e-16) of its probability. This needs the no-pulse survival not to grow
    along a run, which holds for every physical instrument: positive maps
    whose effects sum to the identity.

    A no-pulse branch of nonpositive probability, unreachable for a valid
    instrument, resets the state to maximally mixed; ``resets`` counts it.
    ``probs`` is clamped to [0, 1]; the comparisons need no clamp.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    uniforms = np.random.default_rng(seed).random(n)
    pulse, nopulse = instrument.pulse, instrument.nopulse
    x = pauli_coordinates(rho_gate)
    outcomes = np.zeros(n, dtype=np.uint8)
    probs = np.empty(n)
    n_pulses = resets = 0
    powers = None
    u = uniforms.tolist()
    i = 0
    while i < n:
        post = pulse @ x
        p_pulse = float(post[0])
        probs[i] = p_pulse
        if u[i] < p_pulse:
            outcomes[i] = 1
            n_pulses += 1
            x = post / p_pulse
            i += 1
            continue
        # Cycle i gave no pulse and x is the state before it. Decide the
        # next cycles from one product with the stacks, h[j] = (Q^j x)[0]
        # and h[m + 1 + j] = (pulse Q^j x)[0], until a pulse; after a block
        # without one, x moves to the state before the block's last cycle.
        while True:
            k = min(RUN_BLOCK, n - 1 - i)
            cut = 1
            if k:
                if powers is None:
                    m = k
                    powers, jumps, heads = _run_stacks(pulse, nopulse, m)
                h = heads @ x
                # Survivals do not grow along a run, so the last one tells
                # whether any falls below the floor; cut at the first that does.
                cut = k + 1 if h[k] >= _SURVIVAL_FLOOR else int((h[:k + 1] >= _SURVIVAL_FLOOR).argmin())
            if cut <= 1:
                # Cycle i's no-pulse branch alone: the last cycle, or a
                # survival too small for the stacked product.
                post = nopulse @ x
                p_no = float(post[0])
                if p_no > 0.0:
                    x = post / p_no
                else:
                    # Unreachable for a valid instrument; keep the chain alive.
                    x = _MIXED_COORDINATES
                    resets += 1
                i += 1
                break
            p_run = np.divide(h[m + 2:m + 1 + cut], h[1:cut], out=probs[i + 1:i + cut])
            fired = uniforms[i + 1:i + cut] < p_run
            j = int(fired.argmax())
            if fired[j]:
                outcomes[i + j + 1] = 1
                n_pulses += 1
                post = jumps[j + 1] @ x
                x = post / post[0]
                i += j + 2
                break
            post = powers[cut - 1] @ x
            x = post / post[0]
            i += cut - 1
    np.minimum(np.maximum(probs, 0.0, out=probs), 1.0, out=probs)
    return _count_record(n_pulses, n, seed, ChainRecord, outcomes=outcomes, probs=probs,
                         rho_final=pauli_operator(x) / 4.0, resets=resets)


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
    tunnel: TunnelParams,
) -> CalibrationResult:
    """Infer the detection constant from a parallel-magnetization, zero-interaction run.

    With both lead magnetizations parallel and the gate interaction off, the
    ancilla polarization equals the left-lead one, so the pulse probability
    reduces to ``c * tau_detect * gamma0 * (1 + |u_right| |u_left|)`` and can
    be inverted for ``c``. Magnitudes must lie in (0, 1]; they are assumed
    known. The detection window and ``gamma0`` come from ``tunnel``.
    """
    if not 0.0 < u_left_mag <= 1.0 or not 0.0 < u_right_mag <= 1.0:
        raise ValueError("lead magnetization magnitudes must lie in (0, 1]")
    denom = tunnel.tau_detect * tunnel.gamma0 * (1.0 + u_right_mag * u_left_mag)
    if denom <= 0.0:
        raise ValueError("tau_detect * gamma0 must be positive to calibrate")
    c_hat = measured_pr / denom
    residual = abs(c_hat * denom - measured_pr)
    return CalibrationResult(c_hat=c_hat, residual=residual)


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
        # Field values in declaration order; not dataclasses.astuple, whose
        # deep copy costs ten times as much on this per-row path.
        payload["model"] = [getattr(setting.model, f.name) for f in fields(setting.model)]
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

    The settings' instruments come from :func:`setting_instruments`, which
    also checks each row's time-scale hierarchy against ``threshold``; each
    row then samples ``n_cycles`` shots.
    ``mode`` chooses between independent cycles ("refresh") and the
    back-action chain ("propagate"). Invalid settings, and chains too long to
    allocate, produce a row with an error status instead of aborting the sweep.

    Returns:
        list of :class:`SweepRow`, ordered like ``settings``.
    """
    if mode not in ("refresh", "propagate"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    settings = list(settings)
    if not settings:
        raise ValueError("sweep requires at least one setting")

    rows = []
    for block in setting_instruments(settings, model, tunnel, c, include_gate_hamiltonian,
                                     threshold=threshold):
        probabilities = block.pulse_probabilities(rho_gate).tolist()
        for k, setting in enumerate(settings[block.start:block.start + len(block.errors)]):
            idx = block.start + k
            try:
                instrument = block.instrument(k)
                pr = probabilities[k]
                row_seed = derive_setting_seed(seed, setting)
                if mode == "refresh":
                    record = sample_cycles(pr, n_cycles, row_seed)
                else:
                    # the row keeps the count, not the chain's arrays
                    chain = propagate_cycles(instrument, rho_gate, n_cycles, row_seed)
                    record = _count_record(chain.n_pulses, n_cycles, row_seed)
                current = estimate_current(record, tunnel.tau_cycle)
                rows.append(SweepRow(index=idx, setting=setting, pr=pr, record=record, current=current))
            except (ValueError, MemoryError) as exc:
                # MemoryError: a propagate chain of n_cycles that cannot be allocated.
                rows.append(SweepRow(index=idx, setting=setting, pr=float("nan"),
                                     record=None, current=None, status=f"error: {exc}"))
    return rows
