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
seeds from the master seed and a content digest of the row's setting, so a
setting's seed does not depend on row order or on any parallel execution
schedule.
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

# Cycles decided by one block of :func:`propagate_cycles`. A chain's two
# event-map stacks hold 2 * (RUN_BLOCK + 1) matrices of 16 + 2 * (RUN_BLOCK + 1)
# rows and 16 columns (0.69 MB).
RUN_BLOCK = 32
# Run probabilities are ratios over no-pulse survivals ``(Q^j x)[0]``; below
# this fraction of the block's first survival a ratio could carry over 2**16
# times the rounding of the per-cycle rule, so the block is cut there.
_SURVIVAL_FLOOR = 2.0 ** -16
# The chain carries its state unnormalized and divides it by its first entry
# only when that leaves this range, far from the float range's ends.
_RESCALE_BELOW = 2.0 ** -600
_RESCALE_ABOVE = 2.0 ** 600


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
    """Event maps for sampling a chain in blocks of up to ``m`` cycles.

    With ``Q = nopulse``, ``heads`` stacks the first rows of ``Q^j`` and then
    of ``pulse Q^j`` for ``j <= m``, so that ``heads @ x`` holds the
    survivals ``(Q^j x)[0]`` and then the pulse numerators
    ``(pulse Q^j x)[0]`` of the ``m + 1`` cycles from state ``x`` on.

    Returns ``(after_jump, after_run)``, each of shape
    ``(m + 1, 16 + 2 * (m + 1), 16)``: ``after_jump[j]`` stacks
    ``pulse Q^j`` over ``heads @ pulse Q^j`` and ``after_run[d]`` stacks
    ``Q^d`` over ``heads @ Q^d``. One product ``y = map @ x`` then gives the
    state after the event, ``y[:16]``, together with ``heads`` of that state
    in ``y[16:]``. The powers are built by doubling.
    """
    rows = 16 + 2 * (m + 1)
    after_jump = np.empty((m + 1, rows, 16))
    after_run = np.empty((m + 1, rows, 16))
    powers = after_run[:, :16]
    powers[0] = _IDENTITY
    powers[1] = nopulse
    filled = 2
    while filled <= m:
        # Q^(filled + r) = Q^(filled - 1) Q^(1 + r) from rows already filled.
        step = min(filled - 1, m + 1 - filled)
        np.matmul(powers[filled - 1], powers[1:1 + step], out=powers[filled:filled + step])
        filled += step
    jumps = np.matmul(pulse, powers, out=after_jump[:, :16])
    heads = np.concatenate((powers[:, 0], jumps[:, 0]))
    np.matmul(heads, powers, out=after_run[:, 16:])
    np.matmul(heads, jumps, out=after_jump[:, 16:])
    return after_jump, after_run


def propagate_cycles(instrument: QuantumInstrument, rho_gate: np.ndarray, n: int, seed: int) -> ChainRecord:
    """Run ``n`` cycles carrying the conditional gate state across cycles.

    The state is the gate's Pauli coordinates ``x``. Cycle ``i`` pulses when
    the ``i``-th uniform variate pre-drawn from the seeded generator lies
    below the pulse probability ``(pulse @ x)[0] / x[0]``; the state becomes
    the selected branch.

    The chain is sampled in blocks, one stacked product per event. Between
    pulses the state is deterministic: ``j`` no-pulse cycles after ``x`` it
    is ``Q^j x``, with ``Q = nopulse``, and the pulse probability there is
    ``(pulse Q^j x)[0] / (Q^j x)[0]``. The state ``y[:16]`` travels with
    those survivals and pulse numerators for the next ``RUN_BLOCK + 1``
    cycles, ``y[16:]``. A block decides cycles ``i`` to ``i + k - 1`` by
    these ratios; the first uniform below its ratio marks a pulse, and the
    event map ``after_jump[j]`` of :func:`_run_stacks` takes ``y`` to the
    state after it. A block without a pulse moves ``y`` on by
    ``after_run[k]``. Right after a pulse, cycle ``i`` is first checked
    alone, so a chain that pulses every cycle costs one product per cycle.
    The uniforms and the comparisons are those of the per-cycle rule, so
    the outcomes equal it unless a uniform lies within rounding (about
    1e-16) of its probability. This needs the no-pulse survival not to grow
    along a run, which holds for every physical instrument: positive maps
    whose effects sum to the identity.

    The state is carried unnormalized, since the probabilities are ratios.
    It is divided by its first entry only when that leaves
    ``[2**-600, 2**600]``, and ``rho_final`` is normalized at the end. A
    block is cut at the first survival below ``2**-16`` of its first one.
    The no-pulse branch of the cycle before the cut is then stepped alone
    and renormalized, as in the per-cycle rule. A branch of nonpositive
    probability there, unreachable for a valid instrument, resets the state
    to maximally mixed; ``resets`` counts it. ``probs`` is clamped to
    [0, 1]; the comparisons need no clamp.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    uniforms = np.random.default_rng(seed).random(n)
    nopulse = instrument.nopulse
    m = min(RUN_BLOCK, n)
    after_jump, after_run = _run_stacks(instrument.pulse, nopulse, m)
    # y[sv + j] = (Q^j x)[0] and y[nm + j] = (pulse Q^j x)[0], with x = y[:16]
    sv, nm = 16, 17 + m
    y = after_run[0].dot(pauli_coordinates(rho_gate))
    outcomes = np.zeros(n, dtype=np.uint8)
    probs = np.empty(n)
    n_pulses = resets = 0
    u = uniforms.tolist()
    after_pulse = False
    i = 0
    while i < n:
        if not _RESCALE_BELOW <= y[0] <= _RESCALE_ABOVE:
            y /= y[0]
        if after_pulse:
            # Cycle i alone first: a pulse often follows a pulse.
            p_pulse = y[nm] / y[sv]
            if u[i] < p_pulse:
                probs[i] = p_pulse
                outcomes[i] = 1
                n_pulses += 1
                y = after_jump[0].dot(y[:16])
                i += 1
                continue
        k = min(m, n - i)
        floor = _SURVIVAL_FLOOR * y[sv]
        # Survivals do not grow along a run, so the one after the block tells
        # whether any falls below the floor; cut at the first that does.
        whole = y[sv + k] >= floor
        cut = k if whole else int((y[sv:sv + k + 1] >= floor).argmin())
        p_run = np.divide(y[nm:nm + cut], y[sv:sv + cut], out=probs[i:i + cut])
        fired = uniforms[i:i + cut] < p_run
        j = int(fired.argmax())
        if fired[j]:
            outcomes[i + j] = 1
            n_pulses += 1
            y = after_jump[j].dot(y[:16])
            i += j + 1
            after_pulse = True
        elif whole:
            y = after_run[k].dot(y[:16])
            i += k
            after_pulse = False
        else:
            # The survival of cycle i + cut is below the floor: step the
            # no-pulse branch of cycle i + cut - 1 alone, from the state
            # before it, as the per-cycle rule does.
            post = nopulse.dot(after_run[cut - 1, :16].dot(y[:16]))
            p_no = float(post[0])
            if p_no > 0.0:
                x = post / p_no
            else:
                # Unreachable for a valid instrument; keep the chain alive.
                x = _MIXED_COORDINATES
                resets += 1
            y = after_run[0].dot(x)
            i += cut
            after_pulse = False
    np.minimum(np.maximum(probs, 0.0, out=probs), 1.0, out=probs)
    return _count_record(n_pulses, n, seed, ChainRecord, outcomes=outcomes, probs=probs,
                         rho_final=pauli_operator(y[:16] / y[0]) / 4.0, resets=resets)


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


# A model override enters a setting's seed as its field values in this order.
_MODEL_FIELD_NAMES = tuple(f.name for f in fields(SpinModelParams))


def derive_setting_seed(master_seed: int, setting: MeasurementSetting) -> int:
    """Deterministic per-setting seed from the master seed and the setting content.

    Content addressing (rather than row position) makes a setting's stochastic
    result invariant under grid reordering and safe to compute in parallel.
    Identical settings in one grid share a seed and therefore a result.
    """
    # The text of json.dumps(payload, sort_keys=True), written by the default
    # encoder: the keys go in sorted order, which saves building a sorting
    # encoder per call.
    payload = {}
    if setting.model is not None:
        payload["model"] = [getattr(setting.model, name) for name in _MODEL_FIELD_NAMES]
    payload["t_interact"] = setting.t_interact
    payload["u_left"] = setting.u_left
    payload["u_right"] = setting.u_right
    digest = hashlib.sha256(json.dumps(payload).encode()).digest()
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
    row then samples ``n_cycles`` shots. A row's ``pr`` is read off its pulse
    effect, and only propagate mode builds the transfer matrices.
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
                if block.errors[k] is not None:
                    raise ValueError(block.errors[k])
                pr = probabilities[k]
                row_seed = derive_setting_seed(seed, setting)
                if mode == "refresh":
                    record = sample_cycles(pr, n_cycles, row_seed)
                else:
                    # the row keeps the count, not the chain's arrays
                    chain = propagate_cycles(block.instrument(k), rho_gate, n_cycles, row_seed)
                    record = _count_record(chain.n_pulses, n_cycles, row_seed)
                current = estimate_current(record, tunnel.tau_cycle)
                rows.append(SweepRow(index=idx, setting=setting, pr=pr, record=record, current=current))
            except (ValueError, MemoryError) as exc:
                # MemoryError: a propagate chain of n_cycles that cannot be allocated.
                rows.append(SweepRow(index=idx, setting=setting, pr=float("nan"),
                                     record=None, current=None, status=f"error: {exc}"))
    return rows
