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
schedule. A row's count is exactly ``numpy.random.default_rng(seed).binomial(n,
pr)`` for its seed, although the rows' seeds and counts are computed together
(:func:`derive_setting_seeds`, :func:`sample_counts`).
"""

import hashlib
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .algebra import pauli_coordinates, pauli_operator
from .cycle import MeasurementSetting, setting_instruments
from .constants import ELEMENTARY_CHARGE
from .model import HIERARCHY_THRESHOLD, SpinModelParams, TunnelParams

__all__ = [
    "RUN_BLOCK",
    "MASTER_SEED_MAX",
    "ShotRecord",
    "ChainRecord",
    "CurrentEstimate",
    "SweepRow",
    "sample_cycles",
    "sample_counts",
    "propagate_cycles",
    "estimate_current",
    "calibrate",
    "derive_setting_seed",
    "derive_setting_seeds",
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

# The largest master seed: :func:`derive_setting_seeds` mixes a master
# seed's low 63 bits, so a larger one would repeat a smaller one's seeds.
MASTER_SEED_MAX = 2**63 - 1

# numpy's SeedSequence hash constants, as Python ints below 2**32.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier and state mask.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


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


class SweepRow(NamedTuple):
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


def _check_draw(pr: float, n: int) -> None:
    if not 0.0 <= pr <= 1.0:
        raise ValueError(f"pulse probability {pr} outside [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")


def _uint32_words(seeds) -> np.ndarray:
    """The two little-endian 32-bit words of each seed in [0, 2**64), one
    row per seed: ``SeedSequence``'s words of an int entropy, with a zero
    word after a seed below 2**32, which changes nothing (see
    :func:`_seed_states`)."""
    seeds = [operator.index(s) for s in seeds]
    if not all(0 <= s < 2**64 for s in seeds):
        raise ValueError("seeds must lie in [0, 2**64)")
    return np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and its ``count`` successive products by ``mult``, modulo 2**32."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)


# hash call j xors its value with _HASH_A[j] and multiplies it by _HASH_A[j + 1]
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2)


def _seed_states(words: np.ndarray, k: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(k)`` for every row at once.

    Row ``r``'s entropy is ``words[r]``, at most 4 words. This is numpy's
    pool mixing with the rows stacked: the 4 pool words are the rows of a
    ``(4, rows)`` uint32 array, whose products wrap like the C hash, and the
    3 updates from one source word are one operation. The pool pads the
    entropy with zero words, so trailing zero words change nothing. Returns
    a ``(rows, k)`` uint32 array.
    """
    rows, width = words.shape
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:width] = words.T
    pool ^= _HASH_A[:_POOL_SIZE, None]
    pool *= _HASH_A[1:_POOL_SIZE + 1, None]
    pool ^= pool >> 16
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = (pool[src] ^ _HASH_A[j:j + 3, None]) * _HASH_A[j + 1:j + 4, None]
        hashed ^= hashed >> 16
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
        j += 3
    hash_b = _hash_constants(_INIT_B, _MULT_B, k)
    state = (pool[np.arange(k) % _POOL_SIZE] ^ hash_b[:k, None]) * hash_b[1:, None]
    state ^= state >> 16
    return np.ascontiguousarray(state.T)


def sample_counts(prs, n: int, seeds) -> list:
    """Pulse counts of ``n`` independent cycles, one per ``(pr, seed)`` pair.

    Each count equals ``numpy.random.default_rng(seed).binomial(n, pr)`` bit
    for bit, for seeds in [0, 2**64). The seeds' ``SeedSequence`` states come
    from one stacked pass (:func:`_seed_states`), and one ``PCG64`` generator
    is set, per row, to the state ``PCG64(seed)`` starts from: with
    ``v0..v3`` the row's words as uint64, ``initstate = v0 << 64 | v1``,
    ``inc = (v2 << 64 | v3) << 1 | 1`` and ``state = (inc + initstate) * M +
    inc`` modulo 2**128, ``M`` the PCG64 multiplier. Raises the
    ``ValueError`` of the first row whose ``pr`` is outside [0, 1], or that
    ``n`` is below 1, or that a seed is outside [0, 2**64).
    """
    prs = list(prs)
    for pr in prs:
        _check_draw(pr, n)
    words = _uint32_words(seeds)
    if len(words) != len(prs):
        raise ValueError("sample_counts needs one seed per probability")
    starts = _seed_states(words, 8).view(np.uint64).tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    counts = []
    for pr, (v0, v1, v2, v3) in zip(prs, starts):
        inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
        state["state"] = {"state": ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _MASK128, "inc": inc}
        bit_generator.state = state
        counts.append(int(generator.binomial(n, pr)))
    return counts


def sample_cycles(pr: float, n: int, seed: int) -> ShotRecord:
    """Draw the pulse count of ``n`` independent cycles at pulse probability ``pr``.

    Identical ``(pr, n, seed)`` always yields the identical record; this is
    the one-row case of :func:`sample_counts`.
    """
    return _count_record(sample_counts([pr], n, [seed])[0], n, seed)


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


def propagate_cycles(pulse: np.ndarray, nopulse: np.ndarray, rho_gate: np.ndarray, n: int,
                     seed: int) -> ChainRecord:
    """Run ``n`` cycles carrying the conditional gate state across cycles.

    ``pulse`` and ``nopulse`` are the 16x16 transfer matrices of one
    instrument row, ``block.pulse[k]`` and ``block.nopulse[k]`` of an
    :class:`~spinturnstile.cycle.InstrumentBlock`. The state is the gate's
    Pauli coordinates ``x``. Cycle ``i`` pulses when the ``i``-th uniform
    variate pre-drawn from the seeded generator lies below the pulse
    probability ``(pulse @ x)[0] / x[0]``; the state becomes the selected
    branch.

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
    m = min(RUN_BLOCK, n)
    after_jump, after_run = _run_stacks(pulse, nopulse, m)
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


def calibrate(measured_pr: float, pr_model: float, c: float) -> float:
    """The detection constant that makes the model predict ``measured_pr``.

    Every pulse map is exactly proportional to the detection strength, and
    it to ``c``. So where the model gives pulse probability ``pr_model`` at
    detection constant ``c``, for any setting and gate state, the constant
    of the measured run is ``c * measured_pr / pr_model``. Raises
    ``ValueError`` when ``pr_model`` is not positive.
    """
    if not pr_model > 0.0:
        raise ValueError(f"model pulse probability {pr_model} must be positive to calibrate")
    return c * (measured_pr / pr_model)


# A model override enters a setting's seed as its field values in this
# order; the first, b_field, is a vector.
_MODEL_FIELD_NAMES = tuple(f.name for f in fields(SpinModelParams))
_model_scalars = operator.attrgetter(*_MODEL_FIELD_NAMES[1:])


def _digest_templates() -> tuple:
    """The ``%r``-templates of a setting's digest text (see
    :func:`derive_setting_seeds`): without a model, then with one whose
    exchange is a float and with one whose exchange is null.

    ``repr`` writes what ``json.dumps`` writes for the finite floats that
    :class:`MeasurementSetting` and :class:`SpinModelParams` keep. A null
    exchange takes its None argument with a ``%.0s`` slot, which writes
    nothing of it, after ``null``.
    """
    tail = '"t_interact": %r, "u_left": [%r, %r, %r], "u_right": [%r, %r, %r]}'

    def with_model(exchange: str) -> str:
        scalars = [exchange if name == "exchange" else "%r" for name in _MODEL_FIELD_NAMES[1:]]
        return '{"model": [[%r, %r, %r], ' + ", ".join(scalars) + "], " + tail

    return "{" + tail, with_model("%r"), with_model("null%.0s")


_DIGEST_TEMPLATES = _digest_templates()


def _setting_digest(setting: MeasurementSetting) -> bytes:
    values = (setting.t_interact, *setting.u_left, *setting.u_right)
    model = setting.model
    if model is None:
        text = _DIGEST_TEMPLATES[0] % values
    else:
        text = (_DIGEST_TEMPLATES[1 + (model.exchange is None)]
                % (*model.b_field, *_model_scalars(model), *values))
    # the first 8 bytes, reversed: the little-endian bytes of their big-endian int
    return hashlib.sha256(text.encode()).digest()[7::-1]


def derive_setting_seeds(master_seed: int, settings) -> list:
    """Deterministic per-setting seeds from the master seed and each setting's content.

    Content addressing (rather than row position) makes a setting's stochastic
    result invariant under grid reordering and safe to compute in parallel.
    Identical settings in one grid share a seed and therefore a result.

    Setting ``s`` gets ``SeedSequence([master_seed & (2**63 - 1), d]).
    generate_state(1)[0]``, with ``d`` the first 8 bytes, big-endian, of the
    SHA-256 of its digest text: ``json.dumps(payload, sort_keys=True)`` of
    ``{"model": [field values], "t_interact": t, "u_left": [..], "u_right":
    [..]}`` (no "model" without an override), each float as its ``repr``.
    The text is fixed: seeds change when it does. Those entropies take at
    most 4 words, the master's then ``d``'s low and high word, and the states
    of all settings come from one stacked pass.
    """
    master = int(master_seed) & MASTER_SEED_MAX
    master_bytes = master.to_bytes(4 if master < 2**32 else 8, "little")
    data = b"".join(master_bytes + _setting_digest(s) for s in settings)
    words = np.frombuffer(data, dtype="<u4").reshape(-1, len(master_bytes) // 4 + 2)
    return _seed_states(words, 1)[:, 0].tolist()


def derive_setting_seed(master_seed: int, setting: MeasurementSetting) -> int:
    """The one-setting case of :func:`derive_setting_seeds`."""
    return derive_setting_seeds(master_seed, [setting])[0]


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

    seeds = derive_setting_seeds(seed, settings)
    rows = [None] * len(settings)
    drawn = []  # (index, pr) of refresh rows; their counts are drawn together below

    def ok_row(idx, pr, record):
        return SweepRow(index=idx, setting=settings[idx], pr=pr, record=record,
                        current=estimate_current(record, tunnel.tau_cycle))

    for block in setting_instruments(settings, model, tunnel, c, include_gate_hamiltonian,
                                     threshold=threshold):
        probabilities = block.pulse_probabilities(rho_gate).tolist()
        for k, error in enumerate(block.errors):
            idx = block.start + k
            try:
                if error is not None:
                    raise ValueError(error)
                pr = probabilities[k]
                if mode == "refresh":
                    _check_draw(pr, n_cycles)
                    drawn.append((idx, pr))
                else:
                    # the row keeps the count, not the chain's arrays
                    chain = propagate_cycles(block.pulse[k], block.nopulse[k], rho_gate, n_cycles,
                                             seeds[idx])
                    rows[idx] = ok_row(idx, pr, _count_record(chain.n_pulses, n_cycles, seeds[idx]))
            except (ValueError, MemoryError) as exc:
                # MemoryError: a propagate chain of n_cycles that cannot be allocated.
                rows[idx] = SweepRow(index=idx, setting=settings[idx], pr=float("nan"),
                                     record=None, current=None, status=f"error: {exc}")
    if drawn:
        counts = sample_counts([pr for _, pr in drawn], n_cycles, [seeds[idx] for idx, _ in drawn])
        for (idx, pr), count in zip(drawn, counts):
            rows[idx] = ok_row(idx, pr, _count_record(count, n_cycles, seeds[idx]))
    return rows
