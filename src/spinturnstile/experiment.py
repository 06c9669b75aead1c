"""Multi-cycle statistics: shot sampling, currents, calibration and sweeps.

A measurement run repeats the cycle many times and counts current pulses.
Cycles are treated as statistically independent with the gate re-prepared
identically each time ("refresh" mode, binomial counting statistics); an
optional "propagate" mode instead carries the conditional post-measurement
gate state from cycle to cycle, exposing measurement back-action. The average
current through the dot chain is the pulse probability times one electron
charge per cycle period. A count is one :class:`ShotRecord`, a chain's
``shots`` and a sweep row's ``record`` alike.

Reproducibility: every stochastic quantity is drawn from a
``numpy.random.Generator`` seeded deterministically. Sweep rows derive their
seeds from the master seed and a content digest of the row's setting, so a
setting's seed does not depend on row order or on any parallel execution
schedule. A row's count is exactly ``numpy.random.default_rng(seed).binomial(n,
pr)`` for its seed, although the rows' seeds and counts are computed together
(:func:`derive_setting_seeds`, :func:`sample_counts`).
"""

import hashlib
import itertools
import math
import operator
import threading
from typing import NamedTuple

import numpy as np

from .algebra import pauli_coordinates, pauli_operator
from .cycle import setting_grid, setting_instruments, transfer_matrices
from .constants import ELEMENTARY_CHARGE
from .model import _EXCHANGE, HIERARCHY_THRESHOLD, SpinModelParams, TunnelParams
from .results import _time_texts

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
    "derive_setting_seeds",
    "run_sweep",
]

_IDENTITY = np.eye(16)
_MIXED_COORDINATES = _IDENTITY[0]
# Each thread's event-map buffer, ``buffer`` (see :func:`_run_stacks`).
_EVENT_MAPS = threading.local()

# The most cycles one window of :func:`propagate_cycles` spans, and so one
# event product moves a chain on. The two event-map stacks hold
# 2 * (RUN_BLOCK + 1) matrices of 16 + 2 * (RUN_BLOCK + 1) rows and 16
# columns (0.69 MB), in one buffer per thread that every chain of the thread
# reuses (:func:`_run_stacks`).
RUN_BLOCK = 32
# Pulse probabilities are ratios over no-pulse survivals ``(Q^j x)[0]``;
# below this fraction of the window's first survival a ratio could carry over
# 2**16 times the rounding of the per-cycle rule, so the window is cut there.
_SURVIVAL_FLOOR = 2.0 ** -16
# The chain carries its state unnormalized and divides it by its first entry
# only when that leaves this range, far from the float range's ends.
_RESCALE_BELOW = 2.0 ** -600
_RESCALE_ABOVE = 2.0 ** 600
# A chain decides only the cycles whose uniform lies below a bound on every
# pulse probability it can reach: the largest eigenvalue L of the pulse effect
# E, plus this margin (thinning: Lewis & Shedler, Naval Res. Logist. Q. 26,
# 403, 1979). A physical instrument's maps are completely positive, so every
# conditional state of a positive semidefinite gate state is PSD, and then
# p = tr(E rho) / tr(rho) <= L. The margin covers two departures from that.
# Rounding: a ratio's numerator and survival are sums of 16 products of a
# map entry (at most 1 in size) with a coordinate (at most the trace), after
# about 8 such rounded products, so each is off by at most 2048 * 2**-53 of
# the state's trace; the survival is at least 2**-16 of it (the floor), so
# the computed p is within 3e-8 of the exact ratio. The gate tolerance: a
# gate state of smallest eigenvalue -e is rho+ - N with N >= 0 and
# tr N <= 4e, and the state reached by maps M is M(rho+) - M(N), whose p
# exceeds L by at most L tr M(N) / tr(M(rho+) - M(N)). That share starts
# at 4e, 4e-10 at config's tolerance STRUCTURAL_TOL, and grows only on
# branches where M(rho+) fades faster than M(N); since tr M(N) summed over
# the branches of any run of cycles is tr N, a skipped cycle could have
# pulsed with probability at most 4e. The margin costs one decision per 10**6
# cycles. A gate state that is not PSD within the margin, relative to its
# trace, or a pulse row or gate coordinates that are not finite (a finite
# gate state's coordinates can overflow), gets an infinite bound: every
# cycle is decided.
_PULSE_BOUND_MARGIN = 1e-6
# Uniforms compared with the bound per pass, so that the index of the cycles
# to decide holds one chunk at a time and not one entry per cycle.
_BOUND_CHUNK = 4096

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


class ShotRecord(NamedTuple):
    """Pulse count over a number of cycles: every counting route's record."""

    n_cycles: int
    n_pulses: int
    pr_hat: float
    std_err: float
    seed: int


class ChainRecord(NamedTuple):
    """A back-action chain's count ``shots`` (cycles not independent), with
    the chain's outcomes, pulse probabilities and final state.

    ``shots.std_err`` keeps the binomial form, which is only indicative here
    since the chain correlates cycles. ``resets`` counts no-pulse branches of
    nonpositive probability, after which the state was reset to maximally
    mixed; a valid instrument has none.
    """

    shots: ShotRecord
    outcomes: np.ndarray
    probs: np.ndarray
    rho_final: np.ndarray
    resets: int


class CurrentEstimate(NamedTuple):
    amperes: float
    std_err_amperes: float


class SweepRow(NamedTuple):
    """Result of one sweep setting; ``status`` is 'ok' or an error message,
    and an error row has no ``record``. A row's current is
    :func:`estimate_current` of its record."""

    pr: float
    record: ShotRecord | None
    status: str = "ok"


def _count_record(n_pulses: int, n: int, seed: int) -> ShotRecord:
    """The record of ``n_pulses`` in ``n`` cycles, with their ``pr_hat`` and its
    binomial ``std_err``."""
    pr_hat = n_pulses / n
    return ShotRecord(n_cycles=n, n_pulses=n_pulses, pr_hat=pr_hat,
                      std_err=math.sqrt(pr_hat * (1.0 - pr_hat) / n), seed=int(seed))


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
    """Event maps for sampling a chain in blocks of up to ``m <= RUN_BLOCK`` cycles.

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

    Both stacks are views of one buffer per thread, allocated by the
    thread's first call, and the thread's next call overwrites them. So a
    chain faults in no fresh memory for its maps, and chains in different
    threads do not share them.
    """
    rows = 16 + 2 * (m + 1)
    size = (m + 1) * rows * 16
    buffer = getattr(_EVENT_MAPS, "buffer", None)
    if buffer is None:
        buffer = _EVENT_MAPS.buffer = np.empty(2 * (RUN_BLOCK + 1) * (16 + 2 * (RUN_BLOCK + 1)) * 16)
    after_jump = buffer[:size].reshape(m + 1, rows, 16)
    after_run = buffer[size:2 * size].reshape(m + 1, rows, 16)
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


def _pulse_bound(pulse: np.ndarray, x: np.ndarray) -> float:
    """The bound on every pulse probability that a chain of the transfer
    matrix ``pulse`` reaches from the gate state of Pauli coordinates ``x``:
    the pulse effect's largest eigenvalue plus ``_PULSE_BOUND_MARGIN``, or
    infinity (see ``_PULSE_BOUND_MARGIN``)."""
    if not (np.isfinite(pulse[0]).all() and np.isfinite(x).all()):
        return math.inf
    effect, gate = np.linalg.eigvalsh([pauli_operator(pulse[0]), pauli_operator(x)]).tolist()
    if not gate[0] >= -_PULSE_BOUND_MARGIN * sum(gate):
        return math.inf
    return effect[-1] + _PULSE_BOUND_MARGIN


def _uncertain_cycles(uniforms: np.ndarray, bound: float):
    """An iterator over the indices, in order, of the cycles whose uniform
    lies below ``bound``, found ``_BOUND_CHUNK`` cycles at a time; then over
    ``len(uniforms)`` forever."""
    n = len(uniforms)

    def chunks():
        for start in range(0, n, _BOUND_CHUNK):
            chunk = np.flatnonzero(uniforms[start:start + _BOUND_CHUNK] < bound)
            chunk += start
            yield chunk.tolist()
        yield itertools.repeat(n)

    return itertools.chain.from_iterable(chunks())


def propagate_cycles(pulse: np.ndarray, nopulse: np.ndarray, rho_gate: np.ndarray, n: int,
                     seed: int, *, count_only: bool = False) -> ChainRecord | ShotRecord:
    """Run ``n`` cycles carrying the conditional gate state across cycles.

    ``pulse`` and ``nopulse`` are the 16x16 transfer matrices of one
    instrument row, row ``k`` of the first two arrays that
    :func:`~spinturnstile.cycle.transfer_matrices` returns for an
    :class:`~spinturnstile.cycle.InstrumentBlock`. The state is the gate's
    Pauli coordinates ``x``. Cycle ``i`` pulses when the ``i``-th uniform
    variate pre-drawn from the seeded generator lies below the pulse
    probability ``(pulse @ x)[0] / x[0]``; the state becomes the selected
    branch.

    Returns the :class:`ChainRecord`, or with ``count_only`` its ``shots``
    alone: the same :class:`ShotRecord`, for which the chain builds no
    ``outcomes``, ``probs`` or ``rho_final`` and holds no per-cycle array but
    the uniforms.

    The chain moves in windows, one stacked product per event. Between
    pulses the state is deterministic: ``j`` no-pulse cycles after ``x`` it
    is ``Q^j x``, with ``Q = nopulse``, and the pulse probability there is
    ``(pulse Q^j x)[0] / (Q^j x)[0]``. The state ``y[:16]`` travels with
    those survivals and pulse numerators for the next ``RUN_BLOCK + 1``
    cycles, ``y[16:]``. No reachable state pulses with a probability above
    a bound, the largest eigenvalue of the pulse effect plus a margin
    (``_PULSE_BOUND_MARGIN`` gives the argument), so a cycle whose uniform
    is at least the bound has no pulse and is not decided. A window decides
    the other cycles in its first ``k`` (``RUN_BLOCK``, or fewer at the
    chain's end) in order, each on Python floats read through memoryviews
    of ``y`` and of the uniforms, by the ratio and comparison of the
    per-cycle rule, until the first pulse or the first survival below the
    floor. A pulse ``j`` cycles on takes ``y`` to the state after it by the
    event map ``after_jump[j]`` of :func:`_run_stacks`; a window without one
    moves ``y`` on by ``after_run[k]``. A cycle to decide at a window's
    start needs no floor check, so a dense pulse train costs one product
    per pulse. The cycles to decide are found by comparing the uniforms with
    the bound one chunk at a time. A full record's ``probs`` are each
    window's ratios up to its event: a few are divided as Python floats,
    more in one division of slices of ``y``. The outcomes equal the
    per-cycle rule's unless a uniform lies within rounding (about 1e-16) of
    its probability. This needs a physical instrument: completely positive
    maps whose effects sum to the identity, so that the no-pulse survival
    does not grow along a run.

    The state is carried unnormalized, since the probabilities are ratios.
    It is divided by its first entry only when that leaves
    ``[2**-600, 2**600]``, and ``rho_final`` is normalized at the end. A
    window is cut at the first survival below ``2**-16`` of its first one.
    The no-pulse branch of the cycle before the cut is then stepped alone
    and renormalized, as in the per-cycle rule. A branch of nonpositive
    probability there, unreachable for a valid instrument, resets the state
    to maximally mixed; ``resets`` counts it. ``probs`` is clamped to
    [0, 1]; the comparisons need no clamp. A ``rho_gate`` with an entry that
    is not finite raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not np.isfinite(rho_gate).all():
        raise ValueError("rho_gate must be finite")
    uniforms = np.random.default_rng(seed).random(n)
    uv = memoryview(uniforms)
    m = RUN_BLOCK if n > RUN_BLOCK else n
    after_jump, after_run = _run_stacks(pulse, nopulse, m)
    jump_maps, run_maps = list(after_jump), list(after_run)
    # y[sv + j] = (Q^j x)[0] and y[nm + j] = (pulse Q^j x)[0], with x = y[:16]
    sv, nm = 16, 17 + m
    # The state y and the next one, each with the view of its state x and a
    # memoryview whose items are Python floats. Each event's product writes
    # the other vector, and the loop moves on to its views.
    now, spare = [(y, y[:16], memoryview(y)) for y in np.empty((2, sv + 2 * (m + 1)))]
    y, x, yv = now
    run_maps[0].dot(pauli_coordinates(rho_gate), y)
    next_uncertain = _uncertain_cycles(uniforms, _pulse_bound(pulse, x)).__next__
    survival_floor = _SURVIVAL_FLOOR
    rescale_below, rescale_above = _RESCALE_BELOW, _RESCALE_ABOVE
    outcomes = None
    if not count_only:
        outcomes = np.zeros(n, dtype=np.uint8)
        probs = np.empty(n)
        pv = memoryview(probs)
    n_pulses = resets = 0
    u = next_uncertain()  # the next cycle to decide
    i = 0
    while i < n:
        if not rescale_below <= yv[0] <= rescale_above:
            y /= y[0]
        if u == i:
            # A cycle to decide at the window's start: its survival is the
            # window's first, so it needs no floor check.
            p_pulse = yv[nm] / yv[sv]
            if uv[i] < p_pulse:
                if outcomes is not None:
                    pv[i] = p_pulse
                    outcomes[i] = 1
                n_pulses += 1
                u = next_uncertain()
                jump_maps[0].dot(x, spare[0])
                now, spare = spare, now
                y, x, yv = now
                i += 1
                continue
            u = next_uncertain()
        d = u - i
        j = -1
        k = n - i if n - i < m else m
        floor = survival_floor * yv[sv]
        while d < k and yv[sv + d] >= floor:
            if uv[u] < yv[nm + d] / yv[sv + d]:
                j = d
                break
            u = next_uncertain()
            d = u - i
        if j >= 0:
            span, event = j + 1, jump_maps[j]
        elif d >= k and yv[sv + k] >= floor:
            span, event = k, run_maps[k]
        else:
            # A survival of the window is below the floor: the no-pulse
            # branch of the cycle before the first such one is stepped alone
            # below, from the state before it, as the per-cycle rule does.
            span, event = int((y[sv:sv + k + 1] >= floor).argmin()), None
        if outcomes is not None:
            # a few ratios cost less divided one by one than in sliced arrays
            if span < 8:
                for d in range(span):
                    pv[i + d] = yv[nm + d] / yv[sv + d]
            else:
                np.divide(y[nm:nm + span], y[sv:sv + span], probs[i:i + span])
            if j >= 0:
                outcomes[i + j] = 1
        if j >= 0:
            n_pulses += 1
            u = next_uncertain()
        if event is not None:
            event.dot(x, spare[0])
        else:
            post = nopulse.dot(run_maps[span - 1][:16].dot(x))
            p_no = post.item(0)
            if p_no > 0.0:
                post /= p_no
            else:
                # Unreachable for a valid instrument; keep the chain alive.
                post = _MIXED_COORDINATES
                resets += 1
            run_maps[0].dot(post, spare[0])
        now, spare = spare, now
        y, x, yv = now
        i += span
    shots = _count_record(n_pulses, n, seed)
    if outcomes is None:
        return shots
    np.minimum(np.maximum(probs, 0.0, out=probs), 1.0, out=probs)
    return ChainRecord(shots=shots, outcomes=outcomes, probs=probs,
                       rho_final=pauli_operator(x / y[0]) / 4.0, resets=resets)


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


def _digest_templates() -> tuple:
    """The templates of a setting's digest text (see
    :func:`derive_setting_seeds`), which take its time as its text and every
    other value by ``%r``: without a model, then with one whose exchange is a
    float and with one whose exchange is null.

    ``repr`` writes what ``json.dumps`` writes for the Python floats that a
    :class:`~spinturnstile.cycle.SettingGrid` keeps, its model values
    included. A null exchange takes its None argument with a ``%.0s`` slot,
    which writes nothing of it, after ``null``.
    """
    tail = '"t_interact": %s, "u_left": [%r, %r, %r], "u_right": [%r, %r, %r]}'

    def with_model(exchange: str) -> str:
        # model_values: b_field's 3 components, then 9 scalars
        scalars = [exchange if slot == _EXCHANGE else "%r" for slot in range(3, 12)]
        return '{"model": [[%r, %r, %r], ' + ", ".join(scalars) + "], " + tail

    return "{" + tail, with_model("%r"), with_model("null%.0s")


_DIGEST_TEMPLATES = _digest_templates()


def derive_setting_seeds(master_seed: int, settings) -> list:
    """Deterministic per-setting seeds from the master seed and each setting's
    content (``settings``: see :func:`~spinturnstile.cycle.setting_grid`).

    Content addressing (rather than row position) makes a setting's stochastic
    result invariant under grid reordering and safe to compute in parallel.
    Identical settings in one grid share a seed and therefore a result.

    Setting ``s`` gets ``SeedSequence([master_seed & (2**63 - 1), d]).
    generate_state(1)[0]``, with ``d`` the first 8 bytes, big-endian, of the
    SHA-256 of its digest text: ``json.dumps(payload, sort_keys=True)`` of
    ``{"model": [field values], "t_interact": t, "u_left": [..], "u_right":
    [..]}`` (no "model" without an override), each float as its ``repr``.
    The text is fixed: seeds change when it does. Each setting's text is its
    template filled once, with each distinct time's text made once. Those
    entropies take at most 4 words, the master's then ``d``'s low and high
    word, and the states of all settings come from one stacked pass.
    """
    master = int(master_seed) & MASTER_SEED_MAX
    master_bytes = master.to_bytes(4 if master < 2**32 else 8, "little")
    grid = setting_grid(settings)
    texts = [_DIGEST_TEMPLATES[0 if model is None else 1 + (model[_EXCHANGE] is None)]
             % (*(model or ()), t, *left, *right) for model, t, left, right in
             zip(grid.models, _time_texts(grid.t_interact, "%r"), grid.u_left, grid.u_right)]
    # each digest's first 8 bytes, reversed: the little-endian bytes of their big-endian int
    digests = [master_bytes + hashlib.sha256(text.encode()).digest()[7::-1] for text in texts]
    words = np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, len(master_bytes) // 4 + 2)
    return _seed_states(words, 1)[:, 0].tolist()


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

    ``settings`` (see :func:`~spinturnstile.cycle.setting_grid`) is stacked
    once, here. Its instruments come from :func:`setting_instruments`, which
    also checks each row's time-scale hierarchy against ``threshold``; each
    row then samples ``n_cycles`` shots. A row's ``pr`` is read off its pulse
    effect. Only propagate mode builds transfer matrices, once per block
    that has a row without an error, for that block's chains. ``mode``
    chooses between independent cycles ("refresh") and the back-action chain
    ("propagate"). Invalid settings, and chains too long to allocate, produce
    a row with an error status instead of aborting the sweep.

    Returns:
        list of :class:`SweepRow`, one per setting, in ``settings`` order.
    """
    if mode not in ("refresh", "propagate"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    grid = setting_grid(settings)
    if not grid.t_interact:
        raise ValueError("sweep requires at least one setting")

    seeds = derive_setting_seeds(seed, grid)
    rows = [None] * len(grid.t_interact)
    drawn = []  # (index, pr) of refresh rows; their counts are drawn together below
    for block in setting_instruments(grid, model, tunnel, c, include_gate_hamiltonian, threshold=threshold):
        probabilities = block.pulse_probabilities(rho_gate).tolist()
        if mode == "propagate" and None in block.errors:
            pulse, nopulse, _ = transfer_matrices(block)
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
                    rows[idx] = SweepRow(pr, propagate_cycles(pulse[k], nopulse[k], rho_gate, n_cycles,
                                                              seeds[idx], count_only=True))
            except (ValueError, MemoryError) as exc:
                # MemoryError: a propagate chain of n_cycles that cannot be allocated.
                rows[idx] = SweepRow(float("nan"), None, f"error: {exc}")
    if drawn:
        counts = sample_counts([pr for _, pr in drawn], n_cycles, [seeds[idx] for idx, _ in drawn])
        for (idx, pr), count in zip(drawn, counts):
            rows[idx] = SweepRow(pr, _count_record(count, n_cycles, seeds[idx]))
    return rows
