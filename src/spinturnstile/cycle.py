"""One full measurement cycle of the turnstile readout protocol.

A cycle consists of: loading the central dot with a spin-polarized electron
from the left electrode (the ancilla, prepared in ``(I + u_left . sigma)/2``),
letting it interact with the two-spin gate for a time ``t_interact`` under the
joint unitary dynamics, then opening the right barrier for a short window
``tau_detect`` so that a current pulse appears in the right electrode with
probability

    Pr = c * tau_detect * t_sq * (1 + u_right . u_ancilla(t)),

and finally flushing the dot. Because the detection acts only on the ancilla,
the whole cycle induces a two-outcome quantum instrument on the gate. Its
pulse outcome has one POVM effect, ``E = Tr_A[(rho_A x I) U^dag (M_pulse x
I) U]`` (Nielsen & Chuang ch. 8), kept as its real coordinates ``tr(E P_j) /
4`` on the gate's Pauli products, so that ``Pr = effects @ x`` with ``x_j =
tr(rho P_j)``. It comes first, from one Heisenberg-picture conjugation per
setting, and it is all that refresh sweeps, tomography designs and
calibration read. Propagate-mode sweeps and single cycles also need the two
completely positive maps, kept as real 16x16 transfer matrices on the same
coordinates (the Liouville representation), and the ancilla polarization
``ancilla_bloch @ x``; :func:`transfer_matrices` builds them where those
two read them, and the first row of the pulse matrix is the effect. A
post-measurement state is the image of ``x`` renormalized by its first
entry. :class:`InstrumentBlock` is the one instrument type: a value with one
row per setting of a stack, holding the effects and what the maps are built
from (propagators, ancilla states and detection weights, each formed once).
Settings travel as one :class:`SettingGrid` of columns, a model
override as its values, and :func:`setting_instruments` is the one route
from a grid to blocks, with one coefficient pass per grid and one
propagator per distinct (model, time) pair; :func:`setting_instrument` gives
the one-row block of a single setting, and :func:`run_cycle` reads a cycle
off it. Their agreement with the ancilla pathway (a second joint evolution
of ``rho_A x rho``, a partial trace and the formula above) and with a
Kraus-operator route, both kept in ``tests/oracles.py``, is the central
consistency check of the package.

The detection POVM on the ancilla is the minimal two-outcome model that
reproduces the pulse-probability formula: ``M_pulse = kappa (I + u_right .
sigma)/2`` with strength ``kappa = 2 c tau_detect t_sq``, and
``M_nopulse = I - M_pulse``. ``kappa`` must not exceed 1, otherwise the
"measurement" would fire with probability above one.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    GATE_PAULI_BASIS,
    IDENTITY_2,
    PAULIS,
    STRUCTURAL_TOL,
    evolve_unitaries,
    kron,
    pauli_coordinates,
    pauli_operator,
)
from .model import (
    _OVERFLOW_ERROR,
    HIERARCHY_THRESHOLD,
    SpinModelParams,
    TunnelParams,
    _check_fields,
    _time_scales,
    _unsettled_norms,
    hamiltonians,
    model_coefficients,
    model_values,
)

__all__ = [
    "BLOCK_ROWS",
    "MeasurementSetting",
    "SettingGrid",
    "InstrumentBlock",
    "CycleOutcome",
    "HierarchyWarning",
    "detection_strength",
    "setting_grid",
    "setting_instruments",
    "setting_instrument",
    "transfer_matrices",
    "run_cycle",
]

# Settings per stacked pass of setting_instruments. Propagators are shared
# over the whole grid, so the size sets only how many rows a pass stacks.
# Median perfbench exec_s at 32, 64 and 128 rows (5 runs each, 2 shared
# CPUs): tomography_grid 21.1, 21.9 and 21.8 ms, setting_grid 44.2, 43.0 and
# 43.3 ms, propagate_chain (3 rows) 13.8, 13.6 and 14.2 ms, with peak RSS
# within 0.6 MB. No size won on every workload, and the spread is noise.
BLOCK_ROWS = 64

# Row a is kron(sigma_a, I_4) flattened, sigma_a over (I, X, Y, Z): an ancilla
# operator of weights w on (I, X, Y, Z) is, on the joint space, w times these rows.
_ANCILLA_BASIS = kron(np.array((IDENTITY_2,) + PAULIS), np.eye(4)).reshape(4, 64)
# (16, 8, 8): the gate basis on the joint space, kron(I_2, P_j).
_JOINT_GATE_BASIS = kron(IDENTITY_2, GATE_PAULI_BASIS)
# kron(I_2, P_j) side by side: column block j of W @ _GATE_RIGHT is W (I x P_j).
_GATE_RIGHT = _JOINT_GATE_BASIS.transpose(1, 0, 2).reshape(8, 128)
# Column j is conj(kron(I_2, P_j)) / 4 flattened: a flattened 8x8 operator X
# times these columns gives tr[X (I x P_j)] / 4 (the P_j are Hermitian).
_GATE_READ = 0.25 * _JOINT_GATE_BASIS.reshape(16, 64).conj().T


class HierarchyWarning(UserWarning):
    """Device time scales violate tau_res << tau_dyn << tau_non."""


# The interaction time's field-table row (see ``model._MODEL_FIELDS``).
_TIME_FIELDS = {"t_interact_s": ("t_interact", 1.0e-6, ((">=", 0.0),))}


@dataclass(frozen=True)
class MeasurementSetting:
    """One knob configuration for a cycle: lead polarizations and duration.

    ``model`` optionally overrides the baseline spin-model parameters for
    this setting only (sweeps and tomography designs may vary couplings or
    the field alongside the lead magnetizations).

    This is the check of a library setting (a parsed one is the
    configuration's alone): each lead has 3 components and a finite norm of
    at most 1, and the time passes the ``t_interact_s`` row. Each
    ``ValueError`` names its lead or key. The leads and the time are kept as
    floats, so equal settings are equal whatever numeric types built them.
    """

    u_left: tuple
    u_right: tuple
    t_interact: float
    model: SpinModelParams | None = None

    def __post_init__(self):
        vars(self).update({name: _lead(getattr(self, name), name) for name in ("u_left", "u_right")})
        vars(self).update(_check_fields("", _TIME_FIELDS, vars(self)))


def _lead(u, name: str) -> tuple:
    """A library lead polarization as 3 floats, of a finite norm of at most 1."""
    u = tuple(float(x) for x in u)
    if len(u) != 3:
        raise ValueError(f"{name} must have 3 components")
    if not math.hypot(*u) <= 1.0 + STRUCTURAL_TOL:  # NaN too
        raise ValueError(f"{name} must be finite with norm <= 1")
    return u


class SettingGrid(NamedTuple):
    """Settings as columns, one entry per row: lead polarizations ``u_left`` and
    ``u_right`` (3-tuples of floats), times ``t_interact`` and model overrides
    ``models``: None for the run's model, or the override's checked field
    values as :func:`~spinturnstile.model.model_values` writes them (12
    floats, the exchange None when derived). A parsed grid also keeps each
    lead's ``(direction, magnitude)`` as given, for the echo; a stacked one
    has None."""

    u_left: tuple
    u_right: tuple
    t_interact: tuple
    models: tuple
    given_left: tuple | None = None
    given_right: tuple | None = None


def setting_grid(settings) -> SettingGrid:
    """``settings`` as one :class:`SettingGrid`: a grid as it is, and one
    :class:`MeasurementSetting` or a sequence of them stacked into columns,
    each model override as its values."""
    if isinstance(settings, SettingGrid):
        return settings
    settings = (settings,) if isinstance(settings, MeasurementSetting) else tuple(settings)
    return SettingGrid(*(tuple(getattr(s, name) for s in settings)
                         for name in ("u_left", "u_right", "t_interact")),
                       models=tuple(None if s.model is None else model_values(s.model) for s in settings))


class InstrumentBlock(NamedTuple):
    """Two-outcome instruments of consecutive settings, stacked along a first axis.

    Row ``k`` belongs to setting ``start + k``. ``effects[k]`` holds the
    Pauli coordinates ``tr(E P_j) / 4`` of its pulse effect ``E``, so that
    ``Pr(pulse | rho) = effects[k] @ x`` with ``x = pauli_coordinates(rho)``.
    ``propagators[k]`` is the row's joint unitary, ``ancilla[k]`` its
    ancilla state on the joint space, ``rho_A x I``, and ``detection[k]``
    the weights ``(kappa/2)(1, u_right)`` of its detection POVM ``M_pulse``
    on (I, X, Y, Z); :func:`transfer_matrices` builds the row's maps from
    them. When ``errors[k]`` is not None, row ``k`` holds meaningless
    numbers and ``errors[k]`` the reason that setting has no instrument.
    """

    start: int
    effects: np.ndarray
    kappa: float
    errors: tuple
    propagators: np.ndarray
    ancilla: np.ndarray
    detection: np.ndarray

    def pulse_probabilities(self, rho_gate: np.ndarray) -> np.ndarray:
        """``Pr(pulse | rho)`` of every row, by one product per row, so a row
        gets the same bits alone as in any block. A valid instrument gives
        [0, kappa], so the clamp to [0, 1] only removes rounding (e.g.
        antiparallel unit leads)."""
        return np.clip((self.effects[:, None, :] @ pauli_coordinates(rho_gate))[:, 0], 0.0, 1.0)


class CycleOutcome(NamedTuple):
    """Everything a single cycle produces for a given gate state.

    The conditional post-measurement states are None when the corresponding
    outcome has zero probability (e.g. the pulse branch at exactly
    antiparallel unit magnetizations).
    """

    u_ancilla: np.ndarray
    pr_pulse: float
    rho_gate_pulse: np.ndarray | None
    rho_gate_nopulse: np.ndarray | None
    instrument: InstrumentBlock


def detection_strength(c: float, tau_detect: float, t_sq: float) -> float:
    """POVM strength ``kappa = 2 c tau_detect t_sq`` of the detection window."""
    return 2.0 * c * tau_detect * t_sq


def _instrument_block(start: int, u: np.ndarray, errors: list, u_left: np.ndarray,
                      u_right: np.ndarray, kappa: float) -> InstrumentBlock:
    """Instruments of stacked rows: propagators ``u`` (R, 8, 8), lead
    polarizations (R, 3) and detection strength ``kappa``. ``errors`` holds,
    per row, None or the reason the row has no propagator; every row gets
    the error of a ``kappa`` above 1.

    The ancilla state ``rho_A = (1/2)(1, u_left) . sigma`` and the detection
    weights ``(kappa/2)(1, u_right)`` of ``M_pulse`` are formed here, once.
    The pulse effect is computed in the Heisenberg picture: the detection
    operator evolves backwards, ``A = U^dag (M_pulse x I) U``, and ``E =
    Tr_A[(rho_A x I) A]``, so ``tr(E P_j) = tr[(rho_A x I) A (I x P_j)]``.
    Every product is stacked per row, so a row's effect has the same bits
    alone as in any block.
    """
    if kappa > 1.0 + STRUCTURAL_TOL:
        errors = [f"detection strength kappa={kappa} exceeds 1; reduce detection.c, "
                  "tunnel.tau_detect_s or tunnel.gamma0_per_s"] * len(errors)
    n = len(u)
    ancilla = ((0.5 * _with_trace(u_left))[:, None] @ _ANCILLA_BASIS).reshape(n, 8, 8)
    with np.errstate(invalid="ignore"):  # an infinite kappa, an error of every row above
        detection = 0.5 * kappa * _with_trace(u_right)
        m_pulse = (detection[:, None] @ _ANCILLA_BASIS).reshape(n, 8, 8)
    heisenberg = u.conj().swapaxes(1, 2) @ (m_pulse @ u)
    effects = ((ancilla @ heisenberg).reshape(n, 1, 64) @ _GATE_READ)[:, 0].real
    return InstrumentBlock(start=start, effects=effects, kappa=kappa, errors=tuple(errors),
                           propagators=u, ancilla=ancilla, detection=detection)


def transfer_matrices(block: InstrumentBlock) -> tuple:
    """``(pulse, nopulse, ancilla_bloch)`` of every row of ``block``: the
    16x16 transfer matrices that take gate coordinates ``x`` to the
    unnormalized post-measurement state of each outcome, and the 3x16 map to
    the ancilla polarization before detection. The first rows of ``pulse``
    are the block's ``effects``. Only a propagate-mode sweep and
    :func:`run_cycle` read the maps, so only they call this.

    For every gate basis element ``P_j`` the joint state ``U (rho_A x P_j)
    U^dag`` is partially traced against ``sigma_a x I`` (``a`` over I, X, Y,
    Z), which gives the real response tensor ``R[a, i, j] = tr[(sigma_a x
    P_i) U (rho_A x P_j) U^dag] / 4``. Row ``R[a, 0]`` takes gate coordinates
    to the ancilla polarization component ``a`` (``a = 0`` is the trace), and
    ``R[0]`` is the unconditional map on the gate. The detection weights
    ``d`` of ``M_pulse = sum_a d_a sigma_a`` weight the ancilla components:
    ``pulse = sum_a d_a R[a]`` and ``nopulse = R[0] - pulse``. Since ``U
    (rho_A x P_j) = W (I x P_j)`` with ``W = U (rho_A x I)``, all 16 joint
    states of a row come from two matrix products.
    """
    u = block.propagators
    n = len(u)
    w = u @ block.ancilla
    joint = (w.reshape(8 * n, 8) @ _GATE_RIGHT).reshape(n, 128, 8) @ u.conj().swapaxes(1, 2)
    # [row, k, g, j, l, h] = <k g| U (rho_A x P_j) U^dag |l h>, ancilla k, l
    blocks = joint.reshape(n, 2, 4, 16, 2, 4)
    o00, o01 = blocks[:, 0, :, :, 0], blocks[:, 0, :, :, 1]
    o10, o11 = blocks[:, 1, :, :, 0], blocks[:, 1, :, :, 1]
    # Tr_A[(sigma_a x I) X] = sum_kl sigma_a[l, k] X_kl, as [row, g, j, h]
    traced = (o00 + o11, o01 + o10, 1j * (o01 - o10), o00 - o11)
    pulse_ops = sum(block.detection[:, a, None, None, None] * traced[a] for a in range(4))
    ancilla_bloch = 0.25 * np.stack(traced[1:], 1).trace(axis1=2, axis2=4).real
    # images of P_j as [row, map, j, g, h], then their coordinates as [.., i, j]
    images = np.stack((traced[0], pulse_ops), 1).transpose(0, 1, 3, 2, 4)
    total, pulse = np.moveaxis(0.25 * pauli_coordinates(images).swapaxes(2, 3), 1, 0)
    pulse[:, 0] = block.effects
    return pulse, total - pulse, ancilla_bloch


def _with_trace(u: np.ndarray) -> np.ndarray:
    """(R, 3) polarizations as (R, 4) coefficients of (I, X, Y, Z)."""
    return np.concatenate((np.ones((len(u), 1)), u), axis=1)


def setting_instruments(
    settings,
    model: SpinModelParams,
    tunnel: TunnelParams,
    c: float,
    include_gate_hamiltonian: bool = True,
    *,
    threshold: float = HIERARCHY_THRESHOLD,
):
    """Yield the instruments of ``settings`` (what :func:`setting_grid`
    takes), one :class:`InstrumentBlock` per ``BLOCK_ROWS`` settings.

    Each setting uses its own model override when it has one and ``model``
    otherwise; the detection window and the escape transparency
    (``t_sq = gamma0``) come from ``tunnel``. The first block to use a
    (model, time) pair builds its Hamiltonian and its propagator (one
    ``eigh`` of the block's new pairs), kept while a later block uses it. A
    block's pulse effects come from one stacked conjugation ``U^dag (M_pulse
    x I) U``; no transfer matrix is built here. A block is built only when
    the previous one has been consumed. A setting that has no instrument
    (detection strength above 1, a model that overflows float64, lost
    propagator phase) gets an error message in its row instead of stopping
    the others.

    The grid's distinct models get their coefficients and hierarchy check
    from one stacked pass (``model._unsettled_norms``): a bracket of each
    model's hierarchy norm from its coefficients settles every model that
    can neither overflow nor fail ``threshold``, and only the other models
    get :func:`~spinturnstile.model.hierarchy_norms` and the time scales of
    the ``rates`` command's pass (``model._time_scales``). Each setting
    whose model fails the threshold emits a :class:`HierarchyWarning`
    (``setting i: ...``, ``i`` its row), in row order, at the caller of the
    code iterating this generator, as its block is built; no model fails a
    threshold of 0. A model that overflows is reported by its rows' errors
    alone, since its time scales cannot be computed.
    """
    grid = setting_grid(settings)
    u_left, u_right = (np.array(u, dtype=float).reshape(-1, 3) for u in (grid.u_left, grid.u_right))
    kappa = detection_strength(c, tunnel.tau_detect, tunnel.gamma0)
    coefficients, slots, pair, pair_slots, pair_times, last = _grid_index(grid, model_values(model))
    unsettled, norms = _unsettled_norms(coefficients, tunnel, threshold)
    coefficients[unsettled[np.isnan(norms)]] = np.nan  # so its H is non-finite: the overflow error
    report = _time_scales(norms, tunnel, threshold)
    # an overflowing model is reported by its rows' errors alone
    messages = {unsettled[k]: ("time-scale hierarchy tau_res << tau_dyn << tau_non not satisfied "
                               f"(ratios {report.ratio_dyn_res[k]:.3g}, {report.ratio_non_dyn[k]:.3g})")
                for k in np.flatnonzero(~(report.satisfied | np.isnan(norms))).tolist()}
    # each evolved pair's error, the pairs a later block uses, their propagators and their rows there
    errors, held, kept, where = [], [], np.empty((0, 8, 8), complex), np.empty(len(last), dtype=int)
    for start in range(0, len(pair), BLOCK_ROWS):
        ids, end = pair[start:start + BLOCK_ROWS], start + BLOCK_ROWS
        for row, m in enumerate(slots[start:end] if messages else (), start):
            if m in messages:
                warnings.warn(f"setting {row}: {messages[m]}", HierarchyWarning, stacklevel=3)
        new = slice(len(errors), int(ids.max()) + 1)  # the pairs this block is the first to use
        if new.stop > new.start:
            held += range(new.start, new.stop)
            kept = _evolve_pairs(kept, coefficients[pair_slots[new]], pair_times[new],
                                 include_gate_hamiltonian, errors)
            if new.stop == len(pair_times):  # the grid's last new pair: no later block reads these
                coefficients = pair_slots = pair_times = None
        where[held] = np.arange(len(held))
        block = _instrument_block(start, kept[where[ids]], [errors[j] for j in ids.tolist()],
                                  u_left[start:end], u_right[start:end], kappa)
        later = [k for k, row in enumerate(last[held].tolist()) if row >= end]  # a later block's pairs
        held, kept = [held[k] for k in later], kept[later]
        yield block


def _grid_index(grid: SettingGrid, base: tuple) -> tuple:
    """The coefficients of the grid's distinct models (keyed None for a row
    without an override, whose model is ``base``), each row's model slot and
    (model, time) pair, and each pair's model slot, time and last row. Pairs
    are numbered by their first rows and named by the bits of the time and of
    the model's 12 coefficients, which name its Hamiltonian in a tenth of the
    bytes (+ 0.0 makes a -0.0 coefficient +0.0, which gives the same H).
    Models that differ only in their level offset share a name, and so do an
    override equal to ``base`` and the rows without one."""
    models, names, pairs = {}, {}, {}
    slots = [models.setdefault(m, len(models)) for m in grid.models]
    coefficients = model_coefficients([base if m is None else m for m in models])
    named = [names.setdefault(row.tobytes(), m) for m, row in enumerate(coefficients + 0.0)]
    pair = [pairs.setdefault((named[m], bits), len(pairs))
            for m, bits in zip(slots, np.array(grid.t_interact, dtype=float).view(np.uint64).tolist())]
    pair_slots, pair_times = np.array(list(pairs), dtype=np.uint64).reshape(-1, 2).T
    last = list({j: k for k, j in enumerate(pair)}.values())
    return coefficients, slots, np.array(pair, dtype=int), pair_slots, pair_times.view(float), np.array(last)


def _evolve_pairs(kept: np.ndarray, coefficients: np.ndarray, t: np.ndarray,
                  include_gate_hamiltonian: bool, errors: list) -> np.ndarray:
    """``kept`` followed by the propagators of model ``coefficients`` at times
    ``t``, whose errors go to ``errors``: an overflowing H is zeroed and
    gets ``_OVERFLOW_ERROR``."""
    h = hamiltonians(coefficients, include_gate_hamiltonian)
    overflow = ~np.isfinite(h).all(axis=(1, 2))
    h[overflow] = 0.0
    u, found = evolve_unitaries(h, t)
    errors += [_OVERFLOW_ERROR if o else e for o, e in zip(overflow.tolist(), found)]
    return np.concatenate((kept, u))


def setting_instrument(
    setting,
    model: SpinModelParams,
    tunnel: TunnelParams,
    c: float,
    include_gate_hamiltonian: bool = True,
    *,
    threshold: float = HIERARCHY_THRESHOLD,
) -> InstrumentBlock:
    """The instrument one setting (a :class:`MeasurementSetting` or one-row
    :class:`SettingGrid`) induces on the gate: the one-row block of
    :func:`setting_instruments`, which warns at the caller, raising ``ValueError`` for its error
    (first, for a grid of another row count)."""
    return _checked(next(setting_instruments(_one_setting(setting), model, tunnel, c,
                                             include_gate_hamiltonian, threshold=threshold)))


def _one_setting(setting) -> SettingGrid:
    """``setting`` as a one-row grid; raises ``ValueError`` for any other count."""
    grid = setting_grid(setting)
    if len(grid.t_interact) != 1:
        raise ValueError(f"expected one setting, got {len(grid.t_interact)}")
    return grid


def _checked(block: InstrumentBlock) -> InstrumentBlock:
    """A one-row ``block``; raises ``ValueError`` with its row's error."""
    if block.errors[0] is not None:
        raise ValueError(block.errors[0])
    return block


def run_cycle(
    setting,
    model: SpinModelParams,
    tunnel: TunnelParams,
    rho_gate: np.ndarray,
    c: float,
    include_gate_hamiltonian: bool = True,
    *,
    threshold: float = HIERARCHY_THRESHOLD,
) -> CycleOutcome:
    """Execute one full measurement cycle on a given gate state.

    Builds the setting's instrument (:func:`setting_instrument`, same
    arguments and errors) and reads the ancilla polarization, the pulse
    probability and both conditional gate states off it. Emits a
    :class:`HierarchyWarning` when the time scales of the setting's model are
    not separated by ``threshold`` (the protocol's instantaneous-switching
    assumptions are then questionable), but still computes the ideal-limit
    result.
    """
    block = _checked(next(setting_instruments(_one_setting(setting), model, tunnel, c,
                                              include_gate_hamiltonian, threshold=threshold)))
    pulse, nopulse, ancilla_bloch = transfer_matrices(block)
    x = pauli_coordinates(rho_gate)

    def branch(transfer):
        post = transfer[0] @ x
        prob = float(post[0])
        return None if prob <= 1e-14 else pauli_operator(post / prob) / 4.0

    return CycleOutcome(
        u_ancilla=ancilla_bloch[0] @ x,
        pr_pulse=float(block.pulse_probabilities(rho_gate)[0]),
        rho_gate_pulse=branch(pulse),
        rho_gate_nopulse=branch(nopulse),
        instrument=block,
    )
