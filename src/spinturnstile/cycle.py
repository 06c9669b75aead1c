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
``ancilla_bloch @ x``; these are built on demand, and the first row of the
pulse matrix is the effect. A post-measurement state is the image of ``x``
renormalized by its first entry. :class:`InstrumentBlock` is the one
instrument type: it holds these arrays for a stack of settings, one row
each. :func:`setting_instruments` is the one route from
:class:`MeasurementSetting` values to blocks; :func:`setting_instrument`
gives the one-row block of a single setting, and :func:`run_cycle` reads a
cycle off it. Their agreement with the ancilla pathway (a second joint
evolution of ``rho_A x rho``, a partial trace and the formula above) and
with a Kraus-operator route, both kept in ``tests/oracles.py``, is the
central consistency check of the package.

The detection POVM on the ancilla is the minimal two-outcome model that
reproduces the pulse-probability formula: ``M_pulse = kappa (I + u_right .
sigma)/2`` with strength ``kappa = 2 c tau_detect t_sq``, and
``M_nopulse = I - M_pulse``. ``kappa`` must not exceed 1, otherwise the
"measurement" would fire with probability above one.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
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
    _escape_times,
    _hierarchy_overflows,
    _hierarchy_report,
    hamiltonians,
    hierarchy_norms,
    model_coefficients,
)

__all__ = [
    "BLOCK_ROWS",
    "MeasurementSetting",
    "InstrumentBlock",
    "CycleOutcome",
    "HierarchyWarning",
    "detection_strength",
    "setting_instruments",
    "setting_instrument",
    "run_cycle",
]

# Settings per stacked pass of setting_instruments. A block shares the
# propagators of its equal (H, t) pairs, so larger blocks share more but hold
# more memory. On a 500-setting tomography grid of 10 interaction times (2
# shared CPUs), against 16 rows without sharing: 16 rows ran as fast, 64 rows
# 9% faster, 128 rows 11% and 512 rows 9%, with 0.2, 0.8 and 3.6 MB more peak
# memory at 64, 128 and 512 rows.
BLOCK_ROWS = 64

# Row a is kron(sigma_a, I_4) / 2 flattened, sigma_a over (I, X, Y, Z): the
# ancilla state rho_A x I of polarization u is (1, u) times these rows.
_ANCILLA_INPUTS = 0.5 * kron(np.array((IDENTITY_2,) + PAULIS), np.eye(4)).reshape(4, 64)
# (16, 8, 8): the gate basis on the joint space, kron(I_2, P_j).
_JOINT_GATE_BASIS = kron(IDENTITY_2, GATE_PAULI_BASIS)
# kron(I_2, P_j) side by side: column block j of W @ _GATE_RIGHT is W (I x P_j).
_GATE_RIGHT = _JOINT_GATE_BASIS.transpose(1, 0, 2).reshape(8, 128)
# Column j is conj(kron(I_2, P_j)) / 4 flattened: a flattened 8x8 operator X
# times these columns gives tr[X (I x P_j)] / 4 (the P_j are Hermitian).
_GATE_READ = 0.25 * _JOINT_GATE_BASIS.reshape(16, 64).conj().T


class HierarchyWarning(UserWarning):
    """Device time scales violate tau_res << tau_dyn << tau_non."""


@dataclass(frozen=True)
class MeasurementSetting:
    """One knob configuration for a cycle: lead polarizations and duration.

    ``model`` optionally overrides the baseline spin-model parameters for
    this setting only (sweeps and tomography designs may vary couplings or
    the field alongside the lead magnetizations).

    This is the one check of ``(u_left, u_right, t_interact)``: each lead
    has 3 components and a finite norm of at most 1, and the time is finite
    and nonnegative. Each ``ValueError`` names its field. The leads and the
    time are kept as floats, so equal settings are equal whatever numeric
    types built them.
    """

    u_left: tuple
    u_right: tuple
    t_interact: float
    model: SpinModelParams | None = None

    def __post_init__(self):
        for name in ("u_left", "u_right"):
            u = tuple(float(x) for x in getattr(self, name))
            if len(u) != 3:
                raise ValueError(f"{name} must have 3 components")
            if not math.hypot(*u) <= 1.0 + STRUCTURAL_TOL:  # NaN too
                raise ValueError(f"{name} must be finite with norm <= 1")
            object.__setattr__(self, name, u)
        if not 0.0 <= self.t_interact < math.inf:  # NaN too
            raise ValueError("t_interact must be finite and nonnegative")
        object.__setattr__(self, "t_interact", float(self.t_interact))


@dataclass(frozen=True)
class InstrumentBlock:
    """Two-outcome instruments of consecutive settings, stacked along a first axis.

    Row ``k`` belongs to setting ``start + k``. ``effects[k]`` holds the
    Pauli coordinates ``tr(E P_j) / 4`` of its pulse effect ``E``, so that
    ``Pr(pulse | rho) = effects[k] @ x`` with ``x = pauli_coordinates(rho)``.
    The 16x16 transfer matrices ``pulse[k]`` and ``nopulse[k]`` take ``x`` to
    the unnormalized post-measurement state of their outcome, and the 3x16
    ``ancilla_bloch[k]`` to the ancilla polarization before detection. These
    are built from the block's ``propagators`` and leads the first time one
    of them is read, and the first row of ``pulse`` is ``effects``. When
    ``errors[k]`` is not None, row ``k`` holds meaningless numbers and
    ``errors[k]`` the reason that setting has no instrument.
    """

    start: int
    effects: np.ndarray
    kappa: float
    errors: tuple
    propagators: np.ndarray = field(repr=False)
    u_left: np.ndarray = field(repr=False)
    u_right: np.ndarray = field(repr=False)

    @cached_property
    def _transfers(self) -> tuple:
        return _transfer_matrices(self.propagators, self.u_left, self.u_right, self.kappa,
                                  self.effects)

    @property
    def pulse(self) -> np.ndarray:
        return self._transfers[0]

    @property
    def nopulse(self) -> np.ndarray:
        return self._transfers[1]

    @property
    def ancilla_bloch(self) -> np.ndarray:
        return self._transfers[2]

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


def _instrument_block(start: int, h: np.ndarray, keys: np.ndarray, t, u_left: np.ndarray,
                      u_right: np.ndarray, kappa: float, errors=None) -> InstrumentBlock:
    """Instruments of stacked rows: Hamiltonians ``h`` (R, 8, 8), times ``t``
    and lead polarizations (R, 3), with detection strength ``kappa``.
    ``keys`` (R, K) names each row's Hamiltonian: rows with equal keys have
    equal ``h``.
    ``errors`` holds, per row, None or a reason already known that the row
    has no instrument; the others get the errors of :func:`evolve_unitaries`,
    and every row gets the error of a ``kappa`` above 1.

    The pulse effect is computed in the Heisenberg picture: the detection
    operator evolves backwards, ``A = U^dag (M_pulse x I) U``, and ``E =
    Tr_A[(rho_A x I) A]``, so ``tr(E P_j) = tr[(rho_A x I) A (I x P_j)]``.
    Every product is stacked per row, so a row's effect has the same bits
    alone as in any block. Rows with the same bytes of ``keys`` and ``t``
    share one propagator, computed once and copied to each of them.
    """
    t = np.asarray(t, dtype=float)
    keys = np.concatenate((keys, t[:, None]), axis=1)
    slot = {}
    rows = [slot.setdefault(key.tobytes(), len(slot)) for key in keys]
    distinct = list({j: k for k, j in enumerate(rows)}.values())  # one row of each pair
    u, found = evolve_unitaries(h[distinct], t[distinct])
    u, found = u[rows], [found[j] for j in rows]
    errors = found if errors is None else [known or other for known, other in zip(errors, found)]
    if kappa > 1.0 + STRUCTURAL_TOL:
        errors = [f"detection strength kappa={kappa} exceeds 1; reduce detection.c, "
                  "tunnel.tau_detect_s or tunnel.gamma0_per_s"] * len(errors)
    n = len(u)
    rho_a = (_with_trace(u_left)[:, None] @ _ANCILLA_INPUTS).reshape(n, 8, 8)
    m_pulse = (kappa * _with_trace(u_right)[:, None] @ _ANCILLA_INPUTS).reshape(n, 8, 8)
    heisenberg = u.conj().swapaxes(1, 2) @ (m_pulse @ u)
    effects = ((rho_a @ heisenberg).reshape(n, 1, 64) @ _GATE_READ)[:, 0].real
    return InstrumentBlock(start=start, effects=effects, kappa=kappa, errors=tuple(errors),
                           propagators=u, u_left=u_left, u_right=u_right)


def _transfer_matrices(u: np.ndarray, u_left: np.ndarray, u_right: np.ndarray, kappa: float,
                       effects: np.ndarray) -> tuple:
    """``(pulse, nopulse, ancilla_bloch)`` of stacked rows with propagators
    ``u`` (R, 8, 8), lead polarizations (R, 3) and pulse effects ``effects``
    (R, 16), which become the first rows of ``pulse``.

    For every gate basis element ``P_j`` the joint state ``U (rho_A x P_j)
    U^dag`` is partially traced against ``sigma_a x I`` (``a`` over I, X, Y,
    Z), which gives the real response tensor ``R[a, i, j] = tr[(sigma_a x
    P_i) U (rho_A x P_j) U^dag] / 4``. Row ``R[a, 0]`` takes gate coordinates
    to the ancilla polarization component ``a`` (``a = 0`` is the trace), and
    ``R[0]`` is the unconditional map on the gate. The detection POVM
    ``M_pulse = kappa/2 sum_a (1, u_right)_a sigma_a`` weights the ancilla
    components: ``pulse = kappa/2 sum_a (1, u_right)_a R[a]`` and ``nopulse
    = R[0] - pulse``. Since ``U (rho_A x P_j) = W (I x P_j)`` with ``W = U
    (rho_A x I)``, all 16 joint states of a row come from two matrix
    products.
    """
    n = len(u)
    w = u @ (_with_trace(u_left) @ _ANCILLA_INPUTS).reshape(n, 8, 8)
    joint = (w.reshape(8 * n, 8) @ _GATE_RIGHT).reshape(n, 128, 8) @ u.conj().swapaxes(1, 2)
    # [row, k, g, j, l, h] = <k g| U (rho_A x P_j) U^dag |l h>, ancilla k, l
    blocks = joint.reshape(n, 2, 4, 16, 2, 4)
    o00, o01 = blocks[:, 0, :, :, 0], blocks[:, 0, :, :, 1]
    o10, o11 = blocks[:, 1, :, :, 0], blocks[:, 1, :, :, 1]
    # Tr_A[(sigma_a x I) X] = sum_kl sigma_a[l, k] X_kl, as [row, g, j, h]
    traced = (o00 + o11, o01 + o10, 1j * (o01 - o10), o00 - o11)
    weights = 0.5 * kappa * _with_trace(u_right)
    pulse_ops = sum(weights[:, a, None, None, None] * traced[a] for a in range(4))
    ancilla_bloch = 0.25 * np.stack(traced[1:], 1).trace(axis1=2, axis2=4).real
    # images of P_j as [row, map, j, g, h], then their coordinates as [.., i, j]
    images = np.stack((traced[0], pulse_ops), 1).transpose(0, 1, 3, 2, 4)
    total, pulse = np.moveaxis(0.25 * pauli_coordinates(images).swapaxes(2, 3), 1, 0)
    pulse[:, 0] = effects
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
    threshold: float | None = None,
):
    """Yield the instruments of a sequence of settings, one
    :class:`InstrumentBlock` per ``BLOCK_ROWS`` consecutive settings.

    Each setting uses its own model override when it has one and ``model``
    otherwise; the detection window and the escape transparency
    (``t_sq = gamma0``) come from ``tunnel``. A block's Hamiltonians come from
    one product with the generator stack, its propagators from one ``eigh``
    of its distinct (Hamiltonian, time) pairs (settings that share a model
    and a time share a propagator) and its pulse effects from one stacked
    conjugation ``U^dag (M_pulse x I) U``; its transfer matrices are built
    from the same propagators only when read (propagate-mode sweeps and
    :func:`run_cycle`). A block is built only when the previous one has been
    consumed, and it keeps no propagator for the next. A setting that has no
    instrument (detection strength above 1, a model that overflows float64,
    lost propagator phase) gets an error message in its row instead of
    stopping the others.

    With a ``threshold``, every setting whose model's time scales are not
    separated by it emits a :class:`HierarchyWarning`, in row order, at the
    caller of the code iterating this generator. A model that overflows is
    reported by its row's error alone, since its time scales cannot be
    computed.
    """
    settings = list(settings)
    kappa = detection_strength(c, tunnel.tau_detect, tunnel.gamma0)
    times = _escape_times(tunnel)
    for start in range(0, len(settings), BLOCK_ROWS):
        block = settings[start:start + BLOCK_ROWS]
        coefficients = model_coefficients(s.model if s.model is not None else model for s in block)
        if threshold is None:
            overflows = _hierarchy_overflows(coefficients)
        else:
            norms = hierarchy_norms(coefficients)
            overflows = np.isnan(norms)
            for norm in norms.tolist():
                # an overflowing model is reported by its row's error alone
                if math.isnan(norm):
                    continue
                report = _hierarchy_report(norm, *times, threshold)
                if not report.satisfied:
                    warnings.warn("time-scale hierarchy tau_res << tau_dyn << tau_non not satisfied "
                                  f"(ratios {report.ratio_dyn_res:.3g}, {report.ratio_non_dyn:.3g})",
                                  HierarchyWarning, stacklevel=3)
        h = hamiltonians(coefficients, include_gate_hamiltonian)
        overflow = overflows | ~np.isfinite(h).all(axis=(1, 2))
        h[overflow] = 0.0
        # A model's 13 coefficients name its Hamiltonian in a tenth of the
        # bytes; + 0.0 makes a -0.0 coefficient +0.0, which gives the same H.
        yield _instrument_block(start, h, coefficients + 0.0, [s.t_interact for s in block],
                                np.array([s.u_left for s in block]),
                                np.array([s.u_right for s in block]), kappa,
                                [_OVERFLOW_ERROR if o else None for o in overflow.tolist()])


def setting_instrument(
    setting: MeasurementSetting,
    model: SpinModelParams,
    tunnel: TunnelParams,
    c: float,
    include_gate_hamiltonian: bool = True,
) -> InstrumentBlock:
    """The instrument one setting induces on the gate: the one-row block of
    :func:`setting_instruments`, raising ``ValueError`` where that reports an
    error."""
    return _checked(next(setting_instruments([setting], model, tunnel, c, include_gate_hamiltonian)))


def _checked(block: InstrumentBlock) -> InstrumentBlock:
    """A one-row ``block``; raises ``ValueError`` with its row's error."""
    if block.errors[0] is not None:
        raise ValueError(block.errors[0])
    return block


def run_cycle(
    setting: MeasurementSetting,
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
    arguments) and reads the ancilla polarization, the pulse probability and
    both conditional gate states off it. Emits a :class:`HierarchyWarning`
    when the time scales of the setting's model are not separated by
    ``threshold`` (the protocol's instantaneous-switching assumptions are
    then questionable), but still computes the ideal-limit result.
    """
    block = _checked(next(setting_instruments([setting], model, tunnel, c, include_gate_hamiltonian,
                                              threshold=threshold)))
    x = pauli_coordinates(rho_gate)

    def branch(transfer):
        post = transfer[0] @ x
        prob = float(post[0])
        return None if prob <= 1e-14 else pauli_operator(post / prob) / 4.0

    return CycleOutcome(
        u_ancilla=block.ancilla_bloch[0] @ x,
        pr_pulse=float(block.pulse_probabilities(rho_gate)[0]),
        rho_gate_pulse=branch(block.pulse),
        rho_gate_nopulse=branch(block.nopulse),
        instrument=block,
    )
