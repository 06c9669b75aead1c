"""One full measurement cycle of the turnstile readout protocol.

A cycle consists of: loading the central dot with a spin-polarized electron
from the left electrode (the ancilla, prepared in ``(I + u_left . sigma)/2``),
letting it interact with the two-spin gate for a time ``t_interact`` under the
joint unitary dynamics, then opening the right barrier for a short window
``tau_detect`` so that a current pulse appears in the right electrode with
probability

    Pr = c * tau_detect * t_sq * (1 + u_right . u_ancilla(t)),

and finally flushing the dot. Because the detection acts only on the ancilla,
the whole cycle induces a two-outcome quantum instrument on the gate. Its two
completely positive maps are kept as real 16x16 transfer matrices on the
gate's Pauli-product coordinates ``x_j = tr(rho P_j)`` (the Liouville
representation, Nielsen & Chuang ch. 8). Everything else follows from them:
the pulse probability is the first row applied to ``x``, the ancilla
polarization is ``ancilla_bloch @ x``, the POVM effects are the first rows
expanded in the basis, and a post-measurement state is the image of ``x``
renormalized by its first entry. :func:`setting_instruments` is the one route
from :class:`MeasurementSetting` values to these matrices, stacked a block of
settings at a time; :func:`setting_instrument` is its one-row case, and
:func:`run_cycle` reads a cycle off one row. Their agreement with the ancilla
pathway (a second joint evolution of ``rho_A x rho``, a partial trace and the
formula above, kept in ``tests/oracles.py``) is the central consistency check
of the package.

The detection POVM on the ancilla is the minimal two-outcome model that
reproduces the pulse-probability formula: ``M_pulse = kappa (I + u_right .
sigma)/2`` with strength ``kappa = 2 c tau_detect t_sq``, and
``M_nopulse = I - M_pulse``. ``kappa`` must not exceed 1, otherwise the
"measurement" would fire with probability above one.
"""

import math
import warnings
from dataclasses import dataclass, field

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
    hamiltonians,
    hierarchy_norms,
    hierarchy_report,
    model_coefficients,
)

__all__ = [
    "BLOCK_ROWS",
    "MeasurementSetting",
    "QuantumInstrument",
    "InstrumentBlock",
    "CycleOutcome",
    "HierarchyWarning",
    "detection_strength",
    "induced_instrument",
    "setting_instruments",
    "setting_instrument",
    "run_cycle",
]

# Settings per stacked pass of setting_instruments. Larger blocks hold more
# memory at once and ran no faster per row (8, 16 and 32 were timed).
BLOCK_ROWS = 16

# Row a is kron(sigma_a, I_4) / 2 flattened, sigma_a over (I, X, Y, Z): the
# ancilla state rho_A x I of polarization u is (1, u) times these rows.
_ANCILLA_INPUTS = 0.5 * np.array([kron(s, np.eye(4)) for s in (IDENTITY_2,) + PAULIS]).reshape(4, 64)
# kron(I_2, P_j) side by side: column block j of W @ _GATE_RIGHT is W (I x P_j).
_GATE_RIGHT = np.array([kron(IDENTITY_2, p) for p in GATE_PAULI_BASIS]).transpose(1, 0, 2).reshape(8, 128)


class HierarchyWarning(UserWarning):
    """Device time scales violate tau_res << tau_dyn << tau_non."""


@dataclass(frozen=True)
class MeasurementSetting:
    """One knob configuration for a cycle: lead polarizations and duration.

    ``model`` optionally overrides the baseline spin-model parameters for
    this setting only (sweeps and tomography designs may vary couplings or
    the field alongside the lead magnetizations).

    This is the one check of ``(u_left, u_right, t_interact)``, which
    :func:`induced_instrument` applies too: each lead has 3 components and a
    finite norm of at most 1, and the time is finite and nonnegative. Each
    ``ValueError`` names its field.
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


@dataclass(frozen=True)
class QuantumInstrument:
    """Two-outcome instrument induced on the gate by one readout cycle.

    ``pulse``/``nopulse`` are the real 16x16 transfer matrices of the
    conditional (trace-nonincreasing) maps on the Pauli-product coordinates
    ``x = pauli_coordinates(rho)``: the unnormalized post-measurement state
    of an outcome has coordinates ``S @ x``, and its probability is the first
    entry. ``ancilla_bloch`` (3x16) takes ``x`` to the ancilla polarization
    after the joint evolution, before detection.
    """

    pulse: np.ndarray
    nopulse: np.ndarray
    ancilla_bloch: np.ndarray
    kappa: float

    @property
    def effect_pulse(self) -> np.ndarray:
        """4x4 POVM effect: ``Pr(pulse | rho) = tr(effect_pulse rho)``."""
        return pauli_operator(self.pulse[0])

    @property
    def effect_nopulse(self) -> np.ndarray:
        return pauli_operator(self.nopulse[0])

    def pulse_probability(self, rho_gate: np.ndarray) -> float:
        """``Pr(pulse | rho)``; see :func:`_pulse_probabilities`."""
        return float(_pulse_probabilities(self.pulse, rho_gate))

    def apply(self, rho_gate: np.ndarray, pulse: bool):
        """Conditional post-measurement state and its probability.

        Returns ``(rho_post, prob)``; ``rho_post`` is None when the outcome
        has (numerically) zero probability.
        """
        post = (self.pulse if pulse else self.nopulse) @ pauli_coordinates(rho_gate)
        prob = float(post[0])
        if prob <= 1e-14:
            return None, max(prob, 0.0)
        return pauli_operator(post / prob) / 4.0, prob


@dataclass(frozen=True)
class InstrumentBlock:
    """Instruments of consecutive settings, stacked along a first axis.

    Row ``k`` holds the :class:`QuantumInstrument` fields of setting
    ``start + k``, or, when ``errors[k]`` is not None, meaningless numbers and
    in ``errors[k]`` the reason that setting has no instrument.
    """

    start: int
    pulse: np.ndarray
    nopulse: np.ndarray
    ancilla_bloch: np.ndarray
    kappa: float
    errors: tuple

    def instrument(self, k: int) -> QuantumInstrument:
        """The instrument of row ``k``; raises ``ValueError`` with the row's error."""
        if self.errors[k] is not None:
            raise ValueError(self.errors[k])
        return QuantumInstrument(pulse=self.pulse[k], nopulse=self.nopulse[k],
                                 ancilla_bloch=self.ancilla_bloch[k], kappa=self.kappa)

    def pulse_probabilities(self, rho_gate: np.ndarray) -> np.ndarray:
        """``Pr(pulse | rho)`` of every row; see :func:`_pulse_probabilities`."""
        return _pulse_probabilities(self.pulse, rho_gate)


def _pulse_probabilities(pulse: np.ndarray, rho_gate: np.ndarray) -> np.ndarray:
    """``Pr(pulse | rho)`` of one or a stack of pulse transfer matrices. A
    valid instrument gives [0, kappa], so the clamp to [0, 1] only removes
    rounding (e.g. antiparallel unit leads)."""
    return np.clip(pulse[..., 0, :] @ pauli_coordinates(rho_gate), 0.0, 1.0)


@dataclass(frozen=True)
class CycleOutcome:
    """Everything a single cycle produces for a given gate state.

    The conditional post-measurement states are None when the corresponding
    outcome has zero probability (e.g. the pulse branch at exactly
    antiparallel unit magnetizations).
    """

    u_ancilla: np.ndarray
    pr_pulse: float
    rho_gate_pulse: np.ndarray | None
    rho_gate_nopulse: np.ndarray | None
    instrument: QuantumInstrument = field(repr=False)


def detection_strength(c: float, tau_detect: float, t_sq: float) -> float:
    """POVM strength ``kappa = 2 c tau_detect t_sq`` of the detection window."""
    return 2.0 * c * tau_detect * t_sq


def _instrument_block(start: int, h: np.ndarray, t, u_left: np.ndarray, u_right: np.ndarray,
                      kappa: float, errors=None) -> InstrumentBlock:
    """Instruments of stacked rows: Hamiltonians ``h`` (R, 8, 8), times ``t``
    and lead polarizations (R, 3), with detection strength ``kappa``.
    ``errors`` holds, per row, None or a reason already known that the row
    has no instrument; the others get the errors of :func:`evolve_unitaries`,
    and every row gets the error of a ``kappa`` above 1.

    For every gate basis element ``P_j`` the joint state ``U (rho_A x P_j)
    U^dag`` is partially traced against ``sigma_a x I`` (``a`` over I, X, Y,
    Z), which gives the response ``R[a, i, j] = tr[(sigma_a x P_i) U (rho_A x
    P_j) U^dag] / 4`` of :func:`induced_instrument`. Since ``U (rho_A x P_j)
    = W (I x P_j)`` with ``W = U (rho_A x I)``, all 16 joint states of a row
    come from two matrix products.
    """
    u, found = evolve_unitaries(h, t)
    errors = found if errors is None else [known or other for known, other in zip(errors, found)]
    if kappa > 1.0 + STRUCTURAL_TOL:
        errors = [f"detection strength kappa={kappa} exceeds 1; reduce detection.c, "
                  "tunnel.tau_detect_s or tunnel.gamma0_per_s"] * len(errors)
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
    return InstrumentBlock(start=start, pulse=pulse, nopulse=total - pulse,
                           ancilla_bloch=ancilla_bloch, kappa=kappa, errors=tuple(errors))


def _with_trace(u: np.ndarray) -> np.ndarray:
    """(R, 3) polarizations as (R, 4) coefficients of (I, X, Y, Z)."""
    return np.concatenate((np.ones((len(u), 1)), u), axis=1)


def induced_instrument(
    u_left,
    u_right,
    h_total: np.ndarray,
    t: float,
    c: float,
    tau_detect: float,
    t_sq: float,
) -> QuantumInstrument:
    """Build the two-outcome instrument the cycle induces on the gate.

    One joint evolution of ``rho_A x P_j`` for each gate basis element gives
    the real response tensor
    ``R[a, i, j] = tr[(sigma_a x P_i) U (rho_A x P_j) U^dag] / 4``: row
    ``R[a, 0]`` takes gate coordinates to the ancilla polarization component
    ``a`` (``a = 0`` is the trace), and ``R[0]`` is the unconditional map on
    the gate. The detection POVM ``M_pulse = kappa/2 sum_a (1, u_right)_a
    sigma_a`` then weights the ancilla components: ``pulse = kappa/2 sum_a
    (1, u_right)_a R[a]`` and ``nopulse = R[0] - pulse``. This is the one-row
    case of the stacked computation :func:`setting_instruments` runs.

    Raises:
        ValueError: if ``(u_left, u_right, t)`` is not a valid
            :class:`MeasurementSetting` (a NaN, infinite or negative ``t``
            included), if the detection strength ``kappa`` exceeds 1 (the
            POVM would not be positive: unphysical detection), or if
            :func:`evolve_unitaries` gives no propagator.
    """
    setting = MeasurementSetting(u_left, u_right, t)
    return _instrument_block(0, np.asarray(h_total)[None], [setting.t_interact],
                             np.array([setting.u_left]), np.array([setting.u_right]),
                             detection_strength(c, tau_detect, t_sq)).instrument(0)


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
    and its transfer matrices from a few stacked products; a block is built
    only when the previous one has been consumed. A setting that has no
    instrument (detection strength above 1, a model that overflows float64,
    lost propagator phase) gets an error message in its row instead of
    stopping the others.

    With a ``threshold``, every setting whose model's time scales are not
    separated by it, or cannot be computed because the model overflows,
    emits a :class:`HierarchyWarning`, in row order, at the caller of the
    code iterating this generator.
    """
    settings = list(settings)
    kappa = detection_strength(c, tunnel.tau_detect, tunnel.gamma0)
    for start in range(0, len(settings), BLOCK_ROWS):
        block = settings[start:start + BLOCK_ROWS]
        coefficients = model_coefficients(s.model if s.model is not None else model for s in block)
        norms = hierarchy_norms(coefficients)
        if threshold is not None:
            for norm in norms.tolist():
                report = hierarchy_report(norm, tunnel, threshold=threshold)
                if math.isnan(norm):
                    problem = f"cannot be checked: {_OVERFLOW_ERROR}"
                elif not report.satisfied:
                    problem = (f"not satisfied (ratios {report.ratio_dyn_res:.3g}, "
                               f"{report.ratio_non_dyn:.3g})")
                else:
                    continue
                warnings.warn(f"time-scale hierarchy tau_res << tau_dyn << tau_non {problem}",
                              HierarchyWarning, stacklevel=3)
        h = hamiltonians(coefficients, include_gate_hamiltonian)
        overflow = np.isnan(norms) | ~np.isfinite(h).all(axis=(1, 2))
        h[overflow] = 0.0
        yield _instrument_block(start, h, [s.t_interact for s in block],
                                np.array([s.u_left for s in block]),
                                np.array([s.u_right for s in block]), kappa,
                                [_OVERFLOW_ERROR if o else None for o in overflow.tolist()])


def setting_instrument(
    setting: MeasurementSetting,
    model: SpinModelParams,
    tunnel: TunnelParams,
    c: float,
    include_gate_hamiltonian: bool = True,
) -> QuantumInstrument:
    """The instrument one setting induces on the gate: the one-row case of
    :func:`setting_instruments`, raising ``ValueError`` where that reports an
    error."""
    return next(setting_instruments([setting], model, tunnel, c, include_gate_hamiltonian)).instrument(0)


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
    instrument = next(setting_instruments([setting], model, tunnel, c, include_gate_hamiltonian,
                                          threshold=threshold)).instrument(0)
    rho_pulse, _ = instrument.apply(rho_gate, pulse=True)
    rho_nopulse, _ = instrument.apply(rho_gate, pulse=False)
    return CycleOutcome(
        u_ancilla=instrument.ancilla_bloch @ pauli_coordinates(rho_gate),
        pr_pulse=instrument.pulse_probability(rho_gate),
        rho_gate_pulse=rho_pulse,
        rho_gate_nopulse=rho_nopulse,
        instrument=instrument,
    )
