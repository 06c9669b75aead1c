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
the pulse probability is the first row applied to ``x``, the POVM effects are
the first rows expanded in the basis, and a post-measurement state is the
image of ``x`` renormalized by its first entry. Their agreement with the
ancilla pathway (:func:`joint_evolve`, :func:`ancilla_state`) is the central
consistency check of the package.

The detection POVM on the ancilla is the minimal two-outcome model that
reproduces the pulse-probability formula: ``M_pulse = kappa (I + u_right .
sigma)/2`` with strength ``kappa = 2 c tau_detect t_sq``, and
``M_nopulse = I - M_pulse``. ``kappa`` must not exceed 1, otherwise the
"measurement" would fire with probability above one.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    GATE_PAULI_BASIS,
    IDENTITY_2,
    PAULIS,
    STRUCTURAL_TOL,
    apply_unitary,
    bloch_to_density,
    density_to_bloch,
    evolve_unitary,
    kron,
    partial_trace,
    pauli_coordinates,
    pauli_operator,
)
from .model import HIERARCHY_THRESHOLD, SpinModelParams, TunnelParams, build_total_hamiltonian, characteristic_times

__all__ = [
    "PulseSchedule",
    "MeasurementSetting",
    "QuantumInstrument",
    "CycleOutcome",
    "PulseClampWarning",
    "HierarchyWarning",
    "prepare_ancilla",
    "joint_evolve",
    "ancilla_state",
    "detection_strength",
    "detection_probability",
    "induced_instrument",
    "setting_instrument",
    "warn_on_hierarchy",
    "run_cycle",
]

_JOINT_DIMS = [2, 2, 2]

# Row (a, i) is conj(sigma_a x P_i) flattened, with sigma_a over (I, X, Y, Z)
# on the ancilla and P_i over the gate basis: a product with a flattened
# joint operator A gives every tr[(sigma_a x P_i) A] at once.
_JOINT_TRACE_ROWS = np.array(
    [kron(s, p) for s in (IDENTITY_2,) + PAULIS for p in GATE_PAULI_BASIS]
).reshape(64, 64).conj()


class PulseClampWarning(UserWarning):
    """Pulse probability formula left [0, 1] and was clamped."""


class HierarchyWarning(UserWarning):
    """Device time scales violate tau_res << tau_dyn << tau_non."""


@dataclass(frozen=True)
class PulseSchedule:
    """Timing of one measurement cycle.

    The detection window and cycle period are device constants on
    :class:`TunnelParams`.

    Attributes:
        t_interact: joint ancilla-gate evolution time, seconds.
        include_gate_hamiltonian: evolve under the full physical Hamiltonian
            (gate + interaction + ancilla Zeeman) when True; under the
            interaction term alone when False.
    """

    t_interact: float
    include_gate_hamiltonian: bool = True

    def __post_init__(self):
        if self.t_interact < 0:
            raise ValueError("t_interact must be nonnegative")


@dataclass(frozen=True)
class MeasurementSetting:
    """One knob configuration for a cycle: lead polarizations and duration.

    ``model`` optionally overrides the baseline spin-model parameters for
    this setting only (sweeps and tomography designs may vary couplings or
    the field alongside the lead magnetizations).
    """

    u_left: tuple
    u_right: tuple
    t_interact: float
    model: SpinModelParams | None = None

    def __post_init__(self):
        object.__setattr__(self, "u_left", tuple(float(x) for x in self.u_left))
        object.__setattr__(self, "u_right", tuple(float(x) for x in self.u_right))
        for name, u in (("u_left", self.u_left), ("u_right", self.u_right)):
            if len(u) != 3:
                raise ValueError(f"{name} must have 3 components")
            if float(np.linalg.norm(u)) > 1.0 + STRUCTURAL_TOL:
                raise ValueError(f"{name} must have norm <= 1")
        if self.t_interact < 0:
            raise ValueError("t_interact must be nonnegative")


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
        """``Pr(pulse | rho)``; a valid instrument gives [0, kappa], so the clamp
        to [0, 1] only removes rounding (e.g. antiparallel unit leads)."""
        return min(max(float(self.pulse[0] @ pauli_coordinates(rho_gate)), 0.0), 1.0)

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


def prepare_ancilla(u_left) -> np.ndarray:
    """Fresh ancilla state inheriting the left-lead polarization."""
    return bloch_to_density(u_left)


def joint_evolve(rho_ancilla: np.ndarray, rho_gate: np.ndarray, h_total: np.ndarray, t: float) -> np.ndarray:
    """Evolve the product state ``rho_ancilla x rho_gate`` for time ``t``.

    ``h_total`` is the 8x8 generator on (ancilla, gate electron, nucleus).
    """
    rho_ancilla = np.asarray(rho_ancilla, dtype=complex)
    rho_gate = np.asarray(rho_gate, dtype=complex)
    if rho_ancilla.shape != (2, 2) or rho_gate.shape != (4, 4):
        raise ValueError("expected a 2x2 ancilla state and a 4x4 gate state")
    if np.asarray(h_total).shape != (8, 8):
        raise ValueError("joint Hamiltonian must be 8x8")
    u = evolve_unitary(h_total, t)
    return apply_unitary(u, kron(rho_ancilla, rho_gate))


def ancilla_state(rho_joint: np.ndarray):
    """Reduced ancilla state and its polarization vector after joint evolution."""
    rho_joint = np.asarray(rho_joint, dtype=complex)
    if rho_joint.shape != (8, 8):
        raise ValueError("joint state must be 8x8")
    rho_a = partial_trace(rho_joint, _JOINT_DIMS, keep=[0])
    return rho_a, density_to_bloch(rho_a)


def detection_strength(c: float, tau_detect: float, t_sq: float) -> float:
    """POVM strength ``kappa = 2 c tau_detect t_sq`` of the detection window."""
    return 2.0 * c * tau_detect * t_sq


def detection_probability(u_ancilla, u_right, c: float, tau_detect: float, t_sq: float) -> float:
    """Probability of a current pulse in the right electrode.

    Evaluates ``c * tau_detect * t_sq * (1 + u_right . u_ancilla)``. The
    formula is a rate-times-time product; if the detection strength allows
    values above 1 the result is clamped to [0, 1] and a
    :class:`PulseClampWarning` is emitted rather than raising.
    """
    u_ancilla = np.asarray(u_ancilla, dtype=float)
    u_right = np.asarray(u_right, dtype=float)
    for name, u in (("u_ancilla", u_ancilla), ("u_right", u_right)):
        if float(np.linalg.norm(u)) > 1.0 + STRUCTURAL_TOL:
            raise ValueError(f"{name} must have norm <= 1")
    if c < 0 or tau_detect < 0 or t_sq < 0:
        raise ValueError("c, tau_detect and t_sq must be nonnegative")
    pr = c * tau_detect * t_sq * (1.0 + float(u_right @ u_ancilla))
    if detection_strength(c, tau_detect, t_sq) > 1.0:
        warnings.warn(
            "detection strength 2*c*tau_detect*t_sq exceeds 1; pulse probability clamped",
            PulseClampWarning,
            stacklevel=2,
        )
    return float(min(max(pr, 0.0), 1.0))


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
    (1, u_right)_a R[a]`` and ``nopulse = R[0] - pulse``.

    Raises:
        ValueError: if ``u_left`` or ``u_right`` is not a polarization vector,
            or if the detection strength ``kappa`` exceeds 1 (the POVM would
            not be positive: unphysical detection).
    """
    kappa = detection_strength(c, tau_detect, t_sq)
    if kappa > 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"detection strength kappa={kappa} exceeds 1; reduce c, tau_detect or t_sq")
    rho_a = prepare_ancilla(u_left)
    u_right = np.asarray(u_right, dtype=float)
    if u_right.shape != (3,) or float(np.linalg.norm(u_right)) > 1.0 + STRUCTURAL_TOL:
        raise ValueError("u_right must be a 3-vector of norm <= 1")
    u = evolve_unitary(h_total, t)

    # kron(rho_a, P_j) for every j, as (16, 8, 8)
    inputs = np.einsum("ab,jcd->jacbd", rho_a, GATE_PAULI_BASIS).reshape(16, 8, 8)
    outputs = u @ inputs @ u.conj().T
    response = 0.25 * (_JOINT_TRACE_ROWS @ outputs.reshape(16, 64).T).real.reshape(4, 16, 16)

    pulse = 0.5 * kappa * np.tensordot(np.concatenate(([1.0], u_right)), response, axes=1)
    return QuantumInstrument(
        pulse=pulse,
        nopulse=response[0] - pulse,
        ancilla_bloch=response[1:, 0],
        kappa=kappa,
    )


def setting_instrument(
    setting: MeasurementSetting,
    model: SpinModelParams,
    tunnel: TunnelParams,
    c: float,
    include_gate_hamiltonian: bool = True,
) -> QuantumInstrument:
    """The instrument one setting induces on the gate.

    Uses the setting's own model override when it has one and ``model``
    otherwise; the detection window and the escape transparency
    (``t_sq = gamma0``) come from ``tunnel``.
    """
    h_total = build_total_hamiltonian(setting.model if setting.model is not None else model,
                                      include_gate_hamiltonian)
    return induced_instrument(setting.u_left, setting.u_right, h_total, setting.t_interact,
                              c, tunnel.tau_detect, tunnel.gamma0)


def warn_on_hierarchy(params: SpinModelParams, tunnel: TunnelParams, threshold: float) -> None:
    """Emit a :class:`HierarchyWarning` at the caller's caller when the device
    time scales are not separated by ``threshold``."""
    report = characteristic_times(params, tunnel, threshold=threshold)
    if not report.satisfied:
        warnings.warn(
            "time-scale hierarchy tau_res << tau_dyn << tau_non not satisfied "
            f"(ratios {report.ratio_dyn_res:.3g}, {report.ratio_non_dyn:.3g})",
            HierarchyWarning,
            stacklevel=3,
        )


def run_cycle(
    params: SpinModelParams,
    tunnel: TunnelParams,
    schedule: PulseSchedule,
    u_left,
    u_right,
    rho_gate: np.ndarray,
    c: float,
    *,
    threshold: float = HIERARCHY_THRESHOLD,
) -> CycleOutcome:
    """Execute one full measurement cycle on a given gate state.

    Builds the induced instrument and reads the ancilla polarization, the
    pulse probability and both conditional gate states off it. Emits a
    :class:`HierarchyWarning` when the device time scales are not separated
    by ``threshold`` (the protocol's instantaneous-switching assumptions are
    then questionable), but still computes the ideal-limit result.
    """
    warn_on_hierarchy(params, tunnel, threshold)
    setting = MeasurementSetting(u_left=u_left, u_right=u_right, t_interact=schedule.t_interact)
    instrument = setting_instrument(setting, params, tunnel, c, schedule.include_gate_hamiltonian)
    rho_pulse, _ = instrument.apply(rho_gate, pulse=True)
    rho_nopulse, _ = instrument.apply(rho_gate, pulse=False)
    return CycleOutcome(
        u_ancilla=instrument.ancilla_bloch @ pauli_coordinates(rho_gate),
        pr_pulse=instrument.pulse_probability(rho_gate),
        rho_gate_pulse=rho_pulse,
        rho_gate_nopulse=rho_nopulse,
        instrument=instrument,
    )
