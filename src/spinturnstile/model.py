"""Effective spin Hamiltonians and tunneling-rate model of the readout device.

The simulated device is a row of three tunnel-coupled quantum dots between two
spin-polarized metal electrodes, with the central dot sitting above a donor
site carrying an electron spin and a nuclear spin (the two-spin "gate" being
measured). Everything dynamical happens in the 8-dimensional spin space of

    site 0: ancilla electron in the central dot,
    site 1: gate (donor) electron,
    site 2: gate nucleus.

Charge dynamics enters only through the resonant-tunneling rate formula
:func:`gamma_rate` and the time-scale hierarchy it implies; the hopping
between the donor and the central dot is folded into an isotropic Heisenberg
exchange (standard second-order superexchange, ``4 t^2 / U``), which keeps the
joint dynamics an 8x8 problem.

The Hamiltonian is built one way: per-model coupling coefficients
(:func:`model_coefficients`) times a fixed stack of 13 generators
(:func:`hamiltonians`); :func:`build_total_hamiltonian` is the one-model case.

Unit conventions follow :mod:`spinturnstile.constants`: couplings in rad/s,
fields in tesla, times in seconds. Nuclear Zeeman terms are written with the
Bohr magneton and a freely settable dimensionless factor ``g_nuclear``, so
realistic nuclear Larmor scales are reached with ``g_nuclear ~ 1e-3``
(see ``constants.G_NUCLEAR_P31``).
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from .algebra import IDENTITY_2, PAULIS, kron
from .constants import MU_B_PER_HBAR

__all__ = [
    "SpinModelParams",
    "TunnelParams",
    "HierarchyReport",
    "build_total_hamiltonian",
    "model_coefficients",
    "hamiltonians",
    "hierarchy_norms",
    "hierarchy_report",
    "effective_exchange",
    "gamma_rate",
    "characteristic_times",
]

_DIM = 8
_ANCILLA, _ELECTRON, _NUCLEUS = 0, 1, 2

# Default threshold for "much smaller than" in the time-scale hierarchy.
HIERARCHY_THRESHOLD = 100.0

# What every command reports for a model whose hierarchy_norms entry is NaN.
_OVERFLOW_ERROR = "the model Hamiltonian overflows float64"


@dataclass(frozen=True)
class SpinModelParams:
    """Couplings of the three-spin model and the external field.

    Attributes:
        b_field: external magnetic field (tesla, lab frame 3-vector).
        g_electron: dimensionless g-factor of the gate electron.
        g_nuclear: dimensionless (signed) nuclear factor; the nuclear Zeeman
            term is ``g_nuclear * mu_B/hbar * sigma_nuc . B``, i.e. written
            with the Bohr magneton, so physical nuclear scales need
            ``g_nuclear ~ 1e-3``.
        g_ancilla: dimensionless g-factor of the ancilla electron.
        hyperfine_gate: contact coupling between gate electron and nucleus,
            rad/s (coefficient of ``sigma_nuc . sigma_el``).
        hyperfine_ancilla: contact coupling between ancilla electron and the
            nucleus, rad/s.
        hopping: gate-electron <-> central-dot hopping amplitude, rad/s.
        coulomb_u: inter-site Coulomb energy penalizing double occupancy,
            rad/s; only enters through the derived exchange.
        exchange: effective Heisenberg exchange between gate and ancilla
            electrons, rad/s. ``None`` means derive it from ``hopping`` and
            ``coulomb_u`` via :func:`effective_exchange`.
        level_offset: scalar offset of the donor level, rad/s. Pure phase; it
            has no observable effect and is retained for completeness.
    """

    b_field: tuple = (0.0, 0.0, 0.0)
    g_electron: float = 0.0
    g_nuclear: float = 0.0
    g_ancilla: float = 0.0
    hyperfine_gate: float = 0.0
    hyperfine_ancilla: float = 0.0
    hopping: float = 0.0
    coulomb_u: float = 0.0
    exchange: float | None = None
    level_offset: float = 0.0

    def __post_init__(self):
        values = (*self.b_field, self.g_electron, self.g_nuclear, self.g_ancilla,
                  self.hyperfine_gate, self.hyperfine_ancilla, self.hopping,
                  self.coulomb_u, self.level_offset, 0.0 if self.exchange is None else self.exchange)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all model parameters must be finite")
        if len(self.b_field) != 3:
            raise ValueError("b_field must have 3 components")
        if self.exchange is None and self.hopping != 0.0 and self.coulomb_u <= 0.0:
            raise ValueError("coulomb_u must be positive to derive the exchange from hopping")

    def exchange_value(self) -> float:
        """Exchange coupling in rad/s, deriving it from hopping/coulomb_u if unset."""
        if self.exchange is not None:
            return float(self.exchange)
        return effective_exchange(self.hopping, self.coulomb_u)


@dataclass(frozen=True)
class TunnelParams:
    """Rate parameters of the dot chain and the pulse timing.

    Attributes:
        gamma0: bare barrier transparency (level width) of the dot-electrode
            and dot-dot barriers, s^-1. Sets the resonant escape rate.
        interdot_sq: squared inter-dot coupling matrix element, s^-1; equals
            ``gamma0`` when all barriers are taken identical.
        detuning: level detuning between adjacent dots in the blocking (off)
            configuration, rad/s.
        tau_detect: detection pulse width, seconds.
        tau_cycle: duration of a complete measurement cycle, seconds.
    """

    gamma0: float = 1.0e9
    interdot_sq: float = 1.0e9
    detuning: float = 1.0e12
    tau_detect: float = 1.0e-10
    tau_cycle: float = 1.0e-6

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError("all tunnel parameters must be finite")
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.interdot_sq < 0:
            raise ValueError("interdot_sq must be nonnegative")
        if self.tau_detect <= 0 or self.tau_cycle <= 0:
            raise ValueError("tau_detect and tau_cycle must be positive")


@dataclass(frozen=True)
class HierarchyReport:
    """Characteristic times of the device and whether they are well separated.

    The protocol requires resonant tunneling to be much faster than the joint
    spin dynamics, which in turn must be much faster than the off-resonant
    leakage: ``tau_res << tau_dyn << tau_non``. ``satisfied`` holds exactly
    when both ratios reach the threshold the report was computed with.
    """

    tau_res: float
    tau_dyn: float
    tau_non: float
    ratio_dyn_res: float
    ratio_non_dyn: float
    satisfied: bool


# _SITE_PAULIS[site][axis]: sigma_axis on one site, identities on the other two.
_SITE_PAULIS = [[kron(*(pauli if k == site else IDENTITY_2 for k in range(3))) for pauli in PAULIS]
                for site in range(3)]


def _pauli_dot_pauli(site_a: int, site_b: int) -> np.ndarray:
    """Isotropic ``sigma . sigma`` coupling between two sites."""
    return sum(_SITE_PAULIS[site_a][axis] @ _SITE_PAULIS[site_b][axis] for axis in range(3))


# H is linear in the couplings: H = sum_k coefficient_k G_k over this fixed
# stack of Hermitian generators (flattened), in the order of _coefficients:
# the electron, nucleus and ancilla Zeeman triples, the gate hyperfine, the
# exchange, the ancilla hyperfine and the level offset.
_GENERATORS = np.array(
    [_SITE_PAULIS[site][axis] for site in (_ELECTRON, _NUCLEUS, _ANCILLA) for axis in range(3)]
    + [_pauli_dot_pauli(_NUCLEUS, _ELECTRON), _pauli_dot_pauli(_ELECTRON, _ANCILLA),
       _pauli_dot_pauli(_NUCLEUS, _ANCILLA), np.eye(_DIM)]
).reshape(13, _DIM * _DIM)
_INTERACTION_TERMS = [10, 11]
_TOTAL_TERMS = list(range(13))
# The traceless gate+interaction part: everything but the ancilla Zeeman term
# and the level offset (the only generator with a trace).
_HIERARCHY_TERMS = [0, 1, 2, 3, 4, 5, 9, 10, 11]


def _coefficients(p: SpinModelParams) -> tuple:
    """Coefficients of the generator stack for one model."""
    bx, by, bz = p.b_field
    el, nuc, anc = p.g_electron * MU_B_PER_HBAR, p.g_nuclear * MU_B_PER_HBAR, p.g_ancilla * MU_B_PER_HBAR
    return (el * bx, el * by, el * bz, nuc * bx, nuc * by, nuc * bz, anc * bx, anc * by, anc * bz,
            p.hyperfine_gate, p.exchange_value(), p.hyperfine_ancilla, p.level_offset)


def model_coefficients(models) -> np.ndarray:
    """(R, 13) coefficients of the fixed generator stack, one row per model.

    Every Hamiltonian of this module is a product of such rows with the
    stack, so a block of models costs one matrix product.
    """
    return np.array([_coefficients(p) for p in models], dtype=float).reshape(-1, 13)


def _combine(coefficients: np.ndarray, terms) -> np.ndarray:
    """(R, 8, 8) Hamiltonians made of the listed generators only. A row that
    overflows float64 gets non-finite entries, silently:
    :func:`hierarchy_norms` reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (coefficients[:, terms] @ _GENERATORS[terms]).reshape(-1, _DIM, _DIM)


def hamiltonians(coefficients: np.ndarray, include_gate_hamiltonian: bool = True) -> np.ndarray:
    """Hamiltonians active during the interaction window, one per coefficient row.

    With ``include_gate_hamiltonian`` (the default) this is the full physical
    generator: interaction + gate internal terms + ancilla Zeeman. With it
    disabled only the ancilla-gate interaction acts, which isolates the
    information transfer from the free precession.
    """
    return _combine(coefficients, _TOTAL_TERMS if include_gate_hamiltonian else _INTERACTION_TERMS)


def hierarchy_norms(coefficients: np.ndarray) -> np.ndarray:
    """Spectral norm of the traceless gate+interaction Hamiltonian of each
    coefficient row, from one stacked ``eigvalsh`` (the trace part is a global
    phase and generates no dynamics). A Hamiltonian that overflows float64,
    or whose norm does, gets NaN, and the other rows still get their norms."""
    h = _combine(coefficients, _HIERARCHY_TERMS)
    finite = np.isfinite(h).all(axis=(1, 2))
    norms = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], h, 0.0))).max(axis=1)
    return np.where(finite & np.isfinite(norms), norms, np.nan)


def build_total_hamiltonian(p: SpinModelParams, include_gate_hamiltonian: bool = True) -> np.ndarray:
    """Hamiltonian of one model during the interaction window: the one-row
    case of :func:`hamiltonians`."""
    return hamiltonians(model_coefficients([p]), include_gate_hamiltonian)[0]


def effective_exchange(hopping: float, coulomb_u: float) -> float:
    """Superexchange ``J = 4 t^2 / U`` from hopping and on-site repulsion.

    Valid in the charge-blockaded regime ``t << U``; the caller may bypass the
    reduction entirely by setting ``SpinModelParams.exchange`` directly.

    Raises:
        ValueError: if ``coulomb_u <= 0`` while ``hopping != 0``.
    """
    if hopping == 0.0:
        return 0.0
    if coulomb_u <= 0.0:
        raise ValueError("coulomb_u must be positive when hopping is nonzero")
    return 4.0 * hopping * hopping / coulomb_u


def gamma_rate(delta: float, tp: TunnelParams) -> float:
    """Tunneling rate through the dot chain at level detuning ``delta``.

    Lorentzian resonance ``interdot_sq * gamma0^2 / (delta^2 + gamma0^2)``:
    equal to ``interdot_sq`` on resonance and suppressed as
    ``~ gamma0^2 / delta^2`` far from it. Even in ``delta`` and maximal at 0.
    Evaluated as ``interdot_sq / (1 + (delta/gamma0)^2)``, which cannot
    underflow to 0/0 for a tiny ``gamma0``: far off resonance it reaches 0.
    """
    x = delta / tp.gamma0
    return tp.interdot_sq / (1.0 + x * x)


def _inverse(rate: float) -> float:
    """Time scale of a rate; a vanishing rate never happens (``inf``)."""
    return 1.0 / rate if rate > 0.0 else math.inf


def _separation(slow: float, fast: float) -> float:
    """Ratio ``slow / fast`` of two time scales; 0 (not separated) when the
    faster one never happens, so two infinite times give 0, not NaN."""
    return 0.0 if math.isinf(fast) else slow / fast


def characteristic_times(
    p: SpinModelParams, tp: TunnelParams, threshold: float = HIERARCHY_THRESHOLD
) -> HierarchyReport:
    """Evaluate the three device time scales and check their separation.

    The one-model case of :func:`hierarchy_report`, with the norm from
    :func:`hierarchy_norms`.

    Raises:
        ValueError: if the model's Hamiltonian overflows float64.
    """
    norm = float(hierarchy_norms(model_coefficients([p]))[0])
    if math.isnan(norm):
        raise ValueError(_OVERFLOW_ERROR)
    return hierarchy_report(norm, tp, threshold)


def hierarchy_report(
    norm: float, tp: TunnelParams, threshold: float = HIERARCHY_THRESHOLD
) -> HierarchyReport:
    """Device time scales of a model whose :func:`hierarchy_norms` entry is ``norm``.

    ``tau_res`` is the on-resonance escape time, ``tau_non`` the leakage time
    at detuning ``tp.detuning``, and ``tau_dyn`` the joint spin-dynamics time
    estimated as ``2 pi / norm``.

    A rate that vanishes in floating point (e.g. leakage through a barrier
    with ``gamma0`` near the underflow limit) gives an infinite time.
    A zero Hamiltonian generates no dynamics; the report then carries
    ``tau_dyn = inf`` instead of raising. A ratio whose denominator time is
    infinite reads 0.
    """
    tau_res = _inverse(gamma_rate(0.0, tp))
    tau_non = _inverse(gamma_rate(tp.detuning, tp))
    tau_dyn = 2.0 * math.pi / norm if norm > 0.0 else math.inf

    r1 = _separation(tau_dyn, tau_res)
    r2 = _separation(tau_non, tau_dyn)
    return HierarchyReport(
        tau_res=tau_res,
        tau_dyn=tau_dyn,
        tau_non=tau_non,
        ratio_dyn_res=r1,
        ratio_non_dyn=r2,
        satisfied=bool(r1 >= threshold and r2 >= threshold),
    )
