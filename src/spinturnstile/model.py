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
(:func:`model_coefficients`, stacked over rows of model values) times a fixed
stack of 12 traceless generators (:func:`hamiltonians`);
:func:`build_total_hamiltonian` is the one-model case. The donor-level offset
is a global phase, so no Hamiltonian holds it. A model travels in a setting
grid as the flat row of its field values (:func:`model_values`), checked where
the grid is built; :class:`SpinModelParams` is the check of a model built in
Python.

The time-scale hierarchy ``tau_res << tau_dyn << tau_non`` is checked one way
too: the spectral norms of a block of models (:func:`hierarchy_norms`), then
one stacked pass over them (``_time_scales``) for the times, the two ratios
and whether both reach the threshold. :func:`characteristic_times` (the
``rates`` command) is its one-model case. ``cycle.setting_instruments`` runs
it once per grid of settings, on the distinct models whose check the
coefficients alone cannot settle (``_unsettled_norms``): a bracket of each
model's norm (``_norm_bracket``) passed through the same ``_time_scales``
settles a model that can neither overflow nor fail the threshold, and only
the other models get the eigenvalues.

Unit conventions follow :mod:`spinturnstile.constants`: couplings in rad/s,
fields in tesla, times in seconds. Nuclear Zeeman terms are written with the
Bohr magneton and a freely settable dimensionless factor ``g_nuclear``, so
realistic nuclear Larmor scales are reached with ``g_nuclear ~ 1e-3``
(see ``constants.G_NUCLEAR_P31``).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import GATE_PAULI_BASIS, IDENTITY_2, PAULIS, kron
from .constants import MU_B_PER_HBAR

__all__ = [
    "SpinModelParams",
    "TunnelParams",
    "HierarchyReport",
    "build_total_hamiltonian",
    "model_values",
    "model_coefficients",
    "hamiltonians",
    "hierarchy_norms",
    "gamma_rate",
    "characteristic_times",
]

_DIM = 8
_ANCILLA, _ELECTRON, _NUCLEUS = 0, 1, 2

# Default threshold for "much smaller than" in the time-scale hierarchy.
HIERARCHY_THRESHOLD = 100.0

# What every command reports for a model whose hierarchy_norms entry is NaN.
_OVERFLOW_ERROR = "the model Hamiltonian overflows float64"


# The scalar fields of SpinModelParams that are never null.
_FLOAT_FIELDS = ("g_electron", "g_nuclear", "g_ancilla", "hyperfine_gate", "hyperfine_ancilla",
                 "hopping", "coulomb_u", "level_offset")

_DERIVE_ERROR = "coulomb_u must be positive to derive the exchange from hopping"


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
            ``coulomb_u`` as the superexchange ``4 t^2 / U``, which
            :func:`model_coefficients` computes.
        level_offset: scalar offset of the donor level, rad/s. A global
            phase: it is checked finite and written into a setting's seed
            digest, but no Hamiltonian holds it, so it changes no result.
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
        if self.coulomb_u < 0.0:
            raise ValueError("coulomb_u must be >= 0.0")
        if self.exchange is None and self.hopping != 0.0 and self.coulomb_u <= 0.0:
            raise ValueError(_DERIVE_ERROR)
        # Equal parameters are equal values whatever their numeric type, so
        # they write one text into a setting's seed digest.
        object.__setattr__(self, "b_field", tuple(float(v) for v in self.b_field))
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.exchange is not None:
            object.__setattr__(self, "exchange", float(self.exchange))


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
        values = (self.gamma0, self.interdot_sq, self.detuning, self.tau_detect, self.tau_cycle)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all tunnel parameters must be finite")
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.interdot_sq < 0:
            raise ValueError("interdot_sq must be nonnegative")
        if self.tau_detect <= 0 or self.tau_cycle <= 0:
            raise ValueError("tau_detect and tau_cycle must be positive")


class HierarchyReport(NamedTuple):
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
# The factor of the first two sites is a two-spin Pauli product of the gate
# basis (sigma x I, I x sigma or I x I), so the table is one product.
_SITE_PAULIS = kron(GATE_PAULI_BASIS[[[1, 2, 3], [4, 5, 6], [0, 0, 0]]],
                    np.array([[IDENTITY_2] * 3, [IDENTITY_2] * 3, PAULIS]))


def _pauli_dot_pauli(site_a: int, site_b: int) -> np.ndarray:
    """Isotropic ``sigma . sigma`` coupling between two sites."""
    return sum(_SITE_PAULIS[site_a][axis] @ _SITE_PAULIS[site_b][axis] for axis in range(3))


# H is linear in the couplings: H = sum_k coefficient_k G_k over this fixed
# stack of traceless Hermitian generators (flattened), in the order of
# model_coefficients: the electron, nucleus and ancilla Zeeman triples, the
# gate hyperfine, the exchange and the ancilla hyperfine.
_GENERATORS = np.array(
    [_SITE_PAULIS[site][axis] for site in (_ELECTRON, _NUCLEUS, _ANCILLA) for axis in range(3)]
    + [_pauli_dot_pauli(_NUCLEUS, _ELECTRON), _pauli_dot_pauli(_ELECTRON, _ANCILLA),
       _pauli_dot_pauli(_NUCLEUS, _ANCILLA)]
).reshape(12, _DIM * _DIM)
_INTERACTION_TERMS = [10, 11]
_TOTAL_TERMS = list(range(12))
# The gate+interaction part: everything but the ancilla Zeeman term.
_HIERARCHY_TERMS = [0, 1, 2, 3, 4, 5, 9, 10, 11]
# Spectral norm of each generator: 1 for a Pauli term, 3 for sigma . sigma
# (eigenvalues 1 and -3).
_GENERATOR_NORMS = np.array([1.0] * 9 + [3.0] * 3)
# sqrt(w_k) = ||G_k||_F / sqrt(8) of each hierarchy generator: 1 for a Pauli
# term, sqrt(3) for sigma . sigma. These generators are distinct Pauli
# products (sigma . sigma a sum of three), so they are orthogonal under
# tr(A^dag B), and the Hamiltonian they make has ||H||_F^2 / 8 = sum_k w_k c_k^2.
_ROOT_WEIGHTS = np.linalg.norm(_GENERATORS[_HIERARCHY_TERMS], axis=1) / math.sqrt(_DIM)
# A Hamiltonian whose norm is bounded by this has finite entries and
# eigenvalues, with room to spare for the rounding of the bound and of them.
_SAFE_NORM_BOUND = np.finfo(float).max / 4
# How far _norm_bracket widens its bounds, so that they also hold for the
# norm hierarchy_norms computes. Forming H rounds each entry by at most
# gamma_9 sum_k |c_k| |(G_k)_ij| (at most 9 terms, generator entries small
# integers), so ||dH||_2 <= ||dH||_F <= gamma_9 sum_k |c_k| ||G_k||_F
# <= gamma_9 sqrt(72) ||H||_F / sqrt(8) <= 1e-14 ||H||_2 (Cauchy-Schwarz over
# the 9 terms). eigvalsh is backward stable: its eigenvalues are those of
# some H + E with ||E||_2 <= p(8) u ||H||_2, about 6e-14 ||H||_2 even for
# p(n) = n^3; Weyl's inequality moves each eigenvalue, and so the norm, by at
# most ||dH||_2 + ||E||_2. The bounds themselves round in a few ulps. A
# relative 1e-9 covers all of it 10^4 times over. Below the normal range
# rounding is absolute, a few multiples of 5e-324 in each entry, eigenvalue
# and bound; the absolute widening by the smallest normal float covers that.
_BRACKET_MARGIN = 1e-9
_TINY = np.finfo(float).tiny


def model_values(p: SpinModelParams) -> tuple:
    """A model's field values in declaration order, with ``b_field`` spread
    into its 3 components: 12 floats, the exchange None when it is derived."""
    return (*p.b_field, p.g_electron, p.g_nuclear, p.g_ancilla, p.hyperfine_gate,
            p.hyperfine_ancilla, p.hopping, p.coulomb_u, p.exchange, p.level_offset)


# The place of the exchange in model_values: after b_field's 3 components and
# the g-factors, hyperfines, hopping and coulomb_u.
_EXCHANGE = 10


def model_coefficients(values) -> np.ndarray:
    """(R, 12) coefficients of the fixed generator stack, one row per row of
    checked model values (:func:`model_values`), from one stacked pass.

    Every Hamiltonian of this module is a product of such rows with the
    stack, so a block of models costs one matrix product. The coefficients
    are the Zeeman triples ``g * MU_B_PER_HBAR * b`` of the electron, the
    nucleus and the ancilla, the gate hyperfine, the exchange (where it is
    None, the superexchange ``J = 4 t^2 / U`` of hopping and coulomb_u, valid
    for ``t << U``, and 0 without hopping) and the ancilla hyperfine; a
    product that overflows is inf, silently. The level offset, a global
    phase, has no coefficient: no generator has a trace.
    """
    v = np.array(values, dtype=float).reshape(-1, 12)  # a null exchange is NaN
    hopping, coulomb_u, exchange = v[:, _EXCHANGE - 2], v[:, _EXCHANGE - 1], v[:, _EXCHANGE]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zeeman = ((v[:, 3:6] * MU_B_PER_HBAR)[:, :, None] * v[:, None, 0:3]).reshape(-1, 9)
        derived = np.where(hopping == 0.0, 0.0, 4.0 * hopping * hopping / coulomb_u)
    exchange = np.where(np.isnan(exchange), derived, exchange)
    return np.column_stack((zeeman, v[:, 6], exchange, v[:, 7]))


def _combine(coefficients: np.ndarray, terms) -> np.ndarray:
    """(R, 8, 8) Hamiltonians made of the listed generators only. A row that
    overflows float64 gets non-finite entries, silently:
    :func:`hierarchy_norms` reports it.

    A one-row product takes another BLAS path, which rounds differently in
    the last digit, so a lone row is computed as a pair: a model's
    Hamiltonian is then the same alone as in any block.
    """
    rows = coefficients[:, terms]
    if len(rows) == 1:
        rows = np.repeat(rows, 2, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return (rows @ _GENERATORS[terms]).reshape(-1, _DIM, _DIM)[:len(coefficients)]


def hamiltonians(coefficients: np.ndarray, include_gate_hamiltonian: bool = True) -> np.ndarray:
    """Hamiltonians active during the interaction window, one per coefficient row.

    With ``include_gate_hamiltonian`` (the default) this is the full physical
    generator: interaction + gate internal terms + ancilla Zeeman. With it
    disabled only the ancilla-gate interaction acts, which isolates the
    information transfer from the free precession.
    """
    return _combine(coefficients, _TOTAL_TERMS if include_gate_hamiltonian else _INTERACTION_TERMS)


def hierarchy_norms(coefficients: np.ndarray) -> np.ndarray:
    """Spectral norm of the gate+interaction Hamiltonian of each coefficient
    row, from one stacked ``eigvalsh``. A Hamiltonian that overflows float64,
    or whose norm does, gets NaN, and the other rows still get their norms."""
    h = _combine(coefficients, _HIERARCHY_TERMS)
    finite = np.isfinite(h).all(axis=(1, 2))
    norms = np.abs(np.linalg.eigvalsh(np.where(finite[:, None, None], h, 0.0))).max(axis=1)
    return np.where(finite & np.isfinite(norms), norms, np.nan)


def _norm_bracket(coefficients: np.ndarray) -> tuple:
    """``(lower, upper)``: bounds on the :func:`hierarchy_norms` entry of each
    coefficient row, from its coefficients alone.

    With ``||H||_F / sqrt(8) = sqrt(sum_k w_k c_k^2)`` (see ``_ROOT_WEIGHTS``),
    ``||H||_F / sqrt(8) <= ||H||_2 <= min(sum_k |c_k| ||G_k||_2, ||H||_F)``
    (Golub & Van Loan, *Matrix Computations*, section 2.3), and both bounds
    are widened by ``_BRACKET_MARGIN``, so that they hold for the computed
    norm too. A row with a coefficient near the float64 maximum or beyond it
    gets an infinite or NaN upper bound.
    """
    terms = coefficients[:, _HIERARCHY_TERMS]
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.hypot.reduce(terms * _ROOT_WEIGHTS, axis=1)
        upper = np.minimum(np.abs(terms) @ _GENERATOR_NORMS[_HIERARCHY_TERMS], math.sqrt(_DIM) * lower)
        return lower * (1.0 - _BRACKET_MARGIN) - _TINY, upper * (1.0 + _BRACKET_MARGIN) + _TINY


def _unsettled_norms(coefficients: np.ndarray, tunnel: TunnelParams, threshold: float) -> tuple:
    """``(rows, norms)``: the indices of the coefficient rows whose hierarchy
    check the norm bracket (``_norm_bracket``) cannot settle, and their
    :func:`hierarchy_norms` entries, computed only when there are such rows.

    A row is settled when its upper bound is below ``_SAFE_NORM_BOUND``, so
    that its Hamiltonian cannot overflow, and the bracket gives both ratios
    of ``_time_scales`` on ``tunnel`` at or above ``threshold``:
    ``ratio_dyn_res`` of the upper bound and ``ratio_non_dyn`` of the lower.
    The first never rises and the second never falls as the norm grows,
    rounding included, so the exact norm satisfies the threshold too. No
    ratio is NaN, so a threshold of 0 settles every row that cannot overflow.
    """
    lower, upper = _norm_bracket(coefficients)
    bounds = _time_scales(np.stack((upper, lower)), tunnel, threshold)
    settled = ((upper < _SAFE_NORM_BOUND)  # NaN is unsettled too
               & (bounds.ratio_dyn_res[0] >= threshold) & (bounds.ratio_non_dyn[1] >= threshold))
    rows = np.flatnonzero(~settled)
    return rows, hierarchy_norms(coefficients[rows]) if len(rows) else np.empty(0)


def build_total_hamiltonian(p: SpinModelParams, include_gate_hamiltonian: bool = True) -> np.ndarray:
    """Hamiltonian of one model during the interaction window: the one-row
    case of :func:`hamiltonians`."""
    return hamiltonians(model_coefficients([model_values(p)]), include_gate_hamiltonian)[0]


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


def characteristic_times(
    p: SpinModelParams, tp: TunnelParams, threshold: float = HIERARCHY_THRESHOLD
) -> HierarchyReport:
    """Evaluate the three device time scales and check their separation.

    The one-model case of the stacked hierarchy check (:func:`_time_scales`),
    with the norm from :func:`hierarchy_norms`: its row, as Python floats
    and a ``bool``.

    Raises:
        ValueError: if the model's Hamiltonian overflows float64.
    """
    norms = hierarchy_norms(model_coefficients([model_values(p)]))
    if math.isnan(norms[0]):
        raise ValueError(_OVERFLOW_ERROR)
    tau_res, tau_dyn, tau_non, ratio_dyn_res, ratio_non_dyn, satisfied = _time_scales(norms, tp, threshold)
    return HierarchyReport(tau_res, float(tau_dyn[0]), tau_non, float(ratio_dyn_res[0]),
                           float(ratio_non_dyn[0]), bool(satisfied[0]))


def _time_scales(norms: np.ndarray, tp: TunnelParams, threshold: float) -> HierarchyReport:
    """Device time scales of the models whose :func:`hierarchy_norms` entries
    are ``norms``, from one stacked pass: ``tau_res`` and ``tau_non`` are
    floats, since they depend on the tunnel alone, and ``tau_dyn``, both
    ratios and ``satisfied`` are arrays with one entry per norm.

    ``tau_res`` is the on-resonance escape time, ``tau_non`` the leakage time
    at detuning ``tp.detuning``, and ``tau_dyn`` the joint spin-dynamics time
    estimated as ``2 pi / norm``.

    A rate that vanishes in floating point (e.g. leakage through a barrier
    with ``gamma0`` near the underflow limit) gives an infinite time, and so
    does a zero Hamiltonian, which generates no dynamics (a NaN norm too). A
    ratio whose denominator time is infinite reads 0, so two infinite times
    give 0, not NaN; a ratio that overflows is inf, silently.
    """
    tau_res, tau_non = (1.0 / rate if rate > 0.0 else math.inf
                        for rate in (gamma_rate(0.0, tp), gamma_rate(tp.detuning, tp)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau_dyn = np.where(norms > 0.0, 2.0 * math.pi / norms, math.inf)
        ratio_dyn_res = np.zeros_like(tau_dyn) if math.isinf(tau_res) else tau_dyn / tau_res
        ratio_non_dyn = np.where(np.isinf(tau_dyn), 0.0, tau_non / tau_dyn)
    return HierarchyReport(tau_res, tau_dyn, tau_non, ratio_dyn_res, ratio_non_dyn,
                           (ratio_dyn_res >= threshold) & (ratio_non_dyn >= threshold))
