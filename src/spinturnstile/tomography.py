"""Reconstruction of the gate state from pulse probabilities.

Because quantum dynamics is linear in the initial state, the pulse
probability at any fixed setting is an affine function of the gate-state
parameters. Expanding the 4x4 gate state in the Pauli-product basis,

    rho(theta) = ( I + sum_j theta_j P_j ) / 4,

each measurement setting contributes one affine row
``Pr_i = A_i . theta + b_i`` with ``b_i`` the probability on the maximally
mixed gate. Collecting rows over a grid of settings gives a linear inverse
problem whose rank and conditioning tell whether the chosen settings
identify the state at all; the solver below reports both and returns the
minimum-norm least-squares estimate.

Two parameterizations are supported:

- ``"single_spin"``: 3 parameters, the polarization vector of the gate
  electron; the nucleus is taken maximally mixed and uncorrelated.
- ``"two_spin"``: all 15 generalized parameters (two local polarizations
  plus 9 correlators).

A single-spin vector is the two-spin vector with parameters 4-15 held at 0,
so the state, its physicality and its projection follow one route in both
modes. Rank, conditioning and null space live on the design only.

Shot noise propagates through the pseudoinverse into a parameter covariance
estimate. :func:`reconstruct` returns the raw estimate, which may leave the
physical state set, and nothing derived from it: :func:`is_physical` tells
whether it is a state, and the eigenvalue-clip :func:`project_physical`
gives one, as a diagnostic that is never applied silently.
"""

import warnings
from typing import NamedTuple

import numpy as np

from .algebra import PAULI_PRODUCT_LABELS, pauli_coordinates, pauli_operator
from .cycle import setting_grid, setting_instruments
from .model import SpinModelParams, TunnelParams

__all__ = [
    "SINGLE_SPIN",
    "TWO_SPIN",
    "PAULI_PRODUCT_LABELS",
    "TomographyDesign",
    "ReconstructionResult",
    "RankDeficientWarning",
    "n_parameters",
    "parameter_labels",
    "theta_to_density",
    "density_to_theta",
    "is_physical",
    "project_physical",
    "build_design",
    "forward_probabilities",
    "reconstruct",
    "identified_parameters",
    "unidentifiable_directions",
]

SINGLE_SPIN = "single_spin"
TWO_SPIN = "two_spin"

# Relative singular-value cutoff separating signal from numerically-zero
# directions in the design matrix. Subnormal singular values, whose inverse
# overflows, always count as zero.
RANK_TOL = 1e-10
# A parameter whose unit vector has a null-space component of larger norm is
# not identified by the design: its estimate misses that component, so no
# error bar describes it.
NULL_OVERLAP_TOL = 1e-6


class RankDeficientWarning(UserWarning):
    """The design matrix does not identify all state parameters."""


def _check_mode(mode: str) -> None:
    if mode not in (SINGLE_SPIN, TWO_SPIN):
        raise ValueError(f"unknown tomography mode {mode!r}")


def n_parameters(mode: str) -> int:
    _check_mode(mode)
    return 3 if mode == SINGLE_SPIN else 15


def parameter_labels(mode: str):
    """Human-readable labels of the state parameters, in column order."""
    _check_mode(mode)
    if mode == SINGLE_SPIN:
        return PAULI_PRODUCT_LABELS[:3]
    return PAULI_PRODUCT_LABELS


def theta_to_density(theta, mode: str) -> np.ndarray:
    """Gate state ``(I + sum_j theta_j P_j) / 4`` from its parameter vector.

    Single-spin parameters describe the electron polarization with the
    nucleus maximally mixed: the two-spin vector with parameters 4-15 at 0.
    A parameter that is not finite raises ``ValueError``, and so does
    :func:`is_physical` or :func:`project_physical` of it.
    """
    _check_mode(mode)
    theta = np.asarray(theta, dtype=float)
    n = n_parameters(mode)
    if theta.shape != (n,):
        raise ValueError(f"{mode} expects {n} parameters, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return pauli_operator(np.concatenate(([1.0], theta, np.zeros(15 - n)))) / 4.0


def density_to_theta(rho: np.ndarray, mode: str) -> np.ndarray:
    """Parameter vector ``theta_j = tr(rho P_j)`` of a 4x4 gate state."""
    return pauli_coordinates(rho)[1 : 1 + n_parameters(mode)]


def is_physical(theta, mode: str, tol: float = 1e-10) -> bool:
    """Whether the smallest eigenvalue of :func:`theta_to_density` is at
    least ``-tol``; in single-spin mode it is ``(1 - |theta|) / 4``."""
    return float(np.linalg.eigvalsh(theta_to_density(theta, mode)).min()) >= -tol


def project_physical(theta, mode: str) -> np.ndarray:
    """Clip-based projection of a raw estimate back to the physical set.

    Clips the negative eigenvalues of :func:`theta_to_density` to zero,
    renormalizes the trace and returns the mode's parameters. In single-spin
    mode this shrinks an overlong polarization radially onto the unit
    sphere. Idempotent; an input that :func:`is_physical` accepts passes
    through unchanged, so that one test decides both.
    """
    if is_physical(theta, mode):
        return np.array(theta, dtype=float)
    w, v = np.linalg.eigh(theta_to_density(theta, mode))
    w = np.clip(w, 0.0, None)
    rho_proj = (v * w) @ v.conj().T
    rho_proj /= np.trace(rho_proj).real
    return density_to_theta(rho_proj, mode)


class TomographyDesign(NamedTuple):
    """Affine design ``Pr = A theta + b`` over a grid of settings.

    ``matrix`` has one row per setting and one column per state parameter;
    ``offset`` holds the maximally-mixed-gate probabilities. Row ``i`` of
    ``pulse_rows`` holds the coordinates of setting ``i``'s pulse effect (the
    first row of its pulse transfer matrix),
    so ``pulse_rows @ pauli_coordinates(rho)`` gives the exact probabilities
    of any gate state, whatever the mode. Rank and
    conditioning are computed from the singular spectrum with relative cutoff
    ``RANK_TOL``; ``null_space`` columns span the unidentifiable directions
    and ``pseudo_inverse`` is the rank-truncated pseudoinverse of ``matrix``.
    The design identifies the state exactly when ``rank == n_params``.
    """

    mode: str
    matrix: np.ndarray
    offset: np.ndarray
    pulse_rows: np.ndarray
    rank: int
    condition_number: float
    null_space: np.ndarray
    pseudo_inverse: np.ndarray

    @property
    def n_settings(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_params(self) -> int:
        return self.matrix.shape[1]


class ReconstructionResult(NamedTuple):
    """Least-squares gate-state estimate with its residual norm and, when
    shot counts were given, its covariance. Whether the estimate is a state
    is :func:`is_physical` of ``theta_hat``, and :func:`project_physical`
    of it gives the clipped state."""

    theta_hat: np.ndarray
    residual_norm: float
    covariance: np.ndarray | None


def build_design(
    settings,
    model: SpinModelParams,
    tunnel: TunnelParams,
    c: float,
    mode: str = SINGLE_SPIN,
    include_gate_hamiltonian: bool = True,
) -> TomographyDesign:
    """Assemble the affine design matrix for ``settings`` (see :func:`~spinturnstile.cycle.setting_grid`).

    Each row holds the coordinates of the setting's pulse effect
    (:attr:`~spinturnstile.cycle.InstrumentBlock.effects`), which give the
    probability as a function of the state's Pauli coordinates
    ``(1, theta)``: its identity entry is the offset (the probability on the
    maximally mixed gate) and the entries of the mode's parameters are the
    matrix row.
    """
    _check_mode(mode)
    grid = setting_grid(settings)
    if not grid.t_interact:
        raise ValueError("at least one setting is required")

    pulse_rows = np.empty((len(grid.t_interact), 16))
    for block in setting_instruments(grid, model, tunnel, c, include_gate_hamiltonian):
        for error in block.errors:
            if error is not None:
                raise ValueError(error)
        pulse_rows[block.start:block.start + len(block.errors)] = block.effects
    matrix = pulse_rows[:, 1 : 1 + n_parameters(mode)]
    offset = pulse_rows[:, 0]

    # Thin U (for the pseudoinverse) and full V^T (for the null space).
    u, sv, vt = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    cutoff = max(RANK_TOL * sv[0], np.finfo(float).tiny)
    rank = int((sv > cutoff).sum())
    cond = float(sv[0] / sv[rank - 1]) if rank > 0 else float("inf")
    inv_sv = np.zeros_like(sv)
    inv_sv[:rank] = 1.0 / sv[:rank]
    return TomographyDesign(
        mode=mode,
        matrix=matrix,
        offset=offset,
        pulse_rows=pulse_rows,
        rank=rank,
        condition_number=cond,
        null_space=vt[rank:].T.copy(),
        pseudo_inverse=vt[: sv.size].T @ np.diag(inv_sv) @ u.T,
    )


def forward_probabilities(design: TomographyDesign, theta) -> np.ndarray:
    """Noiseless pulse probabilities the design predicts for a state."""
    theta = np.asarray(theta, dtype=float)
    return design.matrix @ theta + design.offset


def reconstruct(design: TomographyDesign, pr_measured, shot_counts=None) -> ReconstructionResult:
    """Minimum-norm least-squares estimate of the gate state.

    Args:
        design: affine design from :func:`build_design`.
        pr_measured: measured pulse probabilities, one per design row, all
            finite.
        shot_counts: optional per-row cycle counts; when given, binomial
            variances are propagated through the pseudoinverse into a
            parameter covariance estimate.

    A rank-deficient design triggers a :class:`RankDeficientWarning` (the
    null-space component of the state is unobservable and is returned as 0),
    never a silent fill-in. The estimate is returned raw, whether or not it
    is a state: :func:`is_physical` and :func:`project_physical` of
    ``theta_hat`` read its physicality and its projection.
    """
    pr_measured = np.asarray(pr_measured, dtype=float)
    if pr_measured.shape != (design.n_settings,):
        raise ValueError(
            f"expected {design.n_settings} probabilities, got shape {pr_measured.shape}"
        )
    if not np.isfinite(pr_measured).all():
        raise ValueError("measured probabilities must be finite")
    y = pr_measured - design.offset
    theta_hat = design.pseudo_inverse @ y
    residual_norm = float(np.linalg.norm(design.matrix @ theta_hat - y))

    if design.rank < design.n_params:
        warnings.warn(
            f"design rank {design.rank} < {design.n_params} parameters; "
            "null-space components of the estimate are unconstrained (returned as 0)",
            RankDeficientWarning,
            stacklevel=2,
        )

    covariance = None
    if shot_counts is not None:
        counts = np.broadcast_to(np.asarray(shot_counts, dtype=float), pr_measured.shape)
        if np.any(counts <= 0):
            raise ValueError("shot counts must be positive")
        var = pr_measured * (1.0 - pr_measured) / counts
        covariance = (design.pseudo_inverse * var) @ design.pseudo_inverse.T

    return ReconstructionResult(theta_hat, residual_norm, covariance)


def identified_parameters(design: TomographyDesign) -> np.ndarray:
    """Per parameter, whether the design identifies it: whether its unit vector
    has no null-space component of norm above ``NULL_OVERLAP_TOL``."""
    return np.linalg.norm(design.null_space, axis=1) <= NULL_OVERLAP_TOL


def unidentifiable_directions(design: TomographyDesign) -> list:
    """One string per null-space direction of the design, naming its (up to
    three) dominant parameters with their weights; empty when the design
    identifies the state."""
    labels = parameter_labels(design.mode)
    directions = []
    for vec in design.null_space.T:
        order = np.argsort(-np.abs(vec))
        dominant = [
            f"{labels[j]} ({vec[j]:+.3f})" for j in order[:3] if abs(vec[j]) > 0.05
        ]
        directions.append(", ".join(dominant) if dominant else "(diffuse)")
    return directions
