"""Dense complex linear algebra for the readout's small spin spaces.

Everything here operates on plain ``numpy.ndarray`` values: operators and
states are dense complex square matrices, Bloch vectors are real 3-vectors.
The module provides the primitives the rest of the package is built from:
tensor products, Hermitian matrix exponentials (by eigendecomposition, so
unitarity holds to solver accuracy), and the Pauli-product basis of the
two-spin gate with the real coordinates of gate operators on it.

Conventions
-----------
- hbar = 1; Hamiltonians in rad/s, times in seconds.
- Time evolution uses the Schroedinger-convention propagator
  ``U(t) = exp(-i H t)``.
- Composite systems are ordered left-to-right by site index. For the readout
  simulator that means site 0 = ancilla (central-dot electron), site 1 = gate
  electron, site 2 = gate nucleus.
- A spin-1/2 state with polarization vector u is ``rho = (I + u . sigma) / 2``;
  ``|u| = 1`` is pure, ``|u| < 1`` mixed.
"""

import numpy as np

from .constants import STRUCTURAL_TOL

__all__ = [
    "STRUCTURAL_TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "PAULIS",
    "PAULI_PRODUCT_LABELS",
    "GATE_PAULI_BASIS",
    "kron",
    "evolve_unitaries",
    "evolve_unitary",
    "pauli_coordinates",
    "pauli_operator",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Largest propagator phase |w| t (rad) accepted: beyond it rounding alone
# leaves the float64 phase uncertain by more than about 1e-4 rad.
MAX_PHASE = 1e12


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more square matrices, leftmost index major.

    An operand may also be a (..., d, d) stack of matrices; the stacks
    broadcast against each other, so a whole table of products takes one
    multiply per operand after the first. Each entry is the product
    ``np.kron`` computes, bit for bit.
    """
    if not ops:
        raise ValueError("kron requires at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        m, n = out.shape[-1], op.shape[-1]
        # [..., i, k, j, l] = out[..., i, j] * op[..., k, l], as np.kron multiplies
        product = out[..., :, None, :, None] * op[..., None, :, None, :]
        out = product.reshape(product.shape[:-4] + (m * n, m * n))
    return out


def _hermitian_rows(m: np.ndarray, tol: float) -> np.ndarray:
    """Entrywise Hermiticity of each matrix of an (R, d, d) stack, tolerance
    scaled by the matrix magnitude; a non-finite matrix is not Hermitian."""
    scale = np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= tol * scale


def evolve_unitaries(h: np.ndarray, t) -> tuple:
    """Propagators ``exp(-i h_k t_k)`` of a stack of generators, from one ``eigh``.

    ``h`` is an (R, d, d) stack in rad/s and ``t`` holds R times in seconds.
    The eigendecomposition route keeps each result unitary to solver accuracy
    even for large phases, unlike a truncated series.

    Returns:
        ``(u, errors)``: the (R, d, d) propagators and, per row, None or the
        reason the row has no propagator: a generator that is not Hermitian
        within tolerance, a time that is not finite, or a phase ``|w| t``
        over ``MAX_PHASE`` rad. Such rows never reach the exponential, and
        they hold the identity, as do rows with ``t == 0`` or ``h == 0``
        (exact, not ``V V^dag``, so zero-phase evolution is noiseless).
    """
    h = np.asarray(h, dtype=complex)
    t = np.asarray(t, dtype=float)
    hermitian = _hermitian_rows(h, STRUCTURAL_TOL)
    finite = np.isfinite(t)
    t = np.where(finite, t, 0.0)  # a row reported below
    identity = ~hermitian | ~finite | (t == 0.0) | ~h.any(axis=(1, 2))
    w, v = np.linalg.eigh(np.where(identity[:, None, None], 0.0, h))
    with np.errstate(over="ignore"):  # an infinite phase is over the limit too
        phase = np.abs(w).max(axis=1) * np.abs(t)
    lost = phase > MAX_PHASE
    identity |= lost
    with np.errstate(invalid="ignore"):  # an infinite w times 0, on a row reset below
        phases = np.exp(-1j * w * np.where(identity, 0.0, t)[:, None])
    u = (v * phases[:, None, :]) @ v.conj().swapaxes(1, 2)
    u[identity] = np.eye(h.shape[1])
    errors = []
    for ok, timed, over, p in zip(hermitian.tolist(), finite.tolist(), lost.tolist(),
                                  phase.tolist()):
        if not ok:
            errors.append("evolve_unitary requires a Hermitian generator")
        elif not timed:
            errors.append("evolve_unitary requires a finite time")
        elif over:
            errors.append(f"propagator phase {p:.3g} rad exceeds {MAX_PHASE:.0e} rad: precision lost")
        else:
            errors.append(None)
    return u, errors


def evolve_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator ``exp(-i h t)`` of one Hermitian generator: the one-row case
    of :func:`evolve_unitaries`.

    Raises:
        ValueError: if ``h`` is not Hermitian within tolerance, if ``t`` is
            not finite, or if a phase ``|w| t`` exceeds ``MAX_PHASE`` rad.
    """
    u, errors = evolve_unitaries(np.asarray(h)[None], [float(t)])
    if errors[0] is not None:
        raise ValueError(errors[0])
    return u[0]


# Pauli products on the gate (electron, nucleus): the two local polarizations,
# then the nine correlators.
PAULI_PRODUCT_LABELS = (
    tuple(a + "I" for a in "XYZ")
    + tuple("I" + b for b in "XYZ")
    + tuple(a + b for a in "XYZ" for b in "XYZ")
)
_PAULI_OF = {"I": IDENTITY_2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# (16, 4, 4): the identity, then the products in PAULI_PRODUCT_LABELS order,
# as one product of the stacked electron and nucleus factors.
GATE_PAULI_BASIS = kron(*(np.array([_PAULI_OF[label[spin]] for label in ("II",) + PAULI_PRODUCT_LABELS])
                          for spin in range(2)))
# Row j is P_j flattened, so coefficients times these rows give the flattened
# operator sum_j c_j P_j.
_GATE_BASIS_ROWS = GATE_PAULI_BASIS.reshape(16, 16)
# Row j is conj(P_j) flattened, so a product with a flattened operator A gives
# tr(P_j A) (the P_j are Hermitian).
_GATE_TRACE_ROWS = _GATE_BASIS_ROWS.conj()


def pauli_coordinates(op: np.ndarray) -> np.ndarray:
    """Real coordinates ``x_j = Re tr(op P_j)`` of a 4x4 gate operator, or of
    each operator of a (..., 4, 4) stack along a new last axis.

    A gate state is ``rho = sum_j x_j P_j / 4`` with ``x_0 = tr(rho) = 1``.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 gate operator")
    return (op.reshape(-1, 16) @ _GATE_TRACE_ROWS.T).real.reshape(op.shape[:-2] + (16,))


def pauli_operator(coeffs) -> np.ndarray:
    """Hermitian 4x4 operator ``sum_j c_j P_j`` from 16 real coefficients."""
    return (np.asarray(coeffs, dtype=float) @ _GATE_BASIS_ROWS).reshape(4, 4)
