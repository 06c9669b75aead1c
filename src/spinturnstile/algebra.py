"""Dense complex linear algebra for small multi-spin Hilbert spaces.

Everything here operates on plain ``numpy.ndarray`` values: operators and
states are dense complex square matrices, Bloch vectors are real 3-vectors.
The module provides the primitives the rest of the package is built from:
tensor products, partial traces, Hermitian matrix exponentials (by
eigendecomposition, so unitarity holds to solver accuracy), Bloch-vector
conversions, embedded single-site Pauli operators, and the Pauli-product
basis of the two-spin gate with the real coordinates of gate operators on it.

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

Intended for dimensions up to 2**12; no sparse structure is exploited.
"""

from dataclasses import dataclass

import numpy as np

from .constants import ROUNDTRIP_TOL, STRUCTURAL_TOL

__all__ = [
    "STRUCTURAL_TOL",
    "ROUNDTRIP_TOL",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY_2",
    "PAULIS",
    "PAULI_PRODUCT_LABELS",
    "GATE_PAULI_BASIS",
    "SpinOperatorSet",
    "kron",
    "partial_trace",
    "evolve_unitaries",
    "evolve_unitary",
    "apply_unitary",
    "bloch_to_density",
    "density_to_bloch",
    "pauli_coordinates",
    "pauli_operator",
    "spin_operators",
    "is_hermitian",
    "check_density_matrix",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_AXES = ("x", "y", "z")

# Hard cap on the number of spin-1/2 sites; 2**12 = 4096 is already far beyond
# what the dense algebra here is meant for.
MAX_SPINS = 12

# Largest propagator phase |w| t (rad) accepted: beyond it rounding alone
# leaves the float64 phase uncertain by more than about 1e-4 rad.
MAX_PHASE = 1e12


def kron(*ops: np.ndarray) -> np.ndarray:
    """Tensor product of one or more square matrices, leftmost index major."""
    if not ops:
        raise ValueError("kron requires at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all sites of a composite operator except ``keep``.

    Args:
        m: square matrix on the full tensor-product space.
        dims: per-site dimensions, ordered by site index; their product must
            equal the matrix dimension.
        keep: site indices to retain. The result is ordered by ascending site
            index regardless of the order given here.

    Returns:
        The reduced operator on the kept sites; the full trace is preserved.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    n = len(dims)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("partial_trace expects a square matrix")
    if int(np.prod(dims)) != m.shape[0]:
        raise ValueError(
            f"product of dims {dims} does not match matrix dimension {m.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one site")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep sites {keep} out of range for {n} sites")

    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n > len(letters):
        raise ValueError("too many sites for einsum contraction")
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for site in range(n):
        if site not in keep:
            col[site] = row[site]  # repeated index -> traced out
    out_sub = "".join(row[s] for s in keep) + "".join(col[s] for s in keep)
    sub = "".join(row) + "".join(col) + "->" + out_sub
    kept_dim = int(np.prod([dims[s] for s in keep]))
    return np.einsum(sub, m.reshape(dims + dims)).reshape(kept_dim, kept_dim)


def _hermitian_rows(m: np.ndarray, tol: float) -> np.ndarray:
    """Entrywise Hermiticity of each matrix of an (R, d, d) stack, tolerance
    scaled by the matrix magnitude; a non-finite matrix is not Hermitian."""
    scale = np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    return np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= tol * scale


def is_hermitian(m: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """Entrywise Hermiticity check, tolerance scaled by the matrix magnitude."""
    return bool(_hermitian_rows(np.asarray(m)[None], tol)[0])


def evolve_unitaries(h: np.ndarray, t) -> tuple:
    """Propagators ``exp(-i h_k t_k)`` of a stack of generators, from one ``eigh``.

    ``h`` is an (R, d, d) stack in rad/s and ``t`` holds R times in seconds.
    The eigendecomposition route keeps each result unitary to solver accuracy
    even for large phases, unlike a truncated series.

    Returns:
        ``(u, errors)``: the (R, d, d) propagators and, per row, None or the
        reason the row has no propagator: a generator that is not Hermitian
        within tolerance, or a phase ``|w| t`` over ``MAX_PHASE`` rad. Such
        rows never reach the exponential, and they hold the identity, as do
        rows with ``t == 0`` or ``h == 0`` (exact, not ``V V^dag``, so
        zero-phase evolution is noiseless).
    """
    h = np.asarray(h, dtype=complex)
    t = np.asarray(t, dtype=float)
    hermitian = _hermitian_rows(h, STRUCTURAL_TOL)
    identity = ~hermitian | (t == 0.0) | ~h.any(axis=(1, 2))
    w, v = np.linalg.eigh(np.where(identity[:, None, None], 0.0, h))
    with np.errstate(over="ignore"):  # an infinite phase is over the limit too
        phase = np.abs(w).max(axis=1) * np.abs(t)
    lost = phase > MAX_PHASE
    identity |= lost
    phases = np.exp(-1j * w * np.where(identity, 0.0, t)[:, None])
    u = (v * phases[:, None, :]) @ v.conj().swapaxes(1, 2)
    u[identity] = np.eye(h.shape[1])
    errors = []
    for ok, over, p in zip(hermitian.tolist(), lost.tolist(), phase.tolist()):
        if not ok:
            errors.append("evolve_unitary requires a Hermitian generator")
        elif over:
            errors.append(f"propagator phase {p:.3g} rad exceeds {MAX_PHASE:.0e} rad: precision lost")
        else:
            errors.append(None)
    return u, errors


def evolve_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator ``exp(-i h t)`` of one Hermitian generator: the one-row case
    of :func:`evolve_unitaries`.

    Raises:
        ValueError: if ``h`` is not Hermitian within tolerance, or if a phase
            ``|w| t`` exceeds ``MAX_PHASE`` rad.
    """
    u, errors = evolve_unitaries(np.asarray(h)[None], [float(t)])
    if errors[0] is not None:
        raise ValueError(errors[0])
    return u[0]


def apply_unitary(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate a state: ``u @ rho @ u^dagger``."""
    return u @ rho @ u.conj().T


def bloch_to_density(u) -> np.ndarray:
    """Spin-1/2 density matrix ``(I + u . sigma) / 2`` from a polarization vector.

    Raises:
        ValueError: if ``|u|`` exceeds 1 beyond tolerance (unphysical).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("Bloch vector must have exactly 3 real components")
    norm = float(np.linalg.norm(u))
    if norm > 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return 0.5 * (IDENTITY_2 + u[0] * SIGMA_X + u[1] * SIGMA_Y + u[2] * SIGMA_Z)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Polarization vector ``u_a = tr(rho sigma_a)`` of a 2x2 density matrix.

    Inverse of :func:`bloch_to_density` to within ``ROUNDTRIP_TOL``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density_to_bloch expects a 2x2 matrix")
    return np.array([np.trace(rho @ p).real for p in PAULIS])


# Pauli products on the gate (electron, nucleus): the two local polarizations,
# then the nine correlators.
PAULI_PRODUCT_LABELS = (
    tuple(a + "I" for a in "XYZ")
    + tuple("I" + b for b in "XYZ")
    + tuple(a + b for a in "XYZ" for b in "XYZ")
)
_PAULI_OF = {"I": IDENTITY_2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# (16, 4, 4): the identity, then the products in PAULI_PRODUCT_LABELS order.
GATE_PAULI_BASIS = np.array(
    [kron(IDENTITY_2, IDENTITY_2)]
    + [kron(_PAULI_OF[label[0]], _PAULI_OF[label[1]]) for label in PAULI_PRODUCT_LABELS]
)
# Row j is conj(P_j) flattened, so a product with a flattened operator A gives
# tr(P_j A) (the P_j are Hermitian).
_GATE_TRACE_ROWS = GATE_PAULI_BASIS.reshape(16, 16).conj()


def pauli_coordinates(op: np.ndarray) -> np.ndarray:
    """Real coordinates ``x_j = Re tr(op P_j)`` of a 4x4 gate operator, or of
    each operator of a (..., 4, 4) stack along a new last axis.

    A gate state is ``rho = sum_j x_j P_j / 4`` with ``x_0 = tr(rho) = 1``.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 gate operator")
    if op.ndim == 2:
        return (_GATE_TRACE_ROWS @ op.reshape(16)).real
    return (op.reshape(-1, 16) @ _GATE_TRACE_ROWS.T).real.reshape(op.shape[:-2] + (16,))


def pauli_operator(coeffs) -> np.ndarray:
    """Hermitian 4x4 operator ``sum_j c_j P_j`` from 16 real coefficients."""
    return np.tensordot(np.asarray(coeffs, dtype=float), GATE_PAULI_BASIS, axes=1)


@dataclass(frozen=True)
class SpinOperatorSet:
    """Embedded Pauli operators for ``n_spins`` spin-1/2 sites.

    ``operators[site][axis]`` is the 2**n dimensional embedding
    ``I x ... x sigma_axis x ... x I`` with the Pauli factor at ``site``;
    axes are ordered (x, y, z).
    """

    n_spins: int
    operators: tuple

    def op(self, site: int, axis) -> np.ndarray:
        """Operator for ``site`` and ``axis`` ('x'/'y'/'z' or 0/1/2)."""
        if isinstance(axis, str):
            axis = _AXES.index(axis)
        return self.operators[site][axis]

    @property
    def dim(self) -> int:
        return 2**self.n_spins


def spin_operators(n: int) -> SpinOperatorSet:
    """Build all ``3n`` embedded Pauli operators for ``n`` spin-1/2 sites.

    Raises:
        ValueError: if ``n`` is outside ``[1, MAX_SPINS]``.
    """
    if not 1 <= n <= MAX_SPINS:
        raise ValueError(f"n must be in [1, {MAX_SPINS}], got {n}")
    ops = []
    for site in range(n):
        site_ops = []
        for pauli in PAULIS:
            factors = [IDENTITY_2] * n
            factors[site] = pauli
            site_ops.append(kron(*factors))
        ops.append(tuple(site_ops))
    return SpinOperatorSet(n_spins=n, operators=tuple(ops))


def check_density_matrix(rho: np.ndarray, dims=None, tol: float = STRUCTURAL_TOL) -> None:
    """Validate the density-matrix invariants; raise ``ValueError`` on failure.

    Checks: square, finite, Hermitian, unit trace and positive semidefinite,
    all within ``tol``. If ``dims`` is given, the product of subsystem
    dimensions must match the matrix dimension.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if dims is not None and int(np.prod(list(dims))) != rho.shape[0]:
        raise ValueError(f"subsystem dims {list(dims)} do not match dimension {rho.shape[0]}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > tol:
        raise ValueError(f"density matrix trace {trace} is not 1 within tolerance")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig}")
