"""Independent reference implementations used as test oracles.

Everything here is deliberately written by a different route than the package
code it checks: explicit index loops instead of einsum/np.kron, a Runge-Kutta
integrator instead of eigendecomposition, a brute-force two-site Hubbard
diagonalization instead of the closed-form exchange. Slow is fine; these only
run in tests. ``check_density_matrix`` validates the states tests produce.
"""

import csv
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np


def kron_bruteforce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product by direct expansion of the index layout."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def partial_trace_bruteforce(m: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit index contraction over all multi-indices."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [s for s in range(n) if s not in keep]
    kept_dim = int(np.prod([dims[s] for s in keep]))
    out = np.zeros((kept_dim, kept_dim), dtype=complex)

    def flat(idx):
        f = 0
        for s in range(n):
            f = f * dims[s] + idx[s]
        return f

    def flat_kept(idx):
        f = 0
        for s in keep:
            f = f * dims[s] + idx[s]
        return f

    ranges = [range(dims[s]) for s in range(n)]
    import itertools

    for row in itertools.product(*ranges):
        for col in itertools.product(*ranges):
            if all(row[s] == col[s] for s in traced):
                out[flat_kept(row), flat_kept(col)] += m[flat(row), flat(col)]
    return out


def rk4_von_neumann(h: np.ndarray, rho0: np.ndarray, t: float, n_steps: int) -> np.ndarray:
    """Integrate d(rho)/dt = -i [H, rho] with classical 4th-order Runge-Kutta."""
    rho = np.array(rho0, dtype=complex)
    dt = t / n_steps

    def deriv(r):
        return -1j * (h @ r - r @ h)

    for _ in range(n_steps):
        k1 = deriv(rho)
        k2 = deriv(rho + 0.5 * dt * k1)
        k3 = deriv(rho + 0.5 * dt * k2)
        k4 = deriv(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def rotate_about_axis(u, axis, angle: float) -> np.ndarray:
    """Rodrigues rotation of a vector about a unit axis."""
    u = np.asarray(u, dtype=float)
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    return (u * np.cos(angle)
            + np.cross(k, u) * np.sin(angle)
            + k * (k @ u) * (1.0 - np.cos(angle)))


def hubbard_dimer_exchange(t_hop: float, u_rep: float) -> float:
    """Singlet-triplet splitting of the half-filled two-site Hubbard model.

    Exact diagonalization in the 4-dimensional Sz=0 sector spanned by
    {|ud,0>, |u,d>, |d,u>, |0,ud>}; the triplet energy is 0, so the splitting
    is minus the singlet ground energy. Reduces to 4 t^2 / U for t << U.
    """
    h = np.array(
        [
            [u_rep, t_hop, -t_hop, 0.0],
            [t_hop, 0.0, 0.0, t_hop],
            [-t_hop, 0.0, 0.0, -t_hop],
            [0.0, t_hop, -t_hop, u_rep],
        ]
    )
    e0 = np.linalg.eigvalsh(h).min()
    return -e0


def eigclip_project(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalize the trace."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return out / np.trace(out).real


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Wishart normalized)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_bloch(rng: np.random.Generator, max_norm: float = 1.0) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, max_norm)


_ORACLE_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def spin_half(u) -> np.ndarray:
    """(I + u . sigma) / 2 written out entrywise."""
    x, y, z = (float(c) for c in u)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def check_density_matrix(rho: np.ndarray, dims=None, tol: float = 1e-10) -> None:
    """Validate the density-matrix invariants; raise ``ValueError`` on failure.

    Checks: square, finite, Hermitian, unit trace and positive semidefinite,
    all within ``tol`` (Hermiticity scaled by the matrix magnitude). If
    ``dims`` is given, the product of subsystem dimensions must match the
    matrix dimension.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if dims is not None and int(np.prod(list(dims))) != rho.shape[0]:
        raise ValueError(f"subsystem dims {list(dims)} do not match dimension {rho.shape[0]}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > tol * max(1.0, np.abs(rho).max()):
        raise ValueError("density matrix is not Hermitian within tolerance")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > tol:
        raise ValueError(f"density matrix trace {trace} is not 1 within tolerance")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig}")


def prepare_ancilla(u_left) -> np.ndarray:
    """Fresh ancilla state inheriting the left-lead polarization."""
    return spin_half(u_left)


def joint_evolve(rho_ancilla, rho_gate, h_total: np.ndarray, t: float) -> np.ndarray:
    """``U (rho_ancilla x rho_gate) U^dag`` with ``U = exp(-i h_total t)`` on
    (ancilla, gate electron, nucleus)."""
    rho_ancilla = np.asarray(rho_ancilla, dtype=complex)
    rho_gate = np.asarray(rho_gate, dtype=complex)
    if rho_ancilla.shape != (2, 2) or rho_gate.shape != (4, 4):
        raise ValueError("expected a 2x2 ancilla state and a 4x4 gate state")
    w, v = np.linalg.eigh(h_total)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u @ kron_bruteforce(rho_ancilla, rho_gate) @ u.conj().T


def ancilla_state(rho_joint: np.ndarray):
    """Reduced ancilla state and its polarization vector after joint evolution."""
    rho_a = partial_trace_bruteforce(rho_joint, [2, 2, 2], keep=[0])
    return rho_a, np.array([np.trace(rho_a @ _ORACLE_PAULIS[k]).real for k in "XYZ"])


def detection_probability(u_ancilla, u_right, c: float, tau_detect: float, t_sq: float) -> float:
    """The pulse-probability formula ``c tau_detect t_sq (1 + u_right . u_ancilla)``."""
    return c * tau_detect * t_sq * (1.0 + float(np.dot(u_right, u_ancilla)))


@functools.lru_cache(maxsize=None)
def pauli_product_basis() -> tuple:
    """The 16 gate Pauli products: identity, XI, YI, ZI, IX, IY, IZ, then XX..ZZ."""
    labels = ["II"] + [a + "I" for a in "XYZ"] + ["I" + b for b in "XYZ"]
    labels += [a + b for a in "XYZ" for b in "XYZ"]
    return tuple(kron_bruteforce(_ORACLE_PAULIS[l[0]], _ORACLE_PAULIS[l[1]]) for l in labels)


def effective_exchange(hopping: float, coulomb_u: float) -> float:
    """Superexchange ``J = 4 t^2 / U`` from hopping and on-site repulsion, by
    Python float arithmetic: 0 without hopping.

    Raises:
        ValueError: if ``coulomb_u <= 0`` while ``hopping != 0``.
    """
    if hopping == 0.0:
        return 0.0
    if coulomb_u <= 0.0:
        raise ValueError("coulomb_u must be positive when hopping is nonzero")
    return 4.0 * hopping * hopping / coulomb_u


def exchange_value(p) -> float:
    """A SpinModelParams' exchange in rad/s, by :func:`effective_exchange`
    where it is None."""
    return p.exchange if p.exchange is not None else effective_exchange(p.hopping, p.coulomb_u)


def model_coefficients_by_model(p) -> tuple:
    """The 12 generator-stack coefficients of one SpinModelParams, by Python
    float arithmetic on its fields: the package's route before it stacked
    the models' values. The level offset, a global phase, has none."""
    from spinturnstile.constants import MU_B_PER_HBAR

    bx, by, bz = p.b_field
    el, nuc, anc = p.g_electron * MU_B_PER_HBAR, p.g_nuclear * MU_B_PER_HBAR, p.g_ancilla * MU_B_PER_HBAR
    return (el * bx, el * by, el * bz, nuc * bx, nuc * by, nuc * bz, anc * bx, anc * by, anc * bz,
            p.hyperfine_gate, exchange_value(p), p.hyperfine_ancilla)


def hierarchy_report(norm: float, tp, threshold: float):
    """Device time scales of one model whose ``hierarchy_norms`` entry is
    ``norm``, by Python float arithmetic: the package's route before it
    stacked the rows (``model._time_scales``). A vanishing rate or norm gives
    an infinite time, and a ratio whose faster time is infinite reads 0."""
    from spinturnstile.model import HierarchyReport, gamma_rate

    def inverse(rate):
        return 1.0 / rate if rate > 0.0 else math.inf

    def separation(slow, fast):
        return 0.0 if math.isinf(fast) else slow / fast

    tau_res, tau_non = inverse(gamma_rate(0.0, tp)), inverse(gamma_rate(tp.detuning, tp))
    tau_dyn = 2.0 * math.pi / norm if norm > 0.0 else math.inf
    r1, r2 = separation(tau_dyn, tau_res), separation(tau_non, tau_dyn)
    return HierarchyReport(tau_res, tau_dyn, tau_non, r1, r2, bool(r1 >= threshold and r2 >= threshold))


def spin_hamiltonian(p, include_gate_hamiltonian: bool = True) -> np.ndarray:
    """The model Hamiltonian written out term by term with explicit tensor
    products on (ancilla, gate electron, nucleus); ``p`` is a SpinModelParams."""
    from spinturnstile.constants import MU_B_PER_HBAR

    paulis = [_ORACLE_PAULIS[k] for k in "XYZ"]

    def at(site, op):
        factors = [_ORACLE_PAULIS["I"]] * 3
        factors[site] = op
        return kron_bruteforce(kron_bruteforce(factors[0], factors[1]), factors[2])

    def dot(site_a, site_b):
        return sum(at(site_a, s) @ at(site_b, s) for s in paulis)

    h = exchange_value(p) * dot(1, 0) + p.hyperfine_ancilla * dot(2, 0)
    if include_gate_hamiltonian:
        h = h + p.level_offset * np.eye(8) + p.hyperfine_gate * dot(2, 1)
        for g, site in ((p.g_ancilla, 0), (p.g_electron, 1), (p.g_nuclear, 2)):
            h = h + sum(g * MU_B_PER_HBAR * b * at(site, s) for b, s in zip(p.b_field, paulis))
    return h


def kraus_instrument(u_left, u_right, u: np.ndarray, kappa: float):
    """Kraus operators of both conditional maps of a readout cycle.

    The map of outcome m is ``rho -> Tr_A{(M_m x I) U (rho_A x rho) U^dag}``
    with ``rho_A = (I + u_left . sigma)/2``, ``M_pulse = kappa (I + u_right .
    sigma)/2`` and ``M_nopulse = I - M_pulse``. Spectral-decomposes the
    ancilla preparation and each effect; each pair of eigenvectors
    contributes one 4x4 Kraus operator weighted by the square roots of the
    eigenvalues. Returns ``(kraus_pulse, kraus_nopulse)`` as lists.
    """
    rho_a = spin_half(u_left)
    m_pulse = kappa * spin_half(u_right)
    q, prep_vecs = np.linalg.eigh(rho_a)
    q = np.clip(q, 0.0, None)
    u_resh = u.reshape(2, 4, 2, 4)
    out = []
    for m_effect in (m_pulse, np.eye(2) - m_pulse):
        w, eff_vecs = np.linalg.eigh(m_effect)
        w = np.clip(w, 0.0, None)
        kraus = []
        for n in range(2):
            for m in range(2):
                # <m| U |n> on the ancilla factor
                block = np.einsum("a,abcd,c->bd", eff_vecs[:, m].conj(), u_resh, prep_vecs[:, n])
                kraus.append(np.sqrt(q[n] * w[m]) * block)
        out.append(kraus)
    return out[0], out[1]


def liouville_matrix(kraus) -> np.ndarray:
    """Transfer matrix ``L[i, j] = tr[P_i sum_k K P_j K^dag] / 4`` on the gate basis."""
    basis = pauli_product_basis()
    out = np.zeros((16, 16))
    for j, p_j in enumerate(basis):
        image = sum(k @ p_j @ k.conj().T for k in kraus)
        for i, p_i in enumerate(basis):
            out[i, j] = 0.25 * np.trace(p_i @ image).real
    return out


def choi_from_transfer(s: np.ndarray) -> np.ndarray:
    """Choi matrix ``sum_kl |k><l| x Phi(|k><l|)`` of the map with transfer matrix s.

    ``Phi(P_j) = sum_i s[i, j] P_i``, so the Choi matrix is
    ``sum_ij s[i, j] P_j^T x P_i / 4``.
    """
    return 0.25 * np.einsum("ij,ijkl->kl", s, _choi_terms())


@functools.lru_cache(maxsize=None)
def _choi_terms() -> np.ndarray:
    """``[i, j] -> P_j^T x P_i`` for all pairs of gate basis elements."""
    basis = pauli_product_basis()
    return np.array([[kron_bruteforce(p_j.T, p_i) for p_j in basis] for p_i in basis])


def kraus_chain(kraus_pulse, kraus_nopulse, rho0, uniforms):
    """Conditional-state chain by plain Kraus sums, one cycle at a time.

    Per cycle: the pulse branch ``sum_k K rho K^dag``, its trace as the
    (clipped) pulse probability, the outcome drawn against the supplied
    uniform, and the selected branch renormalized. Returns
    ``(outcomes, probs, rho_final)``.
    """
    rho = np.array(rho0, dtype=complex)
    outcomes = np.zeros(len(uniforms), dtype=np.uint8)
    probs = np.empty(len(uniforms))
    for i, uniform in enumerate(uniforms):
        sigma = sum(k @ rho @ k.conj().T for k in kraus_pulse)
        p_pulse = min(max(float(np.trace(sigma).real), 0.0), 1.0)
        probs[i] = p_pulse
        if uniform < p_pulse:
            outcomes[i] = 1
            rho = sigma / p_pulse
        else:
            sigma = sum(k @ rho @ k.conj().T for k in kraus_nopulse)
            p_no = float(np.trace(sigma).real)
            rho = sigma / p_no if p_no > 0.0 else np.eye(4) / 4
    return outcomes, probs, rho


def stepwise_chain(pulse, nopulse, rho0, uniforms):
    """Conditional-state chain by transfer matrices, one cycle at a time.

    Per cycle: the pulse branch ``pulse @ x``, its first entry as the
    (clipped) pulse probability, the outcome drawn against the supplied
    uniform, and the selected branch renormalized by its own first entry; a
    no-pulse branch of nonpositive probability resets the state to
    maximally mixed. Returns ``(outcomes, probs, rho_final, resets)``.
    """
    from spinturnstile.algebra import pauli_coordinates, pauli_operator

    x = pauli_coordinates(rho0)
    n = len(uniforms)
    outcomes = np.zeros(n, dtype=np.uint8)
    probs = np.empty(n)
    resets = 0
    for i, uniform in enumerate(np.asarray(uniforms).tolist()):
        post = pulse @ x
        p_pulse = min(max(float(post[0]), 0.0), 1.0)
        probs[i] = p_pulse
        if uniform < p_pulse:
            outcomes[i] = 1
            x = post / post[0]
        else:
            post = nopulse @ x
            p_no = float(post[0])
            if p_no > 0.0:
                x = post / p_no
            else:
                x = np.eye(16)[0]
                resets += 1
    return outcomes, probs, pauli_operator(x) / 4.0, resets


def induced_instrument(u_left, u_right, h, t, c, tau_detect, t_sq):
    """The one-row instrument block of a raw 8x8 Hamiltonian ``h``, by the
    package's stacked route; raises ``ValueError`` where
    :class:`MeasurementSetting` does or with the row's error."""
    from spinturnstile.algebra import evolve_unitaries
    from spinturnstile.cycle import MeasurementSetting, _instrument_block, detection_strength

    setting = MeasurementSetting(u_left, u_right, t)
    u, errors = evolve_unitaries(np.asarray(h)[None], [setting.t_interact])
    block = _instrument_block(0, u, errors, np.array([setting.u_left]), np.array([setting.u_right]),
                              detection_strength(c, tau_detect, t_sq))
    if block.errors[0] is not None:
        raise ValueError(block.errors[0])
    return block


def json_scalar(value) -> str:
    """JSON text of a metadata or row value by recursive ``isinstance`` tests,
    with ``json.dumps`` on every key: the package's writer before it
    dispatched on exact types. It writes a non-finite float as ``null``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"  # JSON has no NaN/Infinity
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(json_scalar(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{json_scalar(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def render_csv_by_writer(table) -> bytes:
    """A table's CSV bytes by ``csv.writer`` of each row's ``format_value``
    texts: the package's renderer before it wrote each row with one
    ``%``-template chosen by its cells' types."""
    from spinturnstile.results import JsonText, _json_value, format_value

    buf = io.StringIO()
    for key, value in table.metadata.items():
        json_text = isinstance(value, (dict, list, JsonText))
        buf.write(f"# {key} = {_json_value(value) if json_text else format_value(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _section_dict(value, fields: dict) -> dict:
    """The resolved JSON object of a configuration section, field by field: a
    field whose reader is a table is that section's object (of ``value``
    itself when it names no field), and a settings array its settings'."""
    out = {}
    for key, (attr, _, *read) in fields.items():
        item = value if attr is None else getattr(value, attr)
        if read and isinstance(read[0], dict):
            item = _section_dict(item, read[0])
        elif key == "settings":
            item = [_setting_dict(s) for s in item]
        out[key] = list(item) if isinstance(item, tuple) else item
    return out


class ReferenceLead(NamedTuple):
    """A lead as the row-by-row parse keeps it: its direction and magnitude
    as given, and the direction's norm."""

    direction: tuple
    magnitude: float
    norm: float

    def vector(self) -> tuple:
        # the elementwise float arithmetic of magnitude * d / norm on an array;
        # a direction of subnormal components is scaled by its largest first,
        # as magnitude * d would round its bits away
        direction, norm = self.direction, self.norm
        scale = max(map(abs, direction))
        if scale < sys.float_info.min:
            direction = tuple(x / scale for x in direction)
            norm = reference_lead_norm(direction)
        return tuple(self.magnitude * float(x) / norm for x in direction)


class ReferenceSetting(NamedTuple):
    """One setting of the row-by-row parse; ``model`` optionally overrides couplings."""

    u_left: ReferenceLead
    u_right: ReferenceLead
    t_interact: float
    model: object = None


def reference_lead_norm(direction) -> float:
    """A direction's norm by numpy.linalg.norm's route, the square root of
    ``a.dot(a)``, for one direction alone: with an overflow guard only when a
    component reaches 2**500, and scaled by its largest component when the
    sum of squares under- or overflows. Zero or inf for a bad direction."""
    a = np.array(direction, dtype=float)
    if max(map(abs, direction)) < 2.0 ** 500:
        norm = math.sqrt(a.dot(a))
    else:
        with np.errstate(over="ignore"):
            norm = math.sqrt(a.dot(a))
    if norm == 0.0 or norm == math.inf:
        scale = float(np.abs(a).max())
        if 0.0 < scale < math.inf:
            a /= scale
            norm = scale * math.sqrt(a.dot(a))
    return norm


def _reference_lead(obj, path: str) -> ReferenceLead:
    from spinturnstile import config as c

    obj = c._as_object(obj, path, {"direction", "magnitude"})
    direction = obj.get("direction", "z")
    if not isinstance(direction, str):
        direction = _reference_vector(direction, f"{path}.direction")
    elif direction in c._AXES:
        direction = c._AXES[direction]
    else:
        raise c.ConfigValidationError(f"{path}.direction", "axis name must be 'x', 'y' or 'z'")
    magnitude = _reference_float(obj["magnitude"], f"{path}.magnitude", 0.0) if "magnitude" in obj else 1.0
    if magnitude > 1.0:
        raise c.ConfigValidationError(f"{path}.magnitude", "must be <= 1.0")
    norm = reference_lead_norm(direction)
    if norm == 0.0:
        raise c.ConfigValidationError(f"{path}.direction", "must be a nonzero vector")
    if not math.isfinite(norm):
        raise c.ConfigValidationError(f"{path}.direction", "norm must be finite")
    return ReferenceLead(direction, magnitude, norm)


def _reference_float(value, path: str, minimum=None) -> float:
    """A number of the row-by-row parse, an integer as the float it names,
    that must be finite and at least ``minimum`` if given."""
    from spinturnstile import config as c

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise c.ConfigValidationError(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise c.ConfigValidationError(path, "must be finite")
    if minimum is not None and value < minimum:
        raise c.ConfigValidationError(path, f"must be >= {minimum}")
    return value


def _reference_vector(value, path: str) -> tuple:
    """A 3-vector of the row-by-row parse, each component read in turn."""
    from spinturnstile import config as c

    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise c.ConfigValidationError(path, "expected a 3-component array")
    return tuple(_reference_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _reference_model(obj, path: str, base_model=None):
    """A model section of the row-by-row parse: the package's keys and record
    fields, the fields of ``base_model`` (or the package's defaults) as
    defaults, each given field read by a reader of its own, then the
    derived exchange's rule."""
    from spinturnstile import config as c
    from spinturnstile.model import SpinModelParams

    readers = {"b_field_tesla": _reference_vector,
               "coulomb_u_per_s": functools.partial(_reference_float, minimum=0.0),
               "exchange_per_s": lambda value, path: None if value is None else _reference_float(value, path)}
    obj = c._as_object(obj, path, c._MODEL_FIELDS)
    values = {attr: readers.get(key, _reference_float)(obj[key], f"{path}.{key}") if key in obj
              else default if base_model is None else getattr(base_model, attr)
              for key, (attr, default, _) in c._MODEL_FIELDS.items()}
    if values["exchange"] is None and values["hopping"] != 0.0 and values["coulomb_u"] <= 0.0:
        raise c.ConfigValidationError(path, "coulomb_u must be positive to derive the exchange from hopping")
    return SpinModelParams(**values)


def _reference_setting(obj, path: str, default: ReferenceSetting, base_model) -> ReferenceSetting:
    from spinturnstile import config as c

    obj = c._as_object(obj, path, {"u_left", "u_right", "t_interact_s", "model"})
    u_left = _reference_lead(obj["u_left"], f"{path}.u_left") if "u_left" in obj else default.u_left
    u_right = _reference_lead(obj["u_right"], f"{path}.u_right") if "u_right" in obj else default.u_right
    t_interact = _reference_float(obj.get("t_interact_s", default.t_interact), f"{path}.t_interact_s", 0.0)
    model = _reference_model(obj["model"], f"{path}.model", base_model) if "model" in obj else None
    return ReferenceSetting(u_left, u_right, t_interact, model)


def reference_config(text: str):
    """The configuration of JSON ``text`` by the row-by-row parse: the
    package's readers for every section but the model and the settings, each
    model read field by field (:func:`_reference_model`), and each
    setting a :class:`ReferenceSetting` whose fields are read and checked in
    turn, every lead checking its own norm. Returns the package's ``RunConfig``
    with reference settings in place of its grids; raises the package's
    ``ConfigValidationError`` at the first bad field."""
    from spinturnstile import config as c
    from spinturnstile.model import TunnelParams

    root = c._as_object(json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t)), "", c._ROOT_FIELDS)
    model = _reference_model(root.get("model", {}), "model")
    tunnel = c._read(root, "tunnel", TunnelParams)
    run = c._read(root, "schedule")
    leads = c._read(root, "leads")
    setting = ReferenceSetting(_reference_lead(leads["u_left"], "leads.u_left"),
                               _reference_lead(leads["u_right"], "leads.u_right"), run.pop("t_interact"))
    run.update(c._read(root, "detection"))
    gate_state = c._read(root, "gate_state")
    experiment = c._read(root, "experiment", c.ExperimentSpec)
    threshold = c._read(root, "hierarchy_threshold")

    def settings(raw, path: str) -> tuple:
        if raw is None:
            return tuple(setting._replace(u_right=ReferenceLead(
                c._AXES[ax], setting.u_right.magnitude, reference_lead_norm(c._AXES[ax])))
                for ax in ("x", "y", "z"))
        if not isinstance(raw, list) or not raw:
            raise c.ConfigValidationError(f"{path}.settings", "expected a nonempty array")
        return tuple(_reference_setting(s, f"{path}.settings[{i}]", setting, model)
                     for i, s in enumerate(raw))

    run.update(c._read(root, "sweep"))
    run["sweep_settings"] = settings(run["sweep_settings"], "sweep")
    tomography = c._read(root, "tomography")
    tomography["settings"] = settings(tomography["settings"], "tomography")
    return c.RunConfig(model=model, tunnel=tunnel, setting=setting, gate_state=gate_state, experiment=experiment,
                       hierarchy_threshold=threshold, tomography=c.TomographySpec(**tomography), **run)


def _setting_dict(s) -> dict:
    from spinturnstile.config import _LEAD_FIELDS, _MODEL_FIELDS

    out = {
        "u_left": _section_dict(s.u_left, _LEAD_FIELDS),
        "u_right": _section_dict(s.u_right, _LEAD_FIELDS),
        "t_interact_s": s.t_interact,
    }
    if s.model is not None:
        out["model"] = _section_dict(s.model, _MODEL_FIELDS)
    return out


def resolved_dict(cfg) -> dict:
    """The resolved configuration of a :func:`reference_config` as a
    schema-shaped dict, built value by value from the section field tables:
    the package's form before it wrote ``config.resolved_json`` from
    templates. ``json_scalar`` of it is that text."""
    from spinturnstile.config import _LEAD_FIELDS, _MODEL_FIELDS, _ROOT_FIELDS

    gs: dict = {}
    if cfg.gate_state.preset is not None:
        gs["preset"] = cfg.gate_state.preset
    elif cfg.gate_state.theta_single is not None:
        gs["theta_single_spin"] = list(cfg.gate_state.theta_single)
    else:
        gs["theta_two_spin"] = list(cfg.gate_state.theta_two)
    return _section_dict(SimpleNamespace(**{
        **cfg._asdict(), "model": _section_dict(cfg.model, _MODEL_FIELDS), "gate_state": gs,
        "t_interact": cfg.setting.t_interact, "u_left": _section_dict(cfg.setting.u_left, _LEAD_FIELDS),
        "u_right": _section_dict(cfg.setting.u_right, _LEAD_FIELDS)}), _ROOT_FIELDS)


def setting_seed(master_seed: int, setting) -> int:
    """A setting's seed from its definition: the SHA-256 of
    ``json.dumps(payload, sort_keys=True)``, the model as its field values in
    declaration order, then ``SeedSequence`` of the master seed and the
    digest's first 8 bytes."""
    payload = {
        "u_left": list(setting.u_left),
        "u_right": list(setting.u_right),
        "t_interact": setting.t_interact,
    }
    if setting.model is not None:
        payload["model"] = [getattr(setting.model, f.name) for f in fields(setting.model)]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).digest()
    sub = int.from_bytes(digest[:8], "big")
    return int(np.random.SeedSequence([int(master_seed) & (2**63 - 1), sub]).generate_state(1)[0])
