"""Brute-force verifier in a truncated Fock space.

Diagonalizes the full (no rotating-wave approximation) qubit-oscillator
Hamiltonian

    H / omega = a'a + beta (a' + a) sigma_x + (omega0 / 2 omega) sigma_z

on C^2 x C^(ncut+1) once and propagates by phase multiplication in the
eigenbasis.  At omega0 = 0 sigma_x is conserved, so only the real
tridiagonal sector n + beta x is diagonalized; the other sector is its
parity image.  All two-qubit observables are reconstructed from
single-subsystem conditional maps, which are bilinear forms in the
eigenphases evaluated blockwise over the phase grid; the joint four-party
state is only materialized (as a vector) for the field-field separability
witness.  Nothing here references the closed forms: agreement between the
two routes is the correctness argument.

The truncation policy (default cutoff heuristic, thermal mixture cutoff
from the tail tolerance, cutoff-doubling convergence check) is a library
convention and is reported in all output metadata.

Qubit matrices are written in the sigma_x eigenbasis (up, down), matching
the two-qubit index convention of :mod:`degjc.model`.
"""

import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .entanglement import negativity, wootters_concurrences
from .model import (
    Coherent,
    ModelParams,
    Number,
    QubitBasis,
    QubitPairState,
    Thermal,
    Vacuum,
    bell_ket,
    validate_density_matrices,
)
from .specialfn import thermal_weights


class TruncationError(RuntimeError):
    """Truncated basis too small for the requested accuracy, or solver failure."""


@dataclass(frozen=True)
class TruncationSpec:
    """Fock cutoff (states 0..ncut) and acceptable truncated probability mass."""

    ncut: int
    tail_tol: float = 1e-10

    def __post_init__(self):
        if self.ncut < 1:
            raise ValueError(f"ncut must be >= 1, got {self.ncut!r}")
        if not (0 < self.tail_tol < 1):
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol!r}")

    def doubled(self):
        return TruncationSpec(2 * self.ncut, self.tail_tol)


@dataclass(frozen=True)
class SubsystemPropagator:
    """Eigendecomposition of one qubit-oscillator block.

    At omega0 = 0 the block splits into the sigma_x sectors n + beta x
    (rail up) and n - beta x = P (n + beta x) P (rail down), with parity
    P = diag((-1)^n): ``sector_modes`` is the real F x F eigenvector matrix
    V of the up sector, the down sector's is P V, and both share
    ``sector_energies``.  Otherwise ``sector_modes`` is the real 2F x 2F
    eigenvector matrix of the whole block.

    ``energies`` holds the dimensionless eigenvalues E/omega of the block
    and ``modes`` the matching orthonormal eigenvector matrix, so that
    U(w t) = modes exp(-i energies w t) modes'; ``modes`` is assembled on
    request and is not used for propagation.  ``eigensolver`` names the
    routine that diagonalized the sector: ``"dstevd"`` (LAPACK's
    tridiagonal divide and conquer) or ``"eigh"`` (numpy's dense solver).
    """

    params: ModelParams
    trunc: TruncationSpec
    sector_energies: np.ndarray
    sector_modes: np.ndarray
    eigensolver: str

    @property
    def split(self):
        """True when the two sigma_x sectors are stored as one F x F sector."""
        return self.sector_dim == self.fock_dim

    @property
    def sector_dim(self):
        """Dimension of the diagonalized sector: F at omega0 = 0, else 2F."""
        return self.sector_modes.shape[0]

    @property
    def energies(self):
        if self.split:
            return np.concatenate([self.sector_energies, self.sector_energies])
        return self.sector_energies

    @property
    def modes(self):
        if not self.split:
            return self.sector_modes
        f = self.fock_dim
        modes = np.zeros((2 * f, 2 * f))
        modes[:f, :f] = self.sector_modes
        modes[f:, f:] = _parity(f)[:, None] * self.sector_modes
        return modes

    @property
    def dim(self):
        return 2 * self.fock_dim

    @property
    def fock_dim(self):
        return self.trunc.ncut + 1


def _parity(f):
    """Diagonal of P = (-1)^(a'a) on F Fock states."""
    return 1.0 - 2.0 * (np.arange(f) % 2)


def _eigh(h, params):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise TruncationError(
            f"eigensolver failed for dim={h.shape[0]}, beta={params.beta:g}, "
            f"max|H|={np.max(np.abs(h)):.3e}: {exc}"
        ) from exc


@functools.cache
def _lapack_dstevd():
    """LAPACK ``dstevd`` of the OpenBLAS that numpy links its linear algebra
    against (ILP64, exported as ``scipy_dstevd_64_``), looked up once; None
    where numpy uses another LAPACK, such as MKL or a system library."""
    try:
        from numpy.linalg import _umath_linalg

        routine = ctypes.CDLL(_umath_linalg.__file__).scipy_dstevd_64_
    except (ImportError, OSError, AttributeError):
        return None
    # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO by reference
    # (64-bit integers), then the hidden length of the JOBZ string
    i64, buf = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    routine.argtypes = [ctypes.c_char_p, i64, buf, buf, buf, i64, buf, i64, buf, i64, i64,
                        ctypes.c_size_t]
    routine.restype = None
    return routine


def _tridiagonal_eigh(diag, off, params):
    """Eigenvalues, C-contiguous eigenvectors and solver name of the real
    symmetric tridiagonal matrix with diagonal ``diag`` and off-diagonal
    ``off``.

    ``dstevd`` (Cuppen, Numer. Math. 36, 177 (1981); Gu & Eisenstat, SIAM
    J. Matrix Anal. Appl. 16, 172 (1995)) works on the two diagonals and
    skips the O(F^3) Householder reduction that ``eigh`` applies to the
    dense matrix; for numpy's OpenBLAS both give the same bits.  Without
    the routine the dense matrix goes to ``eigh``.
    """
    stevd = _lapack_dstevd()
    if stevd is None:
        energies, modes = _eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), params)
        return energies, modes, "eigh"
    n = diag.size
    d = np.array(diag, dtype=float)  # overwritten by the eigenvalues
    e = np.zeros(n)  # off-diagonal, destroyed; one spare entry
    e[:-1] = off
    z = np.empty((n, n), order="F")
    lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    info = ctypes.c_int64()

    def ref(value):
        return ctypes.byref(ctypes.c_int64(value))

    stevd(b"V", ref(n), d.ctypes, e.ctypes, z.ctypes, ref(n), work.ctypes, ref(lwork),
          iwork.ctypes, ref(liwork), ctypes.byref(info), 1)
    if info.value:
        raise TruncationError(
            f"eigensolver failed for dim={n}, beta={params.beta:g}, "
            f"max|H|={np.max(np.abs(np.concatenate([diag, off]))):.3e}: dstevd info={info.value}"
        )
    return d, np.ascontiguousarray(z), "dstevd"


def _single_sector(params, trunc):
    """Propagator from the dense real 2F x 2F block, valid for any omega0."""
    f = trunc.ncut + 1
    n = np.arange(f, dtype=float)
    ad_a = np.diag(n)
    x_op = np.diag(np.sqrt(n[1:]), 1) + np.diag(np.sqrt(n[1:]), -1)
    sx = np.diag([1.0, -1.0])  # sigma_x in its own eigenbasis
    sz = np.array([[0.0, 1.0], [1.0, 0.0]])  # sigma_z flips up <-> down
    h = (
        np.kron(np.eye(2), ad_a)
        + params.beta * np.kron(sx, x_op)
        + (params.omega0 / (2.0 * params.omega)) * np.kron(sz, np.eye(f))
    )
    energies, modes = _eigh(h, params)
    return SubsystemPropagator(params, trunc, energies, modes, "eigh")


def _sector_dim(params, ncut):
    return (ncut + 1) * (1 if params.degenerate else 2)


def _eigensolve_bytes(params, ncut):
    """Peak bytes of :func:`build_hamiltonian`: the real d x d sector with
    its construction temporaries, the eigenvectors and LAPACK's workspace,
    about six real d x d arrays (``dstevd`` needs three)."""
    d = _sector_dim(params, ncut)
    return 6 * 8 * d * d


def _trace_bytes(params, field, trunc, check_convergence=True):
    """Peak bytes of :func:`concurrence_trace`, from (ncut, K, omega0) alone.

    Each run holds the eigenvectors and the :class:`_MapKernel` factors:
    at omega0 = 0 one real rail Gram matrix, one field Gram matrix and
    their product, all d x d; on a single 2F sector three rail and three
    field Gram matrices plus the product.  Field factors are complex only
    for a coherent amplitude off the real axis.  The K mixture components
    add a few d x K arrays and the phase blocks a few times
    ``_PHASE_BLOCK_BYTES``.  The doubled-cutoff re-run is usually the
    larger of the two runs.
    """
    word = 16 if isinstance(field, Coherent) and field.alpha0.imag != 0.0 else 8
    peak = 0
    for spec in (trunc, trunc.doubled()) if check_convergence else (trunc,):
        d = _sector_dim(params, spec.ncut)
        k = 1
        if isinstance(field, Thermal):
            k += min(thermal_component_count(field.nbar, spec.tail_tol), spec.ncut)
        grams = (8 + 2 * word) if params.degenerate else (3 * 8 + 4 * word)
        kernel = (8 + grams) * d * d + 5 * word * d * k + 4 * _PHASE_BLOCK_BYTES
        peak = max(peak, _eigensolve_bytes(params, spec.ncut), kernel)
    return peak


def _require_memory(nbytes, what):
    """Raise :class:`TruncationError` before allocating ``nbytes`` beyond
    the machine's physical memory."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > limit:
        raise TruncationError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of physical memory; lower ncut"
        )


def build_hamiltonian(params, trunc):
    """Subsystem Hamiltonian, eigendecomposed once.

    At omega0 = 0 only the real tridiagonal up sector n + beta x is
    diagonalized, by :func:`_tridiagonal_eigh`; otherwise the whole real
    2F x 2F block.  Raises :class:`TruncationError` before allocating when
    the eigensolve would not fit in physical memory.
    """
    _require_memory(_eigensolve_bytes(params, trunc.ncut), f"eigensolve at ncut={trunc.ncut}")
    if not params.degenerate:
        return _single_sector(params, trunc)
    n = np.arange(trunc.ncut + 1, dtype=float)
    return SubsystemPropagator(
        params, trunc, *_tridiagonal_eigh(n, params.beta * np.sqrt(n[1:]), params)
    )


def _dot(a, b):
    """a @ b; a real ``a`` times a complex ``b`` runs as one real product
    on the (re, im) pairs of ``b`` instead of promoting ``a`` to complex."""
    if np.isrealobj(a) and np.iscomplexobj(b):
        pairs = np.ascontiguousarray(b, dtype=complex).reshape(b.shape[0], -1).view(float)
        return (a @ pairs).view(complex).reshape((a.shape[0],) + b.shape[1:])
    return a @ b


def _finite_phases(omega_ts, ndim):
    """``omega_ts`` as a float array; ValueError unless it has ``ndim``
    dimensions (0 for one phase, 1 for a grid) and every phase is finite."""
    omega_ts = np.asarray(omega_ts, dtype=float)
    if omega_ts.ndim != ndim:
        what = "a one-dimensional grid" if ndim else "one number"
        raise ValueError(f"phase w t must be {what}, got shape {omega_ts.shape}")
    if not np.all(np.isfinite(omega_ts)):
        raise ValueError(f"phases w t must be finite, got {omega_ts[~np.isfinite(omega_ts)]}")
    return omega_ts


def propagate_state(prop, state, omega_t):
    """Apply U(w t) = V exp(-i E w t) V' to a subsystem state vector."""
    _finite_phases(omega_t, 0)
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != prop.dim:
        raise ValueError(f"state dimension {state.shape[0]} != propagator dimension {prop.dim}")
    v = prop.sector_modes
    phases = np.exp(-1j * prop.sector_energies * omega_t)
    psi = state.reshape(prop.dim, -1)
    if not prop.split:
        return _dot(v, phases[:, None] * _dot(v.T, psi)).reshape(state.shape)
    # both rails in the up sector's eigenbasis: rail down is seen through P
    f, m = prop.fock_dim, psi.shape[1]
    p = _parity(f)[:, None]
    rails = np.hstack([psi[:f], p * psi[f:]])
    out = _dot(v, phases[:, None] * _dot(v.T, rails))
    return np.vstack([out[:, :m], p * out[:, m:]]).reshape(state.shape)


def coherent_fock_vector(alpha, ncut):
    """Truncated Fock expansion of |alpha>; returns (vector, lost mass)."""
    alpha = complex(alpha)
    c = np.empty(ncut + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(ncut):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1)
    return c, max(0.0, 1.0 - float(np.vdot(c, c).real))


def thermal_component_count(nbar, tail_tol):
    """Smallest K with thermal mass beyond K at most tail_tol."""
    if nbar == 0.0:
        return 0
    r = nbar / (1.0 + nbar)
    k = max(0, math.ceil(math.log(tail_tol) / math.log(r)) - 1)
    while r ** (k + 1) > tail_tol:
        k += 1
    return k


def field_components(field, trunc):
    """Decompose a field state into weighted pure Fock-space vectors.

    Returns ``(weights, vectors, tail)`` with ``vectors`` of shape
    (ncut+1, K): coherent/number/vacuum give a single column, thermal
    states a Fock-diagonal mixture truncated at the tail tolerance.
    """
    f = trunc.ncut + 1
    if isinstance(field, Vacuum):
        v = np.zeros((f, 1), dtype=complex)
        v[0, 0] = 1.0
        return np.array([1.0]), v, 0.0
    if isinstance(field, Number):
        if field.n > trunc.ncut:
            raise TruncationError(f"Fock index {field.n} exceeds cutoff {trunc.ncut}")
        v = np.zeros((f, 1), dtype=complex)
        v[field.n, 0] = 1.0
        return np.array([1.0]), v, 0.0
    if isinstance(field, Coherent):
        c, tail = coherent_fock_vector(field.alpha0, trunc.ncut)
        if tail > trunc.tail_tol:
            raise TruncationError(
                f"coherent state |alpha|={abs(field.alpha0):g} loses mass {tail:.3e} "
                f"at ncut={trunc.ncut} (tolerance {trunc.tail_tol:g})"
            )
        return np.array([1.0]), c[:, None], tail
    if isinstance(field, Thermal):
        k = min(thermal_component_count(field.nbar, trunc.tail_tol), trunc.ncut)
        weights, tail = thermal_weights(field.nbar, k)
        if tail > trunc.tail_tol:
            raise TruncationError(
                f"thermal mixture nbar={field.nbar:g} has tail {tail:.3e} at "
                f"ncut={trunc.ncut} (tolerance {trunc.tail_tol:g})"
            )
        vecs = np.zeros((f, k + 1), dtype=complex)
        vecs[np.arange(k + 1), np.arange(k + 1)] = 1.0
        return weights, vecs, tail
    raise TypeError(f"unsupported field class: {field!r}")


@dataclass(frozen=True)
class SubsystemConditionalMap:
    """The four 2x2 qubit operators M_ik(t) = Tr_field[U (|i><k| x F) U'].

    ``ops[i, k]`` is the 2x2 matrix M_ik; M_uu and M_dd are Hermitian with
    trace equal to the (truncated) field norm, and M_ud = M_du'.
    """

    ops: np.ndarray
    tail_mass: float
    omega_t: float

    def op(self, i, k):
        return self.ops[i, k]


# Phase points per block of the bilinear map evaluation: one block holds
# a (sector dim x points) complex phase matrix of at most this many bytes,
# and at most this many bytes of the per-point stacks of the two-qubit
# reduction and Wootters, which take up to _POINT_BYTES per point.
_PHASE_BLOCK_BYTES = 1 << 23
_POINT_BYTES = 4096

# (i, k, p, q) entries evaluated on a single 2F sector; the rest of the 16
# follow from M_ki = M_ik'.
_SINGLE_SECTOR_ENTRIES = tuple(
    (i, k, p, q) for i, k in ((0, 0), (0, 1), (1, 1)) for p in (0, 1) for q in (0, 1)
    if i != k or p <= q
)


def _unit_rows(vecs):
    """Rows j with column c of ``vecs`` the unit Fock vector e_j, one per
    column, or None when some column is not a unit vector."""
    rows = np.argmax(vecs != 0, axis=0)
    if np.count_nonzero(vecs) == vecs.shape[1] and np.all(vecs[rows, np.arange(rows.size)] == 1):
        return rows
    return None


class _MapKernel:
    """Conditional maps of one field on any phase grid.

    With eigenphases phi_a(t) = exp(-i E_a w t), rail-p rows R_p of the
    eigenvector matrix and field overlaps Y_i = R_i' C of the mixture
    components C (weights W),

        M_ik(t)[p, q] = sum_ab phi_a phi_b* S^{ik,pq}_ab,
        S^{ik,pq} = (R_p' R_q) o (Y_i W Y_k^H).

    The factors are built once per eigensolve; a grid is evaluated in
    blocks of ``block`` points, one matrix product per entry and block.
    In the sigma_x sectors (omega0 = 0) each rail stays in its sector, so
    M_uu and M_dd are the constant field norm on their own rail and only
    M_ud[up, down] needs the bilinear form, with R_u = V and R_d = P V.
    Where every mixture component is a unit Fock vector e_j (vacuum,
    number and thermal fields) the overlaps Y are rows j of R, sliced
    rather than multiplied.
    """

    def __init__(self, prop, field, trunc):
        weights, vecs, self.tail = field_components(field, trunc)
        if not np.any(vecs.imag):
            vecs = vecs.real
        rows = _unit_rows(vecs)
        v = prop.sector_modes
        self.energies = prop.sector_energies
        self.block = max(1, _PHASE_BLOCK_BYTES // max(16 * self.energies.size, _POINT_BYTES))
        self.const = np.zeros((2, 2, 2, 2), dtype=complex)
        if prop.split:
            p = _parity(prop.fock_dim)
            norm = float(weights @ np.sum(np.abs(vecs) ** 2, axis=0))
            self.const[0, 0, 0, 0] = self.const[1, 1, 1, 1] = norm
            if rows is None:
                y_up, y_down = _dot(v.T, vecs), _dot(v.T, p[:, None] * vecs)
            else:
                y_up = np.take(v.T, rows, axis=1)
                y_down = y_up * p[rows]
            self.terms = [((0, 1, 0, 1), (v.T * p) @ v, (y_up * weights) @ y_down.conj().T)]
            return
        f = prop.fock_dim
        rails = (v[:f], v[f:])
        y = [_dot(r.T, vecs) if rows is None else np.take(r.T, rows, axis=1) for r in rails]
        rail_gram, field_gram = {}, {}
        for a in (0, 1):
            for b in (a, 1):
                rail_gram[a, b] = rails[a].T @ rails[b]
                field_gram[a, b] = (y[a] * weights) @ y[b].conj().T
        rail_gram[1, 0] = rail_gram[0, 1].T
        self.terms = [
            ((i, k, p, q), rail_gram[p, q], field_gram[i, k])
            for i, k, p, q in _SINGLE_SECTOR_ENTRIES
        ]

    def blocks(self, omega_ts):
        """(n, 2, 2, 2, 2) stacks ops[:, i, k, p, q] = M_ik[p, q], one per
        block of at most ``block`` points."""
        for start in range(0, len(omega_ts), self.block):
            yield self._block_ops(omega_ts[start:start + self.block])

    def ops(self, omega_ts):
        """Per-point (2, 2, 2, 2) arrays ops[i, k, p, q] = M_ik[p, q]."""
        for block in self.blocks(omega_ts):
            yield from block

    def _block_ops(self, omega_ts):
        phases = np.exp(-1j * np.outer(self.energies, omega_ts))
        right = phases.conj()
        ops = np.repeat(self.const[None], len(omega_ts), axis=0)
        for (i, k, p, q), rail_gram, field_gram in self.terms:
            ops[:, i, k, p, q] += np.sum(phases * _dot(rail_gram * field_gram, right), axis=0)
        for i in (0, 1):
            ops[:, i, i, 1, 0] = ops[:, i, i, 0, 1].conj()
        ops[:, 1, 0] = ops[:, 0, 1].conj().swapaxes(-1, -2)
        return ops


def conditional_maps(prop, field, trunc, omega_t):
    """Conditional maps of one subsystem for a given initial field."""
    omega_t = float(_finite_phases(omega_t, 0))
    kernel = _MapKernel(prop, field, trunc)
    (ops,) = kernel.ops(np.array([omega_t]))
    return SubsystemConditionalMap(ops=ops, tail_mass=kernel.tail, omega_t=omega_t)


def two_qubit_reduced(map_a, map_b, initial):
    """Reduced two-qubit state Q(t) from per-subsystem conditional maps.

    Valid because the two subsystem Hamiltonians commute, so
    Q(t) = sum rho[(ij),(kl)] M^A_ik x M^B_jl.  ``initial`` must be given
    in the sigma_x basis and describe qubits that are uncorrelated with
    the fields.  The truncated-mixture trace deficit (bounded by the tail
    masses) is renormalized away; tail masses stay reported on the maps.
    This is the one-point case of :func:`_reduced_stack`.
    """
    q = _reduced_stack(map_a.ops[None], map_b.ops[None], initial)
    return QubitPairState(q[0], QubitBasis.SIGMA_X, validate=False)


def _reduced_stack(ops_a, ops_b, initial):
    """Validated (n, 4, 4) stack of Q(t) from (n, 2, 2, 2, 2) stacks of
    conditional maps of subsystems A and B (see :func:`two_qubit_reduced`)."""
    if initial.basis is not QubitBasis.SIGMA_X:
        raise ValueError("initial two-qubit state must be expressed in the sigma_x basis")
    n = len(ops_a)
    # Q[(pr), (qs)] = sum A[(ik), (pr)] rho[(ik), (jl)] B[(jl), (qs)]
    rho = initial.rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    q = ops_a.reshape(n, 4, 4).swapaxes(-1, -2) @ rho @ ops_b.reshape(n, 4, 4)
    q = q.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    q = 0.5 * (q + q.conj().swapaxes(-1, -2))
    q /= np.trace(q, axis1=1, axis2=2).real[:, None, None]
    validate_density_matrices(q)
    return q


def _evolved_rails(prop, field, trunc, omega_t):
    """Evolved rail components ``rails[p, r, :]`` = <r|U(w t)|p, phi> of a
    pure field phi, as a (2, 2, F) array: initial rail p, qubit out r."""
    if isinstance(field, Thermal):
        raise ValueError("four-party pure-state construction requires a pure field")
    _, vecs, _ = field_components(field, trunc)
    f = prop.fock_dim
    psi0 = np.zeros((prop.dim, 2), dtype=complex)
    psi0[:f, 0] = vecs[:, 0]
    psi0[f:, 1] = vecs[:, 0]
    evolved = propagate_state(prop, psi0, omega_t)  # columns: rails up, down
    return evolved.T.reshape(2, 2, f)


def field_field_reduced(prop, bell, field, trunc, omega_t):
    """Reduced density matrix of the two fields, with both qubits traced out.

    The initial state is the Bell state ``bell`` with identical pure fields
    on both subsystems.  Returns the dense (F^2, F^2) matrix,
    trace-normalized.  This is the reference that tests compare
    :func:`field_field_witness` against; it costs O(F^4) memory and no
    scenario calls it.
    """
    rails = _evolved_rails(prop, field, trunc, omega_t)
    c2 = bell_ket(bell, QubitBasis.SIGMA_X).astype(complex).reshape(2, 2)
    psi = np.einsum("pq,prm,qsn->rmsn", c2, rails, rails, optimize=True)
    f = prop.fock_dim
    rho = np.einsum("rmsn,rMsN->mnMN", psi, psi.conj(), optimize=True).reshape(f * f, f * f)
    rho /= np.trace(rho).real
    return rho


@dataclass(frozen=True)
class FieldFieldWitness:
    """Field-field negativity and single-party purities at one phase point.

    ``negativity`` is that of the two fields' reduced state with both
    qubits traced out; ``qubit_purity`` and ``field_purity`` are Tr[rho^2]
    of one qubit and of one field.  ``support_dim`` is the dimension k of
    the local support each field was written on (at most 4, and 2 at
    omega0 = 0), so the negativity came from a k^2 x k^2 matrix.  For a
    Bell input the qubit purity stays at 1/2 exactly; the field purity is
    1/2 + |<b(t)|-b(t)>|^2 / 2 for vacuum input and approaches 1/2 as the
    branches become orthogonal.
    """

    negativity: float
    qubit_purity: float
    field_purity: float
    support_dim: int


def field_field_witness(prop, bell, field, trunc, omega_t):
    """Separability witness of the evolved four-party pure state.

    The initial state is the Bell state ``bell`` with identical pure fields
    on both subsystems.  Each field's state lies in the span of the evolved
    rail vectors <r|U|p, phi>; at omega0 = 0 the two with r != p are exactly
    zero and are left out.  The reduced QR factorization rails = Q R gives
    an isometry Q onto a space containing that span and the coordinates R,
    so the state is rewritten on a (2, k, 2, k) tensor.  Negativity and
    purities do not change under local isometries (Peres, PRL 77, 1413
    (1996)), so the values are exact and need no rank threshold; the
    propagation costs O(F) memory beyond the propagator.
    """
    rails = _evolved_rails(prop, field, trunc, omega_t).reshape(4, -1)
    used = np.flatnonzero(np.any(rails != 0.0, axis=1))
    _, r = np.linalg.qr(rails[used].T)
    k = r.shape[0]
    coords = np.zeros((4, k), dtype=complex)
    coords[used] = r.T
    # psi[(r, i), (s, j)] = sum_pq c[p, q] a[p, (r, i)] a[q, (s, j)]
    a = coords.reshape(2, 2 * k)
    c2 = bell_ket(bell, QubitBasis.SIGMA_X).astype(complex).reshape(2, 2)
    psi = (a.T @ c2 @ a).reshape(2, k, 2, k)
    psi /= np.linalg.norm(psi)
    fields = psi.transpose(1, 3, 0, 2).reshape(k * k, 4)
    qubit = psi.reshape(2, 2 * k * k)
    field_a = psi.transpose(1, 0, 2, 3).reshape(k, 4 * k)
    return FieldFieldWitness(
        negativity=negativity(fields @ fields.conj().T, (k, k)),
        qubit_purity=_purity(qubit),
        field_purity=_purity(field_a),
        support_dim=k,
    )


def _purity(x):
    """Tr[rho^2] of rho = X X'."""
    rho = x @ x.conj().T
    return float(np.sum(np.abs(rho) ** 2))


def low_spectrum(prop, k):
    """Lowest k dimensionless eigenvalues shifted so the ground level is 0."""
    e = np.sort(prop.energies)[:k]
    return e - e[0]


def default_ncut(field, beta, tail_tol=1e-10):
    """Starting cutoff: reach of the displaced dynamics plus margin.

    ceil((|alpha0| + 2 beta + 3 sqrt(nbar) + sqrt(N))^2) + 20, raised for
    thermal states so the mixture tail fits the tolerance.  The
    cutoff-doubling convergence check is the actual contract; this is only
    the initial guess.
    """
    a0 = abs(field.alpha0) if isinstance(field, Coherent) else 0.0
    nb = field.nbar if isinstance(field, Thermal) else 0.0
    nn = field.n if isinstance(field, Number) else 0
    ncut = math.ceil((a0 + 2.0 * beta + 3.0 * math.sqrt(nb) + math.sqrt(nn)) ** 2) + 20
    if nb > 0:
        ncut = max(ncut, thermal_component_count(nb, tail_tol) + 30)
    return max(ncut, 1)


@dataclass(frozen=True)
class OracleTrace:
    """Concurrence trace with the truncation evidence that backs it.

    ``doubling_error`` is the largest entrywise disagreement between the
    reconstructed two-qubit matrices at ncut and 2*ncut on the checked
    subgrid (an extraction-noise-free measure of truncation convergence).
    ``eigensolver`` (``"dstevd"`` or ``"eigh"``) and ``sector_dim`` say how
    the run at ``ncut`` was diagonalized; no CSV writes them.
    """

    omega_ts: np.ndarray
    values: np.ndarray
    ncut: int
    tail_mass: float
    doubling_error: float
    doubling_points: int
    eigensolver: str
    sector_dim: int


def _reconstruct(params, field, initial, omega_ts, trunc):
    """Concurrences and two-qubit matrices on ``omega_ts`` at one cutoff,
    one stacked reduction and Wootters evaluation per phase block; also
    returns the tail mass and the eigensolver's name and sector dimension
    (not the propagator, so the doubled run does not hold it)."""
    prop = build_hamiltonian(params, trunc)
    kernel = _MapKernel(prop, field, trunc)
    values = np.empty(len(omega_ts))
    qmats = np.empty((len(omega_ts), 4, 4), dtype=complex)
    start = 0
    for ops in kernel.blocks(omega_ts):
        block = slice(start, start + len(ops))
        qmats[block] = _reduced_stack(ops, ops, initial)
        values[block], _ = wootters_concurrences(qmats[block], QubitBasis.SIGMA_X)
        start = block.stop
    return values, qmats, kernel.tail, (prop.eigensolver, prop.sector_dim)


def concurrence_trace(
    params,
    field,
    initial,
    omega_ts,
    trunc=None,
    check_convergence=True,
    convergence_tol=1e-8,
    max_doubling_points=9,
):
    """Oracle concurrence of ``initial`` (sigma_x basis) under identical fields.

    Runs at the requested cutoff and, unless disabled, re-runs a subsample
    of the grid at twice the cutoff; entrywise matrix disagreement beyond
    ``convergence_tol`` raises :class:`TruncationError`, and so does a run
    whose estimated peak memory exceeds physical memory, before it
    allocates.  A non-finite phase raises ValueError before any
    eigensolve; an empty grid gives an empty trace.
    """
    omega_ts = _finite_phases(omega_ts, 1)
    if trunc is None:
        trunc = TruncationSpec(default_ncut(field, params.beta))
    _require_memory(
        _trace_bytes(params, field, trunc, check_convergence),
        f"concurrence trace at ncut={trunc.ncut}",
    )
    values, qmats, tail, (solver, sector_dim) = _reconstruct(
        params, field, initial, omega_ts, trunc)
    doubling_error = 0.0
    n_check = 0
    if check_convergence and len(omega_ts):
        n_check = min(len(omega_ts), max_doubling_points)
        idx = np.unique(np.round(np.linspace(0, len(omega_ts) - 1, n_check)).astype(int))
        _, qcheck, _, _ = _reconstruct(params, field, initial, omega_ts[idx], trunc.doubled())
        doubling_error = float(np.max(np.abs(qcheck - qmats[idx])))
        if doubling_error > convergence_tol:
            raise TruncationError(
                f"cutoff-doubling disagreement {doubling_error:.3e} exceeds "
                f"{convergence_tol:g} (ncut={trunc.ncut}); raise ncut"
            )
    return OracleTrace(
        omega_ts=omega_ts,
        values=values,
        ncut=trunc.ncut,
        tail_mass=tail,
        doubling_error=doubling_error,
        doubling_points=n_check,
        eigensolver=solver,
        sector_dim=sector_dim,
    )
