"""Brute-force verifier in a truncated Fock space.

Diagonalizes the full (no rotating-wave approximation) qubit-oscillator
Hamiltonian

    H / omega = a'a + beta (a' + a) sigma_x + (omega0 / 2) sigma_z

on C^2 x C^(ncut+1) once and propagates by phase multiplication in the
eigenbasis.  H conserves the parity (-1)^(a'a) sigma_z at every omega0
(Casanova et al., PRL 105, 263603 (2010); Braak, PRL 107, 100401 (2011)),
so it splits into two real tridiagonal F x F chains with diagonal
n +- (omega0 / 2) (-1)^n and off-diagonal beta sqrt(n); at
omega0 = 0 both are the sigma_x sector n + beta x and one is solved.  All
two-qubit observables are reconstructed from single-subsystem conditional
maps, which are bilinear forms in the eigenphases evaluated blockwise over
the phase grid; the joint four-party state is only materialized (as a
vector) for the field-field separability witness.  Nothing here
references the closed forms: agreement between the two routes is the
correctness argument.

The truncation policy (default cutoff heuristic, thermal mixture cutoff
from the tail tolerance, cutoff-doubling convergence check) is a library
convention and is reported in the metadata of every output it checked.

Qubit matrices are written in the sigma_x eigenbasis (up, down), matching
the two-qubit index convention of :mod:`degjc.model`.
"""

import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .entanglement import negativity, wootters_concurrences
from .model import (
    Coherent,
    Number,
    QubitBasis,
    Thermal,
    Vacuum,
    bell_ket,
    validate_density_matrices,
)
from . import specialfn
from .specialfn import _amplitude, _tridiagonal_eigh, thermal_weights

_TAIL_TOL = 1e-10  # default truncated probability mass of a field's decomposition
_CONVERGENCE_TOL = 1e-8  # default cutoff-doubling and phase-roundoff tolerance


class TruncationError(RuntimeError):
    """Truncated basis too small for the requested accuracy, or solver failure."""


@dataclass(frozen=True)
class TruncationSpec:
    """Fock cutoff (states 0..ncut) and acceptable truncated probability mass."""

    ncut: int
    tail_tol: float = _TAIL_TOL

    def __post_init__(self):
        if isinstance(self.ncut, bool) or not isinstance(self.ncut, numbers.Integral):
            raise ValueError(f"ncut must be an integer, got {self.ncut!r}")
        if self.ncut < 1:
            raise ValueError(f"ncut must be >= 1, got {self.ncut!r}")
        if not (0 < self.tail_tol < 1):
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol!r}")

    def doubled(self):
        """The cutoff-doubling re-run's spec: twice the cutoff and a hundredth
        of the tail mass (kept above 0), so it also resolves a thermal
        mixture's truncation."""
        return TruncationSpec(2 * self.ncut, max(self.tail_tol / 100, math.ulp(0.0)))


@dataclass(frozen=True)
class SubsystemPropagator:
    """Eigendecomposition of one qubit-oscillator block as two parity chains.

    In rail coordinates (u, d) of the sigma_x basis and with P =
    diag((-1)^n), the chain coordinate c_s = u + s P d of parity s = +1, -1
    evolves under the real tridiagonal F x F chain n + s (omega0 / 2) P +
    beta x.  ``chains`` holds (energies, modes) of chain s = +1, then
    s = -1, ``modes`` being the real eigenvector matrix V_s; the eigenvector
    (s, a) of the block has rail-up rows V_s / sqrt(2) and rail-down rows
    s P V_s / sqrt(2).  At omega0 = 0 both chains are the sigma_x sector
    n + beta x, solved once and held once: ``chains`` names the same pair
    twice.

    ``energies`` holds the dimensionless eigenvalues E/omega of the block,
    chain s = +1 first.  ``eigensolver`` names the routine that
    diagonalized the chains: ``"dstevd"`` (LAPACK's tridiagonal divide and
    conquer) or ``"eigh"`` (numpy's dense solver).
    """

    trunc: TruncationSpec
    chains: tuple
    eigensolver: str

    @property
    def distinct_chains(self):
        """The chains, each once: one at omega0 = 0, else both."""
        return self.chains[:1] if self.chains[0] is self.chains[1] else self.chains

    @property
    def energies(self):
        return np.concatenate([energies for energies, _ in self.chains])

    @property
    def dim(self):
        return 2 * self.fock_dim

    @property
    def fock_dim(self):
        return self.trunc.ncut + 1


def _parity(f):
    """Diagonal of P = (-1)^(a'a) on F Fock states."""
    return 1.0 - 2.0 * (np.arange(f) % 2)


def _eigensolve_bytes(params, ncut):
    """Peak bytes of :func:`build_hamiltonian`: two real F x F arrays for
    ``dstevd`` (its eigenvectors, then their C-order copy once the F x F
    workspace is freed) or five for ``eigh``, one more at omega0 != 0 for
    the first chain's eigenvectors, plus length-F vectors and some kB."""
    f = ncut + 1
    solve = 2 if specialfn._lapack_dstevd() is not None else 5
    return 8 * f * ((solve + (not params.degenerate)) * f + 64) + (1 << 15)


def _run_bytes(params, field, spec):
    """Peak bytes of one run of :func:`concurrence_trace` at ``spec``, from
    (ncut, K, omega0) alone.

    A run holds the eigenvectors of its chains and the
    :class:`_MapKernel` factors: at omega0 = 0 the one factor S and a chunk
    of rows of 2 E (at most a quarter of an F x F array; the estimate
    allows half); otherwise four real rail Gram matrices (of which E_01,
    O_01 and their sum coexist while the cross pair is formed), the field
    Grams (seven for a unit-Fock field, ten for a coherent one, twelve with
    the conjugate copies where its amplitude is off the real axis and the
    field factors are complex) and one product.
    The K mixture components add a few F x K arrays, vectors of length F a
    few dozen more, and the phase blocks a few times ``_PHASE_BLOCK_BYTES``.
    """
    word = 16 if isinstance(field, Coherent) and field.alpha0.imag != 0.0 else 8
    grams = 7 if not isinstance(field, Coherent) else 12 if word == 16 else 10
    f = spec.ncut + 1
    k = 1
    if isinstance(field, Thermal):
        k += min(thermal_component_count(field.nbar, spec.tail_tol), spec.ncut)
    factors, overlaps = (12 + word, 3) if params.degenerate else (48 + (grams + 1) * word, 9)
    kernel = factors * f * f + (overlaps * k + 32) * word * f + 4 * _PHASE_BLOCK_BYTES
    return max(_eigensolve_bytes(params, spec.ncut), kernel)


def _trace_bytes(params, field, trunc):
    """Peak bytes of :func:`concurrence_trace`: its run at ``trunc`` or the
    doubled-cutoff re-run, usually the larger."""
    return max(_run_bytes(params, field, spec) for spec in (trunc, trunc.doubled()))


def _require_memory(nbytes, what):
    """Raise :class:`TruncationError` before allocating ``nbytes`` beyond
    the machine's physical memory."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > limit:
        gib = nbytes / 2**30 if nbytes < 2**1000 else math.inf
        raise TruncationError(
            f"{what} needs about {gib:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of physical memory"
        )


def build_hamiltonian(params, trunc):
    """Subsystem Hamiltonian, eigendecomposed once as its parity chains.

    Each chain goes to :func:`_tridiagonal_eigh`; at omega0 = 0 the chains
    coincide and one is solved.  Raises :class:`TruncationError` before
    allocating when the eigensolve would not fit in physical memory.
    """
    _require_memory(_eigensolve_bytes(params, trunc.ncut), f"eigensolve at ncut={trunc.ncut}")
    n = np.arange(trunc.ncut + 1, dtype=float)
    shift = (params.omega0 / 2.0) * _parity(n.size)
    diagonals = [n] if params.degenerate else [n + shift, n - shift]
    off = params.beta * np.sqrt(n[1:])
    try:
        solved = [_tridiagonal_eigh(d, off) for d in diagonals]
    except np.linalg.LinAlgError as exc:
        raise TruncationError(
            f"eigensolver failed for dim={n.size}, beta={params.beta:g}, "
            f"max|H|={np.max(np.abs(np.concatenate(diagonals + [off]))):.3e}: {exc}") from exc
    chains = [(energies, modes) for energies, modes, _ in solved]
    return SubsystemPropagator(trunc, (chains[0], chains[-1]), solved[0][2])


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
    """Apply U(w t) to a subsystem state vector (or matrix of columns).

    Chain s evolves the rails [u, P d] by V_s exp(-i E_s w t) V_s', which
    gives its coordinate u + s P d, and the rails are recombined with an
    exact 1/2, so at omega0 = 0 a one-rail state stays exactly on its rail.
    """
    _finite_phases(omega_t, 0)
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != prop.dim:
        raise ValueError(f"state dimension {state.shape[0]} != propagator dimension {prop.dim}")
    f = prop.fock_dim
    psi = state.reshape(prop.dim, -1)
    m = psi.shape[1]
    p = _parity(f)[:, None]
    rails = np.hstack([psi[:f], p * psi[f:]])
    evolved = [
        _dot(v, np.exp(-1j * energies * omega_t)[:, None] * _dot(v.T, rails))
        for energies, v in prop.distinct_chains
    ]
    even = evolved[0][:, :m] + evolved[0][:, m:]
    odd = evolved[-1][:, :m] - evolved[-1][:, m:]
    return np.vstack([0.5 * (even + odd), p * (0.5 * (even - odd))]).reshape(state.shape)


def coherent_fock_vector(alpha, ncut):
    """Truncated Fock expansion of |alpha>; returns (vector, lost mass).
    ValueError for an ``alpha`` that is not finite or not below 1e154."""
    alpha, norm2 = _amplitude(alpha)
    c = np.empty(ncut + 1, dtype=complex)
    c[0] = math.exp(-0.5 * norm2)
    for n in range(ncut):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1)
    return c, max(0.0, 1.0 - float(np.vdot(c, c).real))


def thermal_component_count(nbar, tail_tol):
    """Smallest K with thermal mass beyond K at most tail_tol."""
    if nbar == 0.0:
        return 0
    r = nbar / (1.0 + nbar)
    if r == 1.0:
        raise TruncationError(f"thermal mixture nbar={nbar:g} cannot be truncated in doubles")
    k = max(0, math.ceil(math.log(tail_tol) / math.log(r)) - 1)
    while r ** (k + 1) > tail_tol:
        k += 1
    return k


def field_components(field, trunc):
    """Decompose a field state into weighted pure Fock-space vectors.

    Returns ``(weights, vectors, tail)`` with ``vectors`` of shape
    (ncut+1, K): coherent/number/vacuum give a single column, thermal
    states a Fock-diagonal mixture truncated at the tail tolerance.  The
    vectors are real unit Fock vectors except for a coherent field, whose
    column is complex.
    """
    f = trunc.ncut + 1
    if isinstance(field, (Vacuum, Number)):
        n = field.n if isinstance(field, Number) else 0
        if n > trunc.ncut:
            raise TruncationError(f"Fock index {n} exceeds cutoff {trunc.ncut}")
        v = np.zeros((f, 1))
        v[n, 0] = 1.0
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
        vecs = np.zeros((f, k + 1))
        vecs[np.arange(k + 1), np.arange(k + 1)] = 1.0
        return weights, vecs, tail
    raise TypeError(f"unsupported field class: {field!r}")


# Phase points per block of the bilinear map evaluation: one block holds
# a (sector dim x points) complex phase matrix of at most this many bytes,
# and at most this many bytes of the per-point stacks of the two-qubit
# reduction and Wootters, which take up to _POINT_BYTES per point.  The
# rows of 2 E = 2 V_e' V_e, from the even Fock rows V_e of the eigenvectors,
# are formed in chunks of at most a quarter of them, each one real
# (rows x F) array of at most this many bytes.
_PHASE_BLOCK_BYTES = 1 << 23
_POINT_BYTES = 4096

def _unit_rows(vecs):
    """The slice of rows j0, j0 + 1, ... with column c of ``vecs`` the unit
    Fock vector e_(j0 + c), or None when the columns are not such a run."""
    k = vecs.shape[1]
    start = int(np.argmax(vecs[:, 0] != 0))
    rows = slice(start, start + k)
    run = vecs[rows].diagonal()  # entries (start + c, c), the only nonzeros if a run
    if len(run) == k and np.count_nonzero(vecs) == k and np.all(run == 1.0):
        return rows
    return None


class _MapKernel:
    """Conditional maps of one field on any phase grid.

    With eigenphases phi_a(t) = exp(-i E_a w t), rail-p rows R_p of the
    eigenvector matrix and field overlaps Y_i = R_i' C of the mixture
    components C (weights W),

        M_ik(t)[p, q] = sum_ab phi_a phi_b* S^{ik,pq}_ab,
        S^{ik,pq} = (R_p' R_q) o (Y_i W Y_k^H).

    Chain s has rail rows V_s / sqrt(2) and s P V_s / sqrt(2), so S splits
    into F x F blocks, one per pair of chains (s, t):
    S^{ik,pq}_st = s^([p = d] + [i = d]) t^([q = d] + [k = d]) (V_s' X V_t)
    o (Y^i_s W Y^k_t^H) / 4, with X = I for p = q and P otherwise, and
    overlaps Y^u_s = V_s' C, Y^d_s = V_s' P C.  A block with s = t and
    p = q has V_s' V_s = I and adds the constant (field norm) / 2 to
    M_ii[p, p].  With P = diag((-1)^n), every eigenvector Gram is a sum or
    difference of the products E_st = V_s[even]' V_t[even] and O_st =
    V_s[odd]' V_t[odd] of the even and odd Fock rows: V_s' V_t = E + O and
    V_s' P V_t = E - O, and within one chain E + O = I, so V_s' P V_s =
    2 E_ss - I.  So the four rail Grams take the products E_00, E_11, E_01
    and O_01, each over half the rows.  Entries whose blocks have the same
    two factors share one product and differ only in sign.  Where every
    mixture component is a unit Fock vector e_j (vacuum, number and thermal
    fields) the overlaps are rows j of V_s, sliced rather than multiplied,
    and the Gram Y^i_s W Y^k_t^H = Y^u_s W P_j^(i + k) Y^u_t' depends on
    i + k alone, so M_dd takes the products of M_uu.  Where the chains
    coincide (omega0 = 0) the chain pairs collapse into the sigma_x sector
    form: M_uu and M_dd are the field norm on their own rail and only
    M_ud[up, down] is a bilinear form, with S = (2 E - I) o (Y^u W Y^d^H) built in place: the
    field Gram G first, then chunks of rows of the symmetric 2 E on and
    above the diagonal, each multiplied into its rows of G and, mirrored,
    into its columns below the diagonal, and last the diagonal of G
    subtracted.  G itself is never mirrored: G_ab and G_ba are different
    products in floating point.  The factors are built once per eigensolve
    and share no memory with the eigenvectors; a grid is evaluated in
    blocks of ``block`` points, one matrix product per distinct factor and
    block of points.
    """

    def __init__(self, prop, field):
        weights, vecs, self.tail = field_components(field, prop.trunc)
        if np.iscomplexobj(vecs) and not np.any(vecs.imag):
            vecs = vecs.real
        self.components = len(weights)
        rows = _unit_rows(vecs)
        if rows is None:
            norm = float(weights @ np.sum(np.abs(vecs) ** 2, axis=0))
        else:  # a run of unit Fock vectors: every squared column norm is exactly 1
            norm = float(weights @ np.ones(len(weights)))
        parity = _parity(prop.fock_dim)
        modes = [v for _, v in prop.distinct_chains]
        self.chain_count = len(modes)
        self.energies = np.concatenate([energies for energies, _ in prop.distinct_chains])
        self.block = max(1, _PHASE_BLOCK_BYTES // max(16 * self.energies.size, _POINT_BYTES))
        if rows is None:
            y = [(_dot(v.T, vecs), _dot(v.T, parity[:, None] * vecs)) for v in modes]

            def field_gram(i, s, k, t, scale):  # Y^i_s W Y^k_t^H
                return (y[s][i] * scale) @ y[t][k].conj().T
        else:
            y = [v[rows].T for v in modes]  # views of the eigenvectors
            signs = parity[rows]

            def field_gram(i, s, k, t, scale):  # Y^u_s W P_j^(i + k) Y^u_t'
                return (y[s] * (scale * signs if i != k else scale)) @ y[t].T
        del vecs

        self.const = np.zeros((2, 2, 2, 2), dtype=complex)
        f = prop.fock_dim
        even = [v[0::2] for v in modes]  # even Fock rows: views, nothing copied
        if len(modes) == 1:
            (ve,) = even
            self.const[0, 0, 0, 0] = self.const[1, 1, 1, 1] = norm
            weight = field_gram(0, 0, 1, 0, weights)
            diagonal = weight.diagonal().copy()
            step = max(1, min(f // 4, _PHASE_BLOCK_BYTES // (8 * f)))
            for start in range(0, f, step):
                end = min(start + step, f)
                twice = ve[:, start:end].T @ ve[:, start:]
                twice *= 2.0
                weight[start:end, start:] *= twice
                weight[end:, start:end] *= twice[:, end - start:].T
                del twice
            weight.flat[::f + 1] -= diagonal
            self.terms = [(0, 0, (weight,), [((0, 1, 0, 1), 1)])]
            return
        scaled = 0.25 * weights  # the 1/4 of each block
        cross = even[0].T @ even[1]
        odd = modes[0][1::2].T @ modes[1][1::2]
        rails = {(0, 1, False): cross + odd}
        cross -= odd
        del odd
        rails[0, 1, True] = cross
        for s, ve in enumerate(even):
            like = ve.T @ ve
            like *= 2.0
            like.flat[::f + 1] -= 1.0
            rails[s, s, True] = like
        rails.update({(1, 0, flip): rails[0, 1, flip].T for flip in (False, True)})
        fields, products = {}, {}
        for i, k in ((0, 0), (0, 1), (1, 1)):
            gram = (i != k) if rows is not None else (i, k)
            # chain pairs in the order in which every entry has summed them
            pairs = ((0, 0), (0, 1), (1, 1), (1, 0)) if i == k else ((0, 0), (0, 1), (1, 0), (1, 1))
            for s, t in pairs:
                if (gram, s, t) not in fields:
                    fields[gram, s, t] = (fields[gram, t, s].conj().T if i == k and s > t
                                          else field_gram(i, s, k, t, scaled))
            for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
                if i == k and p > q:
                    continue  # M_ii[d, u] = M_ii[u, d]*
                if i == k and p == q:
                    self.const[i, k, p, q] = 0.5 * norm
                for s, t in pairs:
                    if s != t or p != q:
                        sign = (-1) ** (s * (p + i) + t * (q + k))
                        products.setdefault((s, t, p != q, gram), []).append(((i, k, p, q), sign))
        self.terms = [(s, t, (rails[s, t, flip], fields[gram, s, t]), targets)
                      for (s, t, flip, gram), targets in products.items()]

    def blocks(self, omega_ts):
        """(n, 2, 2, 2, 2) stacks ops[:, i, k, p, q] = M_ik[p, q], one per
        block of at most ``block`` points."""
        for start in range(0, len(omega_ts), self.block):
            yield self._block_ops(omega_ts[start:start + self.block])

    def _block_ops(self, omega_ts):
        # phases[s]: the (F, points) eigenphases of chain s
        phases = np.exp(-1j * np.outer(self.energies, omega_ts))
        phases = phases.reshape(self.chain_count, -1, len(omega_ts))
        right = phases.conj()
        ops = np.repeat(self.const[None], len(omega_ts), axis=0)
        for s, t, factors, targets in self.terms:
            # the one stored factor, or the product of two formed per block
            weight = _dot(functools.reduce(np.multiply, factors), right[t])
            value = np.sum(phases[s] * weight, axis=0)
            for (i, k, p, q), sign in targets:
                ops[:, i, k, p, q] += value if sign > 0 else -value
        for i in (0, 1):
            ops[:, i, i, 1, 0] = ops[:, i, i, 0, 1].conj()
        ops[:, 1, 0] = ops[:, 0, 1].conj().swapaxes(-1, -2)
        return ops


def _reduced_stack(ops_a, ops_b, initial):
    """Validated (n, 4, 4) stack of two-qubit states Q(t) = sum
    rho[(ij),(kl)] M^A_ik x M^B_jl from (n, 2, 2, 2, 2) stacks of conditional
    maps, valid as the subsystem Hamiltonians commute.  ``initial`` is in
    the sigma_x basis, with qubits uncorrelated with the fields; the
    truncated-mixture trace deficit is renormalized away."""
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


@dataclass(frozen=True)
class FieldFieldWitness:
    """Field-field negativity and single-party purities, one entry per phase.

    ``negativity`` is that of the two fields' reduced state with both
    qubits traced out; ``qubit_purity`` and ``field_purity`` are Tr[rho^2]
    of one qubit and of one field.  ``support_dim`` is the dimension k of
    the local support each field was written on (at most 4, and 2 at
    omega0 = 0), so the negativity came from a k^2 x k^2 matrix; ``ncut``
    is the cutoff.  For a Bell input the qubit purity stays at 1/2 exactly;
    the field purity is 1/2 + |<b(t)|-b(t)>|^2 / 2 for vacuum input and
    approaches 1/2 as the branches become orthogonal.
    """

    negativity: np.ndarray
    qubit_purity: np.ndarray
    field_purity: np.ndarray
    support_dim: np.ndarray
    ncut: int


def field_field_witness(params, field, bell, omega_ts, trunc=None):
    """Separability witness of the evolved four-party pure state on a grid.

    The initial state is the Bell state ``bell`` with identical pure fields
    on both subsystems.  Each field's state lies in the span of the evolved
    rail vectors <r|U|p, phi> (initial rail p, qubit out r); at omega0 = 0
    the two with r != p are exactly zero and are left out.  The reduced QR
    factorization rails = Q R gives an isometry Q onto a space containing
    that span and the coordinates R, so the state is rewritten on a
    (2, k, 2, k) tensor.  Negativity and purities do not change under local
    isometries (Peres, PRL 77, 1413 (1996)), so the values are exact and
    need no rank threshold; the propagation costs O(F) memory beyond the
    propagator.

    The cutoff default and the phase and memory checks are those of
    :func:`concurrence_trace` at its default tolerance; a mixed field
    raises ValueError, and an empty grid gives empty arrays.
    """
    omega_ts = _finite_phases(omega_ts, 1)
    if isinstance(field, Thermal):
        raise ValueError(f"the field-field witness requires a pure field, got {field}")
    if trunc is None:
        trunc = truncation(field, params.beta)
    prop = build_hamiltonian(params, trunc)
    _require_phase_accuracy(params, trunc.ncut, omega_ts, _CONVERGENCE_TOL)
    _, vecs, _ = field_components(field, trunc)
    f = prop.fock_dim
    psi0 = np.zeros((prop.dim, 2), dtype=complex)  # columns: rails up, down
    psi0[:f, 0] = psi0[f:, 1] = vecs[:, 0]
    c2 = bell_ket(bell, QubitBasis.SIGMA_X).astype(complex).reshape(2, 2)
    negs, qubit_purity, field_purity = np.empty((3, len(omega_ts)))
    support_dim = np.empty(len(omega_ts), dtype=int)
    for point, omega_t in enumerate(omega_ts):
        rails = propagate_state(prop, psi0, omega_t).T.reshape(4, f)  # rows (p, r)
        used = np.flatnonzero(np.any(rails != 0.0, axis=1))
        _, r = np.linalg.qr(rails[used].T)
        k = r.shape[0]
        coords = np.zeros((4, k), dtype=complex)
        coords[used] = r.T
        # psi[(r, i), (s, j)] = sum_pq c[p, q] a[p, (r, i)] a[q, (s, j)]
        a = coords.reshape(2, 2 * k)
        psi = (a.T @ c2 @ a).reshape(2, k, 2, k)
        psi /= np.linalg.norm(psi)
        fields = psi.transpose(1, 3, 0, 2).reshape(k * k, 4)
        negs[point] = negativity(fields @ fields.conj().T, (k, k))
        qubit_purity[point] = _purity(psi.reshape(2, 2 * k * k))
        field_purity[point] = _purity(psi.transpose(1, 0, 2, 3).reshape(k, 4 * k))
        support_dim[point] = k
    return FieldFieldWitness(negs, qubit_purity, field_purity, support_dim, trunc.ncut)


def _purity(x):
    """Tr[rho^2] of rho = X X'."""
    rho = x @ x.conj().T
    return float(np.sum(np.abs(rho) ** 2))


def low_spectrum(prop, k):
    """Lowest k >= 1 dimensionless eigenvalues shifted so the ground level
    is 0."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    e = np.sort(prop.energies)[:k]
    return e - e[0]


def default_ncut(field, beta):
    """Starting cutoff: reach of the displaced dynamics plus margin.

    With reach = |alpha0| + 2 beta, the largest amplitude the displaced
    dynamics reach, ceil((reach + 3 sqrt(nbar) + sqrt(N))^2) + 20, raised
    for thermal states so the mixture tail fits the default tolerance, and
    for vacuum and coherent states so a coherent state of amplitude reach
    loses at most that mass.  The cutoff-doubling convergence check is the
    actual contract; this is only the initial guess.
    """
    alpha0 = field.alpha0 if isinstance(field, Coherent) else 0.0
    nb = field.nbar if isinstance(field, Thermal) else 0.0
    nn = field.n if isinstance(field, Number) else 0
    reach = abs(alpha0) + 2.0 * beta
    try:
        ncut = math.ceil((reach + 3.0 * math.sqrt(nb) + math.sqrt(nn)) ** 2) + 20
    except OverflowError as exc:
        raise TruncationError(f"no representable cutoff for {field} at beta={beta:g}") from exc
    if nb > 0:
        ncut = max(ncut, thermal_component_count(nb, _TAIL_TOL) + 30)
    if isinstance(field, (Vacuum, Coherent)) and math.exp(-0.5 * reach**2) > 0.0:
        # lost mass at every cutoff up to one far beyond the Poisson tail
        c, _ = coherent_fock_vector(reach, math.ceil(reach**2 + 10.0 * reach) + 40)
        ncut = max(ncut, int(np.argmax(1.0 - np.cumsum(np.abs(c) ** 2) <= _TAIL_TOL)))
    return max(ncut, 1)


def truncation(field, beta, ncut=None):
    """The oracle cutoff: ``ncut`` where given, else ``default_ncut``."""
    return TruncationSpec(ncut if ncut is not None else default_ncut(field, beta))


@dataclass(frozen=True)
class OracleTrace:
    """Concurrence trace with the truncation evidence that backs it.

    ``doubling_error`` is the largest entrywise disagreement between the
    reconstructed two-qubit matrices at ncut and 2*ncut on the checked
    subgrid (an extraction-noise-free measure of truncation convergence).
    ``eigensolver`` (``"dstevd"`` or ``"eigh"``) and ``sector_dim`` say how
    the run at ``ncut`` was diagonalized, ``components`` is the number K of
    mixture components of its field, and ``doubled_ncut`` the cutoff of the
    doubling re-run (0 for an empty grid); no CSV writes them.
    """

    omega_ts: np.ndarray
    values: np.ndarray
    ncut: int
    tail_mass: float
    doubling_error: float
    doubling_points: int
    eigensolver: str
    sector_dim: int
    components: int
    doubled_ncut: int


def _require_phase_accuracy(params, ncut, omega_ts, tol):
    """ValueError when the roundoff of the eigenphases E w t, about
    eps max|E| max|w t|, can exceed ``tol``.

    max|E| is bounded by Gershgorin on the chains at ``ncut``:
    ncut + omega0 / 2 + 2 beta sqrt(ncut).  No cutoff removes this
    error, and w t is never reduced mod 2 pi, which would take the
    period from the analytic spectrum.
    """
    bound = ncut + params.omega0 / 2.0 + 2.0 * params.beta * math.sqrt(ncut)
    roundoff = np.finfo(float).eps * bound * float(np.max(np.abs(omega_ts), initial=0.0))
    if roundoff > tol:
        raise ValueError(
            f"phase roundoff eps * max|E| * max|w t| = {roundoff:.3e} at ncut={ncut} "
            f"exceeds the tolerance {tol:g}; shorten the phase range"
        )


def _reconstruct(params, field, initial, omega_ts, trunc):
    """Concurrences and two-qubit matrices on ``omega_ts`` at one cutoff,
    one stacked reduction and Wootters evaluation per phase block; also
    returns the tail mass and the eigensolver's name, the sector dimension
    and the number of mixture components.  The propagator is released once
    the kernel holds its factors, before any phase block."""
    prop = build_hamiltonian(params, trunc)
    kernel = _MapKernel(prop, field)
    how = (prop.eigensolver, prop.fock_dim, kernel.components)
    del prop
    values = np.empty(len(omega_ts))
    qmats = np.empty((len(omega_ts), 4, 4), dtype=complex)
    start = 0
    for ops in kernel.blocks(omega_ts):
        block = slice(start, start + len(ops))
        qmats[block] = _reduced_stack(ops, ops, initial)
        values[block], _ = wootters_concurrences(qmats[block], QubitBasis.SIGMA_X)
        start = block.stop
    return values, qmats, kernel.tail, how


# Phases of the cutoff-doubling re-run: an evenly spaced subsample of the grid.
_DOUBLING_POINTS = 9


def concurrence_trace(params, field, initial, omega_ts, trunc=None,
                      convergence_tol=_CONVERGENCE_TOL):
    """Oracle concurrence of ``initial`` (sigma_x basis) under identical fields.

    Runs at the requested cutoff and re-runs a subsample of the grid at
    ``trunc.doubled()``, twice the cutoff and a hundredth of the tail mass;
    entrywise matrix disagreement beyond ``convergence_tol`` raises
    :class:`TruncationError`, and so does a run whose estimated peak memory
    exceeds physical memory, before it allocates.  A non-finite phase, or a
    grid whose eigenphase roundoff exceeds ``convergence_tol`` (see
    :func:`_require_phase_accuracy`), raises ValueError before any
    eigensolve, and so does a ``convergence_tol`` that is not finite and
    positive; an empty grid gives an empty trace.
    """
    omega_ts = _finite_phases(omega_ts, 1)
    if not (math.isfinite(convergence_tol) and convergence_tol > 0):
        raise ValueError(f"convergence_tol must be finite and > 0, got {convergence_tol}")
    if trunc is None:
        trunc = truncation(field, params.beta)
    what = f"concurrence trace at ncut={trunc.ncut}"
    _require_memory(_trace_bytes(params, field, trunc), what)
    largest = trunc.doubled()
    _require_phase_accuracy(params, largest.ncut, omega_ts, convergence_tol)
    values, qmats, tail, (solver, sector_dim, components) = _reconstruct(
        params, field, initial, omega_ts, trunc)
    doubling_error = 0.0
    n_check = doubled_ncut = 0
    if len(omega_ts):
        n_check = min(len(omega_ts), _DOUBLING_POINTS)
        idx = np.unique(np.round(np.linspace(0, len(omega_ts) - 1, n_check)).astype(int))
        doubled_ncut = largest.ncut
        _, qcheck, _, _ = _reconstruct(params, field, initial, omega_ts[idx], largest)
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
        components=components,
        doubled_ncut=doubled_ncut,
    )
