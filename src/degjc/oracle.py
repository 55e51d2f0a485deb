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
the phase grid; the field-field separability witness takes the Gram of
the evolved rail vectors from the same maps, so no joint four-party state
is ever materialized.  Nothing here references the closed forms: agreement
between the two routes is the correctness argument.

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
import sys
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
    of rows of 2 E and of the field Gram (each at most an eighth of an
    F x F array, less where the chunk's eigenvectors reach only some of the
    columns; the estimate allows half for both, an upper bound for any
    eigenvectors); otherwise four real rail Gram matrices (of which E_01,
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


def _physical_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(nbytes, what):
    """Raise :class:`TruncationError` before allocating ``nbytes`` beyond
    the machine's physical memory."""
    limit = _physical_bytes()
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


def _exp_scaled(x):
    """``(m, e)`` with e^x = m 2^e and m a normal number, for x <= 0:
    ``(e^x, 0)`` where e^x is normal.  Otherwise m comes from squaring
    e^(x / 2^k) k times, renormalized by ``frexp`` after each square, so
    it is accurate to about 2^k ulp, k = 2 for x down to -1416."""
    m = math.exp(x)
    if m >= sys.float_info.min:
        return m, 0
    k = math.ceil(math.log2(x / math.log(sys.float_info.min))) + 1
    m, e = math.frexp(math.exp(x / 2**k))
    for _ in range(k):
        m, shift = math.frexp(m * m)
        e = 2 * e + shift
    return m, e


def coherent_fock_vector(alpha, ncut):
    """Truncated Fock expansion of |alpha> over n = 0..ncut; returns
    (vector, lost mass).  ValueError for an ``alpha`` that is not finite
    or not below 1e154, or an ``ncut`` that is not an integer >= 0.

    The amplitudes follow c_(n+1) = c_n alpha / sqrt(n + 1) from c_0 =
    e^(-|alpha|^2 / 2).  Where c_0 is not a normal number (|alpha| >
    37.64) the recurrence runs on z = c_n 2^-e from the normal mantissa of
    :func:`_exp_scaled`, and each step folds as much of the exponent e
    back into z as keeps z normal, so no amplitude loses precision to a
    subnormal start and e is 0 once the amplitudes are normal.  Where c_0
    is normal the recurrence is the plain one, bit for bit.
    """
    alpha, norm2 = _amplitude(alpha)
    if isinstance(ncut, bool) or not isinstance(ncut, numbers.Integral) or ncut < 0:
        raise ValueError(f"ncut must be an integer >= 0, got {ncut!r}")
    c = np.empty(ncut + 1, dtype=complex)
    m, e = _exp_scaled(-0.5 * norm2)
    c[0], z = math.ldexp(m, e), np.complex128(m)
    for n in range(ncut):
        z = z * alpha / math.sqrt(n + 1)
        if e:
            shift = min(-e, math.frexp(abs(z))[1] - sys.float_info.min_exp)
            z, e = _ldexp_complex(z, -shift), e + shift
            c[n + 1] = _ldexp_complex(z, e)
        else:
            c[n + 1] = z
    return c, max(0.0, 1.0 - float(np.vdot(c, c).real))


def _ldexp_complex(z, k):
    """z 2^k for a complex z, exact wherever both parts stay normal."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


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
# and at most this many bytes of the per-point stacks of the maps and
# their reduction, which take up to _POINT_BYTES per point.  The
# omega0 = 0 factor is formed in chunks of at most an eighth of its rows,
# each chunk's rows of 2 E = 2 V_e' V_e (V_e the even Fock rows of the
# eigenvectors) one real array of at most (rows x F) entries and this many
# bytes, and its rows of the field Gram one more of the same shape.
_PHASE_BLOCK_BYTES = 1 << 23
_POINT_BYTES = 4096
# Points per measured block, after the kernel is released: the witness
# takes about 24 kB a point (16 x 16 partial transposes and their eigensolve).
_MEASURE_POINTS = _PHASE_BLOCK_BYTES // (1 << 15)

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
    M_ud[up, down] is a bilinear form, with S = (2 E - I) o G and G =
    Y^u W Y^d^H built in one pass over chunks of rows: each chunk forms its
    rows of the symmetric 2 E and of G on and above the diagonal,
    multiplies them into S and subtracts the diagonal of G.  The chunk's
    products run only over the Fock rows [lo, hi) outside which its
    eigenvectors are zero (the even ones for 2 E, and for unit Fock
    components the part of their run inside them) and only over the
    columns up to the last one with a nonzero entry in those rows; the rest
    of its rows of S is exactly 0, since every skipped term is a product
    with an exact zero.  Divide-and-conquer eigenvectors are exactly zero
    outside a window of Fock rows wherever deflation decoupled them (91 %
    of the entries at beta = 0.1 and F = 1235), so there most of the work
    is skipped; a dense V takes the full products.  Where G =
    Y^u W P_j Y^u' is symmetric (unit Fock components) the chunk's upper
    triangle is mirrored below the diagonal, so S is exactly symmetric; a
    coherent field's G is not, and its blocks below the diagonal take
    their own products of the overlaps.  The factors are built once per
    eigensolve and share no memory with the eigenvectors; a grid is
    evaluated in blocks of ``block`` points, one matrix product per
    distinct factor and block of points.
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
        f = prop.fock_dim
        if rows is None:
            y = [(_dot(v.T, vecs), _dot(v.T, parity[:, None] * vecs)) for v in modes]

            def field_gram(i, s, k, t, scale, a=slice(None), b=slice(None), fock=(0, f)):
                # rows a, columns b of Y^i_s W Y^k_t^H; the overlaps already
                # hold every Fock row, so the window ``fock`` changes nothing
                return (y[s][i][a] * scale) @ y[t][k][b].conj().T
        else:
            y = [v[rows].T for v in modes]  # views of the eigenvectors
            signs = parity[rows]

            def field_gram(i, s, k, t, scale, a=slice(None), b=slice(None), fock=(0, f)):
                # rows a, columns b of Y^u_s W P_j^(i + k) Y^u_t', summed over
                # the components in Fock rows fock = (lo, hi), outside which
                # eigenvectors a are zero
                c = slice(max(fock[0] - rows.start, 0), max(fock[1] - rows.start, 0))
                sign = signs[c] if i != k else 1.0
                return (y[s][a, c] * (scale[c] * sign)) @ y[t][b, c].T
        dtype = vecs.dtype
        del vecs

        self.const = np.zeros((2, 2, 2, 2), dtype=complex)
        if len(modes) == 1:
            (v,) = modes
            self.const[0, 0, 0, 0] = self.const[1, 1, 1, 1] = norm
            factor = np.zeros((f, f), dtype=dtype)
            diagonal = factor.reshape(-1)[::f + 1]  # a view
            step = max(1, min(f // 8, _PHASE_BLOCK_BYTES // (8 * f)))
            below = np.tri(step, k=-1, dtype=bool)
            for start in range(0, f, step):
                end = min(start + step, f)
                top = slice(start, end)
                # eigenvectors `top` vanish outside Fock rows [lo, hi), and so
                # do the products with every column past `stop`, which has no
                # nonzero there: those entries of S stay exactly 0
                nonzero = v[:, top].any(axis=1)
                lo, hi = int(nonzero.argmax()), f - int(nonzero[::-1].argmax())
                stop = f - int(v[lo:hi, start:].any(axis=0)[::-1].argmax())
                right, even = slice(start, stop), slice(lo + lo % 2, hi, 2)
                twice = v[even, top].T @ v[even, right]
                twice *= 2.0
                gram = field_gram(0, 0, 1, 0, weights, top, right, (lo, hi))
                np.multiply(gram, twice, out=factor[top, right])
                diagonal[top] -= gram.diagonal()
                if rows is not None:  # G is symmetric: mirror the rows' upper triangle
                    square = factor[top, top]
                    np.copyto(square, square.T, where=below[:end - start, :end - start])
                    factor[end:stop, top] = factor[top, end:stop].T
                else:
                    np.multiply(field_gram(0, 0, 1, 0, weights, slice(end, stop), top),
                                twice[:, end - start:].T, out=factor[end:stop, top])
                del twice, gram
            self.terms = [(0, 0, (factor,), [((0, 1, 0, 1), 1)])]
            return
        even = [v[0::2] for v in modes]  # even Fock rows: views, nothing copied
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


def low_spectrum(prop, k):
    """Lowest k dimensionless eigenvalues shifted so the ground level is 0,
    for an integer k from 1 to the block dimension ``prop.dim``."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= prop.dim:
        raise ValueError(f"k must be an integer from 1 to the block dimension {prop.dim}, "
                         f"got {k!r}")
    e = np.sort(prop.energies)[:k]
    return e - e[0]


def default_ncut(field, beta):
    """Starting cutoff: reach of the displaced dynamics plus margin.

    With reach = |alpha0| + 2 beta, the largest amplitude the displaced
    dynamics reach, ceil((reach + 3 sqrt(nbar) + sqrt(N))^2) + 20, raised
    for thermal states so the mixture tail fits the default tolerance, and
    for vacuum and coherent states so a coherent state of amplitude reach
    loses at most that mass, wherever one F x F array at the cutoff fits in
    physical memory (beyond that every run fails its memory check, so the
    Poisson tail is not summed).  The cutoff-doubling convergence check is
    the actual contract; this is only the initial guess.  Raises
    :class:`TruncationError` where the amplitudes summed never come within
    that tolerance of unit mass, and ``ValueError`` unless ``beta`` is
    finite and >= 0.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
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
    if isinstance(field, (Vacuum, Coherent)) and 8 * ncut * ncut <= _physical_bytes():
        # lost mass at every cutoff up to one far beyond the Poisson tail
        c, _ = coherent_fock_vector(reach, math.ceil(reach**2 + 10.0 * reach) + 40)
        held = 1.0 - np.cumsum(np.abs(c) ** 2) <= _TAIL_TOL
        if not held[-1]:
            raise TruncationError(f"the Fock amplitudes of {field} at reach {reach:g} "
                                  f"lose more than {_TAIL_TOL:g} of their mass")
        ncut = max(ncut, int(np.argmax(held)))
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


def _run(params, field, omega_ts, spec, reduce):
    """The (n, 4, 4) stack that ``reduce`` makes of each block of
    conditional maps (n, 2, 2, 2, 2) on ``omega_ts`` at one cutoff, the
    tail mass and (eigensolver, sector dimension, mixture components).  The
    propagator is released once the kernel holds its factors."""
    prop = build_hamiltonian(params, spec)
    kernel = _MapKernel(prop, field)
    how = (prop.eigensolver, prop.fock_dim, kernel.components)
    del prop
    mats = np.empty((len(omega_ts), 4, 4), dtype=complex)
    start = 0
    for ops in kernel.blocks(omega_ts):
        mats[start:start + len(ops)] = reduce(ops)
        start += len(ops)
    return mats, kernel.tail, how


# Phases of the cutoff-doubling re-run: an evenly spaced subsample of the grid.
_DOUBLING_POINTS = 9


def _checked_run(params, field, omega_ts, trunc, tol, reduce, measure):
    """The one checked run of :func:`concurrence_trace` and
    :func:`field_field_witness`, as an :class:`OracleTrace`.

    The phases must be finite; ``trunc`` defaults to :func:`truncation`.
    Before allocating, the peak memory of both runs must fit in physical
    memory and the phase roundoff at the doubled cutoff within ``tol``.
    ``reduce`` maps each block of maps at ``trunc`` to an (n, 4, 4) stack;
    the re-run of an evenly spaced subsample at ``trunc.doubled()``, twice
    the cutoff and a hundredth of the tail mass, must agree with it
    entrywise within ``tol`` (else :class:`TruncationError`).  Then
    ``measure`` maps blocks of the stack to the trace's ``values``, along
    their last axis.
    """
    omega_ts = _finite_phases(omega_ts, 1)
    if trunc is None:
        trunc = truncation(field, params.beta)
    _require_memory(_trace_bytes(params, field, trunc), f"oracle run at ncut={trunc.ncut}")
    largest = trunc.doubled()
    _require_phase_accuracy(params, largest.ncut, omega_ts, tol)
    mats, tail, how = _run(params, field, omega_ts, trunc, reduce)
    doubling_error, n_check = 0.0, min(len(omega_ts), _DOUBLING_POINTS)
    if n_check:
        idx = np.unique(np.round(np.linspace(0, len(omega_ts) - 1, n_check)).astype(int))
        check, _, _ = _run(params, field, omega_ts[idx], largest, reduce)
        doubling_error = float(np.max(np.abs(check - mats[idx])))
        if doubling_error > tol:
            raise TruncationError(f"cutoff-doubling disagreement {doubling_error:.3e} exceeds "
                                  f"{tol:g} (ncut={trunc.ncut}); raise ncut")
    # an empty grid measures its empty stack
    values = np.concatenate([measure(mats[start:start + _MEASURE_POINTS])
                             for start in range(0, max(len(mats), 1), _MEASURE_POINTS)], axis=-1)
    return OracleTrace(omega_ts, values, trunc.ncut, tail, doubling_error, n_check, *how,
                       largest.ncut if n_check else 0)


def concurrence_trace(params, field, initial, omega_ts, trunc=None,
                      convergence_tol=_CONVERGENCE_TOL):
    """Oracle concurrence of ``initial`` (sigma_x basis) under identical fields.

    The checked run of :func:`_checked_run` at ``convergence_tol``, which
    must be finite and positive (ValueError otherwise, before any
    eigensolve): the cutoff-doubling re-run compares the two-qubit matrices
    Q of each block, and one stacked Wootters evaluation measures them.  A
    non-finite phase or too large a phase roundoff raises ValueError and
    too little memory :class:`TruncationError`, both before allocating; an
    empty grid gives an empty trace.
    """
    if not (math.isfinite(convergence_tol) and convergence_tol > 0):
        raise ValueError(f"convergence_tol must be finite and > 0, got {convergence_tol}")
    return _checked_run(params, field, omega_ts, trunc, convergence_tol,
                        lambda ops: _reduced_stack(ops, ops, initial),
                        lambda qmats: wootters_concurrences(qmats, QubitBasis.SIGMA_X)[0])


@dataclass(frozen=True)
class FieldFieldWitness:
    """Field-field negativity and single-party purities, one entry per phase.

    ``negativity`` is that of the two fields' reduced state with both
    qubits traced out; ``qubit_purity`` and ``field_purity`` are Tr[rho^2]
    of one qubit and of one field.  ``support_dim`` is the dimension k of
    the local support each field was written on (4, and 2 at omega0 = 0),
    so the negativity came from a k^2 x k^2 matrix.  ``doubling_error`` is
    the largest entrywise disagreement of the rail Grams at ``ncut`` and
    twice it.  For a Bell input the qubit purity stays at 1/2 exactly; the
    field purity is 1/2 + |<b(t)|-b(t)>|^2 / 2 for vacuum input.
    """

    negativity: np.ndarray
    qubit_purity: np.ndarray
    field_purity: np.ndarray
    support_dim: np.ndarray
    ncut: int
    doubling_error: float


def field_field_witness(params, field, bell, omega_ts, trunc=None):
    """Separability witness of the evolved four-party pure state on a grid.

    The initial state is the Bell state ``bell`` with identical pure fields
    on both subsystems.  Each field lies in the span of the evolved rail
    vectors a_ip = <p|U|i, phi> (initial rail i, qubit out p), whose Gram
    G[(k, q), (i, p)] = <a_kq|a_ip> is the conditional map M_ik[p, q].
    With G = V L V' from one stacked eigh, the columns of B = sqrt(L) V'
    are the rails in an orthonormal basis of a space holding their span;
    negativity and purities do not change under that local isometry
    (Peres, PRL 77, 1413 (1996)), so no rank threshold is needed.  At
    omega0 = 0 the rails with p != i are exactly zero and only the Gram of
    the other two is factored.  The checks are those of
    :func:`concurrence_trace` at its default tolerance, the doubling re-run
    comparing the Grams; a mixed field raises ValueError.
    """
    if isinstance(field, Thermal):
        raise ValueError(f"the field-field witness requires a pure field, got {field}")
    rails = [0, 3] if params.degenerate else [0, 1, 2, 3]  # rail (i, p) is 2 i + p
    c2 = bell_ket(bell, QubitBasis.SIGMA_X).astype(complex).reshape(2, 2)
    trace = _checked_run(
        params, field, omega_ts, trunc, _CONVERGENCE_TOL,
        lambda ops: ops.transpose(0, 2, 4, 1, 3).reshape(len(ops), 4, 4),  # G[(k, q), (i, p)]
        lambda grams: _witness_values(grams[:, rails][:, :, rails], rails, c2))
    return FieldFieldWitness(*trace.values, np.full(len(trace.omega_ts), len(rails)),
                             trace.ncut, trace.doubling_error)


def _witness_values(grams, rails, c2):
    """(3, n) negativity, qubit purity and field purity from an (n, k, k)
    stack of the Grams of ``rails``, with Bell coefficients ``c2``."""
    n, k = grams.shape[:2]
    vals, vecs = np.linalg.eigh(grams)
    a = np.zeros((n, 4, k), dtype=complex)  # a[(i, p), j], the transpose of B
    a[:, rails] = vecs.conj() * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
    a = a.reshape(n, 2, 2 * k)
    # psi[(p, j), (q, l)] = sum_ik c[i, k] a[i, (p, j)] a[k, (q, l)]
    psi = (a.swapaxes(-1, -2) @ c2 @ a).reshape(n, 2, k, 2, k)
    psi /= np.linalg.norm(psi.reshape(n, 4 * k * k), axis=1)[:, None, None, None, None]
    # reduced states x x' of the two fields, of one qubit and of one field
    fields, qubit, field = (x @ x.conj().swapaxes(-1, -2) for x in (
        psi.transpose(0, 2, 4, 1, 3).reshape(n, k * k, 4), psi.reshape(n, 2, 2 * k * k),
        psi.transpose(0, 2, 1, 3, 4).reshape(n, k, 4 * k)))
    return np.array([negativity(fields, (k, k)), np.sum(np.abs(qubit) ** 2, axis=(1, 2)),
                     np.sum(np.abs(field) ** 2, axis=(1, 2))])
