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
import itertools
import math
import numbers
import os
import resource
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import negativity, wootters_concurrences
from .model import (
    Coherent,
    Number,
    QubitBasis,
    QubitPairState,
    Thermal,
    Vacuum,
    bell_ket,
    validate_density_matrices,
    validate_hermitian_unit_trace,
)
from . import specialfn
from .specialfn import _amplitude, _real_array, _tridiagonal_eigh, thermal_weights

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
    twice.  Every chain's ``modes`` keeps LAPACK's column-major layout.

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
    ``dstevd`` (its eigenvectors and its F x F workspace) or five for
    ``eigh``, one more at omega0 != 0 for the first chain's eigenvectors,
    plus length-F vectors and some kB."""
    f = ncut + 1
    solve = 2 if specialfn._lapack_dstevd() is not None else 5
    return 8 * f * ((solve + (not params.degenerate)) * f + 64) + (1 << 15)


def _run_bytes(params, field, spec):
    """Peak bytes of one run of :func:`concurrence_trace` at ``spec``, from
    (ncut, K, omega0) alone.

    A run holds the eigenvectors of each distinct chain (one at omega0 =
    0, else two) and the real :class:`_MapKernel` factors, one per term of
    :func:`_map_entries`: the one S at omega0 = 0, else the eight products
    of a unit-Fock field or the four rail Grams of a coherent one (whose
    Gram is folded into the phases).  They are formed chunk by chunk of
    :func:`_chunk_rows` rows, and per chunk and chain pair it holds the
    even rows of its window's eigenvectors, and the odd rows where a
    product reads them (a pair of chains or a unit-Fock field Gram), at
    most half an F x F array each, plus the chunk's own columns, and six
    blocks of the chunk's rows (two rail Grams, two field Grams and their
    even- and odd-row halves).  The factors are F x F: which eigenvectors
    a unit-Fock field's kernel keeps is known only after the eigensolve,
    so the untrimmed chains bound it.  The K mixture components add three
    F x K arrays per chain pair, vectors of length F a few dozen more, and
    the phase blocks, scaled phases included, a few times
    ``_PHASE_BLOCK_BYTES``.
    """
    f = spec.ncut + 1
    k = 1
    if isinstance(field, Thermal):
        k += min(thermal_component_count(field.nbar, spec.tail_tol), spec.ncut)
    unit, chains = not isinstance(field, Coherent), 1 if params.degenerate else 2
    terms = len(_map_entries(params.degenerate, unit))
    copies = 2 if unit or chains > 1 else 1  # even rows, and odd rows where read
    pairs = chains * (chains + 1) // 2
    kernel = 8 * f * ((2 * (chains + terms) + copies) * f // 2 + 7 * _chunk_rows(f)
                      + 3 * pairs * k + 32)
    return max(_eigensolve_bytes(params, spec.ncut), kernel + 4 * _PHASE_BLOCK_BYTES)


def _trace_bytes(params, field, trunc):
    """Peak bytes of :func:`concurrence_trace`: its run at ``trunc`` or the
    doubled-cutoff re-run, usually the larger."""
    return max(_run_bytes(params, field, spec) for spec in (trunc, trunc.doubled()))


# The cgroup memory limit, v2 then v1, at the root of the cgroup mount: the
# process's own cgroup where it runs in a cgroup namespace, as in a container.
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


@functools.cache
def _physical_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@functools.cache
def _cgroup_bytes():
    """The cgroup's memory limit in bytes, or None where it is unreadable
    or "max"; read once per process, as :func:`_physical_bytes` is."""
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as limit:
                text = limit.read().strip()
        except OSError:
            continue
        return int(text) if text.isdigit() else None
    return None


def _memory_budget():
    """``(bytes, what)`` of the smallest limit on the process's memory:
    physical memory, the cgroup limit where readable, and the soft
    ``RLIMIT_AS`` less the process's current size where that is finite."""
    limits = [(_physical_bytes(), "physical memory")]
    cgroup = _cgroup_bytes()
    if cgroup is not None:
        limits.append((cgroup, "the cgroup memory limit"))
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        try:
            with open("/proc/self/statm") as statm:
                size = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        except OSError:
            size = 0
        limits.append((max(soft - size, 0), "address space left under RLIMIT_AS"))
    return min(limits)


def _require_memory(nbytes, what):
    """Raise :class:`TruncationError` before allocating ``nbytes`` beyond
    the process's memory budget (:func:`_memory_budget`), naming the limit
    that bound it."""
    limit, name = _memory_budget()
    if nbytes > limit:
        gib = nbytes / 2**30 if nbytes < 2**1000 else math.inf
        raise TruncationError(
            f"{what} needs about {gib:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of {name}"
        )


def build_hamiltonian(params, trunc):
    """Subsystem Hamiltonian, eigendecomposed once as its parity chains.

    Each chain goes to :func:`_tridiagonal_eigh`; at omega0 = 0 the chains
    coincide and one is solved.  Raises :class:`TruncationError` before
    allocating when the eigensolve would not fit in the memory budget.
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


def _chunk_rows(f):
    """Rows per chunk of the kernel factors: max(F // 8, 128), at most
    ``_PHASE_BLOCK_BYTES`` of (rows x F) real entries."""
    return max(1, min(max(f // 8, 128), _PHASE_BLOCK_BYTES // (8 * f)))


def _supports(v):
    """``(first, last)``: the first and last Fock row where each eigenvector
    (column of ``v``) is nonzero."""
    nonzero = v != 0.0
    return nonzero.argmax(axis=0), len(v) - 1 - nonzero[::-1].argmax(axis=0)


def _pair(even, odd, count=2):
    """``even + odd`` and ``even - odd`` stacked, the first ``count`` of them."""
    pair = np.empty((count,) + even.shape)
    for ufunc, out in zip((np.add, np.subtract), pair):
        ufunc(even, odd, out=out)
    return pair


def _dot(a, b):
    """a @ b; a real ``a`` times a complex ``b`` runs as one real product
    on the (re, im) pairs of ``b`` instead of promoting ``a`` to complex."""
    if np.isrealobj(a) and np.iscomplexobj(b):
        pairs = np.ascontiguousarray(b, dtype=complex).reshape(b.shape[0], -1).view(float)
        return (a @ pairs).view(complex).reshape((a.shape[0],) + b.shape[1:])
    return a @ b


def _finite_phases(omega_ts, ndim):
    """``omega_ts`` as a float array; ValueError unless it is real, has
    ``ndim`` dimensions (0 for one phase, 1 for a grid) and every phase is
    finite."""
    omega_ts = _real_array(omega_ts, "phase w t")
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
    """Decompose a field state into weighted pure Fock-space components.

    Returns ``(weights, components, tail)``.  Vacuum, number and thermal
    fields are mixtures of unit Fock vectors e_j: ``components`` is the
    slice of their Fock rows j0 .. j0 + K - 1, one row for vacuum and
    number states, the thermal mixture truncated at the tail tolerance.  A
    coherent field gives its (ncut+1, 1) column, real where
    ``alpha0.imag == 0`` and complex otherwise.
    """
    if isinstance(field, (Vacuum, Number)):
        n = field.n if isinstance(field, Number) else 0
        if n > trunc.ncut:
            raise TruncationError(f"Fock index {n} exceeds cutoff {trunc.ncut}")
        return np.array([1.0]), slice(n, n + 1), 0.0
    if isinstance(field, Coherent):
        c, tail = coherent_fock_vector(field.alpha0, trunc.ncut)
        if tail > trunc.tail_tol:
            raise TruncationError(
                f"coherent state |alpha|={abs(field.alpha0):g} loses mass {tail:.3e} "
                f"at ncut={trunc.ncut} (tolerance {trunc.tail_tol:g})"
            )
        return np.array([1.0]), (c if field.alpha0.imag else c.real)[:, None], tail
    if isinstance(field, Thermal):
        k = min(thermal_component_count(field.nbar, trunc.tail_tol), trunc.ncut)
        weights, tail = thermal_weights(field.nbar, k)
        if tail > trunc.tail_tol:
            raise TruncationError(
                f"thermal mixture nbar={field.nbar:g} has tail {tail:.3e} at "
                f"ncut={trunc.ncut} (tolerance {trunc.tail_tol:g})"
            )
        return weights, slice(0, k + 1), tail
    raise TypeError(f"unsupported field class: {field!r}")


# Phase points per block of the bilinear map evaluation: one block holds
# a (sector dim x points) complex phase matrix, and a column field's
# phases scaled by its overlaps, of at most this many bytes each, and at
# most this many bytes of the per-point stacks of the maps and their
# reduction, which take up to _POINT_BYTES per point.  The kernel
# factors are formed in chunks of max(F // 8, 128) rows, at most this many
# bytes of (rows x F) real entries (_chunk_rows): at every omega0 each of a
# chunk's rail Grams, field Grams and their even- and odd-row halves takes
# one array of at most that shape.
_PHASE_BLOCK_BYTES = 1 << 23
_POINT_BYTES = 4096
# Bytes a point of each measure's temporaries, which take blocks of at most
# _PHASE_BLOCK_BYTES once the kernel is released: the witness about 24 kB
# (16 x 16 partial transposes and their eigensolve), so 256 points a block,
# and Wootters' formula about 1 kB (tracemalloc reads 980 B a point of its
# Hadamard products, eigh and tau products), taken as 2 kB, so 4096.
_WITNESS_POINT_BYTES = 1 << 15
_WOOTTERS_POINT_BYTES = 1 << 11


@functools.cache
def _map_entries(one, unit):
    """``((s, t, flip, gram), (targets, mirrored))`` of each product of the
    kernel, ``unit`` for a unit-Fock field: the entries (i, k, p, q) of the
    maps that take its value, each with its sign and the entry of the value
    it adds, as the block (s, t) itself or as its mirrored (t, s)."""
    products = {(0, 0, True, False): ([((0, 1, 0, 1), 1, (0, 0))], [])} if one else {}
    for i, k in () if one else ((0, 0), (0, 1), (1, 1)):
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            if i == k and p > q:
                continue  # M_ii[d, u] = M_ii[u, d]*
            for s, t in ((0, 0), (0, 1), (1, 0), (1, 1)):
                if s != t or p != q:
                    sign = (-1) ** (s * (p + i) + t * (q + k))
                    # a (1, 0) block adds the conjugate of its (0, 1)
                    # twin's value, of entry (k, i) for a column field
                    at = (0, 0) if unit else (k, i) if s > t else (i, k)
                    key = (min(s, t), max(s, t), p != q, unit and i != k)
                    products.setdefault(key, ([], []))[s > t].append(((i, k, p, q), sign, at))
    return tuple(products.items())


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
    two factors share one product and differ only in sign.  A (1, 0) block
    takes none of its own: its rail Gram is the transpose of its (0, 1)
    twin's and its field Gram the conjugate transpose of the twin's with i
    and k swapped, so phi_1' S^{ik}_10 phi_0* = (phi_0' S^{ki}_01 phi_1*)*.
    Where :func:`field_components` names a slice of Fock rows j, the unit
    Fock components e_j of a vacuum, number or thermal field, the overlaps
    are rows j of V_s, sliced rather than multiplied, and the Gram
    Y^u_s W P_j^(i + k) Y^u_t' depends on i + k alone, so M_dd takes the
    products of M_uu.  These Grams split as the rail Grams do: with E^W_st
    and O^W_st the products over the even and odd Fock rows, each row
    weighted by its component's weight, the like-rail Gram (i = k) is
    E^W + O^W and the unlike-rail one E^W - O^W.  Each term holds one real
    factor, its rail Gram times its field Gram, formed once per eigensolve:
    eight for the chain pairs 00, 01 and 11.
    A coherent field is a column c (any K columns work the same way), and
    its Gram is folded into the eigenphases instead: S = diag(Y^i_s)
    (V_s' X V_t) diag(Y^k_t*), so phi_s' S phi_t* = (Y^i_s o phi_s)'
    (V_s' X V_t) (Y^k_t o phi_t)*.  A phase block scales phi_t* by each
    Y^k_t*, multiplies that by the rail Gram, both k at once, then by
    phi_s, and contracts it with W Y^i_s (and the 1/4) in one small
    product, which gives every (i, k).  Its factors are the four real rail
    Grams alone, and its blocks hold K times fewer points (2 K off
    omega0 = 0), so the scaled phases take the bytes of the phases.
    Where the chains coincide (omega0 = 0) the chain pairs collapse into
    the sigma_x sector form: M_uu and M_dd are the field norm on their own
    rail and only M_ud[up, down] is a bilinear form, with the one factor
    S = (2 E - I) o G and G = Y^u W Y^d^H (S = 2 E - I for a column, whose
    G is in the phases).  S is the one-chain case of the chain pair (0, 0):
    its rail Gram 2 E - I times, for unit Fock components, G = Y^u W P_j
    Y^u', which is E^W + O^W with each row weighted by W P_j, so S is
    symmetric.  omega0 enters only as data: the number of chains, the
    entries of :func:`_map_entries`, the row weights, the overlaps and
    the constant part of the maps.

    Every factor comes from one loop over chunks of :func:`_chunk_rows`
    eigenvectors of each chain s, read from the first and last nonzero
    Fock row of every eigenvector, found once per chain.  A unit-Fock field
    first keeps, of each chain, the range of columns that spans the
    eigenvectors whose support meets its run, as a view of V_s with its
    energies (``kept`` counts them): an eigenvector exactly 0 on the run
    has a zero overlap, so its rows and columns of every factor are
    exactly 0 (41 % of each chain for thermal(5) at ncut 312, beta = 0.3
    and omega0 = 0.7, 36 % for thermal(25) at ncut 1234 and beta = 0.1 at
    every omega0).  A column meets every eigenvector, so its chains stay
    whole.  A chunk's eigenvectors are zero outside the Fock rows [lo, hi)
    they span and a unit-Fock Gram outside its run; where the two miss
    each other the chunk's rows of every factor are exactly 0 and it takes
    no product.  Otherwise, for each chain t >= s, its products run over
    the rows of that window and over the columns of chain t whose support
    meets the run's part of it; every skipped term is a product with an
    exact zero.  The chunk copies the even rows of its window once before
    BLAS reads them, and the odd rows where a product reads them (a pair
    of chains, or a unit-Fock field Gram), so the eigenvectors may come in
    either layout.  It forms its rail Grams 2 E_ss - I, or E_st + O_st and
    E_st - O_st, and its field Grams E^W + O^W (off omega0 = 0 also
    E^W - O^W), summed over the run's rows inside the window, and writes
    their products.  A chain with itself gives symmetric
    factors: the chunk forms its rows on and above the diagonal and
    mirrors them below.  Divide-and-conquer eigenvectors are exactly zero
    outside a window of Fock rows wherever deflation decoupled them (91 %
    of the entries at beta = 0.1 and F = 1235), so most of the work is
    skipped; a dense V takes the full products.  Each term keeps the
    ``bands`` of its chain pair, each chunk's rows and the range of
    columns they reach, so a phase block multiplies only factor[rows,
    cols] by the phases of those columns, one product per band.  The
    factors share no memory with the eigenvectors; a grid is evaluated in
    blocks of ``block`` points.
    """

    def __init__(self, prop, field):
        weights, vecs, self.tail = field_components(field, prop.trunc)
        self.components = len(weights)
        rows = vecs if isinstance(vecs, slice) else None
        f = prop.fock_dim
        parity = _parity(f)
        one = len(prop.distinct_chains) == 1
        step = _chunk_rows(f)
        run = (0, f) if rows is None else (rows.start, rows.stop)
        chains = []
        for energies, v in prop.distinct_chains:
            # keep the columns that span the eigenvectors meeting the run
            first, last = _supports(v)
            meet = ((first < run[1]) & (last >= run[0])).nonzero()[0]
            chains.append(tuple(x[..., meet[0]:meet[-1] + 1] for x in (energies, v, first, last)))
        self.kept = tuple(len(energies) for energies, *_ in chains)
        self.energies = np.concatenate([energies for energies, *_ in chains])
        self.overlaps = None
        if rows is None:
            norm = float(weights @ np.sum(np.abs(vecs) ** 2, axis=0))
            # per chain W Y^i_s as (i, F, K) and Y^k_t as (F, K, k): i and k
            # over (u, d), W times the 1/4 of each block; i = u, k = d at omega0 = 0
            self.overlaps = []
            for _, v, *_ in chains:
                y = np.stack([_dot(v.T, vecs), _dot(v.T, parity[:, None] * vecs)], axis=-1)
                w = (y[..., :1] if one else y) * (weights if one else 0.25 * weights)[:, None]
                self.overlaps.append((np.moveaxis(w, -1, 0), y[..., 1:] if one else y))
        else:  # a run of unit Fock vectors: every squared column norm is exactly 1
            norm = float(weights @ np.ones(len(weights)))
            # by Fock row: W P_j at omega0 = 0, else W with the 1/4 of each block
            run_weights = np.zeros(f)
            run_weights[rows] = weights * parity[rows] if one else 0.25 * weights
        # a column field's scaled phases take K times the bytes of the phases
        # (2 K off omega0 = 0), so its blocks hold as many times fewer points
        columns = 1 if rows is not None else self.components * (1 if one else 2)
        self.block = max(1, _PHASE_BLOCK_BYTES // max(16 * self.energies.size * columns,
                                                      _POINT_BYTES))
        # per chain pair (s, t) its real factors, one per term, as
        # held[s, t][flip, gram]: the rail Gram 2 E_ss - I (s = t) or
        # E_st + O_st and E_st - O_st (flip), times a unit-Fock field's
        # E^W + O^W and, off omega0 = 0, E^W - O^W (gram); at omega0 = 0
        # the weights W P_j make E^W + O^W the G of the one factor S
        grams = 2 if rows is not None and not one else 1
        below = np.greater.outer(*[np.arange(min(step, f))] * 2)  # strictly below the diagonal
        held = {(s, t): np.zeros((1 if s == t else 2, grams, self.kept[s], self.kept[t]))
                for s, t in itertools.combinations_with_replacement(range(len(chains)), 2)}
        bands = {pair: [] for pair in held}
        for s, (_, vs, fs, ls) in enumerate(chains):
            for start in range(0, len(fs), step):
                end = min(start + step, len(fs))
                top = slice(start, end)
                # eigenvectors `top` vanish outside Fock rows [lo, hi) and a
                # unit-Fock Gram outside the field's run: where the two miss
                # each other their rows stay exactly 0
                lo, hi = int(fs[top].min()), int(ls[top].max()) + 1
                fock = slice(max(lo, run[0]), min(hi, run[1]))
                if fock.start >= fock.stop:
                    continue
                for t in reversed(range(s, len(chains))):  # (s, s) last: `left` views its rows
                    _, vt, ft, lt = chains[t]
                    factors = held[s, t]
                    # only the columns of chain t whose support meets the
                    # overlap take products; a chain with itself forms its
                    # rows on and above the diagonal and mirrors them, so its
                    # band may start left of `top`
                    reach = ((ft < fock.stop) & (lt >= fock.start)).nonzero()[0]
                    stop = max(int(reach[-1]) + 1, end) if s == t else int(reach[-1]) + 1
                    bands[s, t].append((top, slice(int(reach[0]), stop)))
                    cols = slice(start if s == t else int(reach[0]), stop)
                    # numpy multiplies step-2 rows of a column-major array
                    # without BLAS: the window's even rows are copied, and its
                    # odd rows where a product reads them
                    heads = (lo + lo % 2, lo + 1 - lo % 2)[:2 if s != t or rows is not None else 1]
                    right = [np.array(vt[head:hi:2, cols]) for head in heads]
                    left = ([x[:, :end - start] for x in right] if s == t
                            else [np.array(vs[head:hi:2, top]) for head in heads])
                    # the rail Grams 2 E_ss - I, or E_st + O_st and E_st - O_st
                    if s == t:
                        rail = (left[0].T @ right[0])[None]
                        rail *= 2.0
                        rail[0].reshape(-1)[::rail.shape[2] + 1] -= 1.0
                    else:
                        rail = _pair(left[0].T @ right[0], left[1].T @ right[1])
                    field = 1.0  # a column's Gram is in the phases
                    if rows is not None:
                        # E^W + O^W (and E^W - O^W) over the run's even and
                        # odd Fock rows inside the window: rows h of each copy
                        halves = [slice((fock.start - head + 1) // 2,
                                        (fock.stop - head + 1) // 2) for head in heads]
                        field = _pair(*((a[h].T * run_weights[head:hi:2][h]) @ b[h]
                                        for a, b, h, head in zip(left, right, halves, heads)),
                                      grams)
                    np.multiply(rail[:, None], field, out=factors[..., top, cols])
                    del rail, field, left, right
                    if s == t:  # mirror the rows' upper triangle
                        square = factors[..., top, top]
                        np.copyto(square, square.swapaxes(-1, -2),
                                  where=below[:end - start, :end - start])
                        factors[..., end:stop, top] = factors[..., top, end:stop].swapaxes(-1, -2)
        # M_ii[p, p] holds the field norm on its own rail at omega0 = 0, and
        # half of it from each chain otherwise
        self.const = np.zeros((2, 2, 2, 2), dtype=complex)
        np.einsum("iipp->ip", self.const)[...] = norm * np.eye(2) if one else 0.5 * norm
        self.terms = [(s, t, held[s, t][int(flip and s != t), int(gram)], bands[s, t], *e)
                      for (s, t, flip, gram), e in _map_entries(one, rows is not None)]

    def blocks(self, omega_ts):
        """(n, 2, 2, 2, 2) stacks ops[:, i, k, p, q] = M_ik[p, q], one per
        block of at most ``block`` points."""
        for start in range(0, len(omega_ts), self.block):
            yield self._block_ops(omega_ts[start:start + self.block])

    def _block_ops(self, omega_ts):
        # phases[s]: the (kept[s], points) eigenphases of chain s
        phases = np.exp(-1j * np.outer(self.energies, omega_ts))
        phases = np.split(phases, np.cumsum(self.kept[:-1]))
        if self.overlaps is None:
            right = [chain.conj() for chain in phases]
        else:  # a column field: right[t] = Y^k_t* phi_t*, as (F, K, k, points)
            right = [y.conj()[..., None] * chain.conj()[:, None, None]
                     for chain, (_, y) in zip(phases, self.overlaps)]
        # one weight buffer per chain s (the rows its bands miss stay 0);
        # each band of a real factor takes one real product on the (re, im)
        # pairs of right[t], written in place into the weight
        spare = [np.zeros_like(x) for x in right]
        pairs, out = ([x.reshape(len(x), -1).view(float) for x in xs] for xs in (right, spare))
        ops = np.repeat(self.const[None], len(omega_ts), axis=0)
        for s, t, factor, bands, targets, mirrored in self.terms:
            for rows, cols in bands:
                np.matmul(factor[rows, cols], pairs[t][cols], out=out[s][rows])
            if self.overlaps is None:
                value = np.sum(phases[s] * spare[s], axis=0)[None, None]
            else:  # value[i, k] = sum_ac W_c Y^i_s[a, c] phi_s[a] weight[a, c, k]
                spare[s] *= phases[s][:, None, None]
                value = np.tensordot(self.overlaps[s][0], spare[s], axes=2)
            for entries, term in ((targets, value), (mirrored, value.conj())):
                for (i, k, p, q), sign, at in entries:
                    ops[:, i, k, p, q] += term[at] if sign > 0 else -term[at]
        for i in (0, 1):
            ops[:, i, i, 1, 0] = ops[:, i, i, 0, 1].conj()
        ops[:, 1, 0] = ops[:, 0, 1].conj().swapaxes(-1, -2)
        return ops


def _reduced_stack(ops_a, ops_b, initial):
    """(n, 4, 4) stack of two-qubit states Q(t) = sum rho[(ij),(kl)]
    M^A_ik x M^B_jl from (n, 2, 2, 2, 2) stacks of conditional maps, valid
    as the subsystem Hamiltonians commute.  ``initial`` is in the sigma_x
    basis, with qubits uncorrelated with the fields; the truncated-mixture
    trace deficit is renormalized away.  The stack is checked Hermitian (a
    NaN fails) and of unit trace here; its positivity is checked by what
    diagonalizes it: Wootters' formula for a trace's run at its cutoff, and
    :func:`validate_density_matrices` for the doubled-cutoff re-run."""
    n = len(ops_a)
    # Q[(pr), (qs)] = sum A[(ik), (pr)] rho[(ik), (jl)] B[(jl), (qs)]
    rho = initial.rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    q = ops_a.reshape(n, 4, 4).swapaxes(-1, -2) @ rho @ ops_b.reshape(n, 4, 4)
    q = q.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    q = 0.5 * (q + q.conj().swapaxes(-1, -2))
    q /= np.trace(q, axis1=1, axis2=2).real[:, None, None]
    validate_hermitian_unit_trace(q)
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
    Poisson tail is not summed).  It reads physical memory, not the
    process's smaller budget, so the cutoff and every message naming it
    do not depend on the limits a process runs under; a cutoff whose F x F
    array exceeds the budget fails the memory check either way.  The
    cutoff-doubling convergence check is
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
    the run at ``ncut`` was diagonalized, ``kept_modes`` how many
    eigenvectors of each distinct chain entered its maps (fewer than
    ``sector_dim`` where a unit-Fock field kept only the range that spans
    those whose support meets its Fock rows; one entry at omega0 = 0,
    where the chains coincide), ``components`` is
    the number K of mixture components of its field, and ``doubled_ncut``
    the cutoff of the doubling re-run (0 for an empty grid); no CSV writes
    them.
    """

    omega_ts: np.ndarray
    values: np.ndarray
    ncut: int
    tail_mass: float
    doubling_error: float
    doubling_points: int
    eigensolver: str
    sector_dim: int
    kept_modes: tuple
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
    tail mass and (eigensolver, sector dimension, eigenvectors kept per
    chain, mixture components).  The propagator is released once the kernel
    holds its factors."""
    prop = build_hamiltonian(params, spec)
    kernel = _MapKernel(prop, field)
    how = (prop.eigensolver, prop.fock_dim, kernel.kept, kernel.components)
    del prop
    mats = np.empty((len(omega_ts), 4, 4), dtype=complex)
    start = 0
    for ops in kernel.blocks(omega_ts):
        mats[start:start + len(ops)] = reduce(ops)
        start += len(ops)
    return mats, kernel.tail, how


# Phases of the cutoff-doubling re-run: an evenly spaced subsample of the grid.
_DOUBLING_POINTS = 9


def _checked_run(params, field, omega_ts, trunc, tol, reduce, measure, point_bytes,
                 validate=None):
    """The one checked run of :func:`concurrence_trace` and
    :func:`field_field_witness`, as an :class:`OracleTrace`.

    The field must be a :class:`Vacuum`, :class:`Number`,
    :class:`Coherent` or :class:`Thermal` (TypeError otherwise) and the
    phases finite; ``trunc`` defaults to :func:`truncation`.  Before
    allocating, the peak memory of both runs must fit in the memory
    budget and the phase roundoff at the doubled cutoff within ``tol``.
    ``reduce`` maps each block of maps at ``trunc`` to an (n, 4, 4) stack,
    and ``measure`` maps blocks of that stack to the trace's ``values``,
    along their last axis, in blocks of at most ``_PHASE_BLOCK_BYTES`` of
    its temporaries, ``point_bytes`` a point.  The stack is measured before
    the re-run, so what ``measure`` rejects fails before the doubled
    eigensolve.  The re-run of an evenly spaced subsample at
    ``trunc.doubled()``, twice the cutoff and a hundredth of the tail mass,
    goes to ``validate`` where given, and must then agree with the stack
    entrywise within ``tol`` (else :class:`TruncationError`).
    """
    if not isinstance(field, (Vacuum, Number, Coherent, Thermal)):
        raise TypeError(f"unsupported field class: {field!r}")
    omega_ts = _finite_phases(omega_ts, 1)
    if trunc is None:
        trunc = truncation(field, params.beta)
    _require_memory(_trace_bytes(params, field, trunc), f"oracle run at ncut={trunc.ncut}")
    largest = trunc.doubled()
    _require_phase_accuracy(params, largest.ncut, omega_ts, tol)
    mats, tail, how = _run(params, field, omega_ts, trunc, reduce)
    # an empty grid measures its empty stack
    points = _PHASE_BLOCK_BYTES // point_bytes
    values = np.concatenate([measure(mats[start:start + points])
                             for start in range(0, max(len(mats), 1), points)], axis=-1)
    doubling_error, n_check = 0.0, min(len(omega_ts), _DOUBLING_POINTS)
    if n_check:
        idx = np.round(np.linspace(0, len(omega_ts) - 1, n_check)).astype(int)
        idx = idx[np.diff(idx, prepend=-1) > 0]  # ascending: each index once
        check, _, _ = _run(params, field, omega_ts[idx], largest, reduce)
        if validate is not None:
            validate(check)
        doubling_error = float(np.max(np.abs(check - mats[idx])))
        if doubling_error > tol:
            raise TruncationError(f"cutoff-doubling disagreement {doubling_error:.3e} exceeds "
                                  f"{tol:g} (ncut={trunc.ncut}); raise ncut")
    return OracleTrace(omega_ts, values, trunc.ncut, tail, doubling_error, n_check, *how,
                       largest.ncut if n_check else 0)


def concurrence_trace(params, field, initial, omega_ts, trunc=None,
                      convergence_tol=_CONVERGENCE_TOL):
    """Oracle concurrence of ``initial`` (sigma_x basis) under identical fields.

    The checked run of :func:`_checked_run` at ``convergence_tol``, which
    must be finite and positive (ValueError otherwise, before any
    eigensolve): the cutoff-doubling re-run compares the two-qubit matrices
    Q of each block.  Stacked Wootters evaluations measure them, 4096 at a
    time, before the re-run, and check their positivity on the eigenvalues
    they take; :func:`validate_density_matrices` checks the re-run's.  A
    non-finite phase or too large a phase roundoff raises ValueError and
    too little memory :class:`TruncationError`, both before allocating; an
    empty grid gives an empty trace.  An ``initial`` that is not a
    :class:`QubitPairState`, or a ``field`` of no supported class, raises
    TypeError and an ``initial`` not in the sigma_x basis ValueError, also
    before any eigensolve.
    """
    if not (math.isfinite(convergence_tol) and convergence_tol > 0):
        raise ValueError(f"convergence_tol must be finite and > 0, got {convergence_tol}")
    if not isinstance(initial, QubitPairState):
        raise TypeError(f"initial two-qubit state must be a QubitPairState, got {initial!r}")
    if initial.basis is not QubitBasis.SIGMA_X:
        raise ValueError("initial two-qubit state must be expressed in the sigma_x basis")
    return _checked_run(params, field, omega_ts, trunc, convergence_tol,
                        lambda ops: _reduced_stack(ops, ops, initial),
                        lambda qmats: wootters_concurrences(qmats, QubitBasis.SIGMA_X)[0],
                        _WOOTTERS_POINT_BYTES, validate_density_matrices)


@dataclass(frozen=True)
class FieldFieldWitness:
    """Field-field negativity and single-party purities, one entry per phase.

    ``negativity`` is that of the two fields' reduced state with both
    qubits traced out; ``qubit_purity`` and ``field_purity`` are Tr[rho^2]
    of one qubit and of one field.  ``support_dim`` is the dimension k of
    the local support each field was written on (4, and 2 at omega0 = 0),
    so the negativity came from a k^2 x k^2 matrix.  ``doubling_error`` is
    the largest entrywise disagreement of the rail Grams at ``ncut`` and
    twice it.  ``tail_mass``, ``eigensolver``, ``sector_dim``,
    ``kept_modes``, ``components`` and ``doubled_ncut`` are those of the
    checked run, as in :class:`OracleTrace`; no CSV writes them.  For a
    Bell input the qubit purity stays at 1/2 exactly; the field purity is
    1/2 + |<b(t)|-b(t)>|^2 / 2 for vacuum input.
    """

    negativity: np.ndarray
    qubit_purity: np.ndarray
    field_purity: np.ndarray
    support_dim: np.ndarray
    ncut: int
    doubling_error: float
    tail_mass: float
    eigensolver: str
    sector_dim: int
    kept_modes: tuple
    components: int
    doubled_ncut: int


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
        lambda grams: _witness_values(grams[:, rails][:, :, rails], rails, c2),
        _WITNESS_POINT_BYTES)
    return FieldFieldWitness(*trace.values, np.full(len(trace.omega_ts), len(rails)),
                             trace.ncut, trace.doubling_error, trace.tail_mass,
                             trace.eigensolver, trace.sector_dim, trace.kept_modes,
                             trace.components, trace.doubled_ncut)


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
