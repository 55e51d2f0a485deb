"""Special functions of the closed-form dynamics, and the tridiagonal
eigensolver behind both the Laguerre roots and the oracle's parity chains.

Laguerre polynomials come from the upward three-term recurrence, rescaled
by exact powers of two so that no order or argument overflows: the
recurrence returns a mantissa and a binary exponent, and callers that
multiply by exp(-x/2) fold the exponent into the exponential.
"""

import cmath
import ctypes
import functools
import math
import numbers

import numpy as np

MAX_LAGUERRE_ORDER = 10_000

# Binary exponent kept in reserve: the recurrence is rescaled once its
# magnitude passes 2^(1023 - _HEADROOM_BITS), and checked often enough that
# the steps in between cannot spend the reserve.
_HEADROOM_BITS = 511


def _real(x, name):
    """``x`` itself; ValueError naming it for a complex-typed ``x``, scalar
    or array, which a conversion to float would cut to its real part."""
    if np.iscomplexobj(x):
        raise ValueError(f"{name} must be real, got {x!r}")
    return x


def _real_array(x, name):
    """``x`` as a float array, checked by :func:`_real`."""
    return np.asarray(_real(x, name), dtype=float)


def _is_count(n):
    """Whether ``n`` equals a nonnegative integer; False for an infinite
    or NaN ``n``, which no integer equals."""
    try:
        return n == int(n) and n >= 0
    except (OverflowError, ValueError):
        return False


def _check_order(n):
    if not _is_count(n):
        raise ValueError(f"Laguerre order must be a nonnegative integer, got {n!r}")
    n = int(n)
    if n > MAX_LAGUERRE_ORDER:
        raise ValueError(f"Laguerre order {n} exceeds supported maximum {MAX_LAGUERRE_ORDER}")
    return n


def _schedule(n, x_max):
    """(steps between magnitude checks, rescaling threshold) for |x| <= x_max.

    One step multiplies max(|L_k|, |L_{k-1}|) by at most 3n + 3 + |x|, and so
    does every intermediate product, so ``steps`` steps from at most the
    threshold stay below 2^1023.
    """
    growth = math.log2(3.0 * n + 3.0 + x_max)
    steps = max(1, int(_HEADROOM_BITS // growth))
    return steps, 2.0 ** math.floor(1023.0 - steps * growth)


def _recurrence(n, xs):
    """(L_n, L_{n-1}, e) at an array xs, or at a numpy scalar, with the true
    values L_n(x) 2^e and L_{n-1}(x) 2^e and one exponent per element.

    The step is (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, multiplied by the
    reciprocal of k+1.  An array's step runs in place, in the buffer of
    L_{k-1} and a spare that takes L_{k+1} (the buffer of L_{k-1} is the
    next step's spare), so no step allocates; a scalar's makes new
    scalars, each operation rounded as an array's.
    Rescaling by exact powers of two leaves every mantissa bit equal to the
    unscaled recurrence wherever that stays finite.
    """
    e = np.zeros(np.shape(xs), dtype=np.int64)
    if n == 0:
        return np.ones_like(xs), np.zeros_like(xs), e
    steps, threshold = _schedule(n, float(np.max(np.abs(xs), initial=0.0)))
    lkm1, lk, spare = np.ones_like(xs), 1.0 - xs, np.empty_like(xs)
    scalar = np.ndim(xs) == 0
    for start in range(1, n, steps):
        big = np.maximum(np.abs(lk), np.abs(lkm1))
        over = big > threshold
        if np.any(over):
            shift = np.where(over, np.frexp(big)[1], 0)  # 2^0 leaves the rest exact
            lk, lkm1, e = np.ldexp(lk, -shift), np.ldexp(lkm1, -shift), e + shift
        for k in range(start, min(start + steps, n)):
            work = 2 * k + 1 - xs if scalar else np.subtract(2 * k + 1, xs, out=spare)
            work *= lk
            lkm1 *= k
            work -= lkm1
            work *= 1.0 / (k + 1)
            lkm1, lk, spare = lk, work, lkm1
    return lk, lkm1, e


def laguerre_scaled(n, x):
    """L_n(x) = m 2^e as ``(m, e)``, with |m| in [1/2, 1) or m = 0.

    Finite for every finite x, however large |L_n(x)| is; accepts a scalar
    or an array of real arguments (a scalar gives a float and an int).
    ``n`` must be an integer in [0, 10_000]; a complex-typed ``x`` raises
    ValueError.

    An array runs the recurrence once per distinct argument (0.0 and -0.0
    are one), gathered back into its shape.  Each element's steps and the
    rescaling schedule, set by max|x| alone, are those of the whole array,
    so every bit is the same, and a scalar takes the same recurrence.  The
    sort that finds the distinct arguments is skipped where the array holds
    fewer than two or the recurrence is short, n < 8 log2(size): on phase
    grids of 4001 to 20001 arguments, 71 to 84 % of them distinct, it paid
    for itself from n = 5 to 12 log2(size) on.
    """
    n = _check_order(n)
    xs = _real_array(x, "Laguerre argument")
    if not np.all(np.isfinite(xs)):
        raise ValueError("Laguerre argument must be finite")
    if xs.size < 2 or n < 8 * math.log2(xs.size):
        # one argument runs as a numpy scalar, without an array's cost per step
        lk, _, e = _recurrence(n, xs.reshape(-1)[0] if xs.size == 1 else xs)
        m, shift = np.frexp(lk)
        if xs.ndim == 0:
            return float(m), int(e + shift)
        return np.reshape(m, xs.shape), np.reshape(e + shift, xs.shape)
    # the distinct arguments and the index of each element's, from one sort
    order = xs.ravel().argsort()
    ordered = xs.ravel()[order]
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    distinct, at = ordered[first], np.empty(order.size, dtype=np.intp)
    at[order] = np.cumsum(first) - 1
    lk, _, e = _recurrence(n, distinct)
    m, shift = np.frexp(lk)
    return m.take(at).reshape(xs.shape), (e + shift).take(at).reshape(xs.shape)


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


def _tridiagonal_eigh(diag, off, vectors=True):
    """Ascending eigenvalues, eigenvectors (None unless ``vectors``) and
    solver name of the real symmetric tridiagonal matrix with diagonal
    ``diag`` and off-diagonal ``off``.

    ``dstevd`` (Cuppen, Numer. Math. 36, 177 (1981); Gu & Eisenstat, SIAM
    J. Matrix Anal. Appl. 16, 172 (1995)) works on the two diagonals and
    skips the O(n^3) Householder reduction that ``eigh`` applies to the
    dense matrix; for numpy's OpenBLAS both give the same bits.  Without
    the routine the dense matrix goes to ``eigh`` (``eigvalsh`` for the
    values alone).  Either way the eigenvectors come in LAPACK's
    column-major (Fortran) layout, each one contiguous: ``eigh``'s C-order
    result is converted, so both routes hand the same array to the
    callers.  Raises ``np.linalg.LinAlgError`` when the solver fails.
    """
    stevd = _lapack_dstevd()
    if stevd is None:
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        if not vectors:
            return np.linalg.eigvalsh(dense), None, "eigh"
        values, modes = np.linalg.eigh(dense)
        del dense
        return values, np.asfortranarray(modes), "eigh"
    n = diag.size
    d = np.array(diag, dtype=float)  # overwritten by the eigenvalues
    e = np.zeros(n)  # off-diagonal, destroyed; one spare entry
    e[:-1] = off
    # the values alone take O(1) workspace and no eigenvector matrix
    z = np.empty((n, n) if vectors else 1, order="F")
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if vectors else (1, 1)
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    info = ctypes.c_int64()

    def ref(value):
        return ctypes.byref(ctypes.c_int64(value))

    stevd(b"V" if vectors else b"N", ref(n), d.ctypes, e.ctypes, z.ctypes, ref(n),
          work.ctypes, ref(lwork), iwork.ctypes, ref(liwork), ctypes.byref(info), 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dstevd info={info.value}")
    return d, z if vectors else None, "dstevd"


def laguerre_roots(n, x_max=None):
    """The n positive roots of L_n in ascending order, those above ``x_max``
    dropped.

    Golub-Welsch (Math. Comp. 23, 221 (1969)): the roots are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix with diagonal 2k+1 and
    off-diagonal k, found by :func:`_tridiagonal_eigh` without eigenvectors
    and polished by one Newton step on the scaled recurrence.  A NaN
    ``x_max`` raises ValueError; ``x_max=inf`` keeps every root.
    """
    n = _check_order(n)
    if x_max is not None and math.isnan(x_max):
        raise ValueError("x_max must not be NaN")
    if n == 0:
        return np.array([])
    k = np.arange(n, dtype=float)
    roots, _, _ = _tridiagonal_eigh(2.0 * k + 1.0, k[1:], vectors=False)
    # L_n' = n (L_n - L_{n-1}) / x; the common exponent cancels in the ratio
    ln, lnm1, _ = _recurrence(n, roots)
    roots = roots - roots * ln / (n * (ln - lnm1))
    if x_max is not None:
        roots = roots[roots <= x_max]
    return roots


def thermal_weights(nbar, ncut):
    """Fock-diagonal weights of a thermal state, p_n = nbar^n / (1+nbar)^(n+1).

    Returns ``(weights, tail)`` for n = 0..ncut.  The weights are left
    unnormalized: ``tail`` is the exact probability mass beyond ncut,
    (nbar/(1+nbar))^(ncut+1), and feeds the truncation-error bound.
    ``ncut`` must be an integer >= 0.
    """
    if nbar < 0 or not math.isfinite(nbar):
        raise ValueError(f"thermal occupation must be finite and >= 0, got {nbar!r}")
    if isinstance(ncut, bool) or not isinstance(ncut, numbers.Integral) or ncut < 0:
        raise ValueError(f"ncut must be an integer >= 0, got {ncut!r}")
    n = np.arange(ncut + 1)
    if nbar == 0.0:
        weights = np.zeros(ncut + 1)
        weights[0] = 1.0
        return weights, 0.0
    ratio = nbar / (1.0 + nbar)
    weights = np.exp(n * math.log(ratio)) / (1.0 + nbar)
    tail = ratio ** (ncut + 1)
    return weights, tail


def _amplitude(alpha):
    """``(alpha, |alpha|^2)`` with ``alpha`` as a complex number; ValueError
    naming it unless it is finite and |alpha| < 1e154, so |alpha|^2 is too."""
    alpha = complex(alpha)
    if cmath.isfinite(alpha) and abs(alpha) < 1e154:
        return alpha, abs(alpha) ** 2
    raise ValueError(f"coherent amplitude must be finite and below 1e154, got {alpha!r}")

