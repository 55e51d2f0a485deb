"""Special-function tests against exact rational oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from dense_reference import coherent_overlap, laguerre, laguerre_roots_dense

from degjc import specialfn
from degjc.closedform import _abs2
from degjc.oracle import coherent_fock_vector
from degjc.specialfn import (
    laguerre_roots,
    laguerre_scaled,
    thermal_weights,
)
from degjc.validation import concurrence_zero_count


def laguerre_exact(n, x):
    """Exact rational L_n(x) from the explicit coefficient sum,
    independent of the recurrence used by the implementation."""
    x = Fraction(x)
    return sum(
        Fraction((-1) ** k * math.comb(n, k), math.factorial(k)) * x**k for k in range(n + 1)
    )


def test_order_zero_is_one_everywhere():
    assert laguerre(0, 17.3) == 1.0
    assert laguerre(0, 0.0) == 1.0


def test_first_order_root():
    assert laguerre(1, 1.0) == 0.0


def test_second_order_value():
    # L_2(x) = 1 - 2x + x^2/2 evaluated exactly: L_2(2) = -1
    assert laguerre_exact(2, 2) == -1
    assert laguerre(2, 2.0) == pytest.approx(-1.0, abs=1e-14)


def test_recurrence_against_rational_oracle_integer_grid():
    for n in range(0, 51, 5):
        for x in range(0, 101, 7):
            exact = laguerre_exact(n, x)
            got = laguerre(n, float(x))
            if exact == 0:
                assert abs(got) < 1e-12
            else:
                assert abs(got - float(exact)) <= 1e-10 * abs(float(exact))


def test_recurrence_against_rational_oracle_dense_orders():
    xs = [Fraction(k, 2) for k in range(50)]
    for n in range(21):
        for x in xs:
            exact = laguerre_exact(n, x)
            got = laguerre(n, float(x))
            scale = max(1e-30, abs(float(exact)))
            assert abs(got - float(exact)) <= 1e-10 * max(scale, 1e-10)


def test_array_evaluation_matches_scalar():
    xs = np.linspace(0.0, 30.0, 57)
    assert np.array_equal(laguerre(12, xs), [laguerre(12, x) for x in xs])
    # repeated, signed-zero and unsorted arguments, flat and 2-D, on both
    # sides of the n < 8 log2(size) switch: 50.9 for these 82 arguments
    # (an empty array, flat or 2-D, raised a math domain error there)
    mixed = np.concatenate([xs[::-1], xs[::3], [-0.0, 0.0, -0.0, 7.5, 7.5, 3.25]])
    for n in (0, 1, 6, 7, 12, 50, 51, 200):
        for arr in (mixed, mixed.reshape(2, -1), np.array([]), np.empty((2, 0))):
            m, e = laguerre_scaled(n, arr)
            assert m.shape == e.shape == arr.shape
            assert np.array_equal(laguerre(n, arr), np.ldexp(m, e))
            scalar = np.array([laguerre_scaled(n, x) for x in arr.ravel().tolist()]).reshape(-1, 2)
            assert np.array_equal(m.ravel(), scalar[:, 0])
            assert np.array_equal(e.ravel(), scalar[:, 1])


def test_one_recurrence_per_distinct_argument(monkeypatch):
    # x = 4 b^2 |gamma|^2 on the 20001-phase grid of [0, 4 pi] at b = 0.5
    x = 2.0 - 2.0 * np.cos(np.linspace(0.0, 4.0 * math.pi, 20001))
    sizes = []
    recurrence = specialfn._recurrence

    def spy(n, xs):
        sizes.append(xs.size)
        return recurrence(n, xs)

    monkeypatch.setattr(specialfn, "_recurrence", spy)
    m, e = laguerre_scaled(1000, x)
    assert len(sizes) == 1 and sizes[0] < x.size
    lk, _, ref_e = recurrence(1000, x)
    ref_m, shift = np.frexp(lk)
    assert np.array_equal(m, ref_m) and np.array_equal(e, ref_e + shift)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        laguerre_scaled(-1, 1.0)
    with pytest.raises(ValueError):
        laguerre_scaled(2.5, 1.0)
    with pytest.raises(ValueError):
        laguerre_scaled(10_001, 1.0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        for call in (lambda: laguerre_scaled(bad, 1.0), lambda: laguerre_roots(bad)):
            with pytest.raises(ValueError, match="Laguerre order must be a nonnegative integer"):
                call()
    with pytest.raises(ValueError):
        laguerre_scaled(3, float("nan"))
    with pytest.raises(ValueError):
        laguerre_scaled(3, np.array([1.0, float("inf")]))


def test_root_count_and_bounds():
    for n in (1, 2, 5, 25):
        roots = laguerre_roots(n)
        assert len(roots) == n
        assert np.all(roots > 0.0)
        assert np.all(roots < 4 * n + 2)
        # each isolated root changes the sign of L_n
        for r in roots:
            assert laguerre(n, r - 1e-6) * laguerre(n, r + 1e-6) < 0 or abs(
                laguerre(n, r)
            ) < 1e-12


def test_roots_below_cutoff():
    # L_1's single root is exactly 1; a cutoff below it finds nothing
    assert len(laguerre_roots(1, 0.5)) == 0
    assert len(laguerre_roots(1, 4.0)) == 1
    assert laguerre_roots(1, 4.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_roots_cutoff_nan_rejected_inf_keeps_all():
    for n in (0, 5):
        with pytest.raises(ValueError, match="NaN"):
            laguerre_roots(n, float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            laguerre_roots(n, np.float64("nan"))
    assert np.array_equal(laguerre_roots(5, float("inf")), laguerre_roots(5))


@pytest.mark.parametrize("dstevd", [True, False])
def test_roots_equal_the_dense_jacobi_reference(dstevd, monkeypatch):
    # the values-only tridiagonal solve gives the dense eigvalsh bits
    if dstevd and specialfn._lapack_dstevd() is None:
        pytest.skip("numpy's LAPACK exports no dstevd")
    if not dstevd:
        monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
    for n in [*range(201), 400, 1000]:
        assert np.array_equal(laguerre_roots(n), laguerre_roots_dense(n)), n
    for n, x_max in ((25, 30.0), (400, 100.0), (1000, 4.0)):
        assert np.array_equal(laguerre_roots(n, x_max), laguerre_roots_dense(n, x_max))


@pytest.mark.slow
def test_roots_of_the_largest_order_form_no_dense_matrix():
    if specialfn._lapack_dstevd() is None:
        pytest.skip("numpy's LAPACK exports no dstevd")
    n = specialfn.MAX_LAGUERRE_ORDER
    tracemalloc.start()
    try:
        roots = laguerre_roots(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the dense n x n Jacobi matrix alone takes 800 MB
    assert len(roots) == n and np.all(np.diff(roots) > 0.0)
    # the roots sum to the trace of the Jacobi matrix, sum(2k + 1) = n^2
    assert math.fsum(roots) == pytest.approx(n * n, rel=1e-12)


def _plain_recurrence(n, x):
    """The unscaled upward recurrence, step for step as the library runs it."""
    if n == 0:
        return 1.0
    lkm1, lk = 1.0, 1.0 - x
    for k in range(1, n):
        lkm1, lk = lk, ((2 * k + 1 - x) * lk - k * lkm1) * (1.0 / (k + 1))
    return lk


def test_scaled_recurrence_bit_identical_where_plain_is_finite():
    xs = np.linspace(0.0, 1600.0, 401)
    for n in (0, 1, 5, 25, 200, 1000):
        m, e = laguerre_scaled(n, xs)
        for x, mi, ei in zip(xs, m, e):
            plain = _plain_recurrence(n, float(x))
            if math.isfinite(plain):
                assert math.ldexp(mi, int(ei)) == plain
                assert laguerre_scaled(n, float(x)) == (mi, ei)


def _allocating_recurrence(n, xs):
    """The array recurrence with one new array per operation: the step
    expression the in-place buffers must reproduce bit for bit."""
    e = np.zeros(xs.shape, dtype=np.int64)
    steps, threshold = specialfn._schedule(n, float(np.max(np.abs(xs))))
    lkm1, lk = np.ones_like(xs), 1.0 - xs
    for start in range(1, n, steps):
        big = np.maximum(np.abs(lk), np.abs(lkm1))
        over = big > threshold
        if np.any(over):
            _, shift = np.frexp(big[over])
            lk[over] = np.ldexp(lk[over], -shift)
            lkm1[over] = np.ldexp(lkm1[over], -shift)
            e[over] += shift
        for k in range(start, min(start + steps, n)):
            lkm1, lk = lk, ((2 * k + 1 - xs) * lk - k * lkm1) * (1.0 / (k + 1))
    return lk, lkm1, e


def test_in_place_recurrence_bit_identical():
    # rescaled: x = 1e15 at n = 25, x >= 727.5 at n = 1000
    xs = np.concatenate([np.linspace(0.0, 3000.0, 2001), [0.25, 1e8, 1e15]])
    for n in (1, 25, 1000):
        lk, lkm1, e = specialfn._recurrence(n, xs)
        ref_lk, ref_lkm1, ref_e = _allocating_recurrence(n, xs)
        assert np.array_equal(lk, ref_lk) and np.array_equal(lkm1, ref_lkm1)
        assert np.array_equal(e, ref_e)
        if n > 1:
            assert np.any(e > 0)


def test_scaled_matches_exact_beyond_float_range():
    # L_200(1600) ~ 1e265 and L_3(1e200) ~ -1.7e599: the mantissa and the
    # exponent carry the exact rational value to a few ulps
    for n, x in ((200, 1600), (3, 10**200), (1000, 3000)):
        m, e = laguerre_scaled(n, float(x))
        assert 0.5 <= abs(m) < 1.0
        exact = laguerre_exact(n, x)
        assert abs(Fraction(m) * Fraction(2) ** e - exact) <= Fraction(1e-13) * abs(exact)


def test_roots_of_order_400_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n = 400
    roots = laguerre_roots(n)
    assert len(roots) == n
    assert np.all(np.diff(roots) > 0.0)
    # L_400 evaluated at 40 digits changes sign within 1e-12 relative of
    # every node; n disjoint brackets hold all n roots of the polynomial
    with mpmath.workdps(40):
        delta = mpmath.mpf("1e-12")
        for r in roots:
            lo = mpmath.laguerre(n, 0, mpmath.mpf(r) * (1 - delta))
            hi = mpmath.laguerre(n, 0, mpmath.mpf(r) * (1 + delta))
            assert lo * hi < 0, r


def test_thermal_weights_vacuum_limit():
    w, tail = thermal_weights(0.0, 5)
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)
    assert tail == 0.0


def test_thermal_weights_unit_occupation():
    # nbar = 1: p_n = 1 / 2^(n+1)
    w, tail = thermal_weights(1.0, 2)
    np.testing.assert_allclose(w, [0.5, 0.25, 0.125], rtol=1e-15)
    assert tail == pytest.approx(0.125, rel=1e-15)


def test_thermal_weights_never_exceed_unity():
    for nbar in (0.0, 0.3, 1.0, 7.5, 25.0):
        for ncut in (0, 3, 40):
            w, tail = thermal_weights(nbar, ncut)
            assert w.sum() <= 1.0 + 1e-14
            assert w.sum() + tail == pytest.approx(1.0, abs=1e-12)


def test_thermal_weights_reject_negative():
    with pytest.raises(ValueError):
        thermal_weights(-0.1, 5)


def test_thermal_weights_need_an_integral_cutoff():
    # a fractional cutoff gave 4 weights but the tail r^3.5
    for ncut in (2.5, 2.0, -1, True, "3"):
        with pytest.raises(ValueError, match="ncut"):
            thermal_weights(1.0, ncut)
    w, tail = thermal_weights(1.0, np.int64(2))
    assert len(w) == 3 and tail == 0.125


def _overlap(a, b, ncut=70):
    """<a|b> of the library's truncated Fock expansions of |a> and |b>,
    whose amplitude check is ``specialfn._amplitude``."""
    return np.vdot(coherent_fock_vector(a, ncut)[0], coherent_fock_vector(b, ncut)[0])


@pytest.mark.parametrize("bad", [complex("nan"), complex("nan+1j"), float("inf"), complex(0, -math.inf)])
def test_overlap_rejects_non_finite_amplitude(bad):
    for a, b in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            _overlap(a, b)


def test_overlap_rejects_overflowing_amplitude():
    # |a|^2 overflowed in a bare OverflowError
    for a, b in ((1e200, 0), (0, 1e200j)):
        with pytest.raises(ValueError, match="1e\\+200"):
            _overlap(a, b)


def test_overlap_normalization():
    for z in (0.0, 1.0, 0.3 - 2.0j):
        assert _overlap(z, z) == pytest.approx(1.0, abs=1e-15)


def test_overlap_vacuum():
    b = 0.7 + 0.2j
    assert _overlap(0.0, b) == pytest.approx(math.exp(-abs(b) ** 2 / 2), abs=1e-15)


def test_overlap_opposite_amplitudes():
    assert _overlap(1.0, -1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_overlap_against_fock_series(rng):
    # the truncated sum_n conj(c_n(a)) c_n(b) against the closed form
    for _ in range(20):
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        assert _overlap(a, b) == pytest.approx(coherent_overlap(a, b), abs=1e-12)


def test_overlap_bounded_by_one(rng):
    for _ in range(200):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        mag = abs(_overlap(a, b))
        assert mag <= 1.0 + 1e-12
        if abs(a - b) > 1e-6:
            assert mag < 1.0


@pytest.mark.parametrize("n, beta", [(1, 0.1), (2, 0.5), (5, 0.5), (25, 0.1), (25, 0.5), (60, 3.0)])
def test_zero_count_matches_the_laguerre_values(n, beta):
    # validate counts the zeros from the mantissas of laguerre_scaled: the
    # counts of the values of L_n, wherever those are finite
    x = 4.0 * beta**2 * _abs2(np.linspace(1e-9, 2.0 * math.pi - 1e-9, 8192))
    vals = laguerre(n, x)
    expected = np.sum(vals[:-1] * vals[1:] < 0.0) + np.sum(vals == 0.0)
    assert concurrence_zero_count(n, beta) == expected


def test_zero_count_past_the_float_range():
    # |L_200(x)| passes the float range below x = 6400 = 16 b^2 at b = 20;
    # the count is still twice the 200 roots
    assert laguerre_scaled(200, 6400.0)[1] > 1024
    assert concurrence_zero_count(200, 20.0) == 2 * len(laguerre_roots(200, 6400.0)) == 400
