"""CSV rows from numpy columns: each float cell is exactly ``'%.17g' % v``.

A float cell is printed from numpy arrays, a block of cells at a time.  For
|v| in [1e-250, 1e250) the decimal exponent k = floor(log10 |v|) is found
exactly, and v * 10**(16 - k) is formed as a double-double from a (hi, lo)
table of powers of ten with Dekker's exact product (Numer. Math. 18, 224
(1971)).  Its integer part and fraction give the 17-digit integer N,
rounded to nearest.  Only a cell this cannot certify is printed by Python:
a NaN, an infinity, a value outside that range, or a fraction within 2**-30
of one half, a tie or a value the double-double could round the wrong way.
This is the fast path with exact fallback of Grisu3 (Loitsch, PLDI 2010).

Each cell is laid out in a row of 48 bytes that holds every character
``%g`` can print, at fixed places::

    0 '-'   1 '0'   2 '.'   3..5 '000'   6 d0   7 '.'
    8..39   d1 '.' d2 '.' ... d16 '.'
    40 'e'  41 exponent sign  42..44 exponent digits

A mask of 0xFF and 0 bytes, looked up by (sign, k, number of significant
digits), zeroes every byte the text does not keep.  Byte 47, never reached
by the text, holds the cell's separator: ',' or, in the last column, '\n'.
A block of rows is then a (rows, columns, 48) array already in CSV order,
and ``bytes.translate`` deleting its zero bytes gives the block's text.  A
text column shares the layout, its rows widened to hold its longest cell
and the separator and padded with zeros, so a text cell may hold no NUL.
"""

import numpy as np

_LOW, _HIGH = 1e-250, 1e250  # |v| range of the fast path
# powers of ten in the table: 10**k and 10**(16 - k) for every k of that
# range, with 10**p * _SPLIT finite
_P_MIN, _P_MAX = -270, 270
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26- and 27-bit halves
_BLOCK_CELLS = 4096
_WIDTH = 48


def _pow10_table():
    """10**p ~ hi + lo for p in [_P_MIN, _P_MAX], from exact integers: hi is
    10**p rounded to a double, lo the remainder rounded; ceil is the least
    double >= 10**p; hh the high half of hi for Dekker's product."""
    p = range(_P_MIN, _P_MAX + 1)
    hi, lo = np.empty(len(p)), np.empty(len(p))
    for i, e in enumerate(p):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi[i] = h = num / den
        a, b = h.as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
    ceil = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    c = hi * _SPLIT
    return hi, lo, ceil, c - (c - hi)


_HI, _LO, _CEIL, _HH = _pow10_table()


def _words(byte_rows):
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64).ravel()


_DIGITS = np.stack(np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_DIGITS = _DIGITS.reshape(10000, 4)
# bytes 0..7 of a row for each leading digit q
_LEAD = _words([list(b"-0.000") + [48 + q, 46] for q in range(10)])
# "d.d.d.d." for each group of four digits, and its trailing zeros
_GROUP = _words(np.stack([48 + _DIGITS, np.full_like(_DIGITS, 46)], axis=2).reshape(-1, 8))
_GROUP_TZ = sum(np.arange(10000) % d == 0 for d in (10, 100, 1000, 10000))
del _DIGITS
_K = np.arange(_P_MIN, _P_MAX + 1)
# bytes 40..47 of a row for each decimal exponent k of the table
_EXP = _words(np.stack([np.full_like(_K, 101), np.where(_K < 0, 45, 43)]
                       + [48 + np.abs(_K) // d % 10 for d in (100, 10, 1)]
                       + [np.full_like(_K, 32)] * 3, axis=1))
# keep mask index of a positive value of 17 significant digits, by layout
# class: k + 4 for fixed notation (-4 <= k < 17), 21 and 22 for scientific
# notation with two and three exponent digits
_CODE = 18 * np.where((_K < -4) | (_K > 16), 21 + (np.abs(_K) >= 100), _K + 4) + 17


def _keep_table():
    """Keep masks, 0xFF for a kept byte, for each (sign, class, m), m the
    number of significant digits (1..17), as index (sign * 23 + class) * 18 + m."""
    s, c, m = np.meshgrid(np.arange(2), np.arange(23), np.arange(18), indexing="ij")
    s, c, m = (v.reshape(-1, 1) for v in (s, c, m))
    k = c - 4
    sci = c > 20
    fixed = ~sci & (k >= 0)
    small = ~sci & (k < 0)
    j = np.arange(_WIDTH)
    digit = (j >= 6) & (j < 40) & (j % 2 == 0)
    point = (j >= 7) & (j < 40) & (j % 2 == 1)
    i = (j - 6) // 2  # digit index of a digit slot, and of the digit before a point slot
    keep = (j == 0) & (s == 1)
    keep |= small & ((j == 1) | (j == 2) | ((j >= 3) & (j < 6) & (j - 3 < -k - 1)))
    keep |= digit & (i < np.where(fixed, np.maximum(m, k + 1), m))
    keep |= point & fixed & (i == k) & (m > k + 1)
    keep |= point & sci & (i == 0) & (m > 1)
    keep |= sci & ((j == 40) | (j == 41) | ((j == 42) & (c == 22)) | (j == 43) | (j == 44))
    return (keep * np.uint8(0xFF)).view(np.uint64)


_KEEP = _keep_table()


def _exact(values):
    """The fallback: Python's own ``'%.17g'`` of each value."""
    return ["%.17g" % v for v in values]


def _decimal(a):
    """The 17 significant digits of each positive float a in the fast range,
    as the integer n in [1e16, 1e17), the table index t of 10**k, and
    whether the rounding to n is certain."""
    # t indexes 10**k in the table; np.log10 may be one off next to 10**k.
    t = np.floor(np.log10(a)).astype(np.intp) - _P_MIN
    t -= a < _CEIL.take(t)
    t += a >= _CEIL.take(t + 1)
    # a * 10**(16 - k) = P + E in [1e16, 1e17): Dekker's exact product
    # a * hi = P + e, plus a * lo
    i = 16 - 2 * _P_MIN - t
    hi = _HI.take(i)
    hh = _HH.take(i)
    hl = hi - hh
    P = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    E = (((ah * hh - P) + ah * hl + al * hh) + al * hl) + a * _LO.take(i)
    f = np.floor(E)
    frac = E - f
    n = P.astype(np.int64) + f.astype(np.int64) + (frac > 0.5)
    # the 17 digits of a carry to 10**17 are those of 10**16, one exponent up
    carry = n == 10**17
    n -= carry * (9 * 10**16)
    t += carry
    # E is good to about 1e-14: a fraction this close to 1/2 may round
    # either way
    return n, t, np.abs(frac - 0.5) >= 2.0**-30


def _float_cells(x):
    """The bytes of ``'%.17g' % v`` for the float64 array x, one row of 48
    for each value, every byte beyond the text 0."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _LOW) & (a < _HIGH)
    n, t, certain = _decimal(np.where(fast, a, 1.0))
    slow = ~((fast & certain) | zero)
    n *= ~zero
    q = n // 10**16
    n -= q * 10**16
    hi8 = n // 10**8
    lo8 = n - hi8 * 10**8
    g1 = hi8 // 10**4
    g2 = hi8 - g1 * 10**4
    g3 = lo8 // 10**4
    g4 = lo8 - g3 * 10**4
    words = np.empty((x.size, _WIDTH // 8), np.uint64)
    words[:, 0] = _LEAD.take(q)
    words[:, 1] = _GROUP.take(g1)
    words[:, 2] = _GROUP.take(g2)
    words[:, 3] = _GROUP.take(g3)
    words[:, 4] = _GROUP.take(g4)
    words[:, 5] = _EXP.take(t)
    # trailing zeros of the 17 digits, which %g drops, past g4 where it is 0
    tz = _GROUP_TZ.take(g4)
    z = np.flatnonzero(g4 == 0)
    g1, g2, g3 = g1[z], g2[z], g3[z]
    tz[z] += np.where(g3, _GROUP_TZ.take(g3), 4 + np.where(
        g2, _GROUP_TZ.take(g2), 4 + _GROUP_TZ.take(g1)))
    code = _CODE.take(t) + np.signbit(x) * (23 * 18) - tz
    words &= np.take(_KEEP, code, axis=0)
    chars = words.view(np.uint8)
    at = np.flatnonzero(slow)
    for row, text in zip(at.tolist(), _exact(x[at].tolist())):
        chars[row] = 0
        chars[row, :len(text)] = np.frombuffer(text.encode(), np.uint8)
    return chars


def csv_rows(columns):
    """The CSV text, as bytes, of equal-length columns: each column is a
    float64 array, printed as ``'%.17g' % v``, or a list of strings holding
    no NUL (else ValueError), printed as they are.  Rows end in a newline."""
    if not columns:
        return b""
    ncol, nrows = len(columns), len(columns[0])
    encoded = {i: [s.encode() for s in c] for i, c in enumerate(columns) if isinstance(c, list)}
    if any(b"\0" in s for c in encoded.values() for s in c):
        raise ValueError("a CSV text cell holds a NUL byte")
    width = 1 + max([_WIDTH - 1, *(len(s) for c in encoded.values() for s in c)])
    text = {i: np.array(c, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
            for i, c in encoded.items()}
    floats = [i for i in range(ncol) if i not in text]
    step = max(1, _BLOCK_CELLS // ncol)
    parts = []
    for start in range(0, nrows, step):
        rows = slice(start, start + step)
        if floats:
            x = np.stack([columns[i][rows] for i in floats], axis=1).ravel()
            chars = _float_cells(x).reshape(-1, len(floats), _WIDTH)
        if text:
            block = np.zeros((min(step, nrows - start), ncol, width), np.uint8)
            if floats:
                block[:, floats, :_WIDTH] = chars
            for i, column in text.items():
                block[:, i] = column[rows]
            chars = block
        chars[:, :, -1] = 44
        chars[:, -1, -1] = 10
        data = chars.tobytes()
        # the cells go before the text that stays is cut from their copy, so
        # it can take their place: cutting with them held raised the sweeps
        # benchmark's peak RSS by 1.5 MB, and in 64 KiB slices by 1.0 MB
        chars = x = block = None
        parts.append(data.translate(None, b"\0"))
    return b"".join(parts)
