"""Text of numeric tables, rendered from whole columns: integer columns as
``'%d' % k`` and float columns as ``'%.17g' % x`` write them, byte for byte.

A finite float x != 0 prints from its 17-digit significand D and decimal
exponent X, with |x| ~ D * 10**(X - 16) and 10**16 <= D < 10**17, rounded
half to even from the exact binary value as CPython's dtoa rounds it (Gay
1990). The kernel forms |x| * 10**(16 - X) as a double-double s + r with
Dekker's error-free product (Dekker 1971) against a hi + lo table of powers
of ten; s + r is within 1e-13 of the exact product, so rounding it decides
D unless the product lies within 1e-6 of a half-integer. X starts at
floor(log10|x|) and is corrected from the unrounded s + r. The cells the
kernel cannot decide, those near a rounding tie, non-finite ones and those
outside [1e-280, 1e280] where the product could overflow, are formatted by
``'%.17g' % x`` itself.

Each cell is assembled in fixed-width uint8 words whose absent characters
are NUL bytes, and one ``bytes.translate`` per block of rows drops them.
"""

from __future__ import annotations

import numpy as np

_BLOCK_CELLS = 2**13  # cells rendered at once, which bounds the temporaries
_RANGE = (1e-280, 1e280)  # |x| whose products below cannot overflow
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter into 26-bit halves
_KMIN, _KMAX = -266, 298  # the powers 10**(16 - X) that _RANGE needs, with margin
_X0 = 400  # offset of the decimal exponent X in the tables indexed by it


def _split(a):
    """Veltkamp's split a = hi + lo, each half holding 26 significant bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker 1971)."""
    (ah, al), (bh, bl) = _split(a), _split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _powers_of_ten():
    """(hi, lo) with hi + lo = 10**k to 2**-100 relative, k in [_KMIN, _KMAX].
    10**k is 10**(23 i), a double-double from the exact integer, times
    10**b with b < 23, an exact double; the negative powers are
    double-double reciprocals of the positive ones."""
    anchors = [10 ** (23 * i) for i in range(_KMAX // 23 + 1)]
    a_hi = np.array([float(a) for a in anchors])
    a_lo = np.array([float(a - int(h)) for a, h in zip(anchors, a_hi.tolist())])
    b = np.array([float(f"1e{j}") for j in range(23)])
    p, e = _two_product(a_hi[:, None], b)
    e += a_lo[:, None] * b
    hi = (p + e).ravel()[: _KMAX + 1]
    lo = (e - ((p + e) - p)).ravel()[: _KMAX + 1]
    # 1 / (d_hi + d_lo) = inv + (1 - d_hi * inv - d_lo * inv) / d_hi
    d_hi, d_lo = hi[1 : 1 - _KMIN], lo[1 : 1 - _KMIN]
    inv = 1.0 / d_hi
    p, e = _two_product(d_hi, inv)
    inv_lo = ((1.0 - p) - e - d_lo * inv) / d_hi
    return np.concatenate([inv[::-1], hi]), np.concatenate([inv_lo[::-1], lo])


def _digit_tables():
    """The ASCII digits of "0000" .. "9999", and their counts of leading and
    of trailing zero digits; "0000" counts 4 of each."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    ascii = np.arange(48, 58, dtype=np.uint8)
    for j in range(4):
        digits[..., j] = ascii.reshape([10 if i == j else 1 for i in range(4)])
    digits = digits.reshape(10000, 4)
    z = (digits == 48).view(np.int8).T
    leading = z[0] * (1 + z[1] * (1 + z[2] * (1 + z[3])))
    return digits, leading, z[3] * (1 + z[2] * (1 + z[1] * (1 + z[0])))


_POW10 = _powers_of_ten()
_DIGITS4, _LEADING0, _TRAILING0 = _digit_tables()


def _float_layout():
    """The tables of a float cell's 48 bytes, read as six little-endian
    words. Word 0 holds the sign, the '0.000' lead of 1e-4 <= |x| < 0.1 and
    the first digit, in byte 6; words 1-4 hold four digits each as (digit,
    '.' slot) byte pairs; word 5 holds 'e', the exponent's sign and its two
    or three digits. The tables are:

    - templates of words 0-5 per class and count of kept digits, with the
      constant characters in place and 0xFF in each slot whose digit is
      kept, for the digits to be and-ed in. Class c < 21 is the fixed form
      of X = c - 4, which keeps its integer digits; class 21 is scientific;
    - per X + _X0: the offset of the class's templates, the least count of
      kept digits, and word 5;
    - per sign and first digit, word 0's bytes; per four digits, words 1-4.
    """
    X = np.append(np.arange(-4, 17), 0)[:, None, None]  # scientific has X = 0's '.'
    keep = np.arange(1, 18)[:, None]
    templates = np.zeros((22, 17, 48), np.uint8)
    templates[:, :, 8:40:2] = 0xFF * (np.arange(1, 17) < keep)
    templates[:4, :, 1:6] = 48 * (np.arange(1, 6) < 2 - X[:4])
    templates[:4, :, 2] = 46
    templates[:, :, 7:39:2] = 46 * ((np.arange(16) == X) & (X + 1 < keep))
    X = np.arange(-_X0, _X0)
    fixed = (X >= -4) & (X <= 16)
    exponent = np.zeros((2 * _X0, 8), np.uint8)
    exponent[:, 0] = 101
    exponent[:, 1] = 43 + 2 * (X < 0)
    exponent[:, 2] = _DIGITS4[abs(X), 1] * (abs(X) >= 100)
    exponent[:, 3:5] = _DIGITS4[abs(X), 2:]
    exponent[fixed] = 0
    head = np.zeros((2, 10, 8), np.uint8)
    head[1, :, 0] = 45
    head[:, :, 6] = np.arange(48, 58)
    groups = np.full((10000, 8), 0xFF, np.uint8)
    groups[:, ::2] = _DIGITS4
    return (
        templates.reshape(-1, 48).view("<u8"),
        17 * np.where(fixed, X + 4, 21),
        (X + 1) * fixed,
        exponent.view("<u8").ravel(),
        head.view("<u8").ravel(),
        groups.view("<u8").ravel(),
    )


_TEMPLATES, _CLASS_ROW, _MIN_KEEP, _EXPONENT, _HEAD, _GROUP_WORDS = _float_layout()
# an integer cell: the sign, three NULs and 20 digit slots, with 0xFF on the
# digits kept after each count of leading zeros
_INT_TEMPLATES = (0xFF * (np.arange(24) >= np.arange(4, 24)[:, None])).astype(np.uint8)
_INT_TEMPLATES = _INT_TEMPLATES.view("<u4")
_WORDS4 = _DIGITS4.view("<u4").ravel()


def _scaled(a, X):
    """(s, r) with s + r = a * 10**(16 - X) to within 1e-13 for a in _RANGE."""
    hi, lo = (t[16 - X - _KMIN] for t in _POW10)
    s, e = _two_product(a, hi)
    return s, e + a * lo


def _float_cells(x):
    """The (n, 48) NUL-padded uint8 text of '%.17g' % x for a float64 1-D x."""
    ax = np.abs(x)
    zero = ax == 0
    ok = (ax >= _RANGE[0]) & (ax <= _RANGE[1])  # False on nan and inf
    a = np.where(ok, ax, 1.0)  # a zero prints as the digits of 1 at X = 0
    X = np.floor(np.log10(a)).astype(np.int64)
    s, r = _scaled(a, X)
    # the significand s + r must lie in [1e16, 1e17): step X where log10 missed
    over, under = (s - 1e17) + r >= 0, (s - 1e16) + r < 0
    moved = np.flatnonzero(over | under)
    if moved.size:
        X[moved] += over[moved].astype(np.int64) - under[moved]
        s[moved], r[moved] = _scaled(a[moved], X[moved])
        over, under = (s - 1e17) + r >= 0, (s - 1e16) + r < 0
    undecided = ~(ok | zero) | over | under | (abs(r - np.floor(r) - 0.5) < 1e-6)
    D = s.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = D == 10**17
    D -= carry * (9 * 10**16)
    X += carry + _X0
    # D's 17 digits: the leading one, then four groups of four
    top = D // 10**8
    low = D - top * 10**8
    lead = top // 10**8
    mid = top - lead * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    g2, g4 = mid - g1 * 10**4, low - g3 * 10**4
    t = _TRAILING0
    zeros = t[g4] + (g4 == 0) * (t[g3] + (g3 == 0) * (t[g2] + (g2 == 0) * t[g1]))
    key = _CLASS_ROW[X] + np.maximum(16 - zeros, _MIN_KEEP[X] - 1)
    words = np.take(_TEMPLATES, key, axis=0)
    words[:, 0] |= _HEAD[lead - zero + 10 * np.signbit(x)]
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        words[:, j] &= _GROUP_WORDS[g]
    words[:, 5] = _EXPONENT[X]
    out = words.view(np.uint8)
    for i in np.flatnonzero(undecided):
        text = ("%.17g" % x[i]).encode()
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _int_cells(k):
    """The (n, 24) NUL-padded uint8 text of '%d' % k for an integer 1-D k."""
    if k.dtype == np.uint64:
        mag, neg = k, np.zeros(len(k), bool)
    else:
        k = k.astype(np.int64)
        mag, neg = np.abs(k).view(np.uint64), k < 0  # |min int64| wraps to 2**63 here
    top = mag // np.uint64(10**16)
    rest = (mag - top * np.uint64(10**16)).astype(np.int64)
    groups = [top.astype(np.int64)]
    for scale in (10**12, 10**8, 10**4):
        groups.append(rest // scale)
        rest -= groups[-1] * scale
    groups.append(rest)
    zeros = 4 * len(groups)
    for g in reversed(groups):
        zeros = _LEADING0[g] + (g == 0) * zeros
    words = np.take(_INT_TEMPLATES, np.minimum(zeros, 19), axis=0)
    words[:, 0] = 45 * neg
    for j, g in enumerate(groups, start=1):
        words[:, j] &= _WORDS4[g]
    return words.view(np.uint8)


def table_text(columns: list):
    """The rows of a table of equal-length 1-D columns as bytes, yielded in
    blocks of rows: integer columns as '%d', the rest as '%.17g', cells
    joined by ',' and each row ended by a newline. A column given as None
    has empty cells."""
    arrays = [None if c is None else np.asarray(c) for c in columns]
    is_int = [a is not None and a.dtype.kind in "iu" for a in arrays]
    floats = [a for a, i in zip(arrays, is_int) if a is not None and not i]
    width = [0 if a is None else 24 if i else 48 for a, i in zip(arrays, is_int)]
    present = [a for a in arrays if a is not None]
    n = len(present[0]) if present else 0
    rows = max(1, _BLOCK_CELLS // max(1, len(present)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        if floats:
            block = np.column_stack([a[start:stop] for a in floats]).astype(float, copy=False)
            text = _float_cells(block.ravel()).reshape(stop - start, -1, 48)
        out = np.empty((stop - start, sum(width) + len(arrays)), np.uint8)
        offset, f = 0, 0
        for a, i, w in zip(arrays, is_int, width):
            if i:
                out[:, offset : offset + w] = _int_cells(a[start:stop])
            elif a is not None:
                out[:, offset : offset + w] = text[:, f]
                f += 1
            out[:, offset + w] = 44  # ","
            offset += w + 1
        out[:, -1] = 10  # the row's last "," becomes its newline
        yield out.tobytes().translate(None, b"\0")
