"""The table-text kernel against Python's own formatting, cell by cell:
'%.17g' % x for floats and '%d' % k for integers, on random bit patterns,
the neighbours of every power of ten, exact rounding ties, 9.99... carries,
the values the kernel leaves to '%.17g', and tables larger than one block."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from modsample import tabletext
from modsample.tabletext import table_text as _blocks


def table_text(columns):
    return b"".join(_blocks(columns))


def _float_lines(x):
    return b"".join(b"%s\n" % ("%.17g" % v).encode() for v in np.asarray(x).tolist())


def _assert_floats(x):
    x = np.asarray(x, dtype=float)
    got = table_text([x]).split(b"\n")
    want = _float_lines(x).split(b"\n")
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(x)} cells differ, e.g. {bad[:3]}"
    assert len(got) == len(want)


def test_random_bit_patterns():
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64)
    # a quarter with a zero exponent field: subnormals
    bits[::4] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    _assert_floats(bits.view(np.float64))


def test_neighbours_of_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    cells = [powers, -powers]
    for direction in (np.inf, 0.0):
        x = powers
        for _ in range(30):
            x = np.nextafter(x, direction)
            cells.append(x)
    _assert_floats(np.concatenate(cells))


def _is_tie(x):
    """Whether the exact decimal value of x has 18 significant digits, the
    last a 5: halfway between two 17-digit numbers."""
    digits = Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_exact_ties():
    rng = np.random.default_rng(15)
    # odd m times 2**-k has 5**k m as its digits, so these end in a 5
    # at the 18th digit: exact ties between two 17-digit numbers
    ties = []
    for k, lo, hi in [(2, 4 * 10**15, 9 * 10**15), (3, 8 * 10**14, 8 * 10**15)]:
        m = rng.integers(lo // 2, hi // 2, size=2000) * 2 + 1
        ties.append(m * 2.0**-k)
    ties = np.concatenate(ties)
    ties = ties[[_is_tie(v) for v in ties.tolist()]]
    assert len(ties) > 1000
    scaled = ties * 2.0 ** rng.integers(-40, 40, size=len(ties))
    _assert_floats(np.concatenate([ties, -ties, scaled]))
    # random dyadic rationals, ties among them
    m = rng.integers(1, 2**53, size=50_000)
    _assert_floats(m * 2.0 ** -rng.integers(0, 64, size=len(m)).astype(float))


def test_cells_beside_a_tie():
    # x = m 2**e with 10**(16+j) <= x < 10**(17+j) and x mod 10**j =
    # (5**j -+ 1) 2**(j-1): the 17-digit rounding point is 5**-j / 2 from a
    # tie, closer than the double-double's error once j reaches about 20
    cells = []
    for j in range(18, 40):
        e = math.ceil((16 + j) * math.log2(10)) - 52
        for sign in (-1, 1):
            r = (5**j + sign) // 2 * 2**j
            m = r // 2**j * pow(2 ** (e - j), -1, 5**j) % 5**j
            m += 5**j * ((2**52 - m) // 5**j + 1)
            found = 0
            while m < 2**53 and found < 10:
                if 10 ** (16 + j) <= m * 2**e < 10 ** (17 + j):
                    cells.append(float(m * 2**e))
                    found += 1
                m += 5**j
    assert len(cells) > 60
    _assert_floats(cells)


def test_carries_into_the_next_decade():
    nines = [float(f"9.{'9' * j}e{e}") for j in range(20) for e in range(-310, 309)]
    below = np.nextafter(np.array([float(f"1e{e}") for e in range(-300, 300)]), 0)
    _assert_floats(np.concatenate([nines, below, [1e-6, 1e16, 1e17, 0.1, 0.0001, 0.001]]))


def test_cells_left_to_python_formatting():
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    _assert_floats([
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny, tiny / 3,
        huge, -huge, 1e-280, 1e280, 9.9e-281, 1.1e280,
        1234567890123456.75,  # an exact tie, formatted by '%.17g'
    ])


def test_fixed_and_scientific_forms():
    rng = np.random.default_rng(16)
    exponents = rng.integers(-8, 20, size=20_000)
    x = rng.standard_normal(20_000) * 10.0**exponents
    short = np.round(x, 3)  # exact-looking values with stripped zeros
    _assert_floats(np.concatenate([x, short, np.arange(-4096, 4096) / 1024, np.arange(300.0)]))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint8, np.uint64])
def test_integers(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(17)
    k = np.concatenate([
        np.array([info.min, info.max, 0, 1, info.min + 1, info.max - 1], dtype),
        rng.integers(info.min, info.max, size=20_000, dtype=dtype, endpoint=True),
    ])
    if info.min < 0:
        k = np.concatenate([k, -np.abs(k[2:]), np.arange(-1000, 1000).astype(dtype)])
    expected = b"".join(b"%d\n" % v for v in k.tolist())
    assert table_text([k]) == expected


def test_powers_of_ten_are_double_double_accurate():
    hi, lo = tabletext._POW10
    for i, k in enumerate(range(tabletext._KMIN, tabletext._KMAX + 1)):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - exact) <= exact * Fraction(1, 2**100)


def _row_loop(columns):
    """The per-row writer the kernel replaced."""
    arrays = [None if c is None else np.asarray(c) for c in columns]
    row = ",".join(
        "" if a is None else "%d" if a.dtype.kind in "iu" else "%.17g" for a in arrays
    ) + "\n"
    cells = zip(*(a.tolist() for a in arrays if a is not None))
    return "".join([row % r for r in cells]).encode()


@pytest.mark.parametrize("layout", ["ifnf", "nf", "fn", "i", "nin", "ffffffff"])
def test_tables_larger_than_one_block(layout):
    rng = np.random.default_rng(18)
    n = 3 * tabletext._BLOCK_CELLS // 2 + 7
    make = {
        "i": lambda: rng.integers(-(10**6), 10**6, size=n),
        "f": lambda: rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, size=n)
        * (rng.random(n) > 0.1),  # a tenth of zeros
        "n": lambda: None,
    }
    columns = [make[c]() for c in layout]
    assert table_text(columns) == _row_loop(columns)


def test_empty_tables():
    assert table_text([None, None]) == b""
    assert table_text([np.zeros(0), None, np.zeros(0, dtype=int)]) == b""
