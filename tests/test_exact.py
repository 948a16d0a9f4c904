"""Integer kernel: square roots, square detection, root comparison,
and decimal text on ints and on Decimal integers."""
import decimal
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from surdseq.exact import _to_decimal, cmp_to_root, decimal_str, isqrt, perfect_square_root

from oracles import CUTOFFS, decimal_cutoff

# ints across the str() piece size and powers of ten, plus random ones
# short enough for str() under the default int->str cap
_rng = random.Random(16)
DECIMAL_CASES = ([0, 1, 9, 10, 2 ** 128 - 1, 2 ** 128, 2 ** 129 + 1, 10 ** 640 - 1, 10 ** 640,
                  10 ** 641 + 7, 3 ** 2500, 2 ** 14000 - 1]
                 + [_rng.getrandbits(_rng.randint(1, 14000)) for _ in range(30)])


def test_isqrt_known_values():
    assert isqrt(0) == 0
    assert isqrt(1) == 1
    assert isqrt(2) == 1
    assert isqrt(143) == 11
    assert isqrt(144) == 12
    assert isqrt(10**40) == 10**20


@given(st.integers(min_value=0, max_value=10**30))
def test_isqrt_brackets(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_perfect_square_root():
    assert perfect_square_root(0) == 0
    assert perfect_square_root(49) == 7
    assert perfect_square_root(50) is None
    assert perfect_square_root(-4) is None
    big = 12345678901234567890
    assert perfect_square_root(big * big) == big
    assert perfect_square_root(big * big + 1) is None


@given(st.integers(min_value=0, max_value=10**15))
def test_perfect_square_root_roundtrip(n):
    assert perfect_square_root(n * n) == n


def test_cmp_to_root_sides():
    assert cmp_to_root(Fraction(7, 5), 2) == -1
    assert cmp_to_root(Fraction(17, 12), 2) == 1
    assert cmp_to_root(Fraction(3, 2), 9, 4) == 0
    assert cmp_to_root(1, 2) == -1
    assert cmp_to_root(2, 2) == 1
    assert cmp_to_root(3, 9) == 0


def test_cmp_to_root_with_h():
    # sqrt(2/3) ~ 0.8165
    assert cmp_to_root(Fraction(4, 5), 2, 3) == -1
    assert cmp_to_root(Fraction(5, 6), 2, 3) == 1


def test_cmp_to_root_rejects_bad_input():
    with pytest.raises(ValueError):
        cmp_to_root(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        cmp_to_root(Fraction(1, 2), 2, 0)
    with pytest.raises(ValueError):
        cmp_to_root(Fraction(-1, 2), 2)


@given(
    st.fractions(min_value=0, max_value=20, max_denominator=50),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=9),
)
def test_cmp_to_root_matches_squaring(q, k, h):
    expected = (q * q * h > k) - (q * q * h < k)
    assert cmp_to_root(q, k, h) == expected


def test_to_decimal_is_exact_and_keeps_the_callers_context():
    context = decimal.getcontext()
    before = repr(context)
    for n in DECIMAL_CASES:
        converted = _to_decimal(n)
        assert converted == Decimal(n) and converted.as_tuple().exponent == 0
    assert decimal.getcontext() is context and repr(context) == before


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_decimal_text_on_ints_and_on_decimal(cutoff):
    # None formats by divide and conquer with str(), 0 through Decimal
    with decimal_cutoff(cutoff):
        for n in DECIMAL_CASES:
            text = str(n)
            assert decimal_str(n) == text and decimal_str(-n) == ("-" + text if n else "0")
