"""Quadratic surd arithmetic: the p + q*sqrt(d) ring and its checks."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from surdseq.exact import ConsistencyError
from surdseq.quad import QuadSurd, as_exact_int, root_of, surd_pow, surd_square

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
surds = st.builds(QuadSurd, rationals, rationals, st.integers(min_value=0, max_value=30))
kernel_ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
kernel_radicands = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=1000).map(lambda r: r * r),
    st.integers(min_value=0, max_value=10 ** 6),
)


def test_construction_coerces_to_fractions():
    x = QuadSurd(1, 2, 5)
    assert x.rat == Fraction(1) and isinstance(x.rat, Fraction)
    assert x.coef == Fraction(2) and isinstance(x.coef, Fraction)
    assert x.radicand == 5


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadSurd(1, 1, -2)


def test_epsilon_squares_to_alpha():
    for k in (2, 3, 5, 11):
        eps = QuadSurd(1, 1, k)
        assert eps ** 2 == QuadSurd(k + 1, 2, k)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        QuadSurd(1, 1, 2) + QuadSurd(1, 1, 3)
    with pytest.raises(ValueError):
        QuadSurd(1, 1, 2) * QuadSurd(0, 1, 5)


def test_scalar_mixing():
    x = QuadSurd(1, 1, 2)
    assert x + 1 == QuadSurd(2, 1, 2)
    assert 1 + x == QuadSurd(2, 1, 2)
    assert 3 * x == QuadSurd(3, 3, 2)
    assert x - Fraction(1, 2) == QuadSurd(Fraction(1, 2), 1, 2)
    assert Fraction(1, 2) - x == QuadSurd(Fraction(-1, 2), -1, 2)
    assert x / 2 == QuadSurd(Fraction(1, 2), Fraction(1, 2), 2)


def test_norm_and_conjugate():
    x = QuadSurd(3, 1, 2)
    assert x.norm() == Fraction(7)
    assert x.conj() == QuadSurd(3, -1, 2)
    assert x * x.conj() == QuadSurd.from_scalar(7, 2)


def test_inverse_and_division():
    x = QuadSurd(1, 1, 2)
    one = QuadSurd.from_scalar(1, 2)
    assert x * x.inverse() == one
    assert (x / x) == one
    y = QuadSurd(3, 2, 2)
    assert (y / x) * x == y


def test_inverse_of_zero_norm_rejected():
    # 2 + sqrt(4) has norm zero: it is formally a zero divisor
    with pytest.raises(ZeroDivisionError):
        QuadSurd(2, -1, 4).inverse()


def test_power_rules():
    x = QuadSurd(2, 1, 3)
    assert x ** 0 == QuadSurd.from_scalar(1, 3)
    assert x ** 1 == x
    assert x ** 5 == x * x * x * x * x
    with pytest.raises(ValueError):
        x ** -1


def test_is_rational():
    assert QuadSurd(3, 0, 2).is_rational
    assert not QuadSurd(3, 1, 2).is_rational


def test_root_of():
    r = root_of(7)
    assert r == QuadSurd(0, 1, 7)
    assert r * r == QuadSurd.from_scalar(7, 7)


def test_as_exact_int():
    assert as_exact_int(QuadSurd.from_scalar(41, 2)) == 41
    with pytest.raises(ConsistencyError):
        as_exact_int(root_of(2))
    with pytest.raises(ConsistencyError):
        as_exact_int(QuadSurd(Fraction(1, 2), 0, 2))


@given(surds, surds.map(lambda s: s), rationals)
def test_ring_laws(x, y, c):
    y = QuadSurd(y.rat, y.coef, x.radicand)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * c == x * c + y * c
    assert x * (y + c) == x * y + x * c


@given(surds, surds)
def test_conjugation_is_a_ring_map(x, y):
    y = QuadSurd(y.rat, y.coef, x.radicand)
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()


@given(surds, st.integers(min_value=0, max_value=6))
def test_power_matches_repeated_product(x, e):
    expected = QuadSurd.from_scalar(1, x.radicand)
    for _ in range(e):
        expected = expected * x
    assert x ** e == expected


@given(kernel_ints, kernel_ints, kernel_radicands, st.integers(min_value=0, max_value=64))
def test_surd_pow_matches_the_fraction_route(p, q, d, e):
    # QuadSurd.__pow__ multiplies Fractions right to left; the kernel
    # squares ints left to right, so the two share nothing beyond int
    x = QuadSurd(p, q, d) ** e
    assert surd_pow(p, q, d, e) == (x.rat, x.coef)
    y = QuadSurd(p, q, d) * QuadSurd(p, q, d)
    assert surd_square(p, q, d) == (y.rat, y.coef)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # one squaring per bit below the top and one multiply per set bit:
    # a squaring past the top bit would be thrown away
    calls = 0
    multiply = QuadSurd.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(QuadSurd, "__mul__", counting)
    base = QuadSurd(1, 1, 2)
    for e in range(1, 65):
        calls = 0
        base ** e
        assert calls == e.bit_length() - 1 + bin(e).count("1"), e


def test_surd_pow_edges():
    assert surd_pow(5, -3, 7, 0) == (1, 0)
    assert surd_pow(0, 0, 0, 0) == (1, 0)
    assert surd_pow(5, -3, 7, 1) == (5, -3)
    with pytest.raises(ValueError):
        surd_pow(1, 1, 2, -1)
