"""Quadratic surd arithmetic: the integer kernel for p + q*sqrt(d), and
the Fraction oracle (tests/oracles.py) it is checked against."""
import ast
import inspect
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from surdseq import quad
from surdseq.quad import _square_norm, surd_pow

import oracles
from oracles import QuadSurd, calls_under

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
    with pytest.raises(ValueError, match=re.escape("radicand must be at least 0, got -2")):
        QuadSurd(1, 1, -2)
    assert QuadSurd(1, 1, 0).radicand == 0


def test_epsilon_squares_to_alpha():
    for k in (2, 3, 5, 11):
        eps = QuadSurd(1, 1, k)
        assert eps ** 2 == QuadSurd(k + 1, 2, k)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        QuadSurd(1, 1, 2) * QuadSurd(0, 1, 5)


def test_only_surds_multiply():
    x = QuadSurd(1, 1, 2)
    with pytest.raises(TypeError):
        x * 3
    with pytest.raises(TypeError):
        Fraction(1, 2) * x


def test_power_rules():
    x = QuadSurd(2, 1, 3)
    assert x ** 0 == QuadSurd(1, 0, 3)
    assert x ** 1 == x
    assert x ** 5 == x * x * x * x * x
    with pytest.raises(ValueError, match=re.escape("e must be at least 0, got -1")):
        x ** -1


@given(surds, surds, surds)
def test_ring_laws(x, y, z):
    y = QuadSurd(y.rat, y.coef, x.radicand)
    z = QuadSurd(z.rat, z.coef, x.radicand)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@given(surds, st.integers(min_value=0, max_value=40))
def test_power_matches_repeated_product(x, e):
    expected = QuadSurd(1, 0, x.radicand)
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
    # the norm the kernel hands back is the surd times its conjugate
    norm = QuadSurd(p, q, d) * QuadSurd(p, -q, d)
    assert _square_norm(p, q, d) == (y.rat, y.coef, norm.rat)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # one squaring per bit below the top and one product per set bit:
    # a squaring past the top bit would be thrown away
    calls = {}

    def counting(name):
        honest = getattr(oracles, name)

        def spy(*args):
            calls[name] += 1
            return honest(*args)

        monkeypatch.setattr(oracles, name, spy)

    counting("_pair_square")
    counting("_pair_product")
    base = QuadSurd(1, 1, 2)
    for e in range(1, 65):
        calls.update(_pair_square=0, _pair_product=0)
        base ** e
        assert calls == {"_pair_square": e.bit_length() - 1,
                         "_pair_product": bin(e).count("1")}, e


@pytest.mark.parametrize("p,q,d", [(1, 1, 2), (-3, 5, 110), (Fraction(2, 3), Fraction(-5, 7), 330),
                                   (Fraction(1, 2), 3, 0), (4, Fraction(1, 6), 49)])
def test_fraction_route_reaches_no_kernel_code(p, q, d):
    # test_surd_pow_matches_the_fraction_route and jump_reference in
    # tests/test_certificate.py check the kernel against QuadSurd, which
    # proves something only while QuadSurd computes without the kernel
    x = QuadSurd(p, q, d)
    _, reached = calls_under(lambda: ([x ** e for e in range(65)], x * x),
                             ("surdseq", oracles.__name__))
    assert QuadSurd.__pow__.__code__ in reached and QuadSurd.__mul__.__code__ in reached
    kernel = {fn.__code__ for fn in (surd_pow, _square_norm)}
    assert not reached & kernel


def test_surd_pow_edges():
    assert surd_pow(5, -3, 7, 0) == (1, 0)
    assert surd_pow(0, 0, 0, 0) == (1, 0)
    assert surd_pow(5, -3, 7, 1) == (5, -3)
    with pytest.raises(ValueError):
        surd_pow(1, 1, 2, -1)


def test_kernel_holds_no_fraction_code():
    # surdseq.quad is the integer kernel alone: it imports no fractions
    # and binds no Fraction, so nothing in it can fall back on rationals
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(quad))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "fractions" not in imported
    assert not any(value is Fraction for value in vars(quad).values())
