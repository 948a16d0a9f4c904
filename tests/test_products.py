"""The doubling product orbit and its convergence bookkeeping."""
from fractions import Fraction

import pytest

from surdseq import products
from surdseq.exact import ConsistencyError
from surdseq.newton import newton_run
from surdseq.products import (
    cd_closed_form,
    cd_run,
    partial_product,
    product_limit_gap,
)


def test_run_small_values():
    assert [(st.c, st.d) for st in cd_run(3, 3)] == [(1, 1), (3, 1), (17, 6), (577, 204)]
    assert [(st.c, st.d) for st in cd_run(2, 2)] == [(1, 1), (2, 1), (7, 4)]


def test_run_validation():
    with pytest.raises(ValueError):
        cd_run(1, 3)
    with pytest.raises(ValueError):
        cd_run(3, -1)


def test_state_partial_anchors_at_one():
    states = cd_run(4, 3)
    assert states[0].partial == Fraction(1)
    assert states[1].partial == Fraction(1) + Fraction(1, 4)
    for st in states[1:]:
        assert st.partial == Fraction((st.r + 1) * st.d, st.c)


def test_pell_constant():
    for r in range(2, 7):
        for st in cd_run(r, 8)[1:]:
            assert st.c ** 2 - (r * r - 1) * st.d ** 2 == 1


def test_d_product_formula():
    for r in range(2, 7):
        states = cd_run(r, 8)
        prod = 1
        for n in range(1, 9):
            if n > 1:
                prod *= states[n - 1].c
            assert states[n].d == 2 ** (n - 1) * prod


def test_closed_form():
    assert cd_closed_form(3, 3) == (577, 204)
    for r in (2, 5):
        for st in cd_run(r, 6)[1:]:
            assert cd_closed_form(r, st.n) == (st.c, st.d)
    with pytest.raises(ValueError):
        cd_closed_form(1, 2)
    with pytest.raises(ValueError):
        cd_closed_form(3, 0)


def test_partial_product_value():
    assert partial_product(3, 3) == Fraction(816, 577)
    with pytest.raises(ValueError):
        partial_product(3, 0)


def test_partials_increase_toward_the_limit_from_below():
    for r in (2, 3, 6):
        limit = Fraction(r + 1, r - 1)
        previous = Fraction(0)
        for st in cd_run(r, 8)[1:]:
            squared = st.partial ** 2
            assert previous < squared < limit
            previous = squared


def test_limit_gap_exact_values():
    assert product_limit_gap(3, 3) == Fraction(2, 332929)
    assert product_limit_gap(3, 5) == Fraction(2, 786292024016459316676609)
    assert product_limit_gap(3, 5) < Fraction(1, 10 ** 20)
    assert product_limit_gap(3, 6) < Fraction(1, 10 ** 40)


def test_limit_gap_closed_expression():
    for r in (2, 4):
        for st in cd_run(r, 7)[1:]:
            assert product_limit_gap(r, st.n) == Fraction(r + 1, (r - 1) * st.c ** 2)


def test_r3_orbit_is_the_k2_newton_orbit():
    cs = [st.c for st in cd_run(3, 6)]
    assert cs == [st.a for st in newton_run(2, 6)][:7]


def test_cd_run_checks_each_partial_product(monkeypatch):
    # at r = 3 the second factor is 1 + 1/17; make it 1 + 1/18
    def skewed(num=0, den=None):
        if (num, den) == (1, 17):
            return Fraction(1, 18)
        return Fraction(num) if den is None else Fraction(num, den)

    monkeypatch.setattr(products, "Fraction", skewed)
    with pytest.raises(ConsistencyError, match="partial product drifted at r=3, n=2"):
        cd_run(3, 3)


def test_limit_gap_checks_the_partial_stays_below(monkeypatch):
    monkeypatch.setattr(products, "partial_product", lambda r, n: Fraction(r + 1, r - 1))
    with pytest.raises(ConsistencyError, match="overshot at r=3, n=2"):
        product_limit_gap(3, 2)
