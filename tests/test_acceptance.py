"""Acceptance gate: ten criteria, one test and one printed line each.

Every check is exact integer or Rational arithmetic; the only
tolerances are wall-clock budgets on the heavier sweeps.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from surdseq.approx import Method, approximate, floor_root_scaled
from surdseq.exact import cmp_to_root, perfect_square_root
from surdseq.identities import fast_term, index_double, sqrt_double
from surdseq.newton import (
    b_from_sqrt,
    b_product_form,
    newton_binomial_sum,
    newton_closed_form,
    newton_run,
    reference_terms,
)
from surdseq.products import cd_run, product_limit_gap
from surdseq.sequences import (
    Family,
    SeqSpec,
    SequenceName,
    a_genfunc,
    b_genfunc,
    binomial_term,
    closed_form_term,
    coupled_iterate,
    genfunc_coeffs,
    reduced_cd,
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_01_four_way_strategy_agreement():
    with criterion(1, "recurrence, binomial, closed form, and generating "
                      "function agree for k in [2,12], n <= 40"):
        started = time.perf_counter()
        for k in range(2, 13):
            terms = coupled_iterate(SeqSpec(Family.AB, k=k), 41)
            a_series = genfunc_coeffs(*a_genfunc(k), 41)
            b_series = genfunc_coeffs(*b_genfunc(k), 41)
            for t in terms:
                assert t.num == binomial_term(SequenceName.A, k, t.n)
                assert t.num == closed_form_term(SequenceName.A, k, t.n)
                assert t.num == a_series[t.n]
                assert t.den == binomial_term(SequenceName.B, k, t.n)
                assert t.den == closed_form_term(SequenceName.B, k, t.n)
                assert t.den == b_series[t.n]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_identity_suite():
    with criterion(2, "residual, addition, square, cross, and doubling "
                      "identities hold for k in [2,12], n,m <= 30"):
        started = time.perf_counter()
        for k in range(2, 13):
            terms = coupled_iterate(SeqSpec(Family.AB, k=k), 62)
            a = [t.num for t in terms]
            b = [t.den for t in terms]
            for n in range(31):
                assert a[n] ** 2 - k * b[n] ** 2 == (1 - k) ** (n + 1)
            for n in range(1, 31):
                assert a[n] == (k - 1) * b[n - 1] + b[n]
                assert k * b[n] == a[n] + (k - 1) * a[n - 1]
                assert index_double(k, n) == a[2 * n]
                pair = sqrt_double(k, n, a[n], b[n])
                assert (pair.num, pair.den) == (a[2 * n], b[2 * n])
            for m in range(1, 31):
                for n in range(31):
                    assert (k - 1) * b[m - 1] * b[n] + b[m] * b[n + 1] == b[m + n + 1]
                    assert (k - 1) * a[m - 1] * a[n] + a[m] * a[n + 1] == k * b[m + n + 1]
                assert (k - 1) * b[m - 1] ** 2 + b[m] ** 2 == b[2 * m]
                assert (k - 1) * a[m - 1] ** 2 + a[m] ** 2 == k * b[2 * m]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_newton_oeis_prefixes():
    with criterion(3, "k=2 Newton orbit reproduces the published "
                      "A001601/A051009 prefixes"):
        run = newton_run(2, 4)
        assert [st.a for st in run] == [1, 3, 17, 577, 665857]
        assert [st.b for st in run] == [1, 2, 12, 408, 470832]
        assert reference_terms("A001601")[:5] == [1, 3, 17, 577, 665857]
        assert reference_terms("A051009")[:5] == [1, 2, 12, 408, 470832]


def test_criterion_04_newton_five_way_agreement():
    with criterion(4, "five Newton evaluation routes agree and 2^n divides "
                      "b_n for k in [2,10], n <= 8"):
        started = time.perf_counter()
        for k in range(2, 11):
            run = newton_run(k, 8)
            for st in run:
                assert newton_closed_form(k, st.n) == (st.a, st.b)
                assert b_product_form(k, st.n) == st.b
                assert st.b % 2 ** st.n == 0
                if st.n <= 6:
                    assert newton_binomial_sum(k, st.n, "a") == st.a
                    if st.n >= 1:
                        assert newton_binomial_sum(k, st.n, "b") == st.b
                if st.n >= 2:
                    assert 2 * run[st.n - 1].a ** 2 - (k - 1) ** (2 ** (st.n - 1)) == st.a
                    assert b_from_sqrt(k, run[st.n - 1].b, st.n) == st.b
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_05_perfect_square_certification():
    with criterion(5, "k*b_n^2 + w_n is a perfect square for k in [2,10], "
                      "1 <= n <= 8"):
        for k in range(2, 11):
            for st in newton_run(k, 8)[1:]:
                assert perfect_square_root(k * st.b ** 2 + st.w) == st.a


def test_criterion_06_digit_certification_soundness():
    with criterion(6, "all methods certify isqrt ground truth digits; "
                      "newton needs at most 8 steps for 50 places"):
        for k in (2, 3, 5, 7):
            for digits in (10, 40):
                raw = str(floor_root_scaled(k, 1, digits)).rjust(digits + 1, "0")
                truth = raw[:-digits] + "." + raw[-digits:]
                for method in Method:
                    assert approximate(k, 1, digits, method).digits == truth
        assert approximate(2, 1, 50, Method.NEWTON).n_used <= 8


def test_criterion_07_reduction_integrality():
    with criterion(7, "reduced pairs are integral for odd k in [3,15], "
                      "n <= 30, with 2-adic scaling and equal ratios"):
        for m in range(1, 8):
            k = 2 * m + 1
            cd = reduced_cd(m, 31)
            ab = coupled_iterate(SeqSpec(Family.AB, k=k), 31)
            for n in range(31):
                c, d = cd[n].num, cd[n].den
                assert isinstance(c, int) and isinstance(d, int)
                shift = 2 ** (n // 2 + n % 2)
                assert shift * c == ab[n].num
                assert shift * d == ab[n].den
                assert Fraction(c, d) == Fraction(ab[n].num, ab[n].den)


def test_criterion_08_product_limit():
    with criterion(8, "r=3 squared partial product is within 1e-20 of 2 at "
                      "n=5; d_n = 2^(n-1) prod c_i for r in [2,6], n <= 8"):
        assert product_limit_gap(3, 3) == Fraction(2, 332929)
        assert product_limit_gap(3, 5) < Fraction(1, 10 ** 20)
        for r in range(2, 7):
            states = cd_run(r, 8)
            prod = 1
            for n in range(1, 9):
                if n > 1:
                    prod *= states[n - 1].c
                assert states[n].d == 2 ** (n - 1) * prod


def test_criterion_09_performance_smoke():
    with criterion(9, "fast_term(2, 10^6) under 5s, spot-equal to "
                      "iteration, and newton certifies at a lower index than linear"):
        started = time.perf_counter()
        big = fast_term(2, 10 ** 6)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        assert big.num.bit_length() > 10 ** 6
        terms = coupled_iterate(SeqSpec(Family.AB, k=2), 10 ** 4 + 1)
        rng = random.Random(20260814)
        for _ in range(20):
            n = rng.randrange(10 ** 4 + 1)
            assert fast_term(2, n) == terms[n]
        assert (approximate(2, 1, 50, Method.NEWTON).n_used
                < approximate(2, 1, 50, Method.LINEAR).n_used)


def test_criterion_10_alternation():
    with criterion(10, "ratios strictly alternate around sqrt(k) for "
                       "nonsquare k in [2,12], n <= 40"):
        for k in (2, 3, 5, 6, 7, 8, 10, 11, 12):
            sides = [cmp_to_root(Fraction(t.num, t.den), k, 1)
                     for t in coupled_iterate(SeqSpec(Family.AB, k=k), 41)]
            assert all(s != 0 for s in sides)
            assert all(sides[n] == -sides[n + 1] for n in range(40))
