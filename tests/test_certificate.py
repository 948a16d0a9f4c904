"""The certificate and the error bound against their plain formulas.

certify_digits runs the one certificate on every pair: it cuts wide
ones to the quotient's width, proposes from the cut operands and proves
the quotient on them, falling back to the full pair only when they
cannot decide; approximate alone turns away, on bit lengths, every
candidate whose
norm (handed over by the engine) proves it too far from the root,
before anything reduces, cuts or converts it; _coprime_error_bound
takes a pair in lowest terms and its residual, which approximate reads
off the engine's norm, clears fractions and reduces them without a gcd
on the wide numerator and denominator.  All must agree exactly with
the direct formulas kept here as references: one long division, two
squarings, str(), and Fraction arithmetic.  The reference approximate
walks the paper's own orbits through their public functions, or
Fraction arithmetic where those do not reach, not the engines
approximate runs.  The one certificate runs on ints below
exact._DECIMAL_CUTOFF digits and on Decimal integers from it on;
decimal_cutoff (tests/oracles.py) moves the cutoff, so both number types meet the
references at any width.
"""
import decimal
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from itertools import chain, count, islice, takewhile
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from surdseq import approx, exact
from surdseq.approx import (
    Method,
    _convergents,
    _coprime_error_bound,
    _strip_twos,
    approximate,
    certify_digits,
    floor_root_scaled,
)
from surdseq.exact import decimal_str
from surdseq.newton import newton_run
from surdseq.sequences import Family, SeqSpec, coupled_stream

from oracles import CUTOFFS, QuadSurd, cf_pairs, decimal_cutoff, truth_digits


def reference_certify(a, b, k, h, digits):
    t = 10 ** digits * a // b
    scaled = k * 10 ** (2 * digits)
    if t * t * h <= scaled < (t + 1) * (t + 1) * h:
        raw = str(t).rjust(digits + 1, "0")
        return raw[:-digits] + "." + raw[-digits:]
    return None


def reference_error_bound(a, b, k, h):
    guard = 10 ** 8
    lower = Fraction(isqrt(k * h * guard * guard), h * guard)
    return Fraction(abs(h * a * a - k * b * b)) / (h * b * b * (Fraction(a, b) + lower))


def jump_reference(radicand, index):
    """(A, B) at one JUMP index: A + B sqrt(K) = (1 + sqrt(K))^(index + 1)
    for K = radicand, by the Fraction oracle's QuadSurd powering, which
    shares no code with the engine beyond int."""
    x = QuadSurd(1, 1, radicand) ** (index + 1)
    return int(x.rat), int(x.coef)


def newton_fractions(k, h):
    """(n, a, b) along Newton's orbit x -> (h x^2 + k) / (2 h x) from
    x = 1, in Fraction arithmetic: the paper's rationals where newton_run
    does not reach, at k = 1 and at k = h."""
    x = Fraction(1)
    for n in count(1):
        x = (h * x * x + k) / (2 * h * x)
        yield n, x.numerator, x.denominator


def paper_orbit(k, h, method):
    """(index, a, b) along the paper's orbit for one method: the ab or uv
    pairs one index at a time, the power index + 1 of 1 + sqrt(h k) read
    as A / (h B) at indices 2^j (the ab pairs when h = 1), or the Newton
    orbit from (1, 1).  JUMP on a square k h = s^2 proposes s / h alone."""
    if method is Method.LINEAR:
        stream = coupled_stream(SeqSpec(Family.AB, k=k) if h == 1 else SeqSpec(Family.UV, k=k, h=h))
        next(stream)  # n = 0 has denominator 0 in the uv family
        for pair in stream:
            yield pair.n, pair.num, pair.den
    elif method is Method.JUMP:
        if isqrt(k * h) ** 2 == k * h:
            yield 1, isqrt(k * h), h
            return
        for j in count():
            a, b = jump_reference(k * h, 2 ** j)
            yield 2 ** j, a, h * b
    elif k == 1 or k == h:
        yield from newton_fractions(k, h)
    else:
        for n in count(1):
            state = newton_run(k, n, h)[n]
            yield n, state.a, state.b


def reference_approximate(k, h, digits, method):
    for index, num, den in paper_orbit(k, h, method):
        out = reference_certify(num, den, k, h, digits)
        if out is not None:
            return out, index, reference_error_bound(num, den, k, h)


def same_fraction(x, y):
    return (x.numerator, x.denominator) == (y.numerator, y.denominator)


def lowest_terms_bound(a, b, k, h):
    """_coprime_error_bound on a / b with gcd(a, b) divided out first,
    given the reduced pair's residual h a^2 - k b^2 squared out here, the
    eager formula the engines' norms stand in for in approximate."""
    common = gcd(a, b)
    a, b = a // common, b // common
    root = isqrt(k * h)
    return _coprime_error_bound(a, b, k, h, root if root * root == k * h else None,
                                h * a * a - k * b * b)


def assert_same_bound(a, b, k, h):
    """The bound on a / b in lowest terms equals the reference on
    numerator, denominator and hash, so it was built in lowest terms;
    small ones are checked for lowest terms directly too."""
    got, want = lowest_terms_bound(a, b, k, h), reference_error_bound(a, b, k, h)
    assert same_fraction(got, want), (a, b, k, h)
    assert hash(got) == hash(want)
    assert type(got.numerator) is int and type(got.denominator) is int
    if got.denominator.bit_length() <= 2000:
        assert gcd(got.numerator, got.denominator) == 1


@st.composite
def near_root_pairs(draw):
    """(a, b, k, h, digits) with a/b a few units of a from the root,
    on either side, and b from far narrower to far wider than the
    width at which the certificate starts cutting its operands."""
    k = draw(st.integers(min_value=1, max_value=10 ** 6))
    h = draw(st.integers(min_value=1, max_value=10 ** 4))
    digits = draw(st.integers(min_value=1, max_value=150))
    scale_bits = (10 ** digits).bit_length()
    # the cut starts above scale_bits + bits of the root + 9 guard bits
    threshold = scale_bits + isqrt(k // h).bit_length() + 9
    width = max(1, threshold + draw(st.integers(min_value=-threshold, max_value=2 * scale_bits)))
    b = draw(st.integers(min_value=2 ** (width - 1), max_value=2 ** width))
    a = max(isqrt(k * b * b // h) + draw(st.integers(min_value=-3, max_value=3)), 0)
    twos = draw(st.sampled_from([0, 0, 1, 7, 64]))
    return a << twos, b << twos, k, h, digits


@given(near_root_pairs())
def test_certify_matches_reference(case):
    a, b, k, h, digits = case
    want = reference_certify(a, b, k, h, digits)
    for cutoff in CUTOFFS:
        with decimal_cutoff(cutoff):
            assert certify_digits(a, b, k, h, digits) == want, cutoff


@st.composite
def quotient_edge_pairs(draw):
    """(a, b, k, h, digits) with 10^digits a / b within a few 1 / b of
    the root's floor T = floor(10^digits sqrt(k/h)) or of T + 1, and b
    wide enough to be cut: there floor(10^digits a / b) and T part, and
    the cut pair alone cannot tell which side of the integer it is on."""
    k = draw(st.integers(min_value=2, max_value=10 ** 7))
    h = draw(st.integers(min_value=1, max_value=10 ** 3))
    digits = draw(st.integers(min_value=1, max_value=12))
    scale = 10 ** digits
    edge = isqrt(k * h * scale * scale) // h + draw(st.integers(min_value=0, max_value=1))
    b = draw(st.integers(min_value=scale << 40, max_value=scale << 100))
    a = max(edge * b // scale + draw(st.integers(min_value=-2, max_value=2)), 0)
    return a, b, k, h, digits


@given(quotient_edge_pairs())
def test_certify_at_quotient_edges(case):
    a, b, k, h, digits = case
    want = reference_certify(a, b, k, h, digits)
    for cutoff in CUTOFFS:
        with decimal_cutoff(cutoff):
            assert certify_digits(a, b, k, h, digits) == want, cutoff


@st.composite
def root_edge_pairs(draw):
    """(a, b, k, h, digits) with |a/b - sqrt(k/h)| within a factor of two
    of 10^-digits, where the pairs that certify meet those that cannot.
    a/b lies 0.52 to 1.98 10^-digits above or below the root, or a few
    1 / b from the end of the root's truncation interval that is
    farther from it, where the gap is 0.5 to 1 10^-digits and the pairs
    just inside certify.  b is either at most the quotient's width plus
    the guard bits, so the certificate keeps it whole, or wider, so it
    is cut."""
    k = draw(st.integers(min_value=1, max_value=10 ** 6))
    h = draw(st.integers(min_value=1, max_value=10 ** 4))
    digits = draw(st.integers(min_value=1, max_value=150))
    scale = 10 ** digits
    scale_bits = scale.bit_length()
    # b > 2^7 scale, so a/b moves in steps below 2^-7 10^-digits
    uncut = st.integers(min_value=scale_bits + 8, max_value=scale_bits + approx._GUARD_BITS)
    threshold = scale_bits + isqrt(k // h).bit_length() + approx._GUARD_BITS + 2
    cut = st.integers(min_value=threshold, max_value=threshold + 2 * scale_bits)
    width = draw(st.one_of(uncut, cut))
    b = draw(st.integers(min_value=2 ** (width - 1), max_value=2 ** width - 1))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=52, max_value=198)) * b // (100 * scale)
        a = isqrt(k * b * b // h) + draw(st.sampled_from([j, -j]))
    else:
        # the end of [t, t + 1) / scale farther from the root, for t / scale
        # the root's truncation
        t = isqrt(k * h * scale * scale) // h
        end = t if 4 * k * scale * scale >= h * (2 * t + 1) ** 2 else t + 1
        a = -(-b * end // scale) + draw(st.integers(min_value=-2, max_value=2))
    assume(a >= 0)
    return a, b, k, h, digits


@given(root_edge_pairs())
# pairs that certify, uncut and cut, 0.95 and 0.98 10^-digits from the
# root; few drawn pairs certify that far out
@example((55845, 7978, 4959, 104, 1))
@example((2948013, 1016556, 8520, 948, 1))
def test_certify_where_the_gap_meets_ten_to_minus_digits(case):
    # a pair that certifies lies within 10^-digits of the root, so both
    # sides of 10^-digits must match the reference on either number type
    a, b, k, h, digits = case
    want = reference_certify(a, b, k, h, digits)
    for cutoff in CUTOFFS:
        with decimal_cutoff(cutoff):
            assert certify_digits(a, b, k, h, digits) == want, cutoff


@given(near_root_pairs())
def test_error_bound_matches_reference(case):
    a, b, k, h, _ = case
    assert_same_bound(a, b, k, h)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=1),
       st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=-2, max_value=2))
def test_error_bound_when_q_divides_b_and_h(q, f, vk, extra, k0, h0, b0, offset):
    # q^f divides b and v_q(h) = v_q(k b^2) (+ extra): there h a^2 - k b^2
    # can be divisible by a higher power of q than h is, the edge of the
    # argument that the common factor divides (k h g^2 - p^2) h g
    k, h, b = q ** vk * k0, q ** (2 * f + vk + extra) * h0, q ** f * b0
    assert_same_bound(max(isqrt(k * b * b // h) + offset, 0), b, k, h)


@given(st.integers(min_value=2, max_value=100), st.integers(min_value=1, max_value=100),
       st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=10 ** 40),
       st.integers(min_value=-3, max_value=3))
def test_error_bound_when_kh_is_square(j, x, y, b, offset):
    # k = j x^2 and h = j y^2 > 1: k h is a square and sqrt(k/h) = x/y
    k, h = j * x * x, j * y * y
    assert_same_bound(max(x * b // y + offset, 0), b, k, h)
    assert_same_bound(x * b, y * b, k, h)
    assert lowest_terms_bound(x * b, y * b, k, h) == 0


@pytest.mark.parametrize("k, h", [(2, 3), (2, 10001), (5, 7), (3, 4), (7, 12), (13, 52),
                                  (10 ** 6 + 3, 9973), (2, 8), (3, 12)])
def test_error_bound_on_the_newton_orbit(k, h):
    # with h > 1 the orbit's pairs share ever wider common factors
    for state in newton_run(k, 10, h):
        assert_same_bound(state.a, state.b, k, h)


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=10 ** 20),
    st.integers(min_value=1, max_value=120),
)
def test_zero_residual_with_unit_k(m, c, digits):
    # k = 1 and h = m^2: the pair (c, c m) sits on the root 1/m exactly
    a, b, k, h = c, c * m, 1, m * m
    got = certify_digits(a, b, k, h, digits)
    assert got == reference_certify(a, b, k, h, digits)
    assert got is not None
    assert lowest_terms_bound(a, b, k, h) == 0 == reference_error_bound(a, b, k, h)


def test_certify_cuts_operands_when_b_is_wide():
    # b far wider than 10^digits: the proposal comes from cut operands
    k, digits = 2, 30
    for width in (200, 1000, 5000):
        b = (1 << width) + 12345
        for a in range(isqrt(k * b * b) - 3, isqrt(k * b * b) + 4):
            assert certify_digits(a, b, k, 1, digits) == reference_certify(a, b, k, 1, digits)
        assert certify_digits(isqrt(k * b * b), b, k, 1, digits) is not None


def test_certify_formats_a_wide_whole_part():
    # sqrt(k) has 751 digits before the point, more than str() is given
    k, digits = 10 ** 1501 + 7, 12
    for b in (10 ** 40 + 1, 3 ** 200):
        root_b = isqrt(k * b * b)
        for a in (root_b - 1, root_b, root_b + 1):
            want = reference_certify(a, b, k, 1, digits)
            for cutoff in CUTOFFS:
                with decimal_cutoff(cutoff):
                    assert certify_digits(a, b, k, 1, digits) == want, cutoff
        assert certify_digits(root_b, b, k, 1, digits) is not None


@pytest.mark.parametrize("a, b, shift, quotient, proposal", [
    (401408, 81921, 2, 48, 49),
    (923279, 188424, 3, 49, 48),
    (23343454, 4668691, 8, 49, 50),
])
def test_certify_when_the_cut_proposal_is_one_off(a, b, shift, quotient, proposal):
    # one decimal place; the certificate cuts both operands by `shift`
    # bits, which moves its proposal one off the exact quotient; the k
    # range puts the root's floor below, on and above both
    assert 10 * a // b == quotient
    assert 10 * (a >> shift) // (b >> shift) == proposal
    for k in range(20, 30):
        want = reference_certify(a, b, k, 1, 1)
        for cutoff in CUTOFFS:
            with decimal_cutoff(cutoff):
                assert certify_digits(a, b, k, 1, 1) == want, (k, cutoff)


@pytest.mark.parametrize("k, h", [
    (2, 1), (2, 7), (1, 10001), (1350, 101), (3, 10 ** 4 + 7), (10 ** 6 + 3, 9973)])
def test_certify_on_best_approximations(k, h):
    for a, b in cf_pairs(k, h, 24):
        for digits in range(1, 2 * len(str(b)) + 4):
            want = reference_certify(a, b, k, h, digits)
            for cutoff in CUTOFFS:
                with decimal_cutoff(cutoff):
                    assert certify_digits(a, b, k, h, digits) == want, cutoff


GRID_K = (1, 2, 3, 5, 9, 11, 99, 1000)
GRID_H = (1, 3, 4, 7)
GRID_DIGITS = (1, 9, 40, 150)


@pytest.mark.parametrize("method", list(Method))
def test_approximate_matches_reference_grid(method):
    for k in GRID_K:
        for h in GRID_H:
            if method is Method.LINEAR and k * h > 1000:
                continue  # LINEAR needs minutes there
            for digits in GRID_DIGITS:
                want = reference_approximate(k, h, digits, method)
                got = approximate(k, h, digits, method)
                assert (got.digits, got.n_used) == want[:2], (method, k, h, digits)
                assert same_fraction(got.error_bound, want[2]), (method, k, h, digits)


def assert_matches_reference(k, h, digits, method):
    got = approximate(k, h, digits, method)
    want = reference_approximate(k, h, digits, method)
    assert (got.digits, got.n_used) == want[:2], (method, k, h, digits)
    assert same_fraction(got.error_bound, want[2]), (method, k, h, digits)


@pytest.mark.parametrize("k, h, digits", [
    (6, 4, 60), (12, 18, 60), (45, 105, 80),   # gcd(k, h) > 1
    (12, 4, 60), (18, 3, 60), (1000, 8, 90),   # h divides k
    (5, 15, 60), (7, 91, 60), (3, 3000, 90),   # k divides h
    (2, 8, 60), (3, 27, 60), (8, 2, 60), (50, 98, 70),  # k h is a square
    (5197, 369, 189), (397, 93, 147), (4330, 27, 54),
])
def test_approximate_matches_reference_when_h_exceeds_one(k, h, digits):
    assert_matches_reference(k, h, digits, Method.NEWTON)
    if k * h <= 1000:
        assert_matches_reference(k, h, digits, Method.LINEAR)
    if k * h <= 10 ** 4:
        assert_matches_reference(k, h, digits, Method.JUMP)


def test_jump_certifies_at_its_first_index():
    # (1 + sqrt(2))^2 = 3 + 2 sqrt(2), read as 3 / 4, is sqrt(1/2) to one
    # place: the one index where JUMP's norm is (1 - K)^2, not (1 - K) t^2
    assert approximate(1, 2, 1, Method.JUMP).n_used == 1
    assert_matches_reference(1, 2, 1, Method.JUMP)


@given(st.integers(min_value=1, max_value=10 ** 4), st.integers(min_value=1, max_value=10 ** 4))
def test_newton_engine_pairs_are_the_orbit_in_lowest_terms(k, h):
    # the engine's A / B proposes sqrt(h k); read as A / (h B) it is the
    # paper's rational at the same index, k = h and k = 1 included
    engine = _convergents(k, h, Method.NEWTON)
    for (index, a, b, f, t), (n, x, y) in islice(zip(engine, paper_orbit(k, h, Method.NEWTON)), 8):
        assert index == n
        assert gcd(a, b) == 1, (k, h, index)
        assert a * y == h * b * x, (k, h, index)
        assert (f, t * t) == (1, a * a - k * h * b * b), (k, h, index)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int->str digit cap")
def test_decimal_branch_formats_wide_ints_as_str_does():
    # cutoff 0 sends every int through _to_decimal; odd, even, all-nines
    # and odd-width values, most far wider than the default context's 28
    # digits, so a conversion that rounds anywhere shows here
    values = [0, 1, 7, 2 ** 128 - 1, 2 ** 128, 2 ** 129 + 1, 3 ** 5001, 10 ** 4000 - 1,
              -(7 ** 3001), 2 ** 40_001 - 3 ** 9_001, 10 ** 30_000 + 9]
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        with decimal_cutoff(0):
            for n in values:
                assert decimal_str(n) == str(n), n.bit_length()
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int->str digit cap")
def test_digits_beyond_default_int_str_cap():
    # str() of the 5000-digit truth needs the cap lifted; approximate
    # must then work under the interpreter's default cap
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        truth = str(floor_root_scaled(2, 1, 5000))
        sys.set_int_max_str_digits(4300)
        for method in (Method.NEWTON, Method.JUMP):
            for cutoff in CUTOFFS:
                with decimal_cutoff(cutoff):
                    result = approximate(2, 1, 5000, method)
                assert result.digits == truth[:1] + "." + truth[1:], (method, cutoff)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("k, h, digits, method", [
    (2, 1, 50_000, Method.NEWTON), (7, 3, 50_000, Method.NEWTON), (13, 1, 50_000, Method.JUMP)])
def test_decimal_path_above_the_transform_threshold(k, h, digits, method):
    # past about 2 10^4 digits libmpdec multiplies by number-theoretic
    # transform; both paths must give the same digits, n_used and error
    # bound under the interpreter's default int->str cap
    results = []
    for cutoff in CUTOFFS:
        with decimal_cutoff(cutoff):
            results.append(approximate(k, h, digits, method))
    assert results[0].digits == truth_digits(k, h, digits)
    assert results[1] == results[0]
    assert same_fraction(results[1].error_bound, results[0].error_bound)


@pytest.mark.parametrize("k, h, digits, method", [
    (11, 1, 45564, Method.JUMP), (10, 1, 19686, Method.NEWTON), (2, 1, 10 ** 5, Method.NEWTON)])
def test_error_bound_read_off_a_wide_norm(default_str_cap, k, h, digits, method):
    # certify-deep calls: the certified pair's t is 304k of 422k bits on
    # the first, 208k of 270k on the second, and 1 on the third.  The
    # bound read off f t^2 is the eager formula's on either number type,
    # and repr and == hold under the interpreter's default int->str cap.
    results = []
    for cutoff in CUTOFFS:
        with decimal_cutoff(cutoff):
            results.append(approximate(k, h, digits, method))
    got = results[0]
    num, den = next((a, b) for index, a, b, _, _ in
                    _convergents(k, h, method) if index == got.n_used)
    assert same_fraction(got.error_bound, lowest_terms_bound(num, h * den, k, h))
    assert same_fraction(results[1].error_bound, got.error_bound)
    assert results[1] == got
    assert repr(got) == (f"ApproxResult(digits='{got.digits}', n_used={got.n_used}, "
                         f"method={method!r}, k={k}, h={h})")


@pytest.fixture
def converted(monkeypatch):
    """The list of every int approx converts to Decimal while the test runs."""
    seen = []
    to_decimal = approx._to_decimal

    def spy(n):
        seen.append(n)
        return to_decimal(n)

    monkeypatch.setattr(approx, "_to_decimal", spy)
    return seen


def test_certificate_converts_the_full_pair_only_when_the_cut_one_cannot_decide(converted):
    # sqrt(10^6 + 3) = 1000.0014999989...: at six places 10^6 a / b lies
    # so close to an integer that the cut pair's interval test leaves
    # floor(10^6 a / b) open, so both number types check the full pair.
    # Far wider pairs, cut as in test_certify_cuts_operands_when_b_is_wide,
    # are decided by the interval alone: the full a and b never convert.
    a, b, k, digits = 5135722962681111, 5135715259114, 10 ** 6 + 3, 6
    assert (a, b) in cf_pairs(k, 1, 24)
    want = reference_certify(a, b, k, 1, digits)
    assert want is not None
    with decimal_cutoff(None):
        assert certify_digits(a, b, k, 1, digits) == want
    assert converted == []
    with decimal_cutoff(0):
        assert certify_digits(a, b, k, 1, digits) == want
    assert a in converted and b in converted
    k, digits = 2, 30
    for width in (200, 1000, 5000):
        b = (1 << width) + 12345
        a = isqrt(k * b * b)
        converted.clear()
        with decimal_cutoff(0):
            assert certify_digits(a, b, k, 1, digits) == reference_certify(a, b, k, 1, digits)
        assert converted and a not in converted and b not in converted, width
        # what converts is the cut pair, the quotient's width plus guard bits
        assert max(converted).bit_length() <= (10 ** digits).bit_length() + 16, width


@pytest.mark.parametrize("k, h, digits, method", [
    (11, 1, 2000, Method.JUMP), (7, 1, 2000, Method.NEWTON), (10, 1, 3000, Method.NEWTON),
    (13, 7, 1500, Method.JUMP)])
def test_only_the_certifying_cut_pair_converts(converted, k, h, digits, method):
    # the engines propose pairs far wider than they are accurate; the
    # gate turns each one that cannot certify away on its norm before
    # anything converts, so on Decimal integers approximate converts k
    # (in _scales), then the certifying pair cut down, then h
    with decimal_cutoff(0):
        got = approximate(k, h, digits, method)
    assert (got.digits, got.n_used) == reference_approximate(k, h, digits, method)[:2]
    pair = next(Fraction(a, b) for index, a, b in paper_orbit(k, h, method) if index == got.n_used)
    a, b = pair.numerator, pair.denominator
    assert len(converted) == 4 and (converted[0], converted[3]) == (k, h), len(converted)
    shift = b.bit_length() - converted[2].bit_length()
    assert shift > 0 and converted[1:3] == [a >> shift, b >> shift]


def test_decimal_path_keeps_the_callers_context():
    # the exact context is entered through localcontext only, so the
    # thread's context neither changes nor shapes the result, on either
    # number type: for approximate, and for certify_digits on a pair far
    # too narrow to certify and on one cut down to the quotient's width
    wide = (1 << 3000) + 12345
    calls = {
        "approximate": lambda: approximate(2, 3, 500, Method.NEWTON),
        "narrow": lambda: certify_digits(4, 5, 2, 3, 500),
        "cut": lambda: certify_digits(isqrt(2 * wide * wide // 3), wide, 2, 3, 500),
    }
    with decimal_cutoff(None):
        wants = {name: call() for name, call in calls.items()}
    assert wants["narrow"] is None and wants["cut"] == truth_digits(2, 3, 500)
    context = decimal.getcontext()
    before = repr(context)
    for cutoff in CUTOFFS:
        with decimal_cutoff(cutoff):
            for name, call in calls.items():
                assert call() == wants[name], name
                assert decimal.getcontext() is context and repr(context) == before
                with decimal.localcontext() as short:
                    short.prec = 5
                    assert call() == wants[name], name
                    assert decimal.getcontext() is short and short.prec == 5


def test_decimal_scales_take_the_bits_of_ten_from_bounds():
    # the bounds on log2(10) hold: 2^p < 10^q below, 10^q < 2^p above
    (p_below, q_below), (p_above, q_above) = approx._LOG2_10_BELOW, approx._LOG2_10_ABOVE
    assert (10 ** q_below).bit_length() > p_below
    assert (10 ** q_above).bit_length() <= p_above
    # the bounds straddle an integer at q_above, where the lower floor
    # is the right one, and at 174452, where the upper one is; the
    # Decimal cutoff is 25_000 or 55_000 digits
    extra = [q_below, q_above, 174452, 25_000, 55_000]
    for digits in chain(range(3000), extra):
        assert approx._power_of_ten_bits(digits) == (10 ** digits).bit_length(), digits
    with decimal_cutoff(0):
        for digits in chain(range(1, 300), extra):
            scale_bits, *_ = approx._scales(3, digits)
            assert scale_bits == (10 ** digits).bit_length(), digits


def test_without_libmpdec_the_cutoff_is_off():
    # with _decimal blocked, decimal is the pure-Python _pydecimal and
    # every width stays on ints
    code = ("import sys\n"
            "sys.modules['_decimal'] = None\n"
            "import decimal, _pydecimal\n"
            "from surdseq import Method, approximate, exact\n"
            "print(decimal.Decimal is _pydecimal.Decimal, exact._DECIMAL_CUTOFF)\n"
            "print(approximate(2, 1, 30000, Method.NEWTON).digits)\n")
    src = str(Path(exact.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    pure, cutoff, digits = done.stdout.split()
    assert (pure, cutoff) == ("True", "None")
    assert digits == approximate(2, 1, 30000, Method.NEWTON).digits


def radicands():
    # small values often, so that LINEAR's k h <= 10^3 is well covered
    return st.one_of(st.integers(min_value=1, max_value=40),
                     st.integers(min_value=1, max_value=10 ** 4))


# Largest k h each engine runs on here: LINEAR takes minutes above
# k h = 10^3, and JUMP overshoots ever further as k h grows.
TIME_CAPS = {Method.LINEAR: 10 ** 3, Method.JUMP: 10 ** 4, Method.NEWTON: None}


@settings(deadline=timedelta(seconds=10))
@given(radicands(), radicands(), st.integers(min_value=1, max_value=200))
# roots below 1 print a "0." prefix (two zeros after the point at
# k / h = 5 10^-4); k / h >= 100 puts several digits before it
@example(2, 7, 300)
@example(5, 10 ** 4, 300)
@example(500, 3, 300)
@example(999, 1, 300)
def test_engines_match_floor_root_scaled(k, h, digits):
    # one domain: every engine takes every k, h >= 1; the int and
    # Decimal paths give the same result, error bound in the same terms
    # included
    truth = truth_digits(k, h, digits)
    for method, cap in TIME_CAPS.items():
        if cap is not None and k * h > cap:
            continue
        results = []
        for cutoff in CUTOFFS:
            with decimal_cutoff(cutoff):
                results.append(approximate(k, h, digits, method))
        got = results[0]
        assert got.digits == truth, (method, k, h, digits)
        assert results[1] == got, (method, k, h, digits)
        assert same_fraction(results[1].error_bound, got.error_bound), (method, k, h, digits)
        if method is Method.LINEAR:
            # the reference certifies every coupled_stream candidate, so
            # the pairs the gate turns away cannot move n_used
            want = reference_approximate(k, h, digits, method)
            assert got.n_used == want[1], (k, h, digits)
            assert same_fraction(got.error_bound, want[2]), (k, h, digits)


def turned_away(k, h, digits, method):
    """The candidates (index, A, B) that approximate's gate turns away on
    the way to the certified one: those the engine yields that never
    reach the certificate.  A gate that turned every candidate away
    would loop; the spy stops it at 10^4 candidates, far more than any
    engine here walks."""
    engine, certify = approx._convergents, approx._certify
    yielded, reached = [], set()

    def spy_engine(*args):
        for candidate in islice(engine(*args), 10 ** 4):
            yielded.append(candidate[:3])
            yield candidate

    def spy_certify(*args):
        reached.add(yielded[-1][0])
        return certify(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approx, "_convergents", spy_engine)
        patch.setattr(approx, "_certify", spy_certify)
        n_used = approximate(k, h, digits, method).n_used
    assert yielded[-1][0] == n_used and n_used in reached, (method, k, h, digits)
    return [candidate for candidate in yielded if candidate[0] not in reached]


@settings(deadline=timedelta(seconds=10))
@given(radicands(), radicands(), st.integers(min_value=1, max_value=200))
def test_gate_turns_away_only_pairs_that_cannot_certify(k, h, digits):
    for method, cap in TIME_CAPS.items():
        if cap is not None and k * h > cap:
            continue
        for index, num, den in turned_away(k, h, digits, method):
            assert reference_certify(num, h * den, k, h, digits) is None, (method, k, h, index)


@st.composite
def gate_edge_pairs(draw):
    """(k, h, digits, A, B) for a candidate A / (h B) of sqrt(k/h) at a
    few digits: A within a few thousand of sqrt(h k) B, or anywhere below
    2^14, so that the pair is as often just within reach of the root as
    just out of it, and the gate's bit lengths are as often near their
    bounds."""
    k = draw(st.integers(min_value=1, max_value=10 ** 4))
    h = draw(st.integers(min_value=1, max_value=10 ** 4))
    digits = draw(st.integers(min_value=1, max_value=4))
    b = draw(st.integers(min_value=1, max_value=2 ** 12))
    near = isqrt(k * h * b * b) + draw(st.integers(min_value=-4096, max_value=4096))
    a = draw(st.one_of(st.just(max(near, 0)), st.integers(min_value=0, max_value=2 ** 14)))
    return k, h, digits, a, b


@given(gate_edge_pairs())
# pairs that certify which the gate would turn away one bit tighter
# (the first two), two bits tighter, without bits(isqrt(K) + 1) (the
# next two) or without bits(h); then a zero norm, which the gate would
# turn away on bit lengths alone
@example((71, 49, 1, 3948, 62))
@example((89, 31, 1, 3035, 61))
@example((5, 31, 1, 77, 5))
@example((25, 6117, 1, 67, 46))
@example((1, 103, 1, 3, 11))
@example((4, 5, 1, 12, 3))
@example((9, 1, 3, 3, 1))
def test_gate_keeps_every_pair_that_certifies(case):
    # an engine whose first candidate is (A, B), of norm A^2 - K B^2, and
    # whose later ones are NEWTON's, which certify within a few steps at
    # these digits: approximate certifies at index 1 exactly when the
    # reference certifies A / (h B)
    k, h, digits, a, b = case
    newton = approx._convergents

    def engine(k, h, method):
        yield 1, a, b, a * a - k * h * b * b, 1
        for index, *rest in islice(newton(k, h, Method.NEWTON), 64):
            yield index + 1, *rest

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approx, "_convergents", engine)
        got = approximate(k, h, digits, Method.NEWTON)
    certifies = reference_certify(a, h * b, k, h, digits) is not None
    assert (got.n_used == 1) == certifies, case
    assert got.digits == truth_digits(k, h, digits), case


@pytest.mark.parametrize("k, h", [(1, 1), (2, 1), (7, 1), (9, 1), (10 ** 4, 1),
                                  (1, 3), (2, 3), (9, 4), (3, 12), (10 ** 4, 9973)])
def test_linear_engine_carries_the_residual(k, h):
    # LINEAR hands over each of coupled_stream's pairs (A, h C) at its
    # index, 1, 2, 3, ..., with the residual it carries as the norm
    stream = coupled_stream(SeqSpec(Family.AB, k=k) if h == 1 else SeqSpec(Family.UV, k=k, h=h))
    next(stream)  # n = 0 has denominator 0 in the uv family
    for (index, a, c, r, t), pair in islice(zip(_convergents(k, h, Method.LINEAR), stream), 50):
        assert (index, a, h * c) == (pair.n, pair.num, pair.den), (k, h)
        assert (r, t) == (a * a - k * h * c * c, 1), (k, h, index)


@given(st.integers(min_value=1, max_value=10 ** 4),
       st.one_of(st.just(1), st.integers(min_value=1, max_value=10 ** 4)))
def test_linear_and_jump_pairs_are_coprime_once_stripped(k, h):
    # powers of 1 + sqrt(h k); approximate reads A / B as A / (h B) and
    # builds LINEAR's and JUMP's error bounds without gcd(a, b) on the
    # strength of this and of gcd(A, h) holding all that A and h B share
    # beyond twos.  LINEAR's first ten pairs are checked.
    pairs = list(islice(_convergents(k, h, Method.LINEAR), 10))
    if isqrt(k * h) ** 2 != k * h:
        for index, a, b, f, t in _convergents(k, h, Method.JUMP):
            if index > 2 ** 12:
                break
            assert _strip_twos(a, b) == _strip_twos(*jump_reference(k * h, index))
            pairs.append((index, a, b, f, t))
    for index, a, b, f, t in pairs:
        assert f * t * t == a * a - k * h * b * b, (k, h, index)
        assert gcd(*_strip_twos(a, b)) == 1, (k, h, index)
        common = gcd(a, h)
        assert gcd(*_strip_twos(a // common, h // common * b)) == 1, (k, h, index)


@given(st.integers(min_value=1, max_value=10 ** 4), st.integers(min_value=1, max_value=10 ** 4))
def test_every_engine_hands_over_its_pairs_norm(k, h):
    # approximate reads the certified pair's residual off f t^2, so every
    # yielded (A, B, f, t) must have A^2 - K B^2 = f t^2 exactly: JUMP up
    # to index 2^12, NEWTON's first eight pairs and LINEAR's first thirty
    radicand = k * h
    runs = [takewhile(lambda c: c[0] <= 2 ** 12, _convergents(k, h, Method.JUMP)),
            islice(_convergents(k, h, Method.NEWTON), 8),
            islice(_convergents(k, h, Method.LINEAR), 30)]
    for index, a, b, f, t in chain(*runs):
        assert f * t * t == a * a - radicand * b * b, (k, h, index)
