"""The certificate and the error bound against their plain formulas.

certify_digits proposes from truncated operands, turns narrow pairs
away on bit lengths and formats by divide and conquer;
_coprime_error_bound takes a pair in lowest terms, clears fractions and
reduces them without a gcd on the wide numerator and denominator.  Both
must agree exactly with the direct formulas kept here as references:
one long division, two squarings, str(), and Fraction arithmetic.  The
reference approximate walks the paper's own orbits through their public
functions, or Fraction arithmetic where those do not reach, not the
engines approximate runs.
"""
import sys
from datetime import timedelta
from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from surdseq.approx import (
    Method,
    _convergents,
    _coprime_error_bound,
    _strip_twos,
    approximate,
    certify_digits,
    floor_root_scaled,
)
from surdseq.newton import newton_run
from surdseq.quad import QuadSurd
from surdseq.sequences import Family, SeqSpec, coupled_stream


# _convergents' scale_bits at one digit: LINEAR yields from its first
# pair within a digit of the root on, and JUMP and NEWTON ignore it
SCALE_BITS = (10 ** 1).bit_length()


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
    for K = radicand, by Fraction QuadSurd powering, which shares no code
    with the engine beyond int."""
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
    orbit from (1, 1)."""
    if method is Method.LINEAR:
        stream = coupled_stream(SeqSpec(Family.AB, k=k) if h == 1 else SeqSpec(Family.UV, k=k, h=h))
        next(stream)  # n = 0 has denominator 0 in the uv family
        for pair in stream:
            yield pair.n, pair.num, pair.den
    elif method is Method.JUMP:
        # documented domain: no square k h, whose rational root the
        # candidates approach from below
        if isqrt(k * h) ** 2 == k * h:
            raise ValueError("index jumping needs a nonsquare k h")
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
    """_coprime_error_bound on a / b with gcd(a, b) divided out first."""
    common = gcd(a, b)
    return _coprime_error_bound(a // common, b // common, k, h)


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
    assert certify_digits(a, b, k, h, digits) == reference_certify(a, b, k, h, digits)


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
            assert certify_digits(a, b, k, 1, digits) == reference_certify(a, b, k, 1, digits)
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
        assert certify_digits(a, b, k, 1, 1) == reference_certify(a, b, k, 1, 1)


def cf_pairs(k, h, count):
    """Continued-fraction convergents (p, q) of sqrt(k/h), kh nonsquare:
    the closest pairs any denominator allows, so a certificate that
    turned pairs away on a loose bound would miss some of them."""
    n, root = k * h, isqrt(k * h)
    m, d = 0, h
    p_prev, p, q_prev, q = 0, 1, 1, 0
    out = []
    for _ in range(count):
        term = (m + root) // d
        p_prev, p, q_prev, q = p, term * p + p_prev, q, term * q + q_prev
        out.append((p, q))
        m = d * term - m
        d = (n - m * m) // d
    return out


@pytest.mark.parametrize("k, h", [
    (2, 1), (2, 7), (1, 10001), (1350, 101), (3, 10 ** 4 + 7), (10 ** 6 + 3, 9973)])
def test_certify_on_best_approximations(k, h):
    for a, b in cf_pairs(k, h, 24):
        for digits in range(1, 2 * len(str(b)) + 4):
            assert certify_digits(a, b, k, h, digits) == reference_certify(a, b, k, h, digits)


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
                try:
                    want = reference_approximate(k, h, digits, method)
                except ValueError:
                    with pytest.raises(ValueError):
                        approximate(k, h, digits, method)
                    continue
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
    if k * h <= 10 ** 4 and isqrt(k * h) ** 2 != k * h:
        assert_matches_reference(k, h, digits, Method.JUMP)


@given(st.integers(min_value=1, max_value=10 ** 4), st.integers(min_value=1, max_value=10 ** 4))
def test_newton_engine_pairs_are_the_orbit_in_lowest_terms(k, h):
    # the engine's A / B proposes sqrt(h k); read as A / (h B) it is the
    # paper's rational at the same index, k = h and k = 1 included
    engine = _convergents(k, h, Method.NEWTON, SCALE_BITS)
    for (index, a, b), (n, x, y) in islice(zip(engine, paper_orbit(k, h, Method.NEWTON)), 8):
        assert index == n
        assert gcd(a, b) == 1, (k, h, index)
        assert a * y == h * b * x, (k, h, index)


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
            result = approximate(2, 1, 5000, method)
            assert result.digits == truth[:1] + "." + truth[1:]
    finally:
        sys.set_int_max_str_digits(before)


def radicands():
    # small values often, so that LINEAR's k h <= 10^3 is well covered
    return st.one_of(st.integers(min_value=1, max_value=40),
                     st.integers(min_value=1, max_value=10 ** 4))


# Largest k h each engine runs on here: LINEAR takes minutes above
# k h = 10^3, and JUMP overshoots ever further as k h grows.
TIME_CAPS = {Method.LINEAR: 10 ** 3, Method.JUMP: 10 ** 4, Method.NEWTON: None}


@settings(deadline=timedelta(seconds=10))
@given(radicands(), radicands(), st.integers(min_value=1, max_value=200))
def test_engines_match_floor_root_scaled(k, h, digits):
    # one domain: every engine takes every k, h >= 1, except that JUMP
    # raises exactly when k h is a square
    raw = str(floor_root_scaled(k, h, digits)).rjust(digits + 1, "0")
    truth = raw[:-digits] + "." + raw[-digits:]
    for method, cap in TIME_CAPS.items():
        if method is Method.JUMP and isqrt(k * h) ** 2 == k * h:
            with pytest.raises(ValueError):
                approximate(k, h, digits, method)
            continue
        if cap is not None and k * h > cap:
            continue
        got = approximate(k, h, digits, method)
        assert got.digits == truth, (method, k, h, digits)
        if method is Method.LINEAR:
            # the reference certifies every coupled_stream candidate, so
            # the pairs LINEAR leaves out on its residual cannot move n_used
            want = reference_approximate(k, h, digits, method)
            assert got.n_used == want[1], (k, h, digits)
            assert same_fraction(got.error_bound, want[2]), (k, h, digits)


@pytest.mark.parametrize("k, h", [(1, 1), (2, 1), (7, 1), (9, 1), (10 ** 4, 1),
                                  (1, 3), (2, 3), (9, 4), (3, 12), (10 ** 4, 9973)])
def test_linear_engine_carries_the_residual(k, h):
    # LINEAR hands over coupled_stream's pairs (A, h C) at their indices,
    # and leaves out only pairs that cannot certify, on the residual it
    # carries.  It walks about 10^5 steps on K = 10^4 9973 before 17
    # digits come within reach, so that K is checked at one digit.
    for digits in (1, 17, 60) if k * h <= 10 ** 4 else (1,):
        stream = coupled_stream(SeqSpec(Family.AB, k=k) if h == 1 else SeqSpec(Family.UV, k=k, h=h))
        next(stream)  # n = 0 has denominator 0 in the uv family
        for index, a, c in islice(_convergents(k, h, Method.LINEAR, (10 ** digits).bit_length()), 50):
            pair = next(stream)
            while pair.n < index:
                assert reference_certify(pair.num, pair.den, k, h, digits) is None, (k, h, pair.n)
                pair = next(stream)
            assert (index, a, h * c) == (pair.n, pair.num, pair.den), (k, h, digits)


@given(st.integers(min_value=1, max_value=10 ** 4),
       st.one_of(st.just(1), st.integers(min_value=1, max_value=10 ** 4)))
def test_linear_and_jump_pairs_are_coprime_once_stripped(k, h):
    # powers of 1 + sqrt(h k); approximate reads A / B as A / (h B) and
    # builds LINEAR's and JUMP's error bounds without gcd(a, b) on the
    # strength of this and of gcd(A, h) holding all that A and h B share
    # beyond twos.  On a large K LINEAR's first pair within a digit of the
    # root comes some thousand steps in, so ten of its pairs are checked.
    pairs = list(islice(_convergents(k, h, Method.LINEAR, SCALE_BITS), 10))
    if isqrt(k * h) ** 2 != k * h:
        for index, a, b in _convergents(k, h, Method.JUMP, SCALE_BITS):
            if index > 2 ** 12:
                break
            assert _strip_twos(a, b) == _strip_twos(*jump_reference(k * h, index))
            pairs.append((index, a, b))
    for index, a, b in pairs:
        assert gcd(*_strip_twos(a, b)) == 1, (k, h, index)
        common = gcd(a, h)
        assert gcd(*_strip_twos(a // common, h // common * b)) == 1, (k, h, index)
