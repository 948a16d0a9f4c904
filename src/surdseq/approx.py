"""Certified decimal digits of sqrt(k/h) from exact convergents.

No digit is ever printed on faith.  A candidate floor value t for
10^D sqrt(k/h) is accepted only if t^2 h <= k 10^(2D) < (t+1)^2 h,
which pins it as the exact integer part; the convergent engines
(plain iteration, index jumping, Newton) merely propose candidates
and can only agree with each other or fail loudly.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterator

from .exact import (
    _EXACT, _to_decimal, _use_decimal, decimal_str, isqrt, perfect_square_root,
    require_int,
)
from .quad import _square_norm


class Method(Enum):
    LINEAR = "linear"
    JUMP = "jump"
    NEWTON = "newton"


def floor_root_scaled(k: int, h: int, digits: int) -> int:
    """Ground truth floor(10^digits * sqrt(k/h)) via integer isqrt.

    floor(x/h) = floor(floor(x)/h) for integer h, so the nested floors
    collapse and no guard digits are needed.
    """
    require_int("k", k, 1)
    require_int("h", h, 1)
    require_int("digits", digits, 0)
    return isqrt(k * h * 10 ** (2 * digits)) // h


# Guard bits kept below the quotient's width when a and b are cut down
# for the proposal; 9 keep it within 2^-7 of the exact quotient.
_GUARD_BITS = 9


def _strip_twos(a: int, b: int) -> tuple[int, int]:
    """a / b with the power of two both share divided out (b >= 1)."""
    shift = ((a | b) & -(a | b)).bit_length() - 1
    return a >> shift, b >> shift


def _root_floor(t, h, scaled):
    """floor(sqrt(scaled / h)) if it is t - 1, t or t + 1, else None;
    t, h and scaled are all ints or all Decimal integers."""
    square = t * t
    if square * h > scaled:
        square -= 2 * t - 1
        t -= 1
        if square * h > scaled:
            return None
    else:
        square += 2 * t + 1
        if square * h <= scaled:
            t += 1
            if (square + 2 * t + 1) * h <= scaled:
                return None
    return t


# Consecutive continued-fraction convergents of log2(10), the first
# below it and the second above: 2^254370 < 10^76573 and
# 10^97879 < 2^325147.
_LOG2_10_BELOW = (254370, 76573)
_LOG2_10_ABOVE = (325147, 97879)


def _power_of_ten_bits(digits: int) -> int:
    """(10^digits).bit_length() = floor(digits log2(10)) + 1, for
    digits >= 0.  The floor lies between the floors taken at the two
    bounds on log2(10); only when those differ is the power built."""
    low = digits * _LOG2_10_BELOW[0] // _LOG2_10_BELOW[1]
    if low == digits * _LOG2_10_ABOVE[0] // _LOG2_10_ABOVE[1]:
        return low + 1
    return (10 ** digits).bit_length()


def _scales(k: int, digits: int) -> tuple:
    """The context _certify runs under, then its arguments that depend
    only on the digit count: the bit length of scale = 10^digits, scale
    and scaled = k scale^2 in the number type the certificate runs on,
    and convert, which turns an int into that type.  Below
    _DECIMAL_CUTOFF digits the type is int, which needs no context.
    From it on it is the libmpdec Decimal integer, exact under _EXACT,
    and scale and scaled keep their power of ten in the exponent, so
    no int power of ten is built."""
    if not _use_decimal(digits):
        scale = 10 ** digits
        return nullcontext(), scale.bit_length(), scale, k * scale * scale, int
    with localcontext(_EXACT):
        scales = Decimal(1).scaleb(digits), _to_decimal(k).scaleb(2 * digits)
    return localcontext(_EXACT), _power_of_ten_bits(digits), *scales, _to_decimal


def _certify(a: int, b: int, h: int, digits: int, scale_bits: int,
             scale, scaled, convert) -> str | None:
    """The proof that a / b certifies, for checked a and b with their
    shared twos stripped, given the rest from _scales, and run under
    _scales' context; the same steps serve either number type.  It turns
    no pair away before the proposal: approximate and certify_digits
    turn away on bit lengths the pairs too far from the root.

    a and b are cut, when b is wider than the quotient's width plus
    _GUARD_BITS, to a' = a >> shift and b' = b >> shift.  With
    m = max(bits(a) - bits(b), 0) that leaves b' >= 2^(scale_bits + m
    + _GUARD_BITS - 1) and a' / b' < 2^(m + 1).  As a' / (b' + 1) < a / b
    < (a' + 1) / b', the cut moves the ratio by less than
    max(1, a' / b') / b' < 2^(2 - _GUARD_BITS - scale_bits), which is
    below 2^(2 - _GUARD_BITS) 10^-digits since 10^digits < 2^scale_bits.

    The proposal t = floor(scale a' / b') is within one of the exact
    quotient q = floor(scale a / b), as the cut moves scale a' / b' by
    less than 2^(2 - _GUARD_BITS).  One squaring then finds the root's
    floor among t - 1, t, t + 1 (or proves it lies elsewhere, so q
    cannot match).  Uncut, the proposal is q itself.  Cut, the bounds
    on a / b above give it from t (b' + 1) <= scale a' and
    scale (a' + 1) <= (t + 1) b'; only when that does not decide is the
    full pair converted and q checked on it.
    """
    shift = max(b.bit_length() - scale_bits - max(a.bit_length() - b.bit_length(), 0)
                - _GUARD_BITS, 0)
    num, den = convert(a >> shift), convert(b >> shift)
    top = scale * num
    proposal = top // den
    t = _root_floor(proposal, convert(h), scaled)
    if t is None:
        return None
    if not shift:
        if t != proposal:
            return None
    elif not (t * (den + 1) <= top and scale * (num + 1) <= (t + 1) * den):
        den = convert(b)
        low = t * den
        if not low <= scale * convert(a) < low + den:
            return None
    raw = (decimal_str(t) if convert is int else format(t, "f")).rjust(digits + 1, "0")
    return raw[:-digits] + "." + raw[-digits:]


def certify_digits(a: int, b: int, k: int, h: int, digits: int) -> str | None:
    """Digit string of sqrt(k/h) truncated to `digits` places, if a/b
    is sharp enough to prove it; None otherwise.

    The certificate finds t = floor(10^digits sqrt(k/h)) by comparing
    squares against the scaled radicand and proves that t is
    floor(10^digits a / b), in ints or, for many digits, in exact
    Decimal integers.

    A pair too narrow to certify is turned away first, on bit lengths.
    A pair that certifies lies within 10^-digits of x = sqrt(k/h), and
    with r = h a^2 - k b^2, |a/b - x| = |r| / (h b (a + b x)).  As
    a + b x < 2a + b whenever the gap is below 1, h b (2a + b) <
    10^digits puts the pair too far away unless r = 0.  That needs
    h k = root^2, and then r = 0 exactly when h a = root b, as
    h r = (h a)^2 - (root b)^2.
    """
    require_int("a", a, 0)
    require_int("b", b, 1)
    require_int("k", k, 1)
    require_int("h", h, 1)
    require_int("digits", digits, 1)
    a, b = _strip_twos(a, b)
    root = perfect_square_root(h * k)
    context, scale_bits, *scales = _scales(k, digits)
    narrow = (h.bit_length() + b.bit_length() + max(a.bit_length() + 1, b.bit_length()) + 1
              < scale_bits)
    if narrow and (root is None or h * a != root * b):
        return None
    with context:
        return _certify(a, b, h, digits, scale_bits, *scales)


def _squarings(a: int, b: int, radicand: int) -> Iterator[tuple[int, int, int]]:
    """Yield (A, B, t) with A / B in lowest terms the ratio of the parts of
    (a + b sqrt(K))^(2^j), j = 1, 2, ..., for coprime a, b >= 1, K = radicand,
    and A^2 - K B^2 = t^2.

    A step (A, B) -> (A^2 + K B^2, 2 A B) is Newton's y -> (y^2 + K) / (2 y)
    on y = A / B.  With A and B coprime, let an odd prime q divide both
    A' = A^2 + K B^2 and B' = 2 A B.  Then q divides A (q | B would give
    q | A^2), not B, and so K.  With e = v_q(A) = v_q(B'), the shared power
    is min(v_q(A'), e): that is v_q(K) when v_q(K) < 2e, since then
    v_q(A') = v_q(K B^2) = v_q(K), and at most e <= v_q(K) otherwise.  So
    once the twos are stripped, gcd(A', B') divides K, and one gcd of
    remainders by K leaves the pair coprime.

    The kernel hands back n = A^2 - K B^2 beside the step, from the two
    products A' is the sum of, and A'^2 - K B'^2 = n^2.  With g = 2^shift
    common what the step divides out, the yielded pair's norm is (n / g)^2,
    and g divides n as g^2 divides n^2: t = n / g, with exact divisions.
    """
    while True:
        big_a, big_b, norm = _square_norm(a, b, radicand)
        a, b = _strip_twos(big_a, big_b)
        # b is big_b shifted right exactly, so the shift is the drop in width
        norm >>= big_b.bit_length() - b.bit_length()
        common = gcd(a % radicand, b % radicand, radicand)
        if common > 1:
            a //= common
            b //= common
            norm //= common
        yield a, b, norm


def _convergents(k: int, h: int, method: Method) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (index, A, B, f, t) with A / B proposing sqrt(K), K = h k, and
    A^2 - K B^2 = f t^2, the pair's norm, which each engine holds at no
    extra cost: LINEAR's is the r it carries (t = 1), NEWTON's is t^2 from
    _squarings (f = 1), and JUMP's is (1 - K) t^2 from its squaring's t,
    or (1 - K)^2 at index 1.  approximate turns away on it every pair too
    far from the root to certify, and reads the certified pair's residual
    off it, so neither step squares A or B.

    approximate reads each pair as A / (h B), which proposes
    sqrt(k/h) = sqrt(K) / h: the paper's rational at the paper's index.
    approximate alone gates, certifies and bounds what is yielded.

    No odd prime q divides both A and B, so q divides gcd(A, h B) as
    often as it divides gcd(A, h).  LINEAR's and JUMP's pairs are
    (1 + sqrt(K))^e, e >= 1, up to a power of two: q | A, B would give
    q | A^2 - K B^2 = (1 - K)^e, so K = 1 mod q, where
    (1 + sqrt(K))^2 = 2 (1 + sqrt(K)) makes A = B = 2^(e-1) != 0 mod q.
    NEWTON's pairs come from _squarings, which divides out what a step
    shares; on JUMP's powers that gcd by K is 1, as q | K and
    q | (1 - K)^e cannot both hold.
    """
    radicand = h * k
    if method is Method.LINEAR:
        # coupled_stream's pairs (A, h C) at its indices, from n = 1: its step
        # (a, b) -> (a + k b, h a + b) is (A, C) -> (A + K C, A + C), from
        # (1, 1) for ab and (1, 0) for uv (whose n = 0 has denominator 0).
        # It maps r = A^2 - K C^2 to (1 - K) r, so r stays exact without a
        # squaring.
        a, c, r = (1, 1, 1 - radicand) if h == 1 else (1, 0, 1)
        factor = 1 - radicand
        for index in count(1):
            a, c, r = a + radicand * c, a + c, factor * r
            yield index, a, c, r, 1
    elif method is Method.JUMP:
        root = perfect_square_root(radicand)
        if root is not None:
            # with K = s^2, A - s B = (1 - s)^(index + 1), and index + 1 is
            # odd from index 2 on: the powers lie below the rational root
            # s / h and never certify one whose decimals end early, so the
            # one candidate is the root itself, of norm 0
            yield 1, root, 1, 0, 1
            return
        # p + q sqrt(K) runs over 1 + sqrt(K) and its squarings, so the candidate
        # (p + q sqrt(K)) (1 + sqrt(K)) at index = 2^j is (1 + sqrt(K))^(index + 1),
        # at h = 1 the paper's ab pair fast_term(k, index); its norm is that of
        # p + q sqrt(K), 1 - K at index 1 and t^2 after, times 1 - K, the norm of
        # 1 + sqrt(K)
        factor = 1 - radicand
        yield 1, 1 + radicand, 2, 1, factor
        index = 2
        for p, q, t in _squarings(1, 1, radicand):
            yield index, p + radicand * q, p + q, factor, t
            index *= 2
    elif method is Method.NEWTON:
        # The paper's step x -> (h x^2 + k) / (2 h x) is y -> (y^2 + K) / (2 y)
        # on y = h x, so the orbit of y from h (x = 1) is the paper's orbit
        # scaled by h, without the factors h puts into its pairs.
        for index, (a, b, t) in enumerate(_squarings(h, 1, radicand), 1):
            yield index, a, b, 1, t
    else:
        raise ValueError(f"unknown method {method!r}")


if hasattr(Fraction, "_from_coprime_ints"):  # CPython 3.12 and later
    _coprime_fraction = Fraction._from_coprime_ints
else:
    try:
        Fraction(1, 1, _normalize=False)  # CPython 3.11 and earlier
    except TypeError:
        _coprime_fraction = Fraction
    else:
        def _coprime_fraction(n: int, m: int) -> Fraction:
            """n / m for coprime n and m > 0, without Fraction's gcd."""
            return Fraction(n, m, _normalize=False)


def _coprime_error_bound(a: int, b: int, k: int, h: int, root: int | None,
                         residual: int | None) -> Fraction:
    """An upper bound on |a/b - sqrt(k/h)| in lowest terms, for coprime
    a and b >= 1, given root = perfect_square_root(h k) and the residual
    h a^2 - k b^2, which approximate reads off the engine's norm, so
    nothing here squares a or b.  The residual is read only when h k is
    not a square; approximate passes None otherwise."""
    # |a/b - sqrt(k/h)| = |h a^2 - k b^2| / (h b^2 (a/b + sqrt(k/h))),
    # and replacing the root by any smaller nonnegative L keeps it an
    # upper bound.
    if root is not None:
        # k h = s^2 (s = root) is a square, which covers every zero
        # residual.  Then L is the root s / h itself, and the bound is
        # |y| / (h b) with y = h a - s b, since h (h a^2 - k b^2) =
        # y (h a + s b).  With a and b coprime, gcd(y, b) = gcd(h a, b) =
        # gcd(h, b), so gcd(y, h b) divides gcd(y, h) gcd(h, b), and
        # remainders by that give it.  y = 0 gives 0 / 1, as h a = s b
        # makes b divide h.
        y = abs(h * a - root * b)
        den = h * b
        shared = gcd(y % h, h) * gcd(b % h, h)
        shared = gcd(y % shared, den % shared, shared)
        return _coprime_fraction(y // shared, den // shared)
    # Otherwise L = p / (h g) is the root truncated to eight places.
    guard = 10 ** 8
    radicand = k * h * guard * guard
    p = isqrt(radicand)
    # Cleared of fractions the bound is N / M with N = |h a^2 - k b^2| g
    # and M = b (a h g + p b), both of degree two in (a, b).
    num = abs(residual) * guard
    den = b * (a * h * guard + p * b)
    # With a and b coprime, gcd(N, M) divides the small s = c h g, where
    # c = k h g^2 - p^2 <= 2p.  Put r = h a^2 - k b^2 and x = a h g + p b;
    # then c b^2 = x (a h g - p b) - r h g^2.  Let q^j divide N and M.
    # If q does not divide b, q^j divides x, and unless q^j divides g it
    # divides r h g^2 too, hence c.  If q divides b, it does not divide
    # a, and comparing q-adic valuations across the identity bounds j
    # by v_q(c h g) (v_q(r) > v_q(h) needs v_q(k b^2) = v_q(h) >= 2 v_q(b)).
    # So remainders by s give the gcd, never a gcd on N and M.
    shared = (radicand - p * p) * h * guard
    shared = gcd(num % shared, den % shared, shared)
    return _coprime_fraction(num // shared, den // shared)


@dataclass(frozen=True)
class ApproxResult:
    digits: str
    n_used: int
    method: Method
    # left out of repr: from a few thousand digits on, its numerator and
    # denominator pass the int->str cap
    error_bound: Fraction = field(repr=False)
    k: int
    h: int


def approximate(k: int, h: int, digits: int, method: Method = Method.LINEAR) -> ApproxResult:
    """Drive one convergent engine until the digit string certifies.

    Returns the certified digits along with the index that sufficed
    and an exact upper bound on |a/b - sqrt(k/h)| at that index.

    Each candidate A / (h B) is first turned away, on bit lengths alone,
    when its norm A^2 - K B^2 = f t^2 (K = h k) proves it too far from
    the root to certify.  |A / (h B) - sqrt(k/h)| = |f t^2| / (h B (A +
    B sqrt(K))), and a pair that certifies lies within 10^-digits <=
    2^(1 - scale_bits) of the root, for scale_bits = bits(10^digits).
    With s = isqrt(K) + 1 > sqrt(K), h B (A + B s) is below 2^E for
    E = bits(h) + bits(B) + max(bits(A), bits(B) + bits(s)) + 1, while
    |f t^2| >= 2^(bits(f) + 2 bits(t) - 3).  So when bits(f) + 2 bits(t)
    + scale_bits - 4 >= E the gap exceeds 10^-digits; a zero norm puts
    the pair on the root.
    """
    require_int("k", k, 1)
    require_int("h", h, 1)
    require_int("digits", digits, 1)
    root = perfect_square_root(h * k)
    context, scale_bits, scale, scaled, convert = _scales(k, digits)
    h_bits = h.bit_length()
    root_bits = (isqrt(h * k) + 1).bit_length()
    slack = scale_bits - 4
    with context:
        for index, num, den, f, t in _convergents(k, h, method):
            den_bits = den.bit_length()
            if f and t and (f.bit_length() + 2 * t.bit_length() + slack
                            >= h_bits + den_bits + max(num.bit_length(), den_bits + root_bits) + 1):
                continue
            # a / b = num / (h den) in lowest terms (see _convergents)
            common = gcd(num % h, h)
            whole = h // common * den
            a, b = _strip_twos(num // common, whole)
            out = _certify(a, b, h, digits, scale_bits, scale, scaled, convert)
            if out is not None:
                # with 2^shift the twos stripped, h a^2 - k b^2 is h N / (common^2 4^shift)
                # for the norm N = num^2 - h k den^2 = f t^2, and both divisions are exact;
                # the bound reads it only when h k is not a square
                residual = None
                if root is None:
                    shift = whole.bit_length() - b.bit_length()
                    residual = (h * f * (t * t) // (common * common)) >> 2 * shift
                bound = _coprime_error_bound(a, b, k, h, root, residual)
                return ApproxResult(out, index, method, bound, k, h)
    raise AssertionError("convergent stream is infinite")
