"""Certified decimal digits of sqrt(k/h) from exact convergents.

No digit is ever printed on faith.  A candidate floor value t for
10^D sqrt(k/h) is accepted only if t^2 h <= k 10^(2D) < (t+1)^2 h,
which pins it as the exact integer part; the convergent engines
(plain iteration, index jumping, Newton) merely propose candidates
and can only agree with each other or fail loudly.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .exact import ConsistencyError, _decimal, decimal_str, isqrt, perfect_square_root
from .quad import surd_square


class Method(Enum):
    LINEAR = "linear"
    JUMP = "jump"
    NEWTON = "newton"


def floor_root_scaled(k: int, h: int, digits: int) -> int:
    """Ground truth floor(10^digits * sqrt(k/h)) via integer isqrt.

    floor(x/h) = floor(floor(x)/h) for integer h, so the nested floors
    collapse and no guard digits are needed.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    if digits < 0:
        raise ValueError(f"digits must be nonnegative, got {digits}")
    return isqrt(k * h * 10 ** (2 * digits)) // h


def _format_digits(t: int, digits: int, scale: int) -> str:
    """t / scale as a decimal string with `digits` places; scale = 10^digits."""
    whole, frac = divmod(t, scale)
    return decimal_str(whole) + "." + _decimal(frac, digits)


# Guard bits kept below the quotient's width when a and b are cut down
# for the proposal; 9 keep it within 2^-7 of the exact quotient.
_GUARD_BITS = 9


def _shared_twos(a: int, b: int) -> int:
    """The exponent of the power of two a and b share (b >= 1)."""
    return ((a | b) & -(a | b)).bit_length() - 1


def _strip_twos(a: int, b: int) -> tuple[int, int]:
    """a / b with the power of two both share divided out (b >= 1)."""
    shift = _shared_twos(a, b)
    return a >> shift, b >> shift


def _certify(a: int, b: int, k: int, h: int, digits: int, scale: int, scaled: int) -> str | None:
    """certify_digits on checked input, given scale = 10^digits and
    scaled = k 10^(2 digits), both computed once by the caller.

    The proposal t comes from a and b cut down, when they are wider,
    to the quotient's width plus _GUARD_BITS, which moves it by less
    than one from the exact quotient q = floor(scale a / b).  One
    squaring then finds the root's floor among t - 1, t, t + 1 (or
    proves it lies elsewhere, so q cannot match), and a product check
    confirms it is q.

    A pair too narrow to come within 10^-digits of the root is turned
    away first, on bit lengths: with r = h a^2 - k b^2,
    |a/b - root| = |r| / (h b (a + b root)), and a + b root < 2a + b
    whenever the gap is below 1, so h b (2a + b) < 10^digits puts the
    pair too far away unless r = 0.  Computing r is cheap for such a pair.
    """
    narrow = (h.bit_length() + b.bit_length() + max(a.bit_length() + 1, b.bit_length()) + 1
              < scale.bit_length())
    if narrow and h * a * a != k * b * b:
        return None
    shift = (b.bit_length() - scale.bit_length()
             - max(a.bit_length() - b.bit_length(), 0) - _GUARD_BITS)
    t = scale * (a >> shift) // (b >> shift) if shift > 0 else scale * a // b
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
    low = t * b
    return _format_digits(t, digits, scale) if low <= scale * a < low + b else None


def certify_digits(a: int, b: int, k: int, h: int, digits: int) -> str | None:
    """Digit string of sqrt(k/h) truncated to `digits` places, if a/b
    is sharp enough to prove it; None otherwise.

    The certificate compares t = floor(10^digits a / b) against the
    scaled radicand on both sides, all in integers.
    """
    if a < 0 or b < 1:
        raise ValueError(f"need a >= 0 and b >= 1, got a={a}, b={b}")
    if k < 1 or h < 1:
        raise ValueError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    scale = 10 ** digits
    a, b = _strip_twos(a, b)
    return _certify(a, b, k, h, digits, scale, k * scale * scale)


def _convergents(k: int, h: int, method: Method,
                 scale_bits: int | None = None) -> Iterator[tuple[int, int, int, int | None]]:
    """Yield (index, A, B, residual) with A / B proposing sqrt(K), K = h k.

    approximate reads each pair as A / (h B), which proposes
    sqrt(k/h) = sqrt(K) / h: the paper's rational at the paper's index.
    scale_bits is the bit length of 10^D for D digits asked for; LINEAR
    then leaves out every pair its residual A^2 - K B^2 proves too far
    from the root, and hands the residual over; None keeps every pair.

    No odd prime q divides both A and B, so q divides gcd(A, h B) as
    often as it divides gcd(A, h).  LINEAR's and JUMP's pairs are
    (1 + sqrt(K))^e, e >= 1, up to a power of two: q | A, B would give
    q | A^2 - K B^2 = (1 - K)^e, so K = 1 mod q, where
    (1 + sqrt(K))^2 = 2 (1 + sqrt(K)) makes A = B = 2^(e-1) != 0 mod q.
    NEWTON divides out what its step shares (see below).
    """
    radicand = h * k
    if method is Method.LINEAR:
        # coupled_stream's pairs (A, h C) at its indices, from n = 1: its step
        # (a, b) -> (a + k b, h a + b) is (A, C) -> (A + K C, A + C), from
        # (1, 1) for ab and (1, 0) for uv (whose n = 0 has denominator 0).
        # It maps r = A^2 - K C^2 to (1 - K) r, so r stays exact without a
        # squaring.  |A / (h C) - sqrt(k/h)| = |r| / (h C (A + C sqrt(K))),
        # and a pair whose truncation certifies lies within 10^-D of the
        # root.  With s = isqrt(K) + 1 > sqrt(K), h C (A + C s) is below
        # 2^(bits(h) + bits(C) + max(bits(A), bits(C) + bits(s)) + 1),
        # and |r| 10^D is at least 2^(bits(r) + bits(10^D) - 2).  When the
        # second exponent reaches the first, the gap exceeds 10^-D and
        # the pair is left out; r = 0 puts the pair on the root.
        a, c, r = (1, 1, 1 - radicand) if h == 1 else (1, 0, 1)
        factor = 1 - radicand
        h_bits = h.bit_length()
        root_bits = (isqrt(radicand) + 1).bit_length()
        slack = None if scale_bits is None else scale_bits - 2
        index = 0
        while True:
            a, c, r = a + radicand * c, a + c, factor * r
            index += 1
            c_bits = c.bit_length()
            if (slack is None or not r or r.bit_length() + slack
                    < h_bits + c_bits + max(a.bit_length(), c_bits + root_bits) + 1):
                yield index, a, c, r
    elif method is Method.JUMP:
        if perfect_square_root(radicand) is not None:
            # with K = s^2, A - s B = (1 - s)^(index + 1), and index + 1 is
            # odd from index 2 on: the candidates lie below the rational
            # root s / h and never certify one whose decimals end early
            raise ValueError(f"index jumping needs a nonsquare k h, got k={k}, h={h}")
        # p + q sqrt(K) = (1 + sqrt(K))^index over a power of two, squared
        # once per step; the candidate at index is the next power, which
        # at h = 1 is the paper's ab pair fast_term(k, index)
        index, p, q = 1, 1, 1
        while True:
            yield index, p + radicand * q, p + q, None
            p, q = _strip_twos(*surd_square(p, q, radicand))
            index *= 2
    elif method is Method.NEWTON:
        # The paper's step x -> (h x^2 + k) / (2 h x) is y -> (y^2 + K) / (2 y)
        # on y = h x, so the orbit of y from h (x = 1) is the paper's orbit
        # scaled by h, without the factors h puts into its pairs.
        # With a and b coprime, let an odd prime q divide both a' = a^2 + K b^2
        # and b' = 2 a b.  Then q divides a (q | b would give q | a^2), not b,
        # and so K.  With e = v_q(a) = v_q(b'), the shared power is
        # min(v_q(a'), e): that is v_q(K) when v_q(K) < 2e, since then
        # v_q(a') = v_q(K b^2) = v_q(K), and at most e <= v_q(K) otherwise.
        # So once the twos are stripped, gcd(a', b') divides K, and one gcd
        # of remainders by K leaves the pair coprime.
        index, a, b = 0, h, 1
        while True:
            a, b = _strip_twos(*surd_square(a, b, radicand))
            common = gcd(a % radicand, b % radicand, radicand)
            if common > 1:
                a //= common
                b //= common
            index += 1
            yield index, a, b, None
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


def _coprime_error_bound(a: int, b: int, k: int, h: int, residual: int | None = None) -> Fraction:
    """An upper bound on |a/b - sqrt(k/h)| in lowest terms, for coprime
    a and b >= 1; residual is h a^2 - k b^2 when the caller knows it."""
    # |a/b - sqrt(k/h)| = |h a^2 - k b^2| / (h b^2 (a/b + sqrt(k/h))),
    # and replacing the root by any smaller nonnegative L keeps it an
    # upper bound; L = p / (h g) is the root truncated to eight places.
    # Cleared of fractions that is N / M with N = |h a^2 - k b^2| g and
    # M = b (a h g + p b), both of degree two in (a, b).
    guard = 10 ** 8
    radicand = k * h * guard * guard
    p = isqrt(radicand)
    if residual is None:
        residual = h * a * a - k * b * b
    num = abs(residual) * guard
    den = b * (a * h * guard + p * b)
    if p * p == radicand:
        # k h is a square, which covers every zero residual
        return Fraction(num, den)
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


# A prime: a residual off by anything it does not divide fails the check.
_RESIDUAL_MODULUS = 2 ** 61 - 1


def _check_residual(a: int, b: int, radicand: int, residual: int) -> None:
    """Raise ConsistencyError unless residual is a^2 - radicand b^2 modulo
    _RESIDUAL_MODULUS."""
    m = _RESIDUAL_MODULUS
    a_mod, b_mod = a % m, b % m
    if (a_mod * a_mod - radicand * b_mod * b_mod - residual) % m:
        raise ConsistencyError(
            f"residual handed over for a {b.bit_length()}-bit denominator at sqrt({radicand}) "
            f"is not a^2 - {radicand} b^2")


@dataclass(frozen=True)
class ApproxResult:
    digits: str
    n_used: int
    method: Method
    error_bound: Fraction
    k: int
    h: int


def approximate(k: int, h: int, digits: int, method: Method = Method.LINEAR) -> ApproxResult:
    """Drive one convergent engine until the digit string certifies.

    Returns the certified digits along with the index that sufficed
    and an exact upper bound on |a/b - sqrt(k/h)| at that index.
    """
    if k < 1 or h < 1:
        raise ValueError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    scale = 10 ** digits
    scaled = k * scale * scale
    for index, num, den, residual in _convergents(k, h, method, scale.bit_length()):
        # a / b = num / (h den) in lowest terms (see _convergents)
        common = gcd(num % h, h)
        a, b = num // common, h // common * den
        shift = _shared_twos(a, b)
        a, b = a >> shift, b >> shift
        out = _certify(a, b, k, h, digits, scale, scaled)
        if out is None:
            continue
        if residual is not None:
            _check_residual(num, den, h * k, residual)
            # h a^2 - k b^2 = h (num^2 - h k den^2) / (common 2^shift)^2
            residual = h * residual // (common * common) >> 2 * shift
        bound = _coprime_error_bound(a, b, k, h, residual)
        return ApproxResult(out, index, method, bound, k, h)
    raise AssertionError("convergent stream is infinite")


def cf_convergents(k: int, count: int) -> list[Fraction]:
    """First continued-fraction convergents of sqrt(k), k nonsquare.

    An independent yardstick: it shares no code with the pair
    recurrences, so agreement between the two is worth something.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    a0 = isqrt(k) if k >= 0 else 0
    if k < 2 or a0 * a0 == k:
        raise ValueError(f"continued fraction needs nonsquare k >= 2, got {k}")
    m, d, a = 0, 1, a0
    h_cur, h_prev = a0, 1
    k_cur, k_prev = 1, 0
    out = [Fraction(h_cur, k_cur)]
    while len(out) < count:
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        h_cur, h_prev = a * h_cur + h_prev, h_cur
        k_cur, k_prev = a * k_cur + k_prev, k_cur
        out.append(Fraction(h_cur, k_cur))
    return out


@dataclass(frozen=True)
class BenchRecord:
    """One engine's run in bench_methods: the approximate call's digits
    and n_used, and its wall time, error bound included."""

    method: Method
    k: int
    digits_requested: int
    digits: str
    n_used: int
    wall_time_s: float


def bench_methods(k: int, digits: int, methods: Sequence[Method]) -> list[BenchRecord]:
    """Race each method to certification on sqrt(k) through approximate.

    All methods must land on the same digit string or the whole run is
    thrown out as inconsistent.
    """
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    if not methods:
        raise ValueError("need at least one method")
    records = []
    for method in methods:
        started = time.perf_counter()
        result = approximate(k, 1, digits, method)
        elapsed = time.perf_counter() - started
        records.append(BenchRecord(method, k, digits, result.digits, result.n_used, elapsed))
    for record in records[1:]:
        if record.digits != records[0].digits:
            raise ConsistencyError(
                f"methods disagree at k={k}, digits={digits}: "
                f"{records[0].digits} vs {record.digits}"
            )
    return records
