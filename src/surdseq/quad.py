"""The integer kernel for surd powers: (p + q sqrt(d))^e on plain ints.

surd_pow powers p + q sqrt(d), and _square_norm is its squaring body,
which also hands the approx engines each pair's norm; binomial_part
reaches the same numbers by binomial sums.  The radicand is carried
along unsimplified, so sqrt(4) stays a formal symbol instead of
collapsing to 2.  The tests check the kernel against a Fraction oracle
that shares no code with it.
"""
from __future__ import annotations

from math import comb

from .exact import require_int


def _square_norm(p: int, q: int, d: int) -> tuple[int, int, int]:
    """(P, Q, N) with P + Q sqrt(d) = (p + q sqrt(d))^2 and N = p^2 - d q^2
    the norm of p + q sqrt(d), so that P^2 - d Q^2 = N^2, for ints the
    caller has checked: N is the difference of the two products P is the
    sum of."""
    square, d_square = p * p, d * (q * q)
    return square + d_square, (p * q) << 1, square - d_square


def surd_pow(p: int, q: int, d: int, e: int) -> tuple[int, int]:
    """(P, Q) with P + Q sqrt(d) = (p + q sqrt(d))^e, for e >= 0: square
    at each bit of e from the top, times p + q sqrt(d) at each set bit."""
    require_int("p", p)
    require_int("q", q)
    require_int("e", e, 0)
    require_int("d", d)
    big_p, big_q = 1, 0
    for bit in bin(e)[2:]:
        big_p, big_q, _ = _square_norm(big_p, big_q, d)
        if bit == "1":
            big_p, big_q = big_p * p + d * (big_q * q), big_p * q + big_q * p
    return big_p, big_q


def binomial_part(d: int, e: int, odd: int) -> int:
    """The rational part (odd = 0) or the sqrt(d) coefficient (odd = 1)
    of (1 + sqrt(d))^e, summed term by term as sum C(e, 2i + odd) d^i.
    No surd powering: this is the independent route to surd_pow(1, 1, d, e)."""
    require_int("d", d)
    require_int("e", e, 0)
    require_int("odd", odd, 0)
    if odd > 1:
        raise ValueError(f"odd must be 0 or 1, got {odd}")
    return sum(comb(e, 2 * i + odd) * d ** i for i in range((e - odd) // 2 + 1))

