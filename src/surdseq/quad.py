"""Arithmetic in Q(sqrt(rad)): exact values rat + coef*sqrt(rad).

The radicand is carried along unsimplified, so sqrt(4) stays a formal
symbol instead of collapsing to 2.  QuadSurd only multiplies and
powers, and multiplying two different radicands is an error; both run
on (rat, coef) Fraction pairs through _pair_product and _pair_square,
which share no code with the integer kernel the tests check against
QuadSurd.
surd_square and surd_pow are the integer kernel for surd powers, on
plain ints, and _square_norm is their one squaring body, which also
hands the approx engines each pair's norm; binomial_part reaches the
same numbers by binomial sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import require_int


def _square_norm(p: int, q: int, d: int) -> tuple[int, int, int]:
    """(P, Q, N) with P + Q sqrt(d) = (p + q sqrt(d))^2 and N = p^2 - d q^2
    the norm of p + q sqrt(d), so that P^2 - d Q^2 = N^2, for ints the
    caller has checked: N is the difference of the two products P is the
    sum of."""
    square, d_square = p * p, d * (q * q)
    return square + d_square, (p * q) << 1, square - d_square


def surd_square(p: int, q: int, d: int) -> tuple[int, int]:
    """(P, Q) with P + Q sqrt(d) = (p + q sqrt(d))^2."""
    require_int("p", p)
    require_int("q", q)
    require_int("d", d)
    return _square_norm(p, q, d)[:2]


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


def _pair_product(rat: Fraction, coef: Fraction, other_rat: Fraction, other_coef: Fraction,
                  radicand: int) -> tuple[Fraction, Fraction]:
    """The Fraction pair of (rat + coef sqrt(radicand)) (other_rat + other_coef sqrt(radicand))."""
    return rat * other_rat + coef * other_coef * radicand, rat * other_coef + coef * other_rat


def _pair_square(rat: Fraction, coef: Fraction, radicand: int) -> tuple[Fraction, Fraction]:
    """The Fraction pair of (rat + coef sqrt(radicand))^2, in three
    Fraction products where _pair_product spends four."""
    return rat * rat + coef * coef * radicand, rat * coef * 2


@dataclass(frozen=True)
class QuadSurd:
    # rat + coef * sqrt(radicand), with radicand >= 0
    rat: Fraction
    coef: Fraction
    radicand: int

    def __post_init__(self) -> None:
        require_int("radicand", self.radicand, 0)
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "coef", Fraction(self.coef))

    def __mul__(self, other: object) -> QuadSurd:
        if not isinstance(other, QuadSurd):
            return NotImplemented
        if other.radicand != self.radicand:
            raise ValueError(f"cannot combine radicands {self.radicand} and {other.radicand}")
        rat, coef = _pair_product(self.rat, self.coef, other.rat, other.coef, self.radicand)
        return QuadSurd(rat, coef, self.radicand)

    def __pow__(self, e: int) -> QuadSurd:
        """self^e for e >= 0, powering the Fraction pair (rat, coef) from
        the low bit of e up: the base squared once per bit below the top,
        the power times the base at each set bit (the first time times 1),
        and one QuadSurd built from the pair at the end."""
        require_int("e", e, 0)
        radicand = self.radicand
        rat, coef = Fraction(1), Fraction(0)
        base_rat, base_coef = self.rat, self.coef
        while True:
            if e & 1:
                rat, coef = _pair_product(rat, coef, base_rat, base_coef, radicand)
            e >>= 1
            if not e:
                return QuadSurd(rat, coef, radicand)
            base_rat, base_coef = _pair_square(base_rat, base_coef, radicand)
