"""The tests' Fraction oracle for surd powers: exact values
rat + coef*sqrt(radicand) in Q(sqrt(radicand)).

The radicand is carried along unsimplified, so sqrt(4) stays a formal
symbol instead of collapsing to 2.  QuadSurd only multiplies and
powers, and multiplying two different radicands is an error; both run
on (rat, coef) Fraction pairs through _pair_product and _pair_square.
None of it calls surdseq's integer kernel (surdseq.quad), which the
tests check against it: tests/test_quad.py and the JUMP reference in
tests/test_certificate.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from surdseq.exact import require_int


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
