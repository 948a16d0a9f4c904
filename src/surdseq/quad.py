"""Arithmetic in Q(sqrt(rad)): exact values rat + coef*sqrt(rad).

The radicand is carried along unsimplified, so sqrt(4) stays a formal
symbol instead of collapsing to 2.  Mixing two different radicands in
one operation is an error; scalars (int, Fraction) combine freely.
surd_square and surd_pow are the integer kernel for surd powers, on
plain ints; binomial_part reaches the same numbers by binomial sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact import ConsistencyError, require_int

_Scalar = (int, Fraction)


def surd_square(p: int, q: int, d: int) -> tuple[int, int]:
    """(P, Q) with P + Q sqrt(d) = (p + q sqrt(d))^2."""
    require_int("p", p)
    require_int("q", q)
    require_int("d", d)
    return p * p + d * (q * q), (p * q) << 1


def surd_pow(p: int, q: int, d: int, e: int) -> tuple[int, int]:
    """(P, Q) with P + Q sqrt(d) = (p + q sqrt(d))^e, for e >= 0: square
    at each bit of e from the top, times p + q sqrt(d) at each set bit;
    the first squaring, by surd_square, checks d."""
    require_int("p", p)
    require_int("q", q)
    require_int("e", e, 0)
    big_p, big_q = 1, 0
    for bit in bin(e)[2:]:
        big_p, big_q = surd_square(big_p, big_q, d)
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

    @classmethod
    def from_scalar(cls, value: int | Fraction, radicand: int) -> QuadSurd:
        return cls(Fraction(value), Fraction(0), radicand)

    def _coerce(self, other: object) -> QuadSurd | None:
        if isinstance(other, QuadSurd):
            if other.radicand != self.radicand:
                raise ValueError(
                    f"cannot combine radicands {self.radicand} and {other.radicand}"
                )
            return other
        if isinstance(other, _Scalar):
            return QuadSurd.from_scalar(other, self.radicand)
        return None

    def __add__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(self.rat + o.rat, self.coef + o.coef, self.radicand)

    __radd__ = __add__

    def __neg__(self) -> QuadSurd:
        return QuadSurd(-self.rat, -self.coef, self.radicand)

    def __sub__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> QuadSurd:
        return -(self - other)

    def __mul__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadSurd(
            self.rat * o.rat + self.coef * o.coef * self.radicand,
            self.rat * o.coef + self.coef * o.rat,
            self.radicand,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> QuadSurd:
        """self^e for e >= 0, squaring the base only while bits of e remain."""
        require_int("e", e, 0)
        result = QuadSurd.from_scalar(1, self.radicand)
        base = self
        while True:
            if e & 1:
                result = result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __truediv__(self, other: object) -> QuadSurd:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conj(self) -> QuadSurd:
        """Conjugate: flips the sign of the sqrt coefficient."""
        return QuadSurd(self.rat, -self.coef, self.radicand)

    def norm(self) -> Fraction:
        """Field norm rat^2 - coef^2 * radicand (self times conjugate)."""
        return self.rat * self.rat - self.coef * self.coef * self.radicand

    def inverse(self) -> QuadSurd:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(f"{self} has norm 0 and no inverse")
        return QuadSurd(self.rat / n, -self.coef / n, self.radicand)

    @property
    def is_rational(self) -> bool:
        return self.coef == 0


def root_of(radicand: int) -> QuadSurd:
    """The formal square root of radicand as a QuadSurd."""
    return QuadSurd(Fraction(0), Fraction(1), radicand)


def as_exact_int(x: QuadSurd) -> int:
    """Collapse a QuadSurd that must be a plain integer, or fail loudly.

    Closed-form evaluations end on expressions whose radical part
    provably cancels; if it does not, something upstream is wrong.
    """
    if x.coef != 0:
        raise ConsistencyError(f"radical part did not cancel: {x}")
    if x.rat.denominator != 1:
        raise ConsistencyError(f"closed form produced a non-integer: {x.rat}")
    return int(x.rat)
