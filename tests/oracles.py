"""The tests' oracles: plain references the library is checked against,
each sharing no code with what it checks.

QuadSurd is the Fraction oracle for surd powers: exact values
rat + coef*sqrt(radicand) in Q(sqrt(radicand)).  The radicand is
carried along unsimplified, so sqrt(4) stays a formal symbol instead of
collapsing to 2.  QuadSurd only multiplies and powers, and multiplying
two different radicands is an error; both run on (rat, coef) Fraction
pairs through _pair_product and _pair_square.  None of it calls
surdseq's integer kernel (surdseq.quad), which the tests check against
it: tests/test_quad.py and the JUMP reference in
tests/test_certificate.py.

truth_digits formats floor_root_scaled as a digit string, cf_pairs
walks the continued fraction of sqrt(k/h), decimal_cutoff moves the
width at which surdseq formats and certifies on Decimal integers, and
calls_under records the library code a computation reaches, which is
how the independence checks tell two routes apart.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from surdseq import exact
from surdseq.approx import floor_root_scaled
from surdseq.exact import decimal_str, require_int

# None keeps every certificate and format on ints, 0 puts them on Decimal
CUTOFFS = (None, 0)


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


@contextmanager
def decimal_cutoff(value):
    """Run the block with exact._DECIMAL_CUTOFF set to value."""
    saved = exact._DECIMAL_CUTOFF
    exact._DECIMAL_CUTOFF = value
    try:
        yield
    finally:
        exact._DECIMAL_CUTOFF = saved


def truth_digits(k, h, digits):
    """floor_root_scaled as a digit string, formatted on ints."""
    with decimal_cutoff(None):
        raw = decimal_str(floor_root_scaled(k, h, digits)).rjust(digits + 1, "0")
    return raw[:-digits] + "." + raw[-digits:]


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


def calls_under(run, modules="surdseq"):
    """run()'s value and the code of every function it called whose
    module name starts with modules (a str or a tuple of them), recorded
    through sys.setprofile."""
    reached = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith(modules):
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        value = run()
    finally:
        sys.setprofile(previous)
    return value, reached
