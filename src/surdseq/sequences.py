"""Integer pair sequences whose ratios converge to sqrt(k/h).

The same family of numbers is reachable four independent ways: the
coupled first-order system, a collapsed second-order recurrence,
binomial summations, and closed forms in quadratic surds.  Keeping all
four alive is the point; they cross-check each other term by term.
Every side of the coupled families is one part of one power of
1 + sqrt(K), so each sequence has one binomial sum (binomial_term) and
one surd closed form (closed_form_term) at every index n.
`terms` serves every family, the Newton and product orbits included,
from the one evaluator that defines it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .exact import require_int
from .newton import newton_run
from .products import cd_run
from .quad import QuadSurd, as_exact_int, binomial_part, root_of, surd_pow


class Family(Enum):
    AB = "ab"              # a0 = b0 = 1
    AB_TILDE = "tilde"     # a0 = 0, b0 = 1
    UV = "uv"              # u0 = 1, v0 = 0, denominator recurrence scaled by h
    CD_REDUCED = "cd"      # AB for odd k with powers of two divided out
    W_FAMILY = "w"         # seeded w_n = 2(k+1) w_{n-1} - (k-1)^2 w_{n-2}
    U_FAMILY = "u2"        # seeded u_n = 2(m+1) u_{n-1} - m^2 u_{n-2}
    NEWTON = "newton"      # exact Newton orbit toward sqrt(k/h) from (1, 1)
    PRODUCT = "product"    # the (c, d) doubling orbit of r, carried in k


class TermPair(NamedTuple):
    n: int
    num: int
    den: int


_COUPLED_START = {
    Family.AB: (1, 1),
    Family.AB_TILDE: (0, 1),
    Family.UV: (1, 0),
}

_TAKES_H = (Family.UV, Family.NEWTON)
_TAKES_M = (Family.CD_REDUCED, Family.U_FAMILY)
_SEEDED = (Family.W_FAMILY, Family.U_FAMILY)


@dataclass(frozen=True)
class SeqSpec:
    """Which family to generate, plus its parameters.

    k and m are tied by k = 2m + 1 for the cd and u2 families; giving
    either one is enough.  h applies to uv and newton only, seeds to
    w/u2 only, and the product family carries its r in k.  Any other
    parameter is rejected.
    """

    family: Family
    k: int | None = None
    h: int = 1
    m: int | None = None
    seed: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        fam = self.family
        require_int("h", self.h, 1)
        if fam not in _TAKES_H and self.h != 1:
            raise ValueError(f"h applies to the uv and newton families only, not {fam.value}")
        if fam in _TAKES_M:
            k, m = self.k, self.m
            if k is not None:
                require_int("k", k, 1)
            if m is None:
                if k is None or k % 2 == 0:
                    raise ValueError(f"{fam.value} needs an odd k or explicit m")
                m = (k - 1) // 2
            require_int("m", m, 0)
            if k is None:
                k = 2 * m + 1
            if k != 2 * m + 1:
                raise ValueError(f"k={k} and m={m} disagree; k must equal 2m+1")
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "m", m)
        else:
            if self.m is not None:
                raise ValueError(f"m applies to cd/u2 families only, not {fam.value}")
            least = 2 if fam in (Family.NEWTON, Family.PRODUCT) else 1
            require_int("r" if fam is Family.PRODUCT else "k", self.k, least)
        if fam in _SEEDED:
            if not isinstance(self.seed, tuple) or len(self.seed) != 2:
                raise ValueError(f"{fam.value} needs a seed pair (w0, w1), got {self.seed!r}")
            for i, value in enumerate(self.seed):
                require_int(f"seed[{i}]", value)
        elif self.seed is not None:
            raise ValueError(f"seeds apply to w/u2 families only, not {fam.value}")


def terms(spec: SeqSpec, count: int) -> list[TermPair] | list[int]:
    """First `count` terms of any family, from the evaluator that
    defines it: (n, numerator, denominator) pairs, or plain values for
    the seeded w and u2 families.

    Only the defining evaluator is picked here; every other route to
    the same numbers stays a separate function, so that verify can
    compare two computations that share no code.
    """
    require_int("count", count, 1)
    match spec.family:
        case Family.AB | Family.AB_TILDE | Family.UV:
            return coupled_iterate(spec, count)
        case Family.CD_REDUCED:
            return reduced_cd(spec.m, count)
        case Family.W_FAMILY | Family.U_FAMILY:
            return second_order_iterate(*recurrence(spec), *spec.seed, max(count, 2))[:count]
        case Family.NEWTON:
            return [TermPair(st.n, st.a, st.b)
                    for st in newton_run(spec.k, count - 1, spec.h)]
        case Family.PRODUCT:
            return [TermPair(st.n, st.c, st.d) for st in cd_run(spec.k, count - 1)]
    raise AssertionError(spec.family)


def recurrence(spec: SeqSpec) -> tuple[int, int]:
    """(p, q) of x_n = p x_{n-1} + q x_{n-2}, the second-order recurrence
    a family obeys.

    Both sides of ab, tilde and uv obey it (uv with hk in place of k),
    and it generates w and u2 from their seeds.  The cd, newton and
    product families obey none.
    """
    k = spec.k
    match spec.family:
        case Family.AB | Family.AB_TILDE:
            return 2, k - 1
        case Family.UV:
            return 2, spec.h * k - 1
        case Family.W_FAMILY:
            return 2 * (k + 1), -((k - 1) ** 2)
        case Family.U_FAMILY:
            return 2 * (spec.m + 1), -(spec.m ** 2)
    raise ValueError(f"{spec.family.value} obeys no second-order recurrence")


def coupled_stream(spec: SeqSpec) -> Iterator[TermPair]:
    """Endless terms of a coupled family; see coupled_iterate."""
    try:
        a, b = _COUPLED_START[spec.family]
    except KeyError:
        raise ValueError(f"{spec.family.value} is not a coupled system") from None
    k, h = spec.k, spec.h
    n = 0
    while True:
        yield TermPair(n, a, b)
        a, b = a + k * b, h * a + b
        n += 1


def coupled_iterate(spec: SeqSpec, count: int) -> list[TermPair]:
    """First `count` terms of an ab/tilde/uv family by plain iteration.

    This is the reference evaluation every other strategy is judged
    against, so it stays deliberately dumb: one add-multiply per side.
    """
    require_int("count", count, 1)
    return list(islice(coupled_stream(spec), count))


def second_order_iterate(p: int, q: int, w0: int, w1: int, count: int) -> list[int]:
    """Terms of w_n = p*w_{n-1} + q*w_{n-2} from the two seeds."""
    for label, value in (("p", p), ("q", q), ("w0", w0), ("w1", w1)):
        require_int(label, value)
    require_int("count", count, 2)
    out = [w0, w1]
    while len(out) < count:
        out.append(p * out[-1] + q * out[-2])
    return out


class SequenceName(Enum):
    A = "a"
    B = "b"
    A_TILDE = "a_tilde"
    B_TILDE = "b_tilde"
    U = "u"
    V = "v"


# name -> (takes h, exponent shift, odd part, factor).  With K = hk
# (h = 1 unless the name takes h), each term is the factor times the
# rational part (odd 0) or the sqrt(K) coefficient (odd 1) of
# (1 + sqrt(K))^(n + shift):
#   a_n + b_n sqrt(k) = (1 + sqrt(k))^(n+1)
#   at_n + bt_n sqrt(k) = sqrt(k) (1 + sqrt(k))^n
#   u_n + (v_n / h) sqrt(hk) = (1 + sqrt(hk))^n
_TERM_FORM = {
    SequenceName.A: (False, 1, 0, "1"),
    SequenceName.B: (False, 1, 1, "1"),
    SequenceName.A_TILDE: (False, 0, 1, "k"),
    SequenceName.B_TILDE: (False, 0, 0, "1"),
    SequenceName.U: (True, 0, 0, "1"),
    SequenceName.V: (True, 0, 1, "h"),
}


def _term_form(name: SequenceName, k: int, n: int, h: int) -> tuple[int, int, int, int]:
    """(K, e, odd, factor) of name's term at index n, checked."""
    require_int("k", k, 1)
    require_int("n", n, 0)
    require_int("h", h, 1)
    takes_h, shift, odd, factor = _TERM_FORM[name]
    if not takes_h and h != 1:
        raise ValueError(f"{name.value} takes no h parameter")
    return h * k, n + shift, odd, {"1": 1, "k": k, "h": h}[factor]


def binomial_term(name: SequenceName, k: int, n: int, h: int = 1) -> int:
    """One term at full index n, summed over the binomial coefficients
    of its part of (1 + sqrt(K))^e; no recurrence, no surd powering."""
    rad, e, odd, factor = _term_form(name, k, n, h)
    return factor * binomial_part(rad, e, odd)


def closed_form_term(name: SequenceName, k: int, n: int, h: int = 1) -> int:
    """One term at full index n, read off x = (1 + sqrt(K))^e in QuadSurd
    algebra through its conjugate y: the rational part is (x + y)/2, the
    sqrt(K) coefficient sqrt(K) (x - y)/(2K).  The radical cancellation
    is checked rather than assumed.
    """
    rad, e, odd, factor = _term_form(name, k, n, h)
    x = QuadSurd(1, 1, rad) ** e
    y = x.conj()
    if odd:
        return as_exact_int(root_of(rad) * (x - y) * Fraction(factor, 2 * rad))
    return as_exact_int((x + y) * Fraction(factor, 2))


def genfunc_coeffs(numer: Sequence[int], denom: Sequence[int], count: int) -> list[int]:
    """Series coefficients of numer(x)/denom(x), ascending powers.

    The denominator drives a linear recurrence on the coefficients;
    there is no polynomial division and nothing leaves the integers as
    long as the constant term divides every step (it is 1 for all the
    generating functions in this library).
    """
    require_int("count", count, 1)
    for label, coeffs in (("numer", numer), ("denom", denom)):
        for i, value in enumerate(coeffs):
            require_int(f"{label}[{i}]", value)
    if not denom or denom[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    out: list[int] = []
    for n in range(count):
        acc = numer[n] if n < len(numer) else 0
        for j in range(1, min(n, len(denom) - 1) + 1):
            acc -= denom[j] * out[n - j]
        term, rem = divmod(acc, denom[0])
        if rem:
            raise ValueError("series is not integral over this denominator")
        out.append(term)
    return out


def a_genfunc(k: int) -> tuple[list[int], list[int]]:
    """(numer, denom) with a_n as series coefficients, second order."""
    return [1, k - 1], [1, -2, -(k - 1)]


def b_genfunc(k: int) -> tuple[list[int], list[int]]:
    return [1], [1, -2, -(k - 1)]


def a_genfunc_fourth(k: int) -> tuple[list[int], list[int]]:
    """Fourth-order form of a_genfunc (even/odd subsequences split)."""
    w = (k - 1) ** 2
    return [1, k + 1, k - 1, -w], [1, 0, -2 * (k + 1), 0, w]


def b_genfunc_fourth(k: int) -> tuple[list[int], list[int]]:
    w = (k - 1) ** 2
    return [1, 2, -(k - 1)], [1, 0, -2 * (k + 1), 0, w]


def c_genfunc(m: int) -> tuple[list[int], list[int]]:
    """Generating function of the reduced numerators, k = 2m + 1."""
    return [1, 1 + m, m, -m * m], [1, 0, -2 * (1 + m), 0, m * m]


def d_genfunc(m: int) -> tuple[list[int], list[int]]:
    return [1, 1, -m], [1, 0, -2 * (1 + m), 0, m * m]


def reduced_cd(m: int, count: int) -> list[TermPair]:
    """Reduced convergent pairs (c_n, d_n) for odd k = 2m + 1.

    With P + Q sqrt(k) = (m + 1 + sqrt(k))^t by surd_pow, (c_{2t}, d_{2t})
    is (P + kQ, P + Q) and (c_{2t-1}, d_{2t-1}) is (P, Q).  Against the
    base pair, c_{2t} is a_{2t} over 2^t and c_{2t+1} is a_{2t+1} over
    2^(t+1); the d side reduces b the same way.  The reduction suite
    checks the terms against the base pair, u2 and the genfuncs.
    """
    require_int("m", m, 0)
    require_int("count", count, 1)
    k = 2 * m + 1
    out: list[TermPair] = []
    for n in range(count):
        p, q = surd_pow(m + 1, 1, k, (n + 1) // 2)
        out.append(TermPair(n, p + k * q, p + q) if n % 2 == 0 else TermPair(n, p, q))
    return out
