"""Integer pair sequences whose ratios converge to sqrt(k/h).

The same family of numbers is reachable four independent ways: the
coupled first-order system, a collapsed second-order recurrence,
binomial summations, and closed forms in quadratic surds.  Keeping all
four alive is the point; they cross-check each other term by term.
`terms` serves every family, the Newton and product orbits included,
from the one evaluator that defines it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .newton import newton_run
from .products import cd_run
from .quad import QuadSurd, as_exact_int, root_of, surd_pow


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
        if self.h < 1:
            raise ValueError(f"h must be at least 1, got {self.h}")
        if fam not in _TAKES_H and self.h != 1:
            raise ValueError(f"h applies to the uv and newton families only, not {fam.value}")
        if fam in _TAKES_M:
            k, m = self.k, self.m
            if m is None:
                if k is None or k < 1 or k % 2 == 0:
                    raise ValueError(f"{fam.value} needs odd k >= 1 or explicit m")
                m = (k - 1) // 2
            if m < 0:
                raise ValueError(f"m must be nonnegative, got {m}")
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
            name = "r" if fam is Family.PRODUCT else "k"
            if self.k is None or self.k < least:
                raise ValueError(f"{fam.value} needs {name} >= {least}, got {self.k}")
        if fam in _SEEDED:
            if self.seed is None:
                raise ValueError(f"{fam.value} needs a seed pair (w0, w1)")
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
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
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
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return list(islice(coupled_stream(spec), count))


def second_order_iterate(p: int, q: int, w0: int, w1: int, count: int) -> list[int]:
    """Terms of w_n = p*w_{n-1} + q*w_{n-2} from the two seeds."""
    if count < 2:
        raise ValueError(f"count must cover both seeds, got {count}")
    out = [w0, w1]
    while len(out) < count:
        out.append(p * out[-1] + q * out[-2])
    return out


class TermSelector(Enum):
    """Sequence-and-parity selector for the half-index formulas.

    A_EVEN at n addresses a_{2n}, A_ODD at n addresses a_{2n+1}, and
    so on; AT/BT are the tilde variants, U/V the h-scaled pair.
    """

    A_EVEN = "a_even"
    A_ODD = "a_odd"
    B_EVEN = "b_even"
    B_ODD = "b_odd"
    AT_EVEN = "at_even"
    AT_ODD = "at_odd"
    BT_EVEN = "bt_even"
    BT_ODD = "bt_odd"
    U_EVEN = "u_even"
    U_ODD = "u_odd"
    V_EVEN = "v_even"
    V_ODD = "v_odd"


_H_SELECTORS = {
    TermSelector.U_EVEN,
    TermSelector.U_ODD,
    TermSelector.V_EVEN,
    TermSelector.V_ODD,
}


def _check_term_args(sel: TermSelector, k: int, n: int, h: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < 0:
        raise ValueError(f"half-index must be nonnegative, got {n}")
    if sel in _H_SELECTORS:
        if h < 1:
            raise ValueError(f"h must be at least 1, got {h}")
    elif h != 1:
        raise ValueError(f"{sel.name} takes no h parameter")


def binomial_sum_term(sel: TermSelector, k: int, n: int, h: int = 1) -> int:
    """One term straight from its binomial summation, no recurrence."""
    _check_term_args(sel, k, n, h)
    hk = h * k
    match sel:
        case TermSelector.A_EVEN:
            return sum(comb(2 * n + 1, 2 * i + 1) * k ** (n - i) for i in range(n + 1))
        case TermSelector.A_ODD:
            return sum(comb(2 * n + 2, 2 * i) * k ** (n + 1 - i) for i in range(n + 2))
        case TermSelector.B_EVEN:
            return sum(comb(2 * n + 1, 2 * i) * k ** (n - i) for i in range(n + 1))
        case TermSelector.B_ODD:
            return sum(comb(2 * n + 2, 2 * i + 1) * k ** (n - i) for i in range(n + 1))
        case TermSelector.AT_EVEN:
            return sum(comb(2 * n, 2 * i + 1) * k ** (i + 1) for i in range(n))
        case TermSelector.AT_ODD:
            return sum(comb(2 * n + 1, 2 * i + 1) * k ** (i + 1) for i in range(n + 1))
        case TermSelector.BT_EVEN:
            return sum(comb(2 * n, 2 * i) * k ** i for i in range(n + 1))
        case TermSelector.BT_ODD:
            return sum(comb(2 * n + 1, 2 * i) * k ** i for i in range(n + 1))
        case TermSelector.U_EVEN:
            return sum(comb(2 * n, 2 * i) * hk ** i for i in range(n + 1))
        case TermSelector.U_ODD:
            return sum(comb(2 * n + 1, 2 * i) * hk ** i for i in range(n + 1))
        case TermSelector.V_EVEN:
            return h * sum(comb(2 * n, 2 * i + 1) * hk ** i for i in range(n))
        case TermSelector.V_ODD:
            return h * sum(comb(2 * n + 1, 2 * i + 1) * hk ** i for i in range(n + 1))
    raise AssertionError(sel)


def closed_form_half(sel: TermSelector, k: int, n: int, h: int = 1) -> int:
    """Same term as binomial_sum_term, but via surd powers.

    Everything is spelled out in QuadSurd algebra so the radical
    cancellation is checked rather than assumed.
    """
    _check_term_args(sel, k, n, h)
    half = Fraction(1, 2)
    if sel in _H_SELECTORS:
        rad = h * k
        base = QuadSurd(1 + h * k, 2, rad)  # (1 + sqrt(hk))^2
    else:
        rad = k
        base = QuadSurd(k + 1, 2, rad)      # (1 + sqrt(k))^2
    root = root_of(rad)
    x = base ** (n + 1) if sel in (TermSelector.A_ODD, TermSelector.B_ODD) else base ** n
    y = x.conj()
    match sel:
        case TermSelector.A_EVEN:
            expr = (x + y) * half + root * (x - y) * half
        case TermSelector.A_ODD:
            expr = (x + y) * half
        case TermSelector.B_EVEN:
            expr = (x + y) * half + (x - y) / (root * 2)
        case TermSelector.B_ODD:
            expr = (x - y) / (root * 2)
        case TermSelector.AT_EVEN:
            expr = root * (x - y) * half
        case TermSelector.AT_ODD:
            expr = root * (x - y) * half + k * (x + y) * half
        case TermSelector.BT_EVEN:
            expr = (x + y) * half
        case TermSelector.BT_ODD:
            expr = root * (x - y) * half + (x + y) * half
        case TermSelector.U_EVEN:
            expr = (x + y) * half
        case TermSelector.U_ODD:
            expr = root * (x - y) * half + (x + y) * half
        case TermSelector.V_EVEN:
            # sqrt(h)/sqrt(k) rewritten as sqrt(hk)/k to stay in one field
            expr = root * (x - y) / (2 * k)
        case TermSelector.V_ODD:
            expr = root * (x - y) / (2 * k) + h * (x + y) * half
        case _:
            raise AssertionError(sel)
    return as_exact_int(expr)


class SequenceName(Enum):
    A = "a"
    B = "b"
    A_TILDE = "a_tilde"
    B_TILDE = "b_tilde"
    U = "u"
    V = "v"


_PARITY_DISPATCH = {
    SequenceName.A: (TermSelector.A_EVEN, TermSelector.A_ODD),
    SequenceName.B: (TermSelector.B_EVEN, TermSelector.B_ODD),
    SequenceName.A_TILDE: (TermSelector.AT_EVEN, TermSelector.AT_ODD),
    SequenceName.B_TILDE: (TermSelector.BT_EVEN, TermSelector.BT_ODD),
    SequenceName.U: (TermSelector.U_EVEN, TermSelector.U_ODD),
    SequenceName.V: (TermSelector.V_EVEN, TermSelector.V_ODD),
}


def binomial_term(name: SequenceName, k: int, n: int, h: int = 1) -> int:
    """Full-index binomial evaluation, routed through the parity split."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    even_sel, odd_sel = _PARITY_DISPATCH[name]
    sel = even_sel if n % 2 == 0 else odd_sel
    return binomial_sum_term(sel, k, n // 2, h)


def closed_form_term(name: SequenceName, k: int, n: int, h: int = 1) -> int:
    """Full-index closed form for one sequence member.

    The base pair uses powers of 1 + sqrt(k) directly; the tilde and
    u/v variants go through the even/odd split closed forms.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if name in (SequenceName.A, SequenceName.B):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if h != 1:
            raise ValueError(f"{name.value} takes no h parameter")
        x = QuadSurd(1, 1, k) ** (n + 1)
        y = x.conj()
        if name is SequenceName.A:
            expr = (x + y) * Fraction(1, 2)
        else:
            expr = (x - y) / (root_of(k) * 2)
        return as_exact_int(expr)
    even_sel, odd_sel = _PARITY_DISPATCH[name]
    sel = even_sel if n % 2 == 0 else odd_sel
    return closed_form_half(sel, k, n // 2, h)


def genfunc_coeffs(numer: Sequence[int], denom: Sequence[int], count: int) -> list[int]:
    """Series coefficients of numer(x)/denom(x), ascending powers.

    The denominator drives a linear recurrence on the coefficients;
    there is no polynomial division and nothing leaves the integers as
    long as the constant term divides every step (it is 1 for all the
    generating functions in this library).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
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
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    k = 2 * m + 1
    out: list[TermPair] = []
    for n in range(count):
        p, q = surd_pow(m + 1, 1, k, (n + 1) // 2)
        out.append(TermPair(n, p + k * q, p + q) if n % 2 == 0 else TermPair(n, p, q))
    return out
