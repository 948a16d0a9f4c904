"""The infinite product for sqrt((r+1)/(r-1)) over a doubling orbit.

c_1 = r and c_{n+1} = 2 c_n^2 - 1 grow like a Newton orbit; the
companion d_{n+1} = 2 c_n d_n collects the partial products, and
prod (1 + 1/c_i) converges to sqrt((r+1)/(r-1)) from below with an
exactly known gap at every stage.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ConsistencyError, require_int
from .quad import surd_pow


@dataclass(frozen=True)
class ProductState:
    """One stage of the product: the pair and the running product.

    partial is prod_{i=1..n} (1 + 1/c_i) as an exact Rational; at
    n = 0 it is the empty product 1, and from n = 1 on it must agree
    with the closed form (r+1) d_n / c_n.
    """

    r: int
    n: int
    c: int
    d: int
    partial: Fraction


def cd_run(r: int, steps: int) -> list[ProductState]:
    """States 0 through steps, with the partial-product invariant
    checked at every stage past the seed."""
    require_int("r", r, 2)
    require_int("steps", steps, 0)
    out = [ProductState(r, 0, 1, 1, Fraction(1))]
    c, d, partial = 1, 1, Fraction(1)
    for n in range(1, steps + 1):
        c, d = (r, 1) if n == 1 else (2 * c * c - 1, 2 * c * d)
        partial *= 1 + Fraction(1, c)
        if partial != Fraction((r + 1) * d, c):
            raise ConsistencyError(f"partial product drifted at r={r}, n={n}")
        out.append(ProductState(r, n, c, d, partial))
    return out


def cd_closed_form(r: int, n: int) -> tuple[int, int]:
    """(c_n, d_n) as c_n + d_n sqrt(r^2 - 1) = (r + sqrt(r^2 - 1))^(2^(n-1)),
    by surd_pow; the products suite checks it against cd_run."""
    require_int("r", r, 2)
    require_int("n", n, 1)
    return surd_pow(r, 1, r * r - 1, 2 ** (n - 1))


def partial_product(r: int, n: int) -> Fraction:
    """prod_{i=1..n} (1 + 1/c_i), multiplied out by cd_run, which
    checks it against the closed form (r+1) d_n / c_n at every stage."""
    require_int("n", n, 1)
    return cd_run(r, n)[n].partial


def product_limit_gap(r: int, n: int) -> Fraction:
    """Exact distance (r+1)/(r-1) - partial_n^2, always positive.

    The partial products approach the limit from below; the gap
    collapses quadratically since c_n squares each step.
    """
    p = partial_product(r, n)
    gap = Fraction(r + 1, r - 1) - p * p
    if gap <= 0:
        raise ConsistencyError(f"partial product overshot at r={r}, n={n}")
    return gap
