"""Exact integer and rational kernel shared by every other module.

Nothing here (or anywhere else in the library) touches floating point:
root comparisons go through cross-multiplied integer inequalities, and
rationals are plain ``fractions.Fraction`` values, which already keep
themselves reduced with a positive denominator.  Decimal text of any
length goes through decimal_str, which works under any int->str cap.
require_int is the one argument rule: every public entry point checks
its int arguments through it, so a float or a Fraction where an exact
int belongs is a ValueError naming the parameter, never a float result.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.  Signals a bug, never bad input."""


def require_int(name: str, value: object, least: int | None = None) -> None:
    """Raise ValueError naming the parameter unless value is an int
    and, when least is given, at least least."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def isqrt(n: int) -> int:
    """Floor of the square root of a nonnegative integer."""
    require_int("n", n, 0)
    return math.isqrt(n)


def perfect_square_root(n: int) -> int | None:
    """Exact square root of n, or None when n is not a perfect square.

    Negative inputs return None rather than raising: they are never
    perfect squares, and callers probe speculatively.
    """
    require_int("n", n)
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def cmp_to_root(q: Rational | int, k: int, h: int = 1) -> int:
    """Order a nonnegative rational q against sqrt(k/h) exactly.

    Returns -1, 0 or +1 for q below, equal to or above the root.
    Since both sides are nonnegative, squaring preserves the order and
    the comparison reduces to num(q)^2 * h versus k * den(q)^2.  q must
    be an int or a Fraction: a float would enter as its binary value.
    """
    if not isinstance(q, (int, Fraction)):
        raise ValueError(f"q must be an int or a Fraction, got {q!r}")
    require_int("k", k, 0)
    require_int("h", h, 1)
    if q < 0:
        raise ValueError(f"cmp_to_root expects a nonnegative rational, got {q}")
    lhs = q.numerator * q.numerator * h
    rhs = k * q.denominator * q.denominator
    return (lhs > rhs) - (lhs < rhs)


# str() never sees more decimal digits than this: it is the smallest
# int->str cap an interpreter accepts, so formatting works under any cap.
_STR_PIECE = 640


def _decimal(n: int, width: int) -> str:
    """n >= 0 in decimal, zero-padded to `width` digits (n < 10^width).

    Divide and conquer on powers of ten, so str() only ever formats
    pieces of at most _STR_PIECE digits.
    """
    pieces = []
    powers: dict[int, int] = {}
    pending = [(n, width)]
    while pending:
        n, width = pending.pop()
        if width <= _STR_PIECE:
            pieces.append(str(n).rjust(width, "0"))
            continue
        low = width // 2
        if low not in powers:
            powers[low] = 10 ** low
        high, rest = divmod(n, powers[low])
        pending.append((rest, low))
        pending.append((high, width - low))
    return "".join(pieces)


def decimal_str(n: int) -> str:
    """str(n), formatted by _decimal, so it works under any int->str cap
    and costs less than str() on a long n."""
    require_int("n", n)
    magnitude = abs(n)
    # 0.30103 > log10(2), so this is never below the digit count
    width = magnitude.bit_length() * 30103 // 10 ** 5 + 1
    text = _decimal(magnitude, width).lstrip("0") or "0"
    return "-" + text if n < 0 else text
