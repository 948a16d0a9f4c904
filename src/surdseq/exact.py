"""Exact integer and rational kernel shared by every other module.

Nothing here (or anywhere else in the library) touches floating point:
root comparisons go through cross-multiplied integer inequalities, and
rationals are plain ``fractions.Fraction`` values, which already keep
themselves reduced with a positive denominator.  Decimal text of any
length goes through decimal_str, which works under any int->str cap.
From _DECIMAL_CUTOFF digits on, decimal_str formats, and the one digit
certificate in approx runs its same steps, on decimal.Decimal integers
instead of ints, which libmpdec divides, multiplies and prints in
subquadratic time: _to_decimal converts an int exactly, and every
Decimal operation runs under _EXACT, a context entered through
decimal.localcontext in which any rounding raises.
require_int is the one argument rule: every public entry point checks
its int arguments through it, so a float or a Fraction where an exact
int belongs is a ValueError naming the parameter, never a float result.
"""
from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal
from fractions import Fraction


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


def cmp_to_root(q: Fraction | int, k: int, h: int = 1) -> int:
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


# Every Decimal operation runs under this context, entered through
# decimal.localcontext: any rounding raises, so a Decimal integer here is
# as exact as an int.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])

# Width in decimal digits from which libmpdec's subquadratic // and
# multiplication, with the conversions to Decimal, beat int // and
# str() on whole approximate calls: about 2.5e4 digits on CPython 3.10
# and 3.11, where both are quadratic, and 5.5e4 from 3.12 on, where
# _pylong divides and formats wide ints by divide and conquer.
# decimal_str alone crosses over at 2-2.5e4 digits on 3.11 and 3-5e4
# on 3.12 and 3.13, so it takes the same constant.  None when
# decimal is the pure-Python _pydecimal, which has no such edge.
try:
    from _decimal import Decimal as _LibmpdecDecimal
except ImportError:
    _LibmpdecDecimal = None
if Decimal is _LibmpdecDecimal:
    _DECIMAL_CUTOFF: int | None = 25_000 if sys.version_info < (3, 12) else 55_000
else:
    _DECIMAL_CUTOFF = None


def _use_decimal(width: int) -> bool:
    """Whether a computation `width` decimal digits wide runs on Decimal."""
    return _DECIMAL_CUTOFF is not None and width >= _DECIMAL_CUTOFF


# Below this many bits Decimal(n) converts directly.
_SPLIT_BITS = 128


def _to_decimal(n: int) -> Decimal:
    """n >= 0 as an equal Decimal integer, by binary splitting on powers
    of two, as int_to_decimal in CPython's Lib/_pylong.py does."""
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        if w not in powers:
            if w <= _SPLIT_BITS:
                powers[w] = Decimal(2) ** w
            elif w - 1 in powers:
                powers[w] = powers[w - 1] + powers[w - 1]
            else:
                low = w >> 1
                powers[w] = power(low) * power(w - low)
        return powers[w]

    def convert(n: int, w: int) -> Decimal:
        if w <= _SPLIT_BITS:
            return Decimal(n)
        low = w >> 1
        high = n >> low
        return convert(n - (high << low), low) + convert(high, w - low) * power(low)

    with decimal.localcontext(_EXACT):
        return convert(n, n.bit_length())


def decimal_str(n: int) -> str:
    """str(n), under any int->str cap and in less time than str() on a long n.

    From _DECIMAL_CUTOFF digits on, Decimal formats it.  Below, divide
    and conquer on powers of ten, so str() only ever formats pieces of
    at most _STR_PIECE digits.
    """
    require_int("n", n)
    magnitude = abs(n)
    # 0.30103 > log10(2), so this is at most two above the digit count,
    # and the leading piece of a split, at least _STR_PIECE // 2 digits
    # wide, is nonzero
    width = magnitude.bit_length() * 30103 // 10 ** 5 + 1
    if _use_decimal(width):
        text = format(_to_decimal(magnitude), "f")
    else:
        pieces = []
        powers: dict[int, int] = {}
        pending = [(magnitude, width)]
        while pending:
            part, width = pending.pop()
            if width <= _STR_PIECE:
                piece = str(part)
                pieces.append(piece.rjust(width, "0") if pieces else piece)
                continue
            low = width // 2
            if low not in powers:
                powers[low] = 10 ** low
            high, rest = divmod(part, powers[low])
            pending.append((rest, low))
            pending.append((high, width - low))
        text = "".join(pieces)
    return "-" + text if n < 0 else text
