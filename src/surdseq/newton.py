"""Newton's method for square roots, kept exact on integer pairs.

One Newton step on a/b for sqrt(k/h) is (h a^2 + k b^2) / (2 h a b),
so the orbit never leaves the integers.  The residual h a^2 - k b^2
squares (up to a factor h) at every step, which is the quadratic
convergence in its rawest form; with h = 1 the residual is exactly
(1-k)^(2^n) and doubles as an exponent tower.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .exact import _STR_PIECE, perfect_square_root
from .quad import surd_pow

# Published-series ids covered by the bundled data files, mapped to
# the side of the k = 2 Newton orbit they list.
OEIS_SERIES = {"A001601": "a", "A051009": "b"}


@dataclass(frozen=True)
class NewtonState:
    """One point of the orbit.

    w is the residual h a^2 - k b^2; for h = 1 that equals
    (1-k)^(2^n), and the state carries it so nobody has to rebuild a
    2^n-bit power from scratch.
    """

    n: int
    a: int
    b: int
    w: int
    k: int
    h: int = 1

    def ratio(self) -> Fraction:
        return Fraction(self.a, self.b)


def newton_start(k: int, h: int = 1) -> NewtonState:
    """State 0, the seed pair (1, 1), of the orbit for sqrt(k/h)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if h < 1:
        raise ValueError(f"h must be at least 1, got {h}")
    if h == k:
        raise ValueError("k = h starts on the root itself; nothing to iterate")
    return NewtonState(0, 1, 1, h - k, k, h)


def newton_step(state: NewtonState) -> NewtonState:
    """One exact Newton step; the residual check rides along for free."""
    n, a, b, w, k, h = state.n, state.a, state.b, state.w, state.k, state.h
    return NewtonState(n + 1, h * a * a + k * b * b, 2 * h * a * b, h * w * w, k, h)


def newton_run(k: int, steps: int, h: int = 1) -> list[NewtonState]:
    """States 0 through steps, starting from the seed pair (1, 1)."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    out = [newton_start(k, h)]
    for _ in range(steps):
        out.append(newton_step(out[-1]))
    return out


def squared_shortcut(k: int, n: int, prev_a: int) -> int:
    """a_n from a_{n-1} alone: 2 a_{n-1}^2 - (k-1)^(2^(n-1)).

    Valid from n = 2 on; the step into n = 1 predates the residual
    pattern the shortcut leans on.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 2:
        raise ValueError(f"the shortcut starts at n = 2, got {n}")
    return 2 * prev_a * prev_a - (k - 1) ** (2 ** (n - 1))


def b_from_sqrt(k: int, prev_b: int, n: int) -> int:
    """b_n = 2 b_{n-1} sqrt(k b_{n-1}^2 + (k-1)^(2^(n-1))), n >= 2.

    At n = 1 the radicand identity is simply false (it would force
    a_0^2 = k + (k - 1), which no k > 1 satisfies), so recovery by
    radical starts one step later than the rest of the shortcuts.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 2:
        raise ValueError(f"radical recovery needs n >= 2, got {n}")
    if prev_b < 1:
        raise ValueError(f"b terms are positive, got {prev_b}")
    root = perfect_square_root(k * prev_b * prev_b + (k - 1) ** (2 ** (n - 1)))
    if root is None:
        raise ValueError(f"{prev_b} is not the b term before index {n} for k={k}")
    return 2 * prev_b * root


def b_product_form(k: int, n: int) -> int:
    """b_n as 2^n times the product of all earlier a terms."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    prod = 1
    if n > 0:
        for state in newton_run(k, n - 1):
            prod *= state.a
    return 2 ** n * prod


def newton_closed_form(k: int, n: int) -> tuple[int, int]:
    """(a_n, b_n) as a_n + b_n sqrt(k) = (1 + sqrt(k))^(2^n), by surd_pow;
    the newton suite checks it against newton_run (newton_closed_form)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return surd_pow(1, 1, k, 2 ** n)


def newton_binomial_sum(k: int, n: int, side: str = "a") -> int:
    """a_n or b_n summed directly over binomial coefficients.

    The b summation is empty of meaning at n = 0 (there is no power
    of 1 + sqrt(k) below the first), so asking for it is an error.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    power = 2 ** n
    if side == "a":
        return sum(comb(power, 2 * r) * k ** r for r in range(power // 2 + 1))
    if side == "b":
        if n == 0:
            raise ValueError("the b summation needs n >= 1")
        return sum(comb(power, 2 * r + 1) * k ** r for r in range(power // 2))
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def generated_terms(series_id: str, count: int) -> list[int]:
    """Regenerate one published series from the k = 2 orbit."""
    try:
        side = OEIS_SERIES[series_id]
    except KeyError:
        raise ValueError(
            f"unknown series id {series_id!r}; bundled: {sorted(OEIS_SERIES)}"
        ) from None
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    run = newton_run(2, count - 1)
    return [state.a if side == "a" else state.b for state in run]


def _parse_term(token: str) -> int:
    """int(token), read in pieces of at most _STR_PIECE digits, so it
    works under any int->str cap."""
    digits = token[1:] if token[:1] in "+-" else token
    if not digits.isdecimal():
        return int(token)  # int()'s own verdict on anything but plain digits
    value = int(digits[:_STR_PIECE])
    for start in range(_STR_PIECE, len(digits), _STR_PIECE):
        piece = digits[start:start + _STR_PIECE]
        value = value * 10 ** len(piece) + int(piece)
    return -value if token[:1] == "-" else value


def reference_terms(series_id: str, data_dir: str | Path | None = None) -> list[int]:
    """Load the bundled decimal terms for a published series id.

    data_dir overrides the package's own data directory; the files are
    plain text, one integer per line.
    """
    if series_id not in OEIS_SERIES:
        raise ValueError(
            f"unknown series id {series_id!r}; bundled: {sorted(OEIS_SERIES)}"
        )
    root = Path(data_dir) if data_dir is not None else Path(__file__).parent / "data"
    path = root / f"{series_id}.txt"
    if not path.is_file():
        raise FileNotFoundError(f"reference terms not found at {path}")
    terms = [_parse_term(token) for token in path.read_text().split()]
    if len(terms) < 6:
        raise ValueError(f"{path} carries only {len(terms)} terms; expected 6 or more")
    return terms
