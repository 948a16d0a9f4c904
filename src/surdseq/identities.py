"""Index arithmetic on the base pair: doubling, addition, fast jumps.

All of these trade long iteration for a handful of big multiplies:
their input terms come from fast_term.  Where an identity is cheap to
confirm against a closed value or one more fast_term, the function
confirms it before returning; the others are exercised by the
verification suites against plain iteration.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact import ConsistencyError, perfect_square_root
from .quad import surd_pow
from .sequences import TermPair


def pell_residual(k: int, n: int) -> int:
    """a_n^2 - k b_n^2, confirmed against its closed value (1-k)^(n+1).

    The sign alternates, which is what makes consecutive ratios
    bracket sqrt(k) from both sides.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a, b = surd_pow(1, 1, k, n + 1)
    residual = a * a - k * b * b
    if residual != (1 - k) ** (n + 1):
        raise ConsistencyError(f"residual broke at k={k}, n={n}: got {residual}")
    return residual


def index_double(k: int, n: int) -> int:
    """a_{2n} from the two terms a_{n-1}, a_n alone.

    Uses a_{2n} = 2 a_{n-1} a_n - (1-k)^n, with a_{n-1} = a_n - k b_{n-1}
    and b_{n-1} = (a_n - b_n)/(k - 1), and checks the result against
    fast_term at 2n before handing it back.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 1:
        raise ValueError(f"index must be at least 1, got {n}")
    _, a_n, b_n = fast_term(k, n)
    a_prev = a_n - k * ((a_n - b_n) // (k - 1))
    doubled = 2 * a_prev * a_n - (1 - k) ** n
    if doubled != fast_term(k, 2 * n).num:
        raise ConsistencyError(f"index doubling broke at k={k}, n={n}")
    return doubled


def sqrt_double(k: int, n: int, a_n: int, b_n: int) -> TermPair:
    """(a_{2n}, b_{2n}) recovered from (a_n, b_n) and nothing else.

    Both intermediate radicands must come out as perfect squares and
    every division must be exact; any misfire means the inputs were
    not a genuine pair for this k and n.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 1:
        raise ValueError(f"index must be at least 1, got {n}")
    if a_n < 1 or b_n < 1:
        raise ValueError("pair terms are positive")
    w = (1 - k) ** (n + 1)

    def reject() -> ValueError:
        return ValueError(f"({a_n}, {b_n}) is not the pair at index {n} for k={k}")

    rad_a, rem = divmod(a_n * a_n - w, k)
    if rem:
        raise reject()
    root_a = perfect_square_root(rad_a)
    if root_a is None:
        raise reject()
    num_a, rem = divmod(2 * k * a_n * root_a - 2 * a_n * a_n, k - 1)
    if rem:
        raise reject()
    a_doubled = num_a - (1 - k) ** n

    root_b = perfect_square_root(k * b_n * b_n + w)
    if root_b is None:
        raise reject()
    num_b, rem = divmod(w + 2 * k * b_n * b_n - 2 * b_n * root_b, k - 1)
    if rem:
        raise reject()
    return TermPair(2 * n, a_doubled, num_b)


def two_power_ladder(k: int, levels: int) -> list[TermPair]:
    """Pairs at indices 1, 2, 4, ..., 2^levels by repeated sqrt_double."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels}")
    pair = TermPair(1, k + 1, 2)
    out = [pair]
    for _ in range(levels):
        pair = sqrt_double(k, pair.n, pair.num, pair.den)
        out.append(pair)
    return out


def addition_jump(k: int, m: int, n: int) -> TermPair:
    """(a, b) at index m + n + 1 from the pairs at m-1, m, n, n+1.

    The b side is the index addition formula as it stands.  The a side
    needs b_{m+n}, whose own formula wants b_{n-1}; substituting
    b_{n-1} = (a_n - b_n)/(k - 1) makes the k - 1 cancel, so the whole
    computation stays on the four allowed indices.  Those come from
    fast_term at m and n, with b_{m-1} = (a_m - b_m)/(k - 1) and
    b_{n+1} = a_n + b_n.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _, a_m, b_m = fast_term(k, m)
    _, a_n, b_n = fast_term(k, n)
    b_prev = (a_m - b_m) // (k - 1)
    b_next = a_n + b_n
    b_hi = (k - 1) * b_prev * b_n + b_m * b_next
    b_lo = b_prev * (a_n - b_n) + b_m * b_n
    return TermPair(m + n + 1, (k - 1) * b_lo + b_hi, b_hi)


def fast_term(k: int, n: int) -> TermPair:
    """(a_n, b_n) as a_n + b_n sqrt(k) = (1 + sqrt(k))^(n+1), by surd_pow in
    O(log n) multiplies; the identities suite checks it against iteration."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return TermPair(n, *surd_pow(1, 1, k, n + 1))


@dataclass(frozen=True)
class FailureWitness:
    """First counterexample an identity check ran into."""

    n: int
    m: int | None
    lhs: object
    rhs: object


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of sweeping one identity over an index range."""

    identity: str
    k: int
    n_max: int
    passes: int
    failure: FailureWitness | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None
