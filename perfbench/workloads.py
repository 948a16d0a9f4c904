"""Seeded inputs for the three workloads.

Every draw comes from one `random.Random` seeded with the workload
name and the `--seed` value, so a seed always yields the same inputs.
The library only ever sees the resulting (k, h, D, method) or
(suite, k_min, k_max, n_max) tuples.

The draws are stratified so that every seed yields the same mix of
cheap and expensive calls.  Ranges are cut into grid cells with one
input per cell.  NEWTON and JUMP inputs then take D log-uniformly
inside the engine's doubling bracket at the cell centre: the range of
D over which the engine certifies at the same step.  The cost of a
call jumps about fourfold from one bracket to the next, and
independent draws made round throughput swing 40% from seed to seed.
README.md says why each workload and each range was chosen.
"""
from __future__ import annotations

import math
import random
from math import isqrt

WORKLOADS = ("certify-deep", "certify-wide", "verify-sweep")

# certify-deep: few, deep calls where certification cost dominates.
# Each nonsquare k <= 15 takes one of twelve log-D strata, interleaved so
# that D is uncorrelated with k within both cost classes: k >= 10
# converges slowly from the seed 1 + sqrt(k), so b ends far wider than
# the digits need and a call costs about five times more.  One k >= 10
# input lands in NEWTON step 18, where the error bound alone takes ~5 s;
# that keeps a round near 15 s.
DEEP_STRATUM = {2: 5, 3: 10, 5: 1, 6: 7, 7: 9, 8: 3,
                10: 6, 11: 11, 12: 2, 13: 8, 14: 0, 15: 4}
DEEP_D = (10_000, 50_000)
DEEP_METHODS = ("newton", "jump")
DEEP_FIXED = (2, 1, 100_000, "newton")

# certify-wide: many small calls over a wide radicand range.  Grid
# cells over (log k, log D) for h = 1 and over (log k, log h, log D)
# otherwise, one input per cell, so half the inputs have h = 1.
WIDE_CELLS_UNIT_H = (16, 16)
WIDE_CELLS_H = (8, 8, 4)
WIDE_D = (20, 200)
WIDE_K = (2, 10_000)
WIDE_H = (2, 10_000)
# LINEAR needs about D / log10((sqrt(kh)+1)/(sqrt(kh)-1)) steps; above
# k*h = 10^3 that reaches minutes, or never ends, at D = 200.
LINEAR_KH_CAP = 1_000

# verify-sweep: every identity suite over an 11-wide k window.
SUITES = ("strategies", "identities", "newton", "products", "reduction")
SWEEP_K0 = (2, 200)
SWEEP_SPAN = 10
SWEEP_N_MAX = (30, 60)
SWEEP_DRAWS = 3  # k0 draws per (suite, n_max) pair

LN10 = math.log(10)
BRACKET_MARGIN = 0.1


def is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def accepting_engines(k: int, h: int) -> list[str]:
    """Engines that certify (k, h) in bounded time today.

    JUMP raises ValueError for h != 1 and never certifies a square k
    (every jump candidate lands below the exact root); NEWTON raises
    ValueError for k == h; LINEAR is capped by LINEAR_KH_CAP.
    """
    out = []
    if k * h <= LINEAR_KH_CAP:
        out.append("linear")
    if h == 1 and not is_square(k):
        out.append("jump")
    if k != h:
        out.append("newton")
    return out


def _doublings(k: float, h: float, digits: float) -> float:
    """log2 of the convergent index at which sqrt(k/h) reaches `digits`
    places, from the convergence rate of the seed 1 + sqrt(k/h).

    NEWTON step n and JUMP index 2^n sit at index ~2^n, so this value's
    ceiling is the step that certifies: the engine's doubling bracket.
    """
    s = math.sqrt(k / h)
    return math.log2((digits * LN10 + math.log(2 * s)) / -math.log(abs(1 - s) / (1 + s)))


def _digits_at(k: int, h: int, doublings: float) -> float:
    s = math.sqrt(k / h)
    return (2 ** doublings * -math.log(abs(1 - s) / (1 + s)) - math.log(2 * s)) / LN10


def _in_bracket(rng: random.Random, k: int, h: int, bounds: tuple[int, int],
                centre: tuple[float, float, float]) -> int | None:
    """D log-uniform within the doubling bracket that holds `centre`,
    clipped to `bounds`; None when the clipped bracket is empty.

    The top BRACKET_MARGIN of each bracket is left out: there the
    certificate can need one candidate more than the rate predicts.
    """
    if centre[0] == centre[1]:  # the centre's root is 1: no bracket to hold
        return None
    n = math.ceil(_doublings(*centre))
    lo = max(n - 1, _doublings(k, h, bounds[0]))
    hi = min(n - BRACKET_MARGIN, _doublings(k, h, bounds[1]))
    if lo >= hi:
        return None
    return round(_digits_at(k, h, lo + (hi - lo) * rng.random()))


def _centre(bounds: tuple[int, int], j: int, count: int) -> float:
    lo, hi = bounds
    return lo * (hi / lo) ** ((j + 0.5) / count)


def _log_uniform(bounds: tuple[int, int], u: float) -> int:
    lo, hi = bounds
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def deep_ops(rng: random.Random) -> list[tuple]:
    ops = []
    count = len(DEEP_STRATUM)
    for i, (k, j) in enumerate(DEEP_STRATUM.items()):
        method = DEEP_METHODS[i % 2]
        digits = _in_bracket(rng, k, 1, DEEP_D, (k, 1, _centre(DEEP_D, j, count)))
        if digits is None:
            digits = _log_uniform(DEEP_D, (j + rng.random()) / count)
        ops.append((k, 1, digits, method))
    ops.append(DEEP_FIXED)
    rng.shuffle(ops)
    return ops


def wide_ops(rng: random.Random) -> list[tuple]:
    """One input per grid cell.  The cell's number picks the engine among
    those that accept the input, so engines take turns without one
    boundary input reshuffling the rest.  NEWTON and JUMP inputs take D
    inside the doubling bracket of the cell centre."""
    cells = [((ik, WIDE_CELLS_UNIT_H[0]), None, (id_, WIDE_CELLS_UNIT_H[1]))
             for ik in range(WIDE_CELLS_UNIT_H[0]) for id_ in range(WIDE_CELLS_UNIT_H[1])]
    cells += [((ik, WIDE_CELLS_H[0]), (ih, WIDE_CELLS_H[1]), (id_, WIDE_CELLS_H[2]))
              for ik in range(WIDE_CELLS_H[0]) for ih in range(WIDE_CELLS_H[1])
              for id_ in range(WIDE_CELLS_H[2])]
    ops = []
    for cell, ((ik, nk), h_cell, (id_, nd)) in enumerate(cells):
        k = _log_uniform(WIDE_K, (ik + rng.random()) / nk)
        h = 1 if h_cell is None else _log_uniform(WIDE_H, (h_cell[0] + rng.random()) / h_cell[1])
        while not accepting_engines(k, h):  # k == h above the LINEAR cap: no engine takes it
            h = _log_uniform(WIDE_H, rng.random())
        engines = accepting_engines(k, h)
        method = engines[cell % len(engines)]
        digits = None
        if method != "linear":
            centre = (_centre(WIDE_K, ik, nk), 1 if h_cell is None else _centre(WIDE_H, *h_cell),
                      _centre(WIDE_D, id_, nd))
            digits = _in_bracket(rng, k, h, WIDE_D, centre)
        if digits is None:
            digits = _log_uniform(WIDE_D, (id_ + rng.random()) / nd)
        ops.append((k, h, digits, method))
    rng.shuffle(ops)
    return ops


def sweep_ops(rng: random.Random) -> list[tuple]:
    lo, hi = SWEEP_K0
    ops = []
    for suite in SUITES:
        for n_max in SWEEP_N_MAX:
            for j in range(SWEEP_DRAWS):
                k0 = lo + int((j + rng.random()) / SWEEP_DRAWS * (hi - lo + 1))
                ops.append((suite, k0, k0 + SWEEP_SPAN, n_max))
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[tuple]:
    """The round of inputs one seed gives; a run repeats it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-deep":
        return deep_ops(rng)
    if workload == "certify-wide":
        return wide_ops(rng)
    if workload == "verify-sweep":
        return sweep_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
