"""Batch verification suites behind the `verify` command.

Each suite sweeps one corner of the library over a k range and
reports identity by identity instead of stopping at the first hit, so
a regression shows up with its smallest counterexample attached.

Every identity is one row of _TABLE, and every row is of one of two
kinds.  A routes row compares two independent computations of the same
numbers; tests/test_verify.py runs its two sides apart and checks that
the library code they reach overlaps only in an allowlist of argument
checks and dispatchers.  A relation row checks an algebraic relation
on values already computed, and says in the table why its sides are
not two routes.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, Iterable, NamedTuple

from .exact import ConsistencyError, perfect_square_root, require_int
from .identities import (
    FailureWitness,
    IdentityReport,
    addition_jump,
    fast_term,
    sqrt_double,
    two_power_ladder,
)
from .newton import (
    b_from_sqrt,
    b_product_form,
    newton_binomial_sum,
    newton_closed_form,
    newton_run,
    squared_shortcut,
)
from .products import cd_closed_form, cd_run
from .sequences import (
    Family,
    SeqSpec,
    SequenceName,
    a_genfunc,
    a_genfunc_fourth,
    b_genfunc,
    b_genfunc_fourth,
    binomial_term,
    c_genfunc,
    closed_form_term,
    d_genfunc,
    genfunc_coeffs,
    recurrence,
    second_order_iterate,
    terms,
)

_NEWTON_DEPTH_CAP = 8  # index n means 2^n-bit-scale terms; 8 is plenty
_PRODUCT_DEPTH_CAP = 10


def _ab(s: _Streams, count: int) -> list:
    return terms(SeqSpec(Family.AB, k=s.k), count)


def _u2(s: _Streams, seed: tuple[int, int]) -> list[int]:
    return terms(SeqSpec(Family.U_FAMILY, m=s.m, seed=seed), s.half + 2)


def _w(s: _Streams, seed: tuple[int, int]) -> list[int]:
    return terms(SeqSpec(Family.W_FAMILY, k=s.k, seed=seed), s.half + 2)


# every stream a row reads, built from the suite's parameters alone
_BUILD: dict[str, Callable[[_Streams], object]] = {
    "ab": lambda s: _ab(s, s.count),
    "tilde": lambda s: terms(SeqSpec(Family.AB_TILDE, k=s.k), s.count),
    "uv": lambda s: terms(SeqSpec(Family.UV, k=s.k, h=s.h), s.count),
    "a2": lambda s: second_order_iterate(*recurrence(SeqSpec(Family.AB, k=s.k)),
                                         1, s.k + 1, s.count),
    "b2": lambda s: second_order_iterate(*recurrence(SeqSpec(Family.AB, k=s.k)),
                                         1, 2, s.count),
    "u2": lambda s: second_order_iterate(*recurrence(SeqSpec(Family.UV, k=s.k, h=s.h)),
                                         1, 1, s.count),
    "v2": lambda s: second_order_iterate(*recurrence(SeqSpec(Family.UV, k=s.k, h=s.h)),
                                         0, s.h, s.count),
    "a_genfunc": lambda s: genfunc_coeffs(*a_genfunc(s.k), s.count),
    "b_genfunc": lambda s: genfunc_coeffs(*b_genfunc(s.k), s.count),
    "a_genfunc_fourth": lambda s: genfunc_coeffs(*a_genfunc_fourth(s.k), s.count),
    "b_genfunc_fourth": lambda s: genfunc_coeffs(*b_genfunc_fourth(s.k), s.count),
    "w_d": lambda s: _w(s, (1, s.k + 1)),
    "w_u": lambda s: _w(s, (0, 2 * s.k)),
    "w_v": lambda s: _w(s, (0, 2)),
    "ab_wide": lambda s: _ab(s, 2 * s.n_max + 2),
    "a": lambda s: [t.num for t in s.ab_wide],
    "b": lambda s: [t.den for t in s.ab_wide],
    "ladder": lambda s: two_power_ladder(s.k, s.levels),
    "newton": lambda s: newton_run(s.k, s.depth),
    "newton_h": lambda s: newton_run(s.k, s.depth, s.h),
    "base": lambda s: _ab(s, 2 ** s.depth),
    "orbit": lambda s: cd_run(s.k, s.pdepth),
    "cd": lambda s: terms(SeqSpec(Family.CD_REDUCED, m=s.m), s.count),
    "c_even": lambda s: _u2(s, (1, 3 * s.m + 2)),
    "c_odd": lambda s: _u2(s, (s.m + 1, s.m * s.m + 4 * s.m + 2)),
    "d_even": lambda s: _u2(s, (1, s.m + 2)),
    "d_odd": lambda s: _u2(s, (1, 2 * (s.m + 1))),
    "c_genfunc": lambda s: genfunc_coeffs(*c_genfunc(s.m), s.count),
    "d_genfunc": lambda s: genfunc_coeffs(*d_genfunc(s.m), s.count),
}


class _Streams:
    """A suite's parameters at one k (r for products), and the streams of
    _BUILD, each built on first read and shared by every row after."""

    def __init__(self, k: int, n_max: int) -> None:
        self.k, self.n_max, self.count, self.half = k, n_max, n_max + 1, n_max // 2
        self.m = (k - 1) // 2  # k = 2m + 1 in the reduction suite
        # Any h other than 1 exercises the uv paths; for even k this h may
        # share a factor with k (k = 6, 12), which no identity needs to avoid.
        # perfbench/layers.py mirrors this h and both depth caps when it
        # replays the sweep, so change the three together with it.
        self.h = 2 if k % 2 else 3
        self.depth = min(n_max, _NEWTON_DEPTH_CAP)
        self.bdepth = min(self.depth, 6)  # the summations walk 2^n binomials
        self.pdepth = min(n_max, _PRODUCT_DEPTH_CAP)
        self.levels = max(n_max.bit_length() - 1, 0)
        self.step = max(1, n_max // 10)

    def __getattr__(self, name: str) -> object:
        if name not in _BUILD:
            raise AttributeError(name)
        value = _BUILD[name](self)
        setattr(self, name, value)
        return value


class _Row(NamedTuple):
    """One identity: lhs(s, *key) == rhs(s, *key) for each key of keys(s).

    A key is an index n, or (n, m, ...) where the witness shows m too;
    keys depend on the parameters alone, never on a stream.  A side
    that returns a tuple compares and counts component by component.
    why is _ROUTES (empty) for a routes row; a relation row says there
    why its two sides are not independent routes.
    """

    name: str
    why: str
    lhs: Callable[..., object]
    rhs: Callable[..., object]
    keys: Callable[[_Streams], Iterable] = lambda s: range(s.count)


_ROUTES = ""
_OWN = "the right side is built from the stream's own terms"
_COUPLED = "tilde and ab both come from coupled_iterate"
_TOWER = "a residual of the orbit against the w it carries"


def _term_routes(label: str, name: SequenceName, stream: str, side: str) -> tuple[_Row, ...]:
    """label_binomial and label_closed_form: one side of a coupled stream
    against its binomial sum and its surd closed form."""
    takes_h = stream == "uv"

    def iterated(s: _Streams, n: int) -> int:
        return getattr(getattr(s, stream)[n], side)

    return (_Row(f"{label}_binomial", _ROUTES, iterated,
                 lambda s, n: binomial_term(name, s.k, n, s.h if takes_h else 1)),
            _Row(f"{label}_closed_form", _ROUTES, iterated,
                 lambda s, n: closed_form_term(name, s.k, n, s.h if takes_h else 1)))


def _addition(s: _Streams, n: int, m: int) -> tuple[int, int]:
    # b and k b at m + n + 1 from the terms at m - 1, m, n and n + 1
    a, b, k = s.a, s.b, s.k
    return ((k - 1) * b[m - 1] * b[n] + b[m] * b[n + 1],
            (k - 1) * a[m - 1] * a[n] + a[m] * a[n + 1])


_TABLE: dict[str, tuple[_Row, ...]] = {
    "strategies": (
        _Row("a_second_order", _ROUTES, lambda s, n: s.ab[n].num, lambda s, n: s.a2[n]),
        _Row("b_second_order", _ROUTES, lambda s, n: s.ab[n].den, lambda s, n: s.b2[n]),
        _Row("u_second_order", _ROUTES, lambda s, n: s.uv[n].num, lambda s, n: s.u2[n]),
        _Row("v_second_order", _ROUTES, lambda s, n: s.uv[n].den, lambda s, n: s.v2[n]),
        _Row("a_fourth_order", _OWN, lambda s, n: s.ab[n].num,
             lambda s, n: 2 * (s.k + 1) * s.ab[n - 2].num - (s.k - 1) ** 2 * s.ab[n - 4].num,
             lambda s: range(4, s.count)),
        _Row("b_fourth_order", _OWN, lambda s, n: s.ab[n].den,
             lambda s, n: 2 * (s.k + 1) * s.ab[n - 2].den - (s.k - 1) ** 2 * s.ab[n - 4].den,
             lambda s: range(4, s.count)),
        *_term_routes("a", SequenceName.A, "ab", "num"),
        *_term_routes("b", SequenceName.B, "ab", "den"),
        *_term_routes("at", SequenceName.A_TILDE, "tilde", "num"),
        *_term_routes("bt", SequenceName.B_TILDE, "tilde", "den"),
        *_term_routes("u", SequenceName.U, "uv", "num"),
        *_term_routes("v", SequenceName.V, "uv", "den"),
        _Row("a_genfunc", _ROUTES, lambda s, n: s.ab[n].num, lambda s, n: s.a_genfunc[n]),
        _Row("b_genfunc", _ROUTES, lambda s, n: s.ab[n].den, lambda s, n: s.b_genfunc[n]),
        _Row("a_genfunc_fourth", _ROUTES,
             lambda s, n: s.ab[n].num, lambda s, n: s.a_genfunc_fourth[n]),
        _Row("b_genfunc_fourth", _ROUTES,
             lambda s, n: s.ab[n].den, lambda s, n: s.b_genfunc_fourth[n]),
        _Row("tilde_completes_a", _COUPLED,
             lambda s, n: s.ab[n].num, lambda s, n: s.tilde[n].num + s.tilde[n].den),
        _Row("tilde_completes_kb", _COUPLED,
             lambda s, n: s.k * s.ab[n].den, lambda s, n: s.tilde[n].num + s.k * s.tilde[n].den),
        _Row("interleave_a_even", _ROUTES, lambda s, n: s.ab[2 * n].num,
             lambda s, n: s.w_d[n] + s.w_u[n], lambda s: range(s.half + 1)),
        _Row("interleave_a_odd", _ROUTES, lambda s, n: s.ab[2 * n + 1].num,
             lambda s, n: s.w_d[n + 1], lambda s: range(s.half)),
        _Row("interleave_b_even", _ROUTES, lambda s, n: s.ab[2 * n].den,
             lambda s, n: s.w_d[n] + s.w_v[n], lambda s: range(s.half + 1)),
        _Row("interleave_b_odd", _ROUTES, lambda s, n: s.ab[2 * n + 1].den,
             lambda s, n: s.w_v[n + 1], lambda s: range(s.half)),
        _Row("interleave_u_is_kv", "both sides are second_order_iterate runs of one recurrence",
             lambda s, n: s.w_u[n], lambda s, n: s.k * s.w_v[n], lambda s: range(s.half + 1)),
    ),
    "identities": (
        _Row("pell_residual", "a residual of the stream against its closed value",
             lambda s, n: s.a[n] ** 2 - s.k * s.b[n] ** 2, lambda s, n: (1 - s.k) ** (n + 1)),
        _Row("cross_a_from_b", _OWN, lambda s, n: s.a[n],
             lambda s, n: (s.k - 1) * s.b[n - 1] + s.b[n], lambda s: range(1, s.count)),
        _Row("cross_kb_from_a", _OWN, lambda s, n: s.k * s.b[n],
             lambda s, n: s.a[n] + (s.k - 1) * s.a[n - 1], lambda s: range(1, s.count)),
        _Row("cross_b_midpoint", _OWN, lambda s, n: 2 * s.k * s.b[n],
             lambda s, n: s.a[n + 1] + (s.k - 1) * s.a[n - 1], lambda s: range(1, s.count)),
        _Row("index_double_a", _OWN, lambda s, n: s.a[2 * n],
             lambda s, n: 2 * s.a[n - 1] * s.a[n] - (1 - s.k) ** n, lambda s: range(1, s.count)),
        _Row("index_addition", _OWN, lambda s, n, m: (s.b[m + n + 1], s.k * s.b[m + n + 1]),
             _addition, lambda s: ((n, m) for m in range(1, s.count) for n in range(s.count))),
        _Row("square_sum_b", _OWN, lambda s, m, _: s.b[2 * m],
             lambda s, m, _: (s.k - 1) * s.b[m - 1] ** 2 + s.b[m] ** 2,
             lambda s: ((m, m) for m in range(1, s.count))),
        _Row("square_sum_a", _OWN, lambda s, m, _: s.k * s.b[2 * m],
             lambda s, m, _: (s.k - 1) * s.a[m - 1] ** 2 + s.a[m] ** 2,
             lambda s: ((m, m) for m in range(1, s.count))),
        _Row("sqrt_double_pair", "sqrt_double takes the stream's own (a_n, b_n)",
             lambda s, n: sqrt_double(s.k, n, s.a[n], s.b[n])[1:],
             lambda s, n: (s.a[2 * n], s.b[2 * n]), lambda s: range(1, s.count)),
        _Row("addition_jump_pair", _ROUTES, lambda s, n, m: addition_jump(s.k, m, n)[1:],
             lambda s, n, m: (s.a[m + n + 1], s.b[m + n + 1]),
             lambda s: ((n, m) for m in range(1, s.count, s.step)
                        for n in range(0, s.count, s.step))),
        _Row("fast_term_matches", _ROUTES,
             lambda s, n: fast_term(s.k, n)[1:], lambda s, n: (s.a[n], s.b[n])),
        _Row("two_power_ladder", _ROUTES, lambda s, n: s.ladder[n.bit_length() - 1][1:],
             lambda s, n: (s.a[n], s.b[n]), lambda s: (2 ** i for i in range(s.levels + 1))),
    ),
    "newton": (
        _Row("newton_is_base_subsequence", _ROUTES, lambda s, n: (s.newton[n].a, s.newton[n].b),
             lambda s, n: s.base[2 ** n - 1][1:], lambda s: range(1, s.depth + 1)),
        _Row("newton_residual_tower", _TOWER,
             lambda s, n: s.newton[n].a ** 2 - s.k * s.newton[n].b ** 2,
             lambda s, n: s.newton[n].w, lambda s: range(1, s.depth + 1)),
        _Row("newton_squared_shortcut", "squared_shortcut takes the orbit's own a_(n-1)",
             lambda s, n: s.newton[n].a, lambda s, n: squared_shortcut(s.k, n, s.newton[n - 1].a),
             lambda s: range(2, s.depth + 1)),
        _Row("newton_radical_b", "b_from_sqrt takes the orbit's own b_(n-1)",
             lambda s, n: s.newton[n].b, lambda s, n: b_from_sqrt(s.k, s.newton[n - 1].b, n),
             lambda s: range(2, s.depth + 1)),
        _Row("newton_product_b", "b_product_form multiplies the a terms of newton_run itself",
             lambda s, n: s.newton[n].b, lambda s, n: b_product_form(s.k, n),
             lambda s: range(s.depth + 1)),
        _Row("newton_closed_form", _ROUTES, lambda s, n: (s.newton[n].a, s.newton[n].b),
             lambda s, n: newton_closed_form(s.k, n), lambda s: range(s.depth + 1)),
        _Row("newton_binomial", _ROUTES, lambda s, n, _, side: getattr(s.newton[n], side),
             lambda s, n, _, side: newton_binomial_sum(s.k, n, side),
             lambda s: [(n, None, "a") for n in range(s.bdepth + 1)]
             + [(n, None, "b") for n in range(1, s.bdepth + 1)]),
        _Row("newton_b_divisibility", "a property of the orbit's own b",
             lambda s, n: s.newton[n].b % 2 ** n, lambda s, n: 0, lambda s: range(s.depth + 1)),
        _Row("newton_square_certificate", "the root of the orbit's own k b^2 + w against its a",
             lambda s, n: perfect_square_root(s.k * s.newton[n - 1].b ** 2 + s.newton[n - 1].w),
             lambda s, n: s.newton[n - 1].a, lambda s: range(2, s.depth + 1)),
        _Row("newton_generalized_residual", _TOWER,
             lambda s, n: s.h * s.newton_h[n].a ** 2 - s.k * s.newton_h[n].b ** 2,
             lambda s, n: s.newton_h[n].w, lambda s: range(s.depth + 1)),
    ),
    "products": (
        _Row("product_pell_constant", "a residual of the orbit's own c and d",
             lambda s, n: s.orbit[n].c ** 2 - (s.k * s.k - 1) * s.orbit[n].d ** 2,
             lambda s, n: 1, lambda s: range(1, s.pdepth + 1)),
        _Row("product_d_formula", "d against a product of the orbit's own earlier c",
             lambda s, n: s.orbit[n].d,
             lambda s, n: 2 ** (n - 1) * prod(st.c for st in s.orbit[1:n]),
             lambda s: range(1, s.pdepth + 1)),
        _Row("product_closed_form", _ROUTES, lambda s, n: (s.orbit[n].c, s.orbit[n].d),
             lambda s, n: cd_closed_form(s.k, n), lambda s: range(1, s.pdepth + 1)),
        _Row("product_partial_closed", "the running product against the orbit's own c and d",
             lambda s, n: s.orbit[n].partial,
             lambda s, n: Fraction((s.k + 1) * s.orbit[n].d, s.orbit[n].c),
             lambda s: range(1, s.pdepth + 1)),
        _Row("product_gap_formula", "the running product's gap against the orbit's own c",
             lambda s, n: Fraction(s.k + 1, s.k - 1) - s.orbit[n].partial ** 2,
             lambda s, n: Fraction(s.k + 1, (s.k - 1) * s.orbit[n].c ** 2),
             lambda s: range(1, s.pdepth + 1)),
    ),
    "reduction": (
        _Row("reduction_scale_c", _ROUTES,
             lambda s, n: 2 ** ((n + 1) // 2) * s.cd[n].num, lambda s, n: s.ab[n].num),
        _Row("reduction_scale_d", _ROUTES,
             lambda s, n: 2 ** ((n + 1) // 2) * s.cd[n].den, lambda s, n: s.ab[n].den),
        _Row("reduction_ratio_preserved", "each side multiplies terms of both cd and ab",
             lambda s, n: s.cd[n].num * s.ab[n].den, lambda s, n: s.cd[n].den * s.ab[n].num),
        _Row("reduction_c_even_seeded", _ROUTES, lambda s, t: s.cd[2 * t].num,
             lambda s, t: s.c_even[t], lambda s: range(s.half + 1)),
        _Row("reduction_c_odd_seeded", _ROUTES, lambda s, t: s.cd[2 * t + 1].num,
             lambda s, t: s.c_odd[t], lambda s: range(s.half)),
        _Row("reduction_d_even_seeded", _ROUTES, lambda s, t: s.cd[2 * t].den,
             lambda s, t: s.d_even[t], lambda s: range(s.half + 1)),
        _Row("reduction_d_odd_seeded", _ROUTES, lambda s, t: s.cd[2 * t + 1].den,
             lambda s, t: s.d_odd[t], lambda s: range(s.half)),
        _Row("reduction_genfunc_c", _ROUTES,
             lambda s, n: s.cd[n].num, lambda s, n: s.c_genfunc[n]),
        _Row("reduction_genfunc_d", _ROUTES,
             lambda s, n: s.cd[n].den, lambda s, n: s.d_genfunc[n]),
    ),
}

SUITE_NAMES = tuple(_TABLE) + ("all",)


def _sweep(row: _Row, s: _Streams) -> IdentityReport:
    """Compare row's sides at each key until the first difference.  A side
    that raises ValueError or ConsistencyError fails the row at that key,
    with the message as its value; a side not reached by then is None."""
    lhs_at, rhs_at, passes = row.lhs, row.rhs, 0
    try:
        for key in row.keys(s):
            lhs = rhs = None
            if type(key) is tuple:
                lhs = lhs_at(s, *key)
                rhs = rhs_at(s, *key)
            else:
                lhs = lhs_at(s, key)
                rhs = rhs_at(s, key)
            if lhs == rhs:
                passes += len(lhs) if type(lhs) is tuple else 1
                continue
            n, m = key[:2] if type(key) is tuple else (key, None)
            for left, right in zip(lhs, rhs) if type(lhs) is tuple else ((lhs, rhs),):
                if left != right:
                    return IdentityReport(row.name, s.k, s.n_max, passes,
                                          FailureWitness(n, m, left, right))
                passes += 1
    except (ValueError, ConsistencyError) as exc:
        n, m = key[:2] if type(key) is tuple else (key, None)
        lhs, rhs = (str(exc), None) if lhs is None else (lhs, str(exc))
        return IdentityReport(row.name, s.k, s.n_max, passes, FailureWitness(n, m, lhs, rhs))
    return IdentityReport(row.name, s.k, s.n_max, passes)


def run_suite(name: str, k_min: int = 2, k_max: int = 12, n_max: int = 30) -> list[IdentityReport]:
    """Run one named suite (or all of them) over k_min..k_max.

    n_max bounds the swept index; the newton and products suites cap
    their depth internally because their terms double in size per
    step.  A suite with no k to run on in the range, or with a row that
    has no case at this n_max, is a ValueError.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; have {', '.join(SUITE_NAMES)}")
    require_int("k_min", k_min, 2)
    require_int("k_max", k_max)
    require_int("n_max", n_max, 1)
    if k_max < k_min:
        raise ValueError(f"empty k range: {k_min}..{k_max}")
    names = list(_TABLE) if name == "all" else [name]
    s = _Streams(k_min, n_max)  # keys depend on n_max alone, and build no stream
    empty = [row.name for suite in names for row in _TABLE[suite]
             if not any(True for _ in row.keys(s))]
    if empty:
        raise ValueError(f"n_max {n_max} gives no case to {', '.join(empty)}")
    out: list[IdentityReport] = []
    for suite in names:
        for k in range(k_min, k_max + 1):
            if suite != "reduction" or k % 2:  # reduced pairs exist for odd k = 2m + 1 only
                s = _Streams(k, n_max)
                out.extend(_sweep(row, s) for row in _TABLE[suite])
    if not out:
        raise ValueError(f"suite {name!r} has no k in {k_min}..{k_max}: "
                         "reduction runs on odd k only")
    return out
