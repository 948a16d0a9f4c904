"""Batch verification suites behind the `verify` command.

Each suite sweeps one corner of the library over a k range and
reports identity by identity instead of stopping at the first hit, so
a regression shows up with its smallest counterexample attached.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .exact import perfect_square_root, require_int
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

Case = tuple[int, int | None, object, object]


def _sweep(identity: str, k: int, n_max: int, cases: Iterable[Case]) -> IdentityReport:
    passes = 0
    for n, m, lhs, rhs in cases:
        if lhs != rhs:
            return IdentityReport(identity, k, n_max, passes, FailureWitness(n, m, lhs, rhs))
        passes += 1
    return IdentityReport(identity, k, n_max, passes)


def _alt_h(k: int) -> int:
    # any small h coprime in spirit to k keeps the uv paths honest
    return 2 if k % 2 else 3


def _strategies_for_k(k: int, n_max: int) -> Iterator[IdentityReport]:
    count = n_max + 1
    h = _alt_h(k)
    ab_spec, uv_spec = SeqSpec(Family.AB, k=k), SeqSpec(Family.UV, k=k, h=h)
    ab = terms(ab_spec, count)
    tilde = terms(SeqSpec(Family.AB_TILDE, k=k), count)
    uv = terms(uv_spec, count)
    a2 = second_order_iterate(*recurrence(ab_spec), 1, k + 1, count)
    b2 = second_order_iterate(*recurrence(ab_spec), 1, 2, count)
    u2 = second_order_iterate(*recurrence(uv_spec), 1, 1, count)
    v2 = second_order_iterate(*recurrence(uv_spec), 0, h, count)

    yield _sweep("a_second_order", k, n_max,
                 ((n, None, ab[n].num, a2[n]) for n in range(count)))
    yield _sweep("b_second_order", k, n_max,
                 ((n, None, ab[n].den, b2[n]) for n in range(count)))
    yield _sweep("u_second_order", k, n_max,
                 ((n, None, uv[n].num, u2[n]) for n in range(count)))
    yield _sweep("v_second_order", k, n_max,
                 ((n, None, uv[n].den, v2[n]) for n in range(count)))
    w = (k - 1) ** 2
    yield _sweep("a_fourth_order", k, n_max,
                 ((n, None, ab[n].num, 2 * (k + 1) * ab[n - 2].num - w * ab[n - 4].num)
                  for n in range(4, count)))
    yield _sweep("b_fourth_order", k, n_max,
                 ((n, None, ab[n].den, 2 * (k + 1) * ab[n - 2].den - w * ab[n - 4].den)
                  for n in range(4, count)))

    pairs = (
        ("a", SequenceName.A, [t.num for t in ab], 1),
        ("b", SequenceName.B, [t.den for t in ab], 1),
        ("at", SequenceName.A_TILDE, [t.num for t in tilde], 1),
        ("bt", SequenceName.B_TILDE, [t.den for t in tilde], 1),
        ("u", SequenceName.U, [t.num for t in uv], h),
        ("v", SequenceName.V, [t.den for t in uv], h),
    )
    for label, name, values, h_arg in pairs:
        yield _sweep(f"{label}_binomial", k, n_max,
                     ((n, None, values[n], binomial_term(name, k, n, h_arg))
                      for n in range(count)))
        yield _sweep(f"{label}_closed_form", k, n_max,
                     ((n, None, values[n], closed_form_term(name, k, n, h_arg))
                      for n in range(count)))

    genfuncs = (
        ("a_genfunc", a_genfunc(k), [t.num for t in ab]),
        ("b_genfunc", b_genfunc(k), [t.den for t in ab]),
        ("a_genfunc_fourth", a_genfunc_fourth(k), [t.num for t in ab]),
        ("b_genfunc_fourth", b_genfunc_fourth(k), [t.den for t in ab]),
    )
    for label, (numer, denom), values in genfuncs:
        coeffs = genfunc_coeffs(numer, denom, count)
        yield _sweep(label, k, n_max,
                     ((n, None, values[n], coeffs[n]) for n in range(count)))

    yield _sweep("tilde_completes_a", k, n_max,
                 ((n, None, ab[n].num, tilde[n].num + tilde[n].den)
                  for n in range(count)))
    yield _sweep("tilde_completes_kb", k, n_max,
                 ((n, None, k * ab[n].den, tilde[n].num + k * tilde[n].den)
                  for n in range(count)))

    half = n_max // 2
    d_seq, u_seq, v_seq = (terms(SeqSpec(Family.W_FAMILY, k=k, seed=seed), half + 2)
                           for seed in ((1, k + 1), (0, 2 * k), (0, 2)))
    yield _sweep("interleave_a_even", k, n_max,
                 ((n, None, ab[2 * n].num, d_seq[n] + u_seq[n]) for n in range(half + 1)))
    yield _sweep("interleave_a_odd", k, n_max,
                 ((n, None, ab[2 * n + 1].num, d_seq[n + 1]) for n in range(half)))
    yield _sweep("interleave_b_even", k, n_max,
                 ((n, None, ab[2 * n].den, d_seq[n] + v_seq[n]) for n in range(half + 1)))
    yield _sweep("interleave_b_odd", k, n_max,
                 ((n, None, ab[2 * n + 1].den, v_seq[n + 1]) for n in range(half)))
    yield _sweep("interleave_u_is_kv", k, n_max,
                 ((n, None, u_seq[n], k * v_seq[n]) for n in range(half + 1)))


def _identities_for_k(k: int, n_max: int) -> Iterator[IdentityReport]:
    count = 2 * n_max + 2
    ab = terms(SeqSpec(Family.AB, k=k), count)
    a = [t.num for t in ab]
    b = [t.den for t in ab]

    yield _sweep("pell_residual", k, n_max,
                 ((n, None, a[n] ** 2 - k * b[n] ** 2, (1 - k) ** (n + 1))
                  for n in range(n_max + 1)))
    yield _sweep("cross_a_from_b", k, n_max,
                 ((n, None, a[n], (k - 1) * b[n - 1] + b[n])
                  for n in range(1, n_max + 1)))
    yield _sweep("cross_kb_from_a", k, n_max,
                 ((n, None, k * b[n], a[n] + (k - 1) * a[n - 1])
                  for n in range(1, n_max + 1)))
    yield _sweep("cross_b_midpoint", k, n_max,
                 ((n, None, 2 * k * b[n], a[n + 1] + (k - 1) * a[n - 1])
                  for n in range(1, n_max + 1)))
    yield _sweep("index_double_a", k, n_max,
                 ((n, None, a[2 * n], 2 * a[n - 1] * a[n] - (1 - k) ** n)
                  for n in range(1, n_max + 1)))

    def addition_cases() -> Iterator[Case]:
        for m in range(1, n_max + 1):
            for n in range(n_max + 1):
                yield (n, m, b[m + n + 1],
                       (k - 1) * b[m - 1] * b[n] + b[m] * b[n + 1])
                yield (n, m, k * b[m + n + 1],
                       (k - 1) * a[m - 1] * a[n] + a[m] * a[n + 1])

    yield _sweep("index_addition", k, n_max, addition_cases())
    yield _sweep("square_sum_b", k, n_max,
                 ((m, m, b[2 * m], (k - 1) * b[m - 1] ** 2 + b[m] ** 2)
                  for m in range(1, n_max + 1)))
    yield _sweep("square_sum_a", k, n_max,
                 ((m, m, k * b[2 * m], (k - 1) * a[m - 1] ** 2 + a[m] ** 2)
                  for m in range(1, n_max + 1)))

    def sqrt_double_cases() -> Iterator[Case]:
        for n in range(1, n_max + 1):
            pair = sqrt_double(k, n, a[n], b[n])
            yield (n, None, pair.num, a[2 * n])
            yield (n, None, pair.den, b[2 * n])

    yield _sweep("sqrt_double_pair", k, n_max, sqrt_double_cases())

    def jump_cases() -> Iterator[Case]:
        step = max(1, n_max // 10)
        for m in range(1, n_max + 1, step):
            for n in range(0, n_max + 1, step):
                pair = addition_jump(k, m, n)
                yield (n, m, pair.num, a[m + n + 1])
                yield (n, m, pair.den, b[m + n + 1])

    yield _sweep("addition_jump_pair", k, n_max, jump_cases())

    def fast_cases() -> Iterator[Case]:
        for n in range(n_max + 1):
            pair = fast_term(k, n)
            yield (n, None, pair.num, a[n])
            yield (n, None, pair.den, b[n])

    yield _sweep("fast_term_matches", k, n_max, fast_cases())

    def ladder_cases() -> Iterator[Case]:
        levels = max(n_max.bit_length() - 1, 0)
        for pair in two_power_ladder(k, levels):
            yield (pair.n, None, pair.num, a[pair.n])
            yield (pair.n, None, pair.den, b[pair.n])

    yield _sweep("two_power_ladder", k, n_max, ladder_cases())


_NEWTON_DEPTH_CAP = 8  # index n means 2^n-bit-scale terms; 8 is plenty


def _newton_for_k(k: int, n_max: int) -> Iterator[IdentityReport]:
    depth = min(n_max, _NEWTON_DEPTH_CAP)
    states = newton_run(k, depth)
    base = terms(SeqSpec(Family.AB, k=k), 2 ** depth)

    def base_cases() -> Iterator[Case]:
        for st in states[1:]:
            pair = base[2 ** st.n - 1]
            yield (st.n, None, st.a, pair.num)
            yield (st.n, None, st.b, pair.den)

    yield _sweep("newton_is_base_subsequence", k, n_max, base_cases())
    yield _sweep("newton_residual_tower", k, n_max,
                 ((st.n, None, st.a ** 2 - k * st.b ** 2, st.w)
                  for st in states[1:]))
    yield _sweep("newton_squared_shortcut", k, n_max,
                 ((n, None, states[n].a, squared_shortcut(k, n, states[n - 1].a))
                  for n in range(2, depth + 1)))
    yield _sweep("newton_radical_b", k, n_max,
                 ((n, None, states[n].b, b_from_sqrt(k, states[n - 1].b, n))
                  for n in range(2, depth + 1)))
    yield _sweep("newton_product_b", k, n_max,
                 ((n, None, states[n].b, b_product_form(k, n))
                  for n in range(depth + 1)))

    def closed_cases() -> Iterator[Case]:
        for st in states:
            pair = newton_closed_form(k, st.n)
            yield (st.n, None, st.a, pair[0])
            yield (st.n, None, st.b, pair[1])

    yield _sweep("newton_closed_form", k, n_max, closed_cases())

    bdepth = min(depth, 6)  # the summations walk 2^n binomials

    def binomial_cases() -> Iterator[Case]:
        for n in range(bdepth + 1):
            yield (n, None, states[n].a, newton_binomial_sum(k, n, "a"))
        for n in range(1, bdepth + 1):
            yield (n, None, states[n].b, newton_binomial_sum(k, n, "b"))

    yield _sweep("newton_binomial", k, n_max, binomial_cases())
    yield _sweep("newton_b_divisibility", k, n_max,
                 ((st.n, None, st.b % 2 ** st.n, 0) for st in states))
    yield _sweep("newton_square_certificate", k, n_max,
                 ((n, None,
                   perfect_square_root(k * states[n - 1].b ** 2 + states[n - 1].w),
                   states[n - 1].a)
                  for n in range(2, depth + 1)))

    h = _alt_h(k)
    gen = newton_run(k, depth, h)
    yield _sweep("newton_generalized_residual", k, n_max,
                 ((st.n, None, h * st.a ** 2 - k * st.b ** 2, st.w) for st in gen))


_PRODUCT_DEPTH_CAP = 10


def _products_for_r(r: int, n_max: int) -> Iterator[IdentityReport]:
    depth = min(n_max, _PRODUCT_DEPTH_CAP)
    states = cd_run(r, depth)

    yield _sweep("product_pell_constant", r, n_max,
                 ((st.n, None, st.c ** 2 - (r * r - 1) * st.d ** 2, 1)
                  for st in states[1:]))

    def d_formula_cases() -> Iterator[Case]:
        prod = 1
        for n in range(1, depth + 1):
            if n > 1:
                prod *= states[n - 1].c
            yield (n, None, states[n].d, 2 ** (n - 1) * prod)

    yield _sweep("product_d_formula", r, n_max, d_formula_cases())

    def closed_cases() -> Iterator[Case]:
        for st in states[1:]:
            c, d = cd_closed_form(r, st.n)
            yield (st.n, None, st.c, c)
            yield (st.n, None, st.d, d)

    yield _sweep("product_closed_form", r, n_max, closed_cases())
    yield _sweep("product_partial_closed", r, n_max,
                 ((st.n, None, st.partial, Fraction((r + 1) * st.d, st.c))
                  for st in states[1:]))
    yield _sweep("product_gap_formula", r, n_max,
                 ((st.n, None,
                   Fraction(r + 1, r - 1) - st.partial ** 2,
                   Fraction(r + 1, (r - 1) * st.c ** 2))
                  for st in states[1:]))


def _reduction_for_k(k: int, n_max: int) -> Iterator[IdentityReport]:
    if k % 2 == 0:
        return  # the reduced pairs exist for odd k = 2m + 1 only
    m = (k - 1) // 2
    count = n_max + 1
    ab = terms(SeqSpec(Family.AB, k=k), count)
    cd = terms(SeqSpec(Family.CD_REDUCED, m=m), count)

    def scale(n: int) -> int:
        return 2 ** (n // 2 + n % 2)

    yield _sweep("reduction_scale_c", k, n_max,
                 ((n, None, scale(n) * cd[n].num, ab[n].num) for n in range(count)))
    yield _sweep("reduction_scale_d", k, n_max,
                 ((n, None, scale(n) * cd[n].den, ab[n].den) for n in range(count)))
    yield _sweep("reduction_ratio_preserved", k, n_max,
                 ((n, None, cd[n].num * ab[n].den, cd[n].den * ab[n].num)
                  for n in range(count)))

    half = (count - 1) // 2
    seeded = (
        ("reduction_c_even_seeded", [cd[2 * t].num for t in range(half + 1)], (1, 3 * m + 2)),
        ("reduction_c_odd_seeded", [cd[2 * t + 1].num for t in range(half)],
         (m + 1, m * m + 4 * m + 2)),
        ("reduction_d_even_seeded", [cd[2 * t].den for t in range(half + 1)], (1, m + 2)),
        ("reduction_d_odd_seeded", [cd[2 * t + 1].den for t in range(half)], (1, 2 * (m + 1))),
    )
    for label, values, seed in seeded:
        expected = terms(SeqSpec(Family.U_FAMILY, m=m, seed=seed), half + 2)
        yield _sweep(label, k, n_max,
                     ((t, None, values[t], expected[t]) for t in range(len(values))))

    for label, (numer, denom), values in (
        ("reduction_genfunc_c", c_genfunc(m), [t.num for t in cd]),
        ("reduction_genfunc_d", d_genfunc(m), [t.den for t in cd]),
    ):
        coeffs = genfunc_coeffs(numer, denom, count)
        yield _sweep(label, k, n_max,
                     ((n, None, values[n], coeffs[n]) for n in range(count)))


# each suite yields its reports for one k (r for products) of the range
_SUITES: dict[str, Callable[[int, int], Iterator[IdentityReport]]] = {
    "strategies": _strategies_for_k,
    "identities": _identities_for_k,
    "newton": _newton_for_k,
    "products": _products_for_r,
    "reduction": _reduction_for_k,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, k_min: int = 2, k_max: int = 12, n_max: int = 30) -> list[IdentityReport]:
    """Run one named suite (or all of them) over k_min..k_max.

    n_max bounds the swept index; the newton and products suites cap
    their depth internally because their terms double in size per
    step.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; have {', '.join(SUITE_NAMES)}")
    require_int("k_min", k_min, 2)
    require_int("k_max", k_max)
    require_int("n_max", n_max, 1)
    if k_max < k_min:
        raise ValueError(f"empty k range: {k_min}..{k_max}")
    names = list(_SUITES) if name == "all" else [name]
    out: list[IdentityReport] = []
    for suite in names:
        for k in range(k_min, k_max + 1):
            out.extend(_SUITES[suite](k, n_max))
    return out
