"""Sequence families and their four evaluation strategies."""
import pytest
from hypothesis import example, given, strategies as st

from surdseq.quad import _square_norm, binomial_part, surd_pow
from surdseq.sequences import (
    Family,
    SeqSpec,
    SequenceName,
    TermPair,
    a_genfunc,
    a_genfunc_fourth,
    b_genfunc,
    b_genfunc_fourth,
    binomial_term,
    c_genfunc,
    closed_form_term,
    coupled_iterate,
    coupled_stream,
    d_genfunc,
    genfunc_coeffs,
    recurrence,
    reduced_cd,
    second_order_iterate,
    terms,
)

from oracles import QuadSurd, calls_under


def pairs(spec, count):
    return [(t.num, t.den) for t in coupled_iterate(spec, count)]


def test_base_pair_small_values():
    assert pairs(SeqSpec(Family.AB, k=2), 5) == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    assert pairs(SeqSpec(Family.AB, k=3), 6) == [
        (1, 1), (4, 2), (10, 6), (28, 16), (76, 44), (208, 120)]


def test_tilde_pair_small_values():
    assert pairs(SeqSpec(Family.AB_TILDE, k=5), 3) == [(0, 1), (5, 1), (10, 6)]


def test_uv_pair_small_values():
    assert pairs(SeqSpec(Family.UV, k=2, h=3), 6) == [
        (1, 0), (1, 3), (7, 6), (19, 27), (73, 84), (241, 303)]


def test_term_pair_fields():
    t = coupled_iterate(SeqSpec(Family.AB, k=2), 2)[1]
    assert t == TermPair(1, 3, 2)
    assert (t.n, t.num, t.den) == (1, 3, 2)


def test_coupled_stream_is_lazy_and_endless():
    stream = coupled_stream(SeqSpec(Family.AB, k=2))
    assert next(stream) == (0, 1, 1)
    assert next(stream) == (1, 3, 2)


def test_coupled_rejects_non_coupled_families():
    with pytest.raises(ValueError):
        coupled_iterate(SeqSpec(Family.W_FAMILY, k=2, seed=(1, 3)), 3)


def test_coupled_count_must_be_positive():
    with pytest.raises(ValueError):
        coupled_iterate(SeqSpec(Family.AB, k=2), 0)


@pytest.mark.parametrize("kwargs", [
    dict(family=Family.AB),
    dict(family=Family.AB, k=0),
    dict(family=Family.AB, k=2, h=2),
    dict(family=Family.UV, k=2, h=0),
    dict(family=Family.AB, k=2, m=1),
    dict(family=Family.AB, k=2, seed=(1, 2)),
    dict(family=Family.CD_REDUCED, k=4),
    dict(family=Family.CD_REDUCED, k=5, m=1),
    dict(family=Family.CD_REDUCED, m=-1),
    dict(family=Family.W_FAMILY, k=2),
    dict(family=Family.W_FAMILY, k=2, h=3, seed=(1, 3)),
    dict(family=Family.U_FAMILY, m=1),
    dict(family=Family.CD_REDUCED, k=7, seed=(1, 2)),
    dict(family=Family.NEWTON),
    dict(family=Family.NEWTON, k=1),
    dict(family=Family.NEWTON, k=2, m=5),
    dict(family=Family.NEWTON, k=2, seed=(1, 2)),
    dict(family=Family.PRODUCT, k=1),
    dict(family=Family.PRODUCT, k=3, h=2),
    dict(family=Family.PRODUCT, k=3, seed=(1, 2)),
])
def test_spec_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SeqSpec(**kwargs)


def test_spec_derives_k_and_m():
    assert SeqSpec(Family.CD_REDUCED, k=7).m == 3
    assert SeqSpec(Family.CD_REDUCED, m=3).k == 7
    assert SeqSpec(Family.U_FAMILY, m=0, seed=(1, 1)).k == 1


def test_second_order_known_values():
    # p = 6, q = -1 reproduces the k = 2 numerators at even indices
    assert second_order_iterate(6, -1, 1, 3, 6) == [1, 3, 17, 99, 577, 3363]


def test_second_order_matches_coupled():
    for k in (2, 5, 9):
        ab = coupled_iterate(SeqSpec(Family.AB, k=k), 12)
        assert second_order_iterate(2, k - 1, 1, k + 1, 12) == [t.num for t in ab]
        assert second_order_iterate(2, k - 1, 1, 2, 12) == [t.den for t in ab]


def test_second_order_needs_both_seeds():
    with pytest.raises(ValueError):
        second_order_iterate(2, 1, 1, 3, 1)


_FAMILY_OF = {
    SequenceName.A: (Family.AB, 0),
    SequenceName.B: (Family.AB, 1),
    SequenceName.A_TILDE: (Family.AB_TILDE, 0),
    SequenceName.B_TILDE: (Family.AB_TILDE, 1),
    SequenceName.U: (Family.UV, 0),
    SequenceName.V: (Family.UV, 1),
}


def _iterated(name, k, h, count):
    family, side = _FAMILY_OF[name]
    return [(t.num, t.den)[side] for t in coupled_iterate(SeqSpec(family, k=k, h=h), count)]


@pytest.mark.parametrize("name,h", [
    (name, h) for name in SequenceName
    for h in ((1, 2, 6) if name in (SequenceName.U, SequenceName.V) else (1,))
])
@pytest.mark.parametrize("k", [1, 2, 4, 7, 9, 150])
def test_binomial_and_closed_match_iteration(name, k, h):
    for n, expected in enumerate(_iterated(name, k, h, 41)):
        assert binomial_term(name, k, n, h) == expected
        assert closed_form_term(name, k, n, h) == expected


@given(st.integers(min_value=1, max_value=10 ** 4), st.integers(min_value=0, max_value=200))
@example(2, 0)
@example(2, 1)
@example(2, 2)
@example(10 ** 4, 0)
@example(10 ** 4, 1)
@example(10 ** 4, 2)
@example(3, 64)
@example(9973, 128)
@example(10 ** 4, 128)
def test_closed_form_pair_matches_the_oracle(rad, e):
    # u_e and v_e are the two parts of (1 + sqrt(K))^e at h = 1, which the
    # closed form powers left to right and the Fraction oracle right to
    # left: e = 0 and the top bit are the loop's own cases, and a power
    # of two is squarings alone
    x = QuadSurd(1, 1, rad) ** e
    assert closed_form_term(SequenceName.U, rad, e) == x.rat
    assert closed_form_term(SequenceName.V, rad, e) == x.coef


def test_closed_form_reaches_no_kernel_code():
    # verify checks closed_form_term against routes that power through
    # the integer kernel or sum binomials, which proves something only
    # while the closed form computes without either
    _, reached = calls_under(lambda: [
        closed_form_term(name, 7, n, 3 if name in (SequenceName.U, SequenceName.V) else 1)
        for name in SequenceName for n in range(41)])
    assert closed_form_term.__code__ in reached
    kernel = {fn.__code__ for fn in (surd_pow, _square_norm, binomial_part)}
    assert not reached & kernel


@pytest.mark.parametrize("route", [binomial_term, closed_form_term])
@pytest.mark.parametrize("name,k,n,h", [
    (SequenceName.A, 2, -1, 1),
    (SequenceName.B, 2, -1, 1),
    (SequenceName.A, 2, 3, 2),
    (SequenceName.A_TILDE, 2, 3, 2),
    (SequenceName.V, 2, 3, 0),
    (SequenceName.U, 2, 3, 0),
    (SequenceName.B, 0, 3, 1),
    (SequenceName.V, 0, 3, 2),
])
def test_full_index_validation(route, name, k, n, h):
    with pytest.raises(ValueError):
        route(name, k, n, h)


@pytest.mark.parametrize("call", [
    lambda: binomial_term(SequenceName.A, 2.0, 3),
    lambda: binomial_term(SequenceName.A, 2, 3.0),
    lambda: closed_form_term(SequenceName.U, 2, 3, h=1.5),
    lambda: reduced_cd(1.0, 3),
    lambda: reduced_cd(1, 3.0),
    lambda: SeqSpec(Family.AB, k=2.0),
    lambda: SeqSpec(Family.UV, k=2, h=1.0),
    lambda: SeqSpec(Family.CD_REDUCED, m=1.0),
])
def test_non_int_parameters_rejected(call):
    # a float would otherwise run through and come out as a float term,
    # or as the term of a different k
    with pytest.raises(ValueError, match="must be an int"):
        call()


@pytest.mark.parametrize("seed", [(1, 3, 5), (1,), [1, 3]])
def test_seed_must_be_a_pair(seed):
    # a seed of the wrong length used to fail later in terms with a
    # TypeError; tests/test_package.py checks that both entries are ints
    with pytest.raises(ValueError, match="seed"):
        SeqSpec(Family.W_FAMILY, k=2, seed=seed)


def test_genfunc_coeffs_known_series():
    assert genfunc_coeffs(*a_genfunc(2), 5) == [1, 3, 7, 17, 41]
    assert genfunc_coeffs(*b_genfunc(2), 5) == [1, 2, 5, 12, 29]
    assert genfunc_coeffs(*a_genfunc_fourth(3), 6) == [1, 4, 10, 28, 76, 208]
    assert genfunc_coeffs(*b_genfunc_fourth(3), 6) == [1, 2, 6, 16, 44, 120]
    assert genfunc_coeffs(*c_genfunc(1), 6) == [1, 2, 5, 7, 19, 26]
    assert genfunc_coeffs(*d_genfunc(1), 6) == [1, 1, 3, 4, 11, 15]


def test_genfunc_coeffs_validation():
    with pytest.raises(ValueError):
        genfunc_coeffs([1], [0, 1], 3)
    with pytest.raises(ValueError):
        genfunc_coeffs([1], [], 3)
    with pytest.raises(ValueError):
        genfunc_coeffs([1], [1, 1], 0)
    with pytest.raises(ValueError):
        genfunc_coeffs([1], [2, 1], 2)  # 1/(2+x) is not an integer series


def test_genfunc_matches_iteration_for_larger_k():
    ab = coupled_iterate(SeqSpec(Family.AB, k=11), 20)
    assert genfunc_coeffs(*a_genfunc(11), 20) == [t.num for t in ab]
    assert genfunc_coeffs(*b_genfunc_fourth(11), 20) == [t.den for t in ab]


def test_reduced_cd_small_values():
    assert [(t.num, t.den) for t in reduced_cd(0, 5)] == [
        (1, 1), (1, 1), (2, 2), (2, 2), (4, 4)]
    assert [(t.num, t.den) for t in reduced_cd(1, 6)] == [
        (1, 1), (2, 1), (5, 3), (7, 4), (19, 11), (26, 15)]


def test_reduced_cd_scaling_against_base_pair():
    for m in (1, 2, 3):
        k = 2 * m + 1
        ab = coupled_iterate(SeqSpec(Family.AB, k=k), 13)
        cd = reduced_cd(m, 13)
        for n in range(13):
            shift = n // 2 + n % 2
            assert cd[n].num * 2 ** shift == ab[n].num
            assert cd[n].den * 2 ** shift == ab[n].den


def test_reduced_cd_validation():
    with pytest.raises(ValueError):
        reduced_cd(-1, 4)
    with pytest.raises(ValueError):
        reduced_cd(2, 0)


def test_terms_serves_every_family():
    assert terms(SeqSpec(Family.AB, k=2), 3) == [(0, 1, 1), (1, 3, 2), (2, 7, 5)]
    assert terms(SeqSpec(Family.AB_TILDE, k=5), 3) == [(0, 0, 1), (1, 5, 1), (2, 10, 6)]
    assert terms(SeqSpec(Family.UV, k=2, h=3), 3) == [(0, 1, 0), (1, 1, 3), (2, 7, 6)]
    assert terms(SeqSpec(Family.CD_REDUCED, m=1), 4) == reduced_cd(1, 4)
    assert terms(SeqSpec(Family.W_FAMILY, k=2, seed=(1, 3)), 4) == [1, 3, 17, 99]
    assert terms(SeqSpec(Family.U_FAMILY, k=3, seed=(1, 5)), 3) == [1, 5, 19]
    assert terms(SeqSpec(Family.W_FAMILY, k=2, seed=(1, 3)), 1) == [1]
    assert terms(SeqSpec(Family.U_FAMILY, k=3, seed=(1, 5)), 1) == [1]
    assert terms(SeqSpec(Family.NEWTON, k=2), 4)[-1] == (3, 577, 408)
    assert terms(SeqSpec(Family.NEWTON, k=2, h=3), 2) == [(0, 1, 1), (1, 5, 6)]
    assert terms(SeqSpec(Family.PRODUCT, k=3), 3) == [(0, 1, 1), (1, 3, 1), (2, 17, 6)]


def test_terms_count_must_be_positive():
    for spec in (SeqSpec(Family.AB, k=2), SeqSpec(Family.PRODUCT, k=3)):
        with pytest.raises(ValueError):
            terms(spec, 0)


def test_recurrence_generates_the_coupled_sides():
    for spec in (SeqSpec(Family.AB, k=5), SeqSpec(Family.AB_TILDE, k=5),
                 SeqSpec(Family.UV, k=5, h=3)):
        pairs_ = terms(spec, 12)
        for side in (0, 1):
            values = [(t.num, t.den)[side] for t in pairs_]
            assert second_order_iterate(*recurrence(spec), *values[:2], 12) == values


def test_recurrence_of_the_seeded_families():
    assert recurrence(SeqSpec(Family.W_FAMILY, k=2, seed=(1, 3))) == (6, -1)
    assert recurrence(SeqSpec(Family.U_FAMILY, m=3, seed=(1, 1))) == (8, -9)
    for spec in (SeqSpec(Family.CD_REDUCED, m=1), SeqSpec(Family.NEWTON, k=2),
                 SeqSpec(Family.PRODUCT, k=3)):
        with pytest.raises(ValueError):
            recurrence(spec)
