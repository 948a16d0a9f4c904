"""Index-jumping identities against plain iteration."""
import time

import pytest

from surdseq import identities
from surdseq.exact import ConsistencyError
from surdseq.identities import (
    FailureWitness,
    IdentityReport,
    addition_jump,
    fast_term,
    index_double,
    pell_residual,
    sqrt_double,
    two_power_ladder,
)
from surdseq.sequences import Family, SeqSpec, TermPair, coupled_iterate


def ab(k, count):
    return coupled_iterate(SeqSpec(Family.AB, k=k), count)


def test_pell_residual_alternates():
    values = [pell_residual(2, n) for n in range(6)]
    assert values == [-1, 1, -1, 1, -1, 1]
    assert pell_residual(3, 4) == (-2) ** 5
    assert pell_residual(1, 7) == 0


def test_pell_residual_validation():
    with pytest.raises(ValueError):
        pell_residual(0, 3)
    with pytest.raises(ValueError):
        pell_residual(2, -1)


def test_index_double_known_value():
    assert index_double(2, 2) == 41


def test_index_double_matches_iteration():
    for k in (2, 5, 12):
        terms = ab(k, 25)
        for n in range(1, 12):
            assert index_double(k, n) == terms[2 * n].num


def test_index_double_validation():
    with pytest.raises(ValueError):
        index_double(1, 3)
    with pytest.raises(ValueError):
        index_double(2, 0)


def test_sqrt_double_known_value():
    assert sqrt_double(2, 2, 7, 5) == (4, 41, 29)


def test_sqrt_double_roundtrip():
    for k in (2, 3, 12):
        terms = ab(k, 26)
        for n in range(1, 13):
            pair = sqrt_double(k, n, terms[n].num, terms[n].den)
            assert pair == (2 * n, terms[2 * n].num, terms[2 * n].den)


def test_sqrt_double_rejects_imposter_pairs():
    with pytest.raises(ValueError):
        sqrt_double(2, 2, 8, 5)   # not a term at all
    with pytest.raises(ValueError):
        sqrt_double(2, 3, 7, 5)   # genuine pair, wrong index
    with pytest.raises(ValueError):
        sqrt_double(5, 2, 7, 5)   # genuine pair, wrong k


def test_sqrt_double_validation():
    with pytest.raises(ValueError):
        sqrt_double(1, 2, 3, 2)
    with pytest.raises(ValueError):
        sqrt_double(2, 0, 1, 1)
    with pytest.raises(ValueError):
        sqrt_double(2, 2, 0, 5)


def test_two_power_ladder_known_values():
    assert [(t.num, t.den) for t in two_power_ladder(3, 2)] == [
        (4, 2), (10, 6), (76, 44)]
    assert [(t.num, t.den) for t in two_power_ladder(2, 3)] == [
        (3, 2), (7, 5), (41, 29), (1393, 985)]


def test_two_power_ladder_indices():
    ladder = two_power_ladder(5, 4)
    assert [t.n for t in ladder] == [1, 2, 4, 8, 16]
    terms = ab(5, 17)
    for t in ladder:
        assert (t.num, t.den) == (terms[t.n].num, terms[t.n].den)


def test_two_power_ladder_validation():
    with pytest.raises(ValueError):
        two_power_ladder(1, 2)
    with pytest.raises(ValueError):
        two_power_ladder(2, -1)


def test_addition_jump_known_value():
    assert addition_jump(2, 2, 1) == (4, 41, 29)


def test_addition_jump_matches_iteration():
    for k in (2, 3, 4):
        terms = ab(k, 14)
        for m in range(1, 7):
            for n in range(6):
                pair = addition_jump(k, m, n)
                assert pair.n == m + n + 1
                assert pair == (m + n + 1, terms[m + n + 1].num, terms[m + n + 1].den)


def test_addition_jump_validation():
    with pytest.raises(ValueError):
        addition_jump(1, 2, 2)
    with pytest.raises(ValueError):
        addition_jump(2, 0, 2)
    with pytest.raises(ValueError):
        addition_jump(2, 2, -1)


def test_identity_helpers_jump_instead_of_iterating():
    # iterating up to these indices took seconds; fast_term takes milliseconds
    started = time.perf_counter()
    half = 5 * 10 ** 4
    assert addition_jump(3, half, half) == fast_term(3, 2 * half + 1)
    assert index_double(3, half) == fast_term(3, 2 * half).num
    assert pell_residual(3, 2 * half) == (-2) ** (2 * half + 1)
    assert time.perf_counter() - started < 1.0


def test_fast_term_matches_iteration():
    for k in (2, 3, 7):
        terms = ab(k, 21)
        for n in range(21):
            assert fast_term(k, n) == terms[n]


def test_fast_term_validation():
    with pytest.raises(ValueError):
        fast_term(1, 5)
    with pytest.raises(ValueError):
        fast_term(2, -1)


def test_identity_report_passed_property():
    clean = IdentityReport("x", 2, 10, 11)
    assert clean.passed and clean.failure is None
    broken = IdentityReport("x", 2, 10, 4, FailureWitness(4, None, 1, 2))
    assert not broken.passed
    assert broken.failure.lhs == 1 and broken.failure.rhs == 2


def test_internal_checks_use_consistency_error():
    assert issubclass(ConsistencyError, RuntimeError)


def test_pell_residual_checks_its_surd_power(monkeypatch):
    exact = identities.surd_pow

    def a_off_by_one(*args):
        a, b = exact(*args)
        return a + 1, b

    monkeypatch.setattr(identities, "surd_pow", a_off_by_one)
    with pytest.raises(ConsistencyError, match="residual broke at k=2, n=3"):
        pell_residual(2, 3)


def test_index_double_checks_against_fast_term(monkeypatch):
    exact = identities.fast_term

    def off_at_six(k, n):
        t = exact(k, n)
        return TermPair(n, t.num + 1, t.den) if n == 6 else t

    monkeypatch.setattr(identities, "fast_term", off_at_six)
    with pytest.raises(ConsistencyError, match="index doubling broke at k=2, n=3"):
        index_double(2, 3)
