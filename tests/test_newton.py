"""Exact Newton orbits, their shortcuts, and the bundled series data."""
from fractions import Fraction

import pytest

from surdseq.newton import (
    OEIS_SERIES,
    b_from_sqrt,
    b_product_form,
    generated_terms,
    newton_binomial_sum,
    newton_closed_form,
    newton_run,
    newton_start,
    newton_step,
    reference_terms,
    squared_shortcut,
)
from surdseq.sequences import Family, SeqSpec, coupled_iterate


def test_orbit_small_values():
    run2 = newton_run(2, 4)
    assert [(st.a, st.b) for st in run2] == [
        (1, 1), (3, 2), (17, 12), (577, 408), (665857, 470832)]
    run3 = newton_run(3, 3)
    assert [(st.a, st.b) for st in run3] == [(1, 1), (4, 2), (28, 16), (1552, 896)]


def test_state_ratio():
    assert newton_run(2, 2)[2].ratio() == Fraction(17, 12)


def test_residual_tower():
    for k in (2, 5, 9):
        for st in newton_run(k, 6):
            assert st.w == (1 - k) ** (2 ** st.n)
            assert st.a ** 2 - k * st.b ** 2 == st.w


def test_start_validation():
    with pytest.raises(ValueError):
        newton_start(1)
    with pytest.raises(ValueError):
        newton_start(2, 0)
    with pytest.raises(ValueError):
        newton_start(3, 3)
    with pytest.raises(ValueError):
        newton_run(2, -1)


def test_generalized_orbit():
    run = newton_run(3, 4, h=2)
    assert (run[1].a, run[1].b) == (5, 4)
    for st in run:
        assert 2 * st.a ** 2 - 3 * st.b ** 2 == st.w
    # the ratios close in on sqrt(3/2) from above after the seed
    for st in run[1:]:
        assert st.ratio() ** 2 > Fraction(3, 2)


def test_squared_shortcut():
    run = newton_run(6, 6)
    for n in range(2, 7):
        assert squared_shortcut(6, n, run[n - 1].a) == run[n].a
    with pytest.raises(ValueError):
        squared_shortcut(6, 1, 1)
    with pytest.raises(ValueError):
        squared_shortcut(1, 3, 5)


def test_b_from_sqrt():
    run = newton_run(2, 6)
    for n in range(2, 7):
        assert b_from_sqrt(2, run[n - 1].b, n) == run[n].b
    with pytest.raises(ValueError):
        b_from_sqrt(2, 2, 1)  # the radical identity starts at n = 2
    with pytest.raises(ValueError):
        b_from_sqrt(2, 3, 2)  # 3 is not the b term before index 2
    with pytest.raises(ValueError):
        b_from_sqrt(2, 0, 3)


def test_b_product_form():
    for k in (2, 3, 7):
        run = newton_run(k, 6)
        for n in range(7):
            assert b_product_form(k, n) == run[n].b


def test_b_divisibility_by_powers_of_two():
    for k in range(2, 11):
        for st in newton_run(k, 8):
            assert st.b % 2 ** st.n == 0


def test_closed_form():
    assert newton_closed_form(2, 3) == (577, 408)
    run = newton_run(5, 5)
    for st in run:
        assert newton_closed_form(5, st.n) == (st.a, st.b)
    with pytest.raises(ValueError):
        newton_closed_form(1, 2)


def test_binomial_sum():
    run = newton_run(2, 5)
    for n in range(6):
        assert newton_binomial_sum(2, n, "a") == run[n].a
    for n in range(1, 6):
        assert newton_binomial_sum(2, n, "b") == run[n].b
    with pytest.raises(ValueError):
        newton_binomial_sum(2, 0, "b")
    with pytest.raises(ValueError):
        newton_binomial_sum(2, 2, "c")


def test_orbit_is_a_subsequence_of_the_base_pair():
    for k in (2, 3, 5):
        base = coupled_iterate(SeqSpec(Family.AB, k=k), 32)
        for st in newton_run(k, 5)[1:]:
            target = base[2 ** st.n - 1]
            assert (st.a, st.b) == (target.num, target.den)


def test_step_squares_the_index_gap():
    state = newton_start(7)
    for _ in range(3):
        state = newton_step(state)
    assert state.n == 3
    assert state.a ** 2 - 7 * state.b ** 2 == 6 ** 8


def test_generated_terms_known_prefixes():
    assert generated_terms("A001601", 5) == [1, 3, 17, 577, 665857]
    assert generated_terms("A051009", 5) == [1, 2, 12, 408, 470832]
    with pytest.raises(ValueError):
        generated_terms("A000045", 5)
    with pytest.raises(ValueError):
        generated_terms("A001601", 0)


def test_reference_terms_bundled_files():
    for series_id in OEIS_SERIES:
        terms = reference_terms(series_id)
        assert len(terms) >= 6
        assert terms == generated_terms(series_id, len(terms))


def test_reference_terms_data_dir_override(tmp_path):
    (tmp_path / "A001601.txt").write_text("1\n3\n17\n577\n665857\n999\n")
    terms = reference_terms("A001601", tmp_path)
    assert terms[-1] == 999
    assert terms != generated_terms("A001601", len(terms))


def test_reference_terms_errors(tmp_path):
    with pytest.raises(ValueError):
        reference_terms("A000001")
    with pytest.raises(FileNotFoundError):
        reference_terms("A001601", tmp_path / "nowhere")
    short = tmp_path / "shallow"
    short.mkdir()
    (short / "A001601.txt").write_text("1\n3\n")
    with pytest.raises(ValueError):
        reference_terms("A001601", short)
