"""Suite runner: coverage, report shape, failure witnessing, and the
independence of the two sides of every routes row."""
from pathlib import Path

import pytest

from surdseq import exact, sequences, verify
from surdseq.verify import SUITE_NAMES, _TABLE, _Row, _Streams, _sweep, run_suite

from oracles import calls_under


def test_suite_names():
    assert set(SUITE_NAMES) == {
        "strategies", "identities", "newton", "products", "reduction", "all"}


def test_all_suites_pass_on_a_small_range():
    reports = run_suite("all", k_min=2, k_max=5, n_max=10)
    assert reports and all(r.passed for r in reports)
    assert all(r.passes > 0 for r in reports)


def test_reports_per_suite_per_k():
    per_k = {
        "strategies": 29,
        "identities": 12,
        "newton": 10,
        "products": 5,
    }
    for suite, expected in per_k.items():
        reports = run_suite(suite, k_min=3, k_max=3, n_max=8)
        assert len(reports) == expected, suite
        assert len({r.identity for r in reports}) == expected
        assert all(r.k == 3 for r in reports)
    reduction = run_suite("reduction", k_min=3, k_max=6, n_max=8)
    assert len(reduction) == 18  # nine identities for each odd k (3 and 5)
    assert {r.k for r in reduction} == {3, 5}


def test_identity_names_are_stable():
    names = {r.identity for r in run_suite("identities", 2, 2, 6)}
    assert "pell_residual" in names
    assert "index_addition" in names
    assert "sqrt_double_pair" in names
    assert "fast_term_matches" in names


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nonsense")
    with pytest.raises(ValueError):
        run_suite("identities", k_min=1)
    with pytest.raises(ValueError):
        run_suite("identities", k_min=5, k_max=3)
    with pytest.raises(ValueError):
        run_suite("identities", n_max=0)


def test_a_suite_with_no_k_to_run_on_is_rejected():
    # reduced pairs exist for odd k only; a sweep that checks nothing
    # must not read as a pass
    with pytest.raises(ValueError, match="no k in 2..2"):
        run_suite("reduction", 2, 2, 8)
    assert {r.k for r in run_suite("all", 2, 2, 4)} == {2}


def test_a_row_with_no_case_at_this_n_max_is_rejected():
    # a_fourth_order starts at n = 4: at n_max 3 it would read PASS with 0 passes
    with pytest.raises(ValueError, match="a_fourth_order, b_fourth_order$"):
        run_suite("all", 3, 3, 3)
    with pytest.raises(ValueError, match="newton_square_certificate"):
        run_suite("newton", 2, 2, 1)
    reports = run_suite("identities", 2, 2, 1)
    assert reports and all(r.passed and r.passes for r in reports)


def _demo(keys, lhs, rhs):
    return _sweep(_Row("demo", "synthetic", lhs, rhs, lambda s: keys), _Streams(2, 3))


def test_sweep_reports_first_failure():
    cases = {(0,): (1, 1), (1,): (2, 2), (2, 7): (3, 4), (3,): (9, 9)}
    report = _demo([0, 1, (2, 7), 3],
                   lambda s, *key: cases[key][0], lambda s, *key: cases[key][1])
    assert not report.passed
    assert report.passes == 2
    assert report.failure.n == 2
    assert report.failure.m == 7
    assert (report.failure.lhs, report.failure.rhs) == (3, 4)


def test_sweep_counts_passes():
    report = _demo(range(4), lambda s, n: n * n, lambda s, n: n * n)
    assert report.passed and report.passes == 4
    assert (report.identity, report.k, report.n_max) == ("demo", 2, 3)


def test_sweep_compares_pairs_component_by_component():
    report = _demo(range(3), lambda s, n: (n, 5), lambda s, n: (n, 5 if n < 1 else 6))
    assert report.passes == 3
    assert (report.failure.n, report.failure.m) == (1, None)
    assert (report.failure.lhs, report.failure.rhs) == (5, 6)


@pytest.mark.usefixtures("corrupt_ab_wide")
def test_a_raising_side_fails_its_row_at_that_key():
    reports = run_suite("identities", 2, 3, 8)
    assert len(reports) == 2 * 12
    assert all(r.passed for r in reports if r.k == 3)
    raised = next(r for r in reports if r.identity == "sqrt_double_pair" and r.k == 2)
    assert raised.passes == 8  # n = 1..4, two components each
    failure = raised.failure
    assert (failure.n, failure.m) == (5, None)
    assert failure.lhs == "(99, 71) is not the pair at index 5 for k=2"
    assert failure.rhs is None  # the right side was not reached


def test_interleave_identities_tile_the_base_pair():
    # the five relations of the seeded w family against the base pair
    reports = [r for r in run_suite("strategies", 2, 8, 24)
               if r.identity.startswith("interleave_")]
    assert len(reports) == 5 * 7
    assert all(r.passed and r.passes >= 12 for r in reports)


ROWS = [(suite, row) for suite, rows in _TABLE.items() for row in rows]
ROUTES = [(suite, row) for suite, row in ROWS if not row.why]


def _row_id(suite_row):
    return f"{suite_row[0]}.{suite_row[1].name}"


def test_relation_rows_are_the_named_ones():
    # a routes row relabelled relation escapes the independence check
    # below, so the split is pinned here; each relation row gives its
    # reason in the table
    relations = {row.name for _, row in ROWS if row.why}
    assert relations == {
        "a_fourth_order", "b_fourth_order", "tilde_completes_a", "tilde_completes_kb",
        "interleave_u_is_kv", "pell_residual", "cross_a_from_b", "cross_kb_from_a",
        "cross_b_midpoint", "index_double_a", "index_addition", "square_sum_b",
        "square_sum_a", "sqrt_double_pair", "newton_residual_tower",
        "newton_squared_shortcut", "newton_radical_b", "newton_product_b",
        "newton_b_divisibility", "newton_square_certificate",
        "newton_generalized_residual", "product_pell_constant", "product_d_formula",
        "product_partial_closed", "product_gap_formula", "reduction_ratio_preserved",
    }
    assert len(ROWS) == len({row.name for _, row in ROWS}) == 65
    assert len(ROUTES) == 39


# Code both sides of one routes row may reach, and why sharing it leaves
# the two sides independent routes.
SHARED_OK = {
    exact.require_int: "the argument rule: checks one int and computes nothing",
    sequences.SeqSpec.__init__: "stores a family's parameters; computes no term",
    sequences.SeqSpec.__post_init__: "checks a family's parameters; computes no term",
    sequences.terms: "a pure dispatcher to the one evaluator that defines each family; "
                     "those evaluators are what this check compares",
    verify._Streams.__getattr__: "looks a stream up by name; the builder it calls is "
                                 "recorded on its own",
}


def _reach(side, keys, k, n_max):
    """side's value at each key, from fresh streams, and the code of every
    surdseq function it reached on the way."""
    s = _Streams(k, n_max)
    return calls_under(lambda: [side(s, *key) if type(key) is tuple else side(s, key)
                                for key in keys])


def _where(code):
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


@pytest.mark.parametrize("suite,row", ROUTES, ids=map(_row_id, ROUTES))
def test_routes_share_no_code(suite, row):
    # Both sides of a routes row run apart, each on fresh streams, so
    # every stream a side reads is built under its own record.  The
    # *_binomial, *_closed_form and newton_binomial cases keep the
    # binomial sums and the surd closed forms off the iterated streams.
    k, n_max = 7, 11
    keys = list(row.keys(_Streams(k, n_max)))
    lhs, left = _reach(row.lhs, keys, k, n_max)
    rhs, right = _reach(row.rhs, keys, k, n_max)
    assert keys and lhs == rhs
    allowed = {fn.__code__ for fn in SHARED_OK}
    shared = sorted(_where(code) for code in left & right - allowed)
    assert not shared, f"{row.name}: both sides reach {shared}"
    for reached in (left, right):  # each side is a route through the library
        assert any(not code.co_filename.endswith("verify.py") for code in reached - allowed), (
            f"{row.name}: a side reaches no library code")


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("suite,row", ROWS, ids=map(_row_id, ROWS))
def test_every_row_can_fail(monkeypatch, suite, row, side):
    # one side off by one at the first case fails that row there, alone
    k, n_max = 3, 8
    first = next(iter(row.keys(_Streams(k, n_max))))
    first = first if type(first) is tuple else (first,)
    honest = getattr(row, side)

    def off_by_one(s, *key):
        value = honest(s, *key)
        if key != first:
            return value
        return (value[0] + 1, *value[1:]) if type(value) is tuple else value + 1

    monkeypatch.setitem(_TABLE, suite, tuple(
        r._replace(**{side: off_by_one}) if r is row else r for r in _TABLE[suite]))
    failed = [r for r in run_suite(suite, k, k, n_max) if not r.passed]
    assert [r.identity for r in failed] == [row.name]
    assert (failed[0].failure.n, failed[0].failure.m, failed[0].passes) == (
        first[0], first[1] if len(first) > 1 else None, 0)


@pytest.mark.parametrize("side,error", [("lhs", ValueError), ("rhs", exact.ConsistencyError)])
@pytest.mark.parametrize("suite,row", ROWS, ids=map(_row_id, ROWS))
def test_every_row_fails_where_a_side_raises(monkeypatch, suite, row, side, error):
    # one side raising at the first case fails that row there, alone,
    # with the message in that side's place
    k, n_max = 3, 8
    first = next(iter(row.keys(_Streams(k, n_max))))
    first = first if type(first) is tuple else (first,)
    honest = getattr(row, side)

    def raising(s, *key):
        if key == first:
            raise error("raised at the first case")
        return honest(s, *key)

    monkeypatch.setitem(_TABLE, suite, tuple(
        r._replace(**{side: raising}) if r is row else r for r in _TABLE[suite]))
    failed = [r for r in run_suite(suite, k, k, n_max) if not r.passed]
    assert [r.identity for r in failed] == [row.name]
    failure = failed[0].failure
    assert (failure.n, failure.m, failed[0].passes) == (
        first[0], first[1] if len(first) > 1 else None, 0)
    assert getattr(failure, side) == "raised at the first case"
    if side == "lhs":
        assert failure.rhs is None
    else:
        assert failure.lhs == row.lhs(_Streams(k, n_max), *first)
