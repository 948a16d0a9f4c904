"""Suite runner: coverage, report shape, and failure witnessing."""
import pytest

from surdseq.verify import SUITE_NAMES, _sweep, run_suite


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


def test_sweep_reports_first_failure():
    cases = [(0, None, 1, 1), (1, None, 2, 2), (2, 7, 3, 4), (3, None, 9, 9)]
    report = _sweep("demo", 2, 3, iter(cases))
    assert not report.passed
    assert report.passes == 2
    assert report.failure.n == 2
    assert report.failure.m == 7
    assert (report.failure.lhs, report.failure.rhs) == (3, 4)


def test_sweep_counts_passes():
    report = _sweep("demo", 2, 3, ((n, None, n * n, n * n) for n in range(4)))
    assert report.passed and report.passes == 4


def test_interleave_identities_tile_the_base_pair():
    # the five relations of the seeded w family against the base pair
    reports = [r for r in run_suite("strategies", 2, 8, 24)
               if r.identity.startswith("interleave_")]
    assert len(reports) == 5 * 7
    assert all(r.passed and r.passes >= 12 for r in reports)
