"""Digit certification and convergence behavior, with a continued-fraction
yardstick for the pair recurrences and the engine race that `surdseq bench`
runs over approximate."""
import json
import sys
from fractions import Fraction

import pytest

from surdseq.approx import Method, approximate, certify_digits, floor_root_scaled
from surdseq.cli import main
from surdseq.exact import cmp_to_root
from surdseq.identities import fast_term
from surdseq.newton import newton_run
from surdseq.sequences import Family, SeqSpec, coupled_iterate

from oracles import CUTOFFS, cf_pairs, decimal_cutoff, truth_digits


def test_floor_root_scaled_known_values():
    assert floor_root_scaled(2, 1, 5) == 141421
    assert floor_root_scaled(2, 3, 4) == 8164
    assert floor_root_scaled(9, 1, 4) == 30000
    with pytest.raises(ValueError):
        floor_root_scaled(0, 1, 4)
    with pytest.raises(ValueError):
        floor_root_scaled(2, 0, 4)
    with pytest.raises(ValueError):
        floor_root_scaled(2, 1, -1)


def test_certify_accepts_only_sharp_terms():
    assert certify_digits(17, 12, 2, 1, 2) == "1.41"
    assert certify_digits(3, 2, 2, 1, 3) is None
    assert certify_digits(1, 1, 1, 1, 4) == "1.0000"


def test_certify_validation():
    with pytest.raises(ValueError):
        certify_digits(-1, 2, 2, 1, 3)
    with pytest.raises(ValueError):
        certify_digits(3, 0, 2, 1, 3)
    with pytest.raises(ValueError):
        certify_digits(3, 2, 2, 1, 0)
    with pytest.raises(ValueError):
        certify_digits(3, 2, 0, 1, 3)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("k", [2, 3, 5, 7, 10])
def test_certified_digits_match_ground_truth(method, k):
    for digits in (5, 25):
        result = approximate(k, 1, digits, method)
        assert result.digits == truth_digits(k, 1, digits)
        assert result.method is method


def test_rational_target_certifies_instantly():
    result = approximate(9, 4, 6)
    assert result.digits == "1.500000"


def test_uv_methods_agree_with_truth():
    for method in Method:
        result = approximate(2, 3, 12, method)
        assert result.digits == truth_digits(2, 3, 12)


@pytest.mark.parametrize("k, h", [(1, 1), (4, 1), (9, 1), (10 ** 6, 1),
                                  (2, 8), (3, 12), (1, 4), (5, 5)])
def test_jump_rejects_square_kh(k, h):
    # for a square k h = s^2 every jump power lies below the rational
    # root s / h, so JUMP rejects them all and proposes s / h itself,
    # which certifies at index 1 with error bound 0 on ints (cutoff None)
    # and on Decimal integers (cutoff 0) alike; the cutoff holds for the
    # one call, and every truth formats on ints
    for digits in (1, 7, 300, 3 * 10 ** 4, 6 * 10 ** 4):
        truth = truth_digits(k, h, digits)
        for cutoff in CUTOFFS:
            with decimal_cutoff(cutoff):
                result = approximate(k, h, digits, Method.JUMP)
            assert result.digits == truth, (cutoff, digits)
            assert (result.n_used, result.error_bound) == (1, 0)


def test_approximate_validation():
    with pytest.raises(ValueError):
        approximate(0, 1, 5)
    with pytest.raises(ValueError):
        approximate(2, 0, 5)
    with pytest.raises(ValueError):
        approximate(2, 1, 0)


def test_digit_strings_nest_as_prefixes():
    short = approximate(7, 1, 10).digits
    long = approximate(7, 1, 30).digits
    assert long.startswith(short)


def test_error_bound_brackets_the_root():
    for k, digits in ((2, 10), (5, 20)):
        result = approximate(k, 1, digits)
        pair = fast_term(k, result.n_used)
        q = Fraction(pair.num, pair.den)
        assert cmp_to_root(q + result.error_bound, k) >= 0
        low = q - result.error_bound
        assert low < 0 or cmp_to_root(low, k) <= 0
        assert result.error_bound < Fraction(1, 10 ** digits)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int->str digit cap")
@pytest.mark.parametrize("k, digits", [(11, 3000), (2, 10 ** 4)])
def test_repr_prints_under_the_default_str_cap(default_str_cap, k, digits):
    # the error bound's sides run past the cap; repr leaves the bound out
    result = approximate(k, 1, digits, Method.NEWTON)
    assert repr(result) == (f"ApproxResult(digits='{result.digits}', n_used={result.n_used}, "
                            f"method={Method.NEWTON!r}, k={k}, h=1)")


def closer(x, y, k, h):
    """True when y is strictly nearer sqrt(k/h) than x (both exact)."""
    mid = (x + y) / 2
    side = 1 if y > x else -1
    return side * cmp_to_root(mid, k, h) == -1


def test_base_pair_error_decreases_every_step():
    # from n = 1 on; at n = 0 a square k sits exactly between the
    # first two ratios (k = 9 gives 1 and 5 around 3)
    for k in range(2, 13):
        terms = coupled_iterate(SeqSpec(Family.AB, k=k), 31)
        ratios = [Fraction(t.num, t.den) for t in terms]
        for n in range(1, 30):
            assert closer(ratios[n], ratios[n + 1], k, 1)


def test_uv_error_monotone_after_settling():
    # the generalized pair can wobble at first; each case settles by
    # the recorded index and is strictly monotone afterwards
    settled = {(2, 3): 1, (5, 2): 2, (7, 4): 4}
    for (k, h), start in settled.items():
        terms = coupled_iterate(SeqSpec(Family.UV, k=k, h=h), 42)
        ratios = [Fraction(t.num, t.den) for t in terms[1:]]  # drop den 0
        for n in range(start, 40):
            assert closer(ratios[n - 1], ratios[n], k, h)
    # pin one wobble so the settling indices above stay honest
    terms = coupled_iterate(SeqSpec(Family.UV, k=7, h=4), 6)
    ratios = [Fraction(t.num, t.den) for t in terms[1:]]
    assert not closer(ratios[2], ratios[3], 7, 4)


def correct_places(a, b, k, limit=250):
    best = 0
    for d in range(1, limit + 1):
        if 10 ** d * a // b == floor_root_scaled(k, 1, d):
            best = d
        else:
            break
    return best


def test_newton_doubles_correct_digits():
    expected = {
        2: [0, 0, 2, 5, 11, 23, 47, 96, 195],
        3: [0, 0, 1, 3, 7, 17, 35, 71, 145],
        5: [0, 0, 0, 2, 5, 12, 25, 52, 105],
    }
    for k, counts in expected.items():
        run = newton_run(k, 8)
        got = [correct_places(st.a, st.b, k) for st in run]
        assert got == counts
        for n in range(8):
            if got[n] >= 1:
                assert got[n + 1] >= 2 * got[n]


def test_cf_convergents_known_values():
    # sqrt(2) = [1; 2, 2, ...], sqrt(7) = [2; 1, 1, 1, 4, ...] and
    # sqrt(2/3) = [0; 1, 4, 2, 4, ...]
    assert cf_pairs(2, 1, 4) == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert cf_pairs(7, 1, 4) == [(2, 1), (3, 1), (5, 2), (8, 3)]
    assert cf_pairs(2, 3, 4) == [(0, 1), (1, 1), (4, 5), (9, 11)]


def test_base_pair_ratios_are_cf_convergents_for_small_k():
    for k in (2, 3):
        cf = {Fraction(p, q) for p, q in cf_pairs(k, 1, 40)}
        for t in coupled_iterate(SeqSpec(Family.AB, k=k), 16):
            assert Fraction(t.num, t.den) in cf


def bench(capsys, k, digits, methods=Method):
    code = main(["bench", "--k", str(k), "--digits", str(digits), "--format", "json",
                 "--methods", ",".join(m.value for m in methods)])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)["rows"] if code == 0 else captured.err


def test_bench_methods_agree_and_rank(capsys):
    code, rows = bench(capsys, 2, 50)
    assert code == 0
    assert len({row["digits"] for row in rows}) == 1
    assert rows[0]["digits"] == truth_digits(2, 1, 50)
    by_method = {Method(row["method"]): row for row in rows}
    assert int(by_method[Method.NEWTON]["n_used"]) < int(by_method[Method.LINEAR]["n_used"])
    for row in rows:
        assert (row["k"], row["digits_requested"]) == ("2", "50")
        assert isinstance(row["wall_time_s"], float) and row["wall_time_s"] >= 0.0


def test_bench_meters_engine_only(capsys):
    # bench runs approximate itself, so its digits and n_used are approximate's
    code, rows = bench(capsys, 2, 50)
    assert code == 0
    got = {Method(row["method"]): int(row["n_used"]) for row in rows}
    assert got == {Method.LINEAR: 66, Method.JUMP: 128, Method.NEWTON: 7}
    for row in rows:
        result = approximate(2, 1, 50, Method(row["method"]))
        assert (int(row["n_used"]), row["digits"]) == (result.n_used, result.digits)


@pytest.mark.usefixtures("disagreeing_jump")
def test_bench_raises_when_methods_disagree(capsys):
    code, rows = bench(capsys, 2, 20, [Method.LINEAR, Method.NEWTON])
    assert code == 0 and len(rows) == 2
    code, err = bench(capsys, 2, 20)
    assert code == 1 and "consistency failure" in err


def test_bench_validation(capsys):
    # bench takes every k approximate takes, and refuses what it refuses
    code, rows = bench(capsys, 1, 10, [Method.LINEAR, Method.NEWTON])
    assert code == 0
    assert {row["digits"] for row in rows} == {"1.0000000000"}
    assert bench(capsys, 0, 10, [Method.LINEAR])[0] == 2
    assert bench(capsys, 2, 0, [Method.LINEAR])[0] == 2
    assert bench(capsys, 2, 10, [])[0] == 2
