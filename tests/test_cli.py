"""Command line behavior: output formats, exit codes, overrides."""
import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import surdseq
from surdseq.approx import Method, approximate
from surdseq.cli import _cell, main
from surdseq.identities import FailureWitness, IdentityReport
from surdseq.newton import newton_run


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, _ = run(capsys, "seq", "--family", "ab", "--k", "2", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["0 1 1", "1 3 2", "2 7 5"]


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "--family", "uv", "--k", "2", "--h", "3",
                       "--count", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "a", "b"], ["0", "1", "0"], ["1", "1", "3"], ["2", "7", "6"]]


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "--family", "w", "--k", "2",
                       "--seed", "1,3", "--count", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "seq"
    assert doc["params"]["seed"] == [1, 3]
    assert [row["value"] for row in doc["rows"]] == ["1", "3", "17", "99"]


def test_seq_cd_and_u2(capsys):
    code, out, _ = run(capsys, "seq", "--family", "cd", "--m", "1", "--count", "4")
    assert code == 0
    assert out.splitlines() == ["0 1 1", "1 2 1", "2 5 3", "3 7 4"]
    code, out, _ = run(capsys, "seq", "--family", "u2", "--k", "3",
                       "--seed", "1,5", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 5", "2 19"]


def test_seq_newton_and_product(capsys):
    code, out, _ = run(capsys, "seq", "--family", "newton", "--k", "2", "--count", "4")
    assert code == 0
    assert out.splitlines()[-1] == "3 577 408"
    code, out, _ = run(capsys, "seq", "--family", "product", "--r", "3", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["0 1 1", "1 3 1", "2 17 6"]


def test_seq_plain_truncates_wide_integers(capsys):
    code, out, _ = run(capsys, "seq", "--family", "newton", "--k", "2", "--count", "9")
    assert code == 0
    last = out.splitlines()[-1]
    expected = newton_run(2, 8)[8]
    assert "…(" in last and last.endswith("bits)")
    assert str(expected.a)[:60] in last


def test_seq_json_keeps_full_integers(capsys):
    code, out, _ = run(capsys, "seq", "--family", "newton", "--k", "2",
                       "--count", "9", "--format", "json")
    doc = json.loads(out)
    expected = newton_run(2, 8)[8]
    assert int(doc["rows"][8]["a"]) == expected.a


@pytest.mark.parametrize("argv,fragment", [
    (["seq", "--family", "ab", "--count", "3"], "k"),
    (["seq", "--family", "w", "--k", "2", "--count", "3"], "seed"),
    (["seq", "--family", "product", "--count", "3"], "--r"),
    (["seq", "--family", "product", "--r", "3", "--k", "2", "--count", "3"], "--r"),
    (["seq", "--family", "ab", "--k", "2", "--r", "3", "--count", "3"], "product"),
    (["seq", "--family", "ab", "--k", "2", "--count", "0"], "count"),
    (["seq", "--family", "cd", "--k", "4", "--count", "3"], "odd"),
])
def test_seq_usage_errors(capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err


# a valid seq call per family, and which of --h, --m, --seed, --r it takes
SEQ_BASE = {
    "ab": ["--k", "2"],
    "tilde": ["--k", "2"],
    "uv": ["--k", "2", "--h", "3"],
    "cd": ["--k", "7"],
    "w": ["--k", "2", "--seed", "1,3"],
    "u2": ["--k", "3", "--seed", "1,5"],
    "newton": ["--k", "2"],
    "product": ["--r", "3"],
}
TAKES = {
    "ab": (), "tilde": (), "uv": ("--h",), "cd": ("--m",), "w": ("--seed",),
    "u2": ("--m", "--seed"), "newton": ("--h",), "product": ("--r",),
}
STRAY = {"--h": "3", "--m": "5", "--seed": "1,2", "--r": "3"}


def _stray_cases():
    for family, base in SEQ_BASE.items():
        for flag, value in STRAY.items():
            if flag not in TAKES[family]:
                yield pytest.param(family, base + [flag, value], id=f"{family}{flag}")


@pytest.mark.parametrize("family,extra", list(_stray_cases()))
def test_seq_rejects_parameters_the_family_does_not_take(capsys, family, extra):
    code, out, err = run(capsys, "seq", "--family", family, *extra,
                         "--count", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("family", list(SEQ_BASE))
def test_seq_base_calls_run(capsys, family):
    code, out, _ = run(capsys, "seq", "--family", family, *SEQ_BASE[family], "--count", "3")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_approx_plain_record(capsys):
    code, out, _ = run(capsys, "approx", "--k", "2", "--digits", "6")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["digits"] == "1.414213"
    assert lines["method"] == "linear"
    assert int(lines["n_used"]) > 0


def test_approx_json(capsys):
    code, out, _ = run(capsys, "approx", "--k", "2", "--h", "3", "--digits", "8",
                       "--method", "newton", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["digits"] == "0.81649658"
    assert "/" in row["error_bound"]


def plain_reference(value):
    """Plain output of an int as first written: str() of the whole
    value, cut after 60 characters."""
    text = str(value)
    if len(text) > 60:
        return text[:60] + f"…({value.bit_length()} bits)"
    return text


def test_plain_ints_match_str():
    rng = random.Random(7)
    values = [0, 1, -1, 2 ** 196, 2 ** 199, -(2 ** 199)]
    for e in range(55, 3000, 13):
        values += [10 ** e - 1, 10 ** e, 10 ** e + 1, -(10 ** e - 1), -(10 ** e),
                   rng.randrange(10 ** e), -rng.randrange(10 ** e)]
    for bits in range(1, 1500, 7):
        values += [rng.getrandbits(bits), -rng.getrandbits(bits)]
    for value in values:
        assert _cell(value, "plain") == plain_reference(value), value


def test_plain_fraction_cuts_each_long_side():
    short, long_ = 15625, 3 ** 400
    assert _cell(Fraction(short, long_), "plain") == f"{short}/{plain_reference(long_)}"
    assert _cell(Fraction(long_, short), "plain") == f"{plain_reference(long_)}/{short}"
    assert _cell(Fraction(-long_, 7 ** 300), "plain") == (
        f"{plain_reference(-long_)}/{plain_reference(7 ** 300)}")
    assert _cell(Fraction(long_), "plain") == plain_reference(long_)
    assert _cell(Fraction(-3, 4), "plain") == "-3/4"


def test_approx_readme_example_plain(capsys):
    code, out, _ = run(capsys, "approx", "--k", "2", "--h", "3", "--digits", "30",
                       "--method", "newton")
    assert code == 0
    assert out.splitlines() == [
        "digits 0.816496580927726032732428024901",
        "method newton",
        "n_used 5",
        "k 2",
        "h 3",
        "error_bound 15625/691399776814235107722029462690202888",
    ]


def test_approx_plain_cuts_a_wide_error_bound(capsys):
    bound = approximate(11, 1, 600, Method.NEWTON).error_bound
    code, out, _ = run(capsys, "approx", "--k", "11", "--digits", "600",
                       "--method", "newton")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert lines["error_bound"] == (
        f"{plain_reference(bound.numerator)}/{plain_reference(bound.denominator)}")
    for fmt in ("csv", "json"):
        code, out, _ = run(capsys, "approx", "--k", "11", "--digits", "600",
                           "--method", "newton", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            printed = list(csv.reader(io.StringIO(out)))[1][-1]
        else:
            printed = json.loads(out)["rows"][0]["error_bound"]
        assert printed == f"{bound.numerator}/{bound.denominator}"


def test_json_and_csv_values_print_as_str_does():
    # long ints go through divide and conquer, but print as str() would,
    # quirks included: json writes a whole Fraction as "n/1", csv as n
    long = 7 ** 3000 + 12345
    for n in (0, 1, -1, 10 ** 639, 10 ** 640, -(10 ** 640), long, -long):
        assert _cell(n, "json") == str(n) == _cell(n, "csv")
        for d in (1, 3, long):
            assert _cell(Fraction(n, d), "json") == (
                f"{Fraction(n, d).numerator}/{Fraction(n, d).denominator}")
            assert _cell(Fraction(n, d), "csv") == str(Fraction(n, d))
    assert _cell(2.5, "json") == 2.5 and _cell(2.5, "csv") == "2.5"


@pytest.mark.parametrize("module", ["surdseq", "surdseq.cli"])
def test_python_dash_m_runs_the_cli(capsys, module):
    argv = ["approx", "--k", "2", "--digits", "10"]
    code, out, _ = run(capsys, *argv)
    src = str(Path(surdseq.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout) == (code, out)
    assert out.startswith("digits 1.4142135623\n")


def imported_modules(*argv):
    """The surdseq modules `python -m surdseq *argv` imports, read off
    -X importtime, with its exit code."""
    src = str(Path(surdseq.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "surdseq", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    names = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return done.returncode, {name for name in names if name.startswith("surdseq")}


def test_the_approx_command_loads_no_verification_module():
    # the parser reads seq's families and verify's suites only when that
    # command runs, so approx loads what approximate needs and no more
    code, loaded = imported_modules("approx", "--k", "2", "--digits", "10", "--method", "newton")
    assert code == 0
    assert {"surdseq.cli", "surdseq.approx"} <= loaded
    assert not loaded & {"surdseq.verify", "surdseq.sequences", "surdseq.identities",
                         "surdseq.newton", "surdseq.products"}, loaded
    code, loaded = imported_modules("seq", "--family", "ab", "--k", "2", "--count", "3")
    assert code == 0 and "surdseq.sequences" in loaded and "surdseq.verify" not in loaded
    code, loaded = imported_modules("verify", "--suite", "bogus")
    assert code == 2 and "surdseq.verify" in loaded


def test_a_closed_output_pipe_exits_141_quietly():
    # 20000 ab terms print about 3 MB, more than a pipe holds, so the
    # CLI is still writing when the reader goes away
    src = str(Path(surdseq.__file__).resolve().parent.parent)
    with subprocess.Popen([sys.executable, "-m", "surdseq", "seq", "--family", "ab",
                           "--k", "2", "--count", "20000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as child:
        assert child.stdout.readline() == b"0 1 1\n"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=60), err) == (141, b"")


def test_approx_usage_errors(capsys):
    assert run(capsys, "approx", "--k", "0", "--digits", "5")[0] == 2
    assert run(capsys, "approx", "--k", "2", "--digits", "0")[0] == 2
    # every engine takes every k, h >= 1, a square k h included
    code, jump, _ = run(capsys, "approx", "--k", "2", "--h", "3", "--digits", "5",
                        "--method", "jump")
    assert code == 0
    _, newton, _ = run(capsys, "approx", "--k", "2", "--h", "3", "--digits", "5",
                       "--method", "newton")
    assert jump.splitlines()[0] == newton.splitlines()[0] == "digits 0.81649"
    code, out, _ = run(capsys, "approx", "--k", "2", "--h", "8", "--digits", "5",
                       "--method", "jump")
    assert code == 0
    assert out.splitlines()[0] == "digits 0.50000"
    code, out, _ = run(capsys, "approx", "--k", "3", "--h", "3", "--digits", "5",
                       "--method", "newton")
    assert code == 0
    assert out.splitlines()[0] == "digits 1.00000"
    assert run(capsys, "approx", "--k", "2", "--digits", "5",
               "--method", "zigzag")[0] == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities",
                       "--k-min", "2", "--k-max", "3", "--n-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("0 failed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "products",
                       "--k-min", "2", "--k-max", "2", "--n-max", "6",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["result"] == "PASS" for row in doc["rows"])


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "--suite", "bogus")[0] == 2
    code, _, err = run(capsys, "verify", "--suite", "identities",
                       "--k-min", "5", "--k-max", "3")
    assert code == 2 and "empty" in err
    assert run(capsys, "verify", "--suite", "identities", "--n-max", "0")[0] == 2
    code, out, err = run(capsys, "verify", "--suite", "reduction",
                         "--k-min", "2", "--k-max", "2")
    assert code == 2 and out == "" and "no k in 2..2" in err
    code, out, err = run(capsys, "verify", "--suite", "all",
                         "--k-min", "3", "--k-max", "3", "--n-max", "3")
    assert code == 2 and out == "" and "a_fourth_order" in err


@pytest.mark.usefixtures("corrupt_ab_wide")
def test_verify_reports_a_raising_side_as_a_failure(capsys):
    # a side that raises is the identity's failure, with its message as
    # the witness, not a usage error
    code, out, err = run(capsys, "verify", "--suite", "identities",
                         "--k-min", "2", "--k-max", "3", "--n-max", "8")
    assert code == 1 and err == ""
    assert ("FAIL sqrt_double_pair 2 8 8 n=5 "
            "lhs=(99, 71) is not the pair at index 5 for k=2 rhs=None") in out.splitlines()


def test_bench_plain_and_csv(capsys):
    code, out, _ = run(capsys, "bench", "--k", "2", "--digits", "20")
    assert code == 0
    assert len(out.splitlines()) == 3
    code, out, _ = run(capsys, "bench", "--k", "2", "--digits", "20",
                       "--methods", "newton,linear", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["method", "k", "digits_requested", "n_used", "wall_time_s", "digits"]
    assert {row[0] for row in rows[1:]} == {"newton", "linear"}
    digits = {row[-1] for row in rows[1:]}
    assert len(digits) == 1


def test_bench_races_every_engine_on_a_square_k(capsys):
    code, out, _ = run(capsys, "bench", "--k", "4", "--digits", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["linear", "jump", "newton"]
    assert {row[-1] for row in rows} == {"2.00000"}
    assert rows[1][3] == "1"


@pytest.mark.usefixtures("disagreeing_jump")
def test_bench_consistency_failure(capsys):
    code, out, err = run(capsys, "bench", "--k", "2", "--digits", "20")
    assert code == 1
    assert out == ""
    assert "consistency failure" in err


def test_bench_usage_errors(capsys):
    assert run(capsys, "bench", "--k", "2", "--digits", "10",
               "--methods", "walking")[0] == 2
    assert run(capsys, "bench", "--k", "2", "--digits", "10", "--methods", ",")[0] == 2


def test_oeis_pass(capsys):
    code, out, _ = run(capsys, "oeis", "--check", "A001601,A051009")
    assert code == 0
    assert out.splitlines() == ["A001601 8 PASS", "A051009 8 PASS"]


def test_oeis_detects_tampering(tmp_path, capsys):
    (tmp_path / "A001601.txt").write_text("1\n3\n17\n577\n665857\n999\n")
    code, out, _ = run(capsys, "oeis", "--check", "A001601",
                       "--data-dir", str(tmp_path))
    assert code == 1
    assert "FAIL" in out


def test_oeis_env_overrides_flag(tmp_path, capsys, monkeypatch):
    (tmp_path / "A001601.txt").write_text("1\n3\n17\n577\n665857\n999\n")
    monkeypatch.setenv("SURDSEQ_DATA_DIR", str(tmp_path))
    code, out, _ = run(capsys, "oeis", "--check", "A001601",
                       "--data-dir", "/unused/elsewhere")
    assert code == 1 and "FAIL" in out


def test_oeis_usage_errors(capsys, tmp_path):
    assert run(capsys, "oeis", "--check", "A000045")[0] == 2
    code, _, err = run(capsys, "oeis", "--check", "A001601",
                       "--data-dir", str(tmp_path / "missing"))
    assert code == 2 and "not found" in err


def test_parser_level_exits(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["unknown"]) == 2
    capsys.readouterr()
    assert main(["seq", "--family", "nosuch", "--count", "2"]) == 2
    capsys.readouterr()
    assert main(["seq", "--family", "w", "--k", "2", "--seed", "1;3",
                 "--count", "3"]) == 2
    capsys.readouterr()


needs_str_cap = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                   reason="interpreter has no int->str digit cap")


@needs_str_cap
@pytest.mark.parametrize("argv", [
    ["seq", "--family", "newton", "--k", "2", "--count", "16", "--format", "json"],
    ["approx", "--k", "2", "--digits", "5000", "--method", "newton", "--format", "csv"],
    ["verify", "--suite", "products", "--k-min", "2", "--k-max", "2", "--n-max", "4"],
    ["bench", "--k", "2", "--digits", "20"],
    ["oeis", "--check", "A001601"],
])
def test_every_subcommand_leaves_the_str_cap_alone(capsys, default_str_cap, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert sys.get_int_max_str_digits() == default_str_cap


@needs_str_cap
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_prints_a_witness_wider_than_the_str_cap(capsys, monkeypatch,
                                                        default_str_cap, fmt):
    lhs, rhs = 10 ** 5000, Fraction(-(10 ** 5000) - 1, 2)
    failure = FailureWitness(3, None, lhs, rhs)
    monkeypatch.setattr(surdseq.verify, "run_suite", lambda *args: [
        IdentityReport("wide_identity", 2, 8, 3, failure)])
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--format", fmt)
    assert code == 1
    witness = f"n=3 lhs=1{'0' * 5000} rhs=-1{'0' * 4999}1/2"
    if fmt == "json":
        assert json.loads(out)["rows"][0]["witness"] == witness
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(out)))[1][-1] == witness
    else:
        assert out.splitlines()[0] == f"FAIL wide_identity 2 8 3 {witness}"


@needs_str_cap
def test_oeis_reads_terms_wider_than_the_str_cap(tmp_path, capsys, default_str_cap):
    # the orbit's a_14 has 6272 digits
    lines = [_cell(state.a, "csv") for state in newton_run(2, 14)]
    (tmp_path / "A001601.txt").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "oeis", "--check", "A001601", "--data-dir", str(tmp_path))
    assert (code, out) == (0, "A001601 15 PASS\n")
    (tmp_path / "A001601.txt").write_text("\n".join(lines[:-1] + [lines[-1] + "1"]) + "\n")
    code, out, _ = run(capsys, "oeis", "--check", "A001601", "--data-dir", str(tmp_path))
    assert (code, out) == (1, "A001601 15 FAIL\n")
