"""Command line front end.

Five subcommands: seq prints terms, approx prints certified digits,
verify sweeps identity suites, bench races the convergent engines,
oeis compares regenerated terms against the bundled reference files.
Exit codes: 0 success, 1 a verification or consistency failure, 2 a
usage or input problem, 141 (128 + SIGPIPE) a closed output pipe.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from typing import Sequence

# sequences, verify and newton are imported inside the functions that use
# them, so that importing this module, building the parser and running
# approx load only what approx calls need
from .approx import Method, approximate
from .exact import ConsistencyError, decimal_str

_PLAIN_LIMIT = 60


def _plain_int(value: int) -> str:
    """str(value), cut to _PLAIN_LIMIT characters and a bit count when longer.

    str() of a huge int can cost more than computing it, so only the
    leading digits are formatted.  An int of `bits` bits has at least
    floor((bits - 1) log10(2)) + 1 digits, and 0.30102 < log10(2), so
    dividing by 10^drop keeps more than _PLAIN_LIMIT of them.
    """
    magnitude = abs(value)
    drop = max((magnitude.bit_length() - 1) * 30102 // 10 ** 5 - _PLAIN_LIMIT - 2, 0)
    text = ("-" if value < 0 else "") + str(magnitude // 10 ** drop)
    if len(text) > _PLAIN_LIMIT:
        return text[:_PLAIN_LIMIT] + f"…({value.bit_length()} bits)"
    return text


def _cell(value: object, fmt: str) -> object:
    """value as fmt prints it.  Ints, and each side of a Fraction, go
    through _plain_int in plain and through decimal_str in json and csv,
    so every cell prints under any int->str cap.  A whole Fraction prints
    as n, except in json, which writes n/1; a float stays a float in json."""
    if isinstance(value, Fraction):
        if value.denominator != 1 or fmt == "json":
            return f"{_cell(value.numerator, fmt)}/{_cell(value.denominator, fmt)}"
        value = value.numerator
    if isinstance(value, int):
        return _plain_int(value) if fmt == "plain" else decimal_str(value)
    if isinstance(value, float) and fmt != "csv":
        return value if fmt == "json" else f"{value:.6f}"
    return str(value)


def _emit(args: argparse.Namespace, params: dict, rows: list[dict],
          record: bool = False) -> None:
    """Print rows under args.format; the columns are the first row's keys."""
    fmt = args.format
    if fmt == "json":
        doc = {
            "command": args.command,
            "params": params,
            "rows": [{c: _cell(v, fmt) for c, v in row.items()} for row in rows],
        }
        print(json.dumps(doc))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_cell(v, fmt) for v in row.values()] for row in rows)
    elif record:
        for row in rows:
            for c, v in row.items():
                print(f"{c} {_cell(v, fmt)}")
    else:
        for row in rows:
            print(" ".join(_cell(v, fmt) for v in row.values()))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def cmd_seq(args: argparse.Namespace) -> int:
    from .sequences import Family, SeqSpec, terms

    family = Family(args.family)
    k = args.k
    if family is Family.PRODUCT:
        _require(args.k is None, "the product family takes --r, not --k")
        _require(args.r is not None, "the product family needs --r")
        k = args.r
    else:
        _require(args.r is None, "r applies to the product family only")
    spec = SeqSpec(family, k=k, h=args.h, m=args.m, seed=args.seed)
    values = terms(spec, args.count)

    params = {"family": args.family, "count": args.count}
    for key in ("k", "h", "m", "r"):
        value = getattr(args, key)
        if value is not None and not (key == "h" and value == 1):
            params[key] = value
    if args.seed is not None:
        params["seed"] = list(args.seed)
    if spec.seed is None:  # only the w and u2 families take seeds, and give plain values
        rows = [{"n": t.n, "a": t.num, "b": t.den} for t in values]
    else:
        rows = [{"n": n, "value": v} for n, v in enumerate(values)]
    _emit(args, params, rows)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    result = approximate(args.k, args.h, args.digits, Method(args.method))
    params = {"k": args.k, "h": args.h, "digits": args.digits,
              "method": args.method}
    row = {
        "digits": result.digits,
        "method": result.method.value,
        "n_used": result.n_used,
        "k": result.k,
        "h": result.h,
        "error_bound": result.error_bound,
    }
    _emit(args, params, [row], record=True)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    reports = run_suite(args.suite, args.k_min, args.k_max, args.n_max)
    params = {"suite": args.suite, "k_min": args.k_min,
              "k_max": args.k_max, "n_max": args.n_max}
    rows = []
    failed = 0
    for rep in reports:
        if rep.failure is None:
            witness = "-"
        else:
            failed += 1
            f = rep.failure
            at = f"n={f.n}" if f.m is None else f"n={f.n} m={f.m}"
            witness = f"{at} lhs={_cell(f.lhs, 'csv')} rhs={_cell(f.rhs, 'csv')}"
        rows.append({
            "result": "PASS" if rep.passed else "FAIL",
            "identity": rep.identity,
            "k": rep.k,
            "n_max": rep.n_max,
            "passes": rep.passes,
            "witness": witness,
        })
    _emit(args, params, rows)
    if args.format == "plain":
        print(f"{len(rows) - failed} passed, {failed} failed")
    return 1 if failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    methods = [Method(name.strip())
               for name in args.methods.split(",") if name.strip()]
    _require(bool(methods), "need at least one method")
    rows = []
    for method in methods:
        started = time.perf_counter()
        result = approximate(args.k, 1, args.digits, method)
        rows.append({
            "method": method.value,
            "k": args.k,
            "digits_requested": args.digits,
            "n_used": result.n_used,
            "wall_time_s": time.perf_counter() - started,
            "digits": result.digits,
        })
        if result.digits != rows[0]["digits"]:
            raise ConsistencyError(f"methods disagree at k={args.k}, digits={args.digits}: "
                                   f"{rows[0]['digits']} vs {result.digits}")
    params = {"k": args.k, "digits": args.digits,
              "methods": [m.value for m in methods]}
    _emit(args, params, rows)
    return 0


def cmd_oeis(args: argparse.Namespace) -> int:
    from .newton import generated_terms, reference_terms

    ids = [token.strip() for token in args.check.split(",") if token.strip()]
    _require(bool(ids), "no series ids given")
    # an empty directory, from either source, is unset: not the working one
    data_dir = os.environ.get("SURDSEQ_DATA_DIR") or args.data_dir or None
    params = {"check": ids}
    if data_dir:
        params["data_dir"] = str(data_dir)
    rows = []
    mismatched = 0
    for series_id in ids:
        expected = reference_terms(series_id, data_dir)
        got = generated_terms(series_id, len(expected))
        ok = got == expected
        if not ok:
            mismatched += 1
        rows.append({"id": series_id, "terms": len(expected),
                     "result": "PASS" if ok else "FAIL"})
    _emit(args, params, rows)
    return 1 if mismatched else 0


def _seed_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("seed must look like w0,w1")
    return int(parts[0]), int(parts[1])


class _Command(argparse.ArgumentParser):
    """A subcommand's parser that lets `arguments`, when given, add its
    arguments just before it first parses, so that the registries their
    choices come from load only when that subcommand runs."""

    def __init__(self, *args, arguments=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            arguments, self._arguments = self._arguments, None
            arguments(self)
        return super().parse_known_args(args, namespace)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["plain", "json", "csv"],
                   default="plain", help="output format")


def _seq_arguments(p: argparse.ArgumentParser) -> None:
    from .sequences import Family

    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--k", type=int, help="radicand parameter")
    p.add_argument("--h", type=int, default=1,
                   help="denominator parameter (uv and newton)")
    p.add_argument("--m", type=int, help="reduction parameter, k = 2m+1")
    p.add_argument("--r", type=int, help="product family parameter")
    p.add_argument("--seed", type=_seed_pair,
                   help="w0,w1 seed for the w and u2 families")
    p.add_argument("--count", type=int, required=True,
                   help="number of terms to print")
    _add_format(p)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .verify import SUITE_NAMES

    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--n-max", type=int, default=30)
    _add_format(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surdseq",
        description="Exact convergents to square roots of rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p = sub.add_parser("seq", help="print terms of one sequence family",
                       arguments=_seq_arguments)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("approx", help="certified digits of sqrt(k/h)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--digits", type=int, required=True,
                   help="decimal places to certify")
    p.add_argument("--method", choices=[m.value for m in Method],
                   default="linear")
    _add_format(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("verify", help="run identity suites over a k range",
                       arguments=_verify_arguments)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="race the convergent engines")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--methods", default=",".join(m.value for m in Method),
                   help="comma separated method names")
    _add_format(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oeis", help="compare regenerated terms against "
                                    "the bundled reference files")
    p.add_argument("--check", required=True,
                   help="comma separated series ids")
    p.add_argument("--data-dir", default=None,
                   help="directory of reference files (the SURDSEQ_DATA_DIR "
                        "environment variable overrides this)")
    _add_format(p)
    p.set_defaults(func=cmd_oeis)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so the
        # interpreter's last flush does not raise again, and exit as a
        # tool that SIGPIPE ends would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
