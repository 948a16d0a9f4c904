"""Spans and layer replays, recorded from outside the library.

The library has no trace hooks, so the traced run wraps public calls in
spans and replays what `approximate` and `run_suite` do internally
through the public functions they are built from:

- `approximate`'s candidate loop is replayed on the public engines
  (`newton_step`, `fast_term`, `coupled_stream`) with `certify_digits`
  on every candidate, which splits its time into engine, certificate
  and the rest (error bound and loop overhead);
- the verify suites' term evaluators (`closed_form_term`,
  `binomial_term`, `newton_closed_form`, `cd_closed_form`,
  `reduced_cd`) are called directly over the same k and n.

The replays mirror the library as it stands; when a replay certifies at
another index than `approximate` reported, it stops there and counts a
replay mismatch instead of guessing.
"""
from __future__ import annotations

import json
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from io import StringIO
from math import log2
from pathlib import Path
from time import perf_counter

from workloads import is_square

ENGINE_LAYER = {
    "newton": "newton.newton_step",
    "jump": "identities.fast_term",
    "linear": "sequences.coupled_stream",
}

# verify.py evaluates U and V with h = 2 for odd k and h = 3 otherwise,
# caps the newton suite at depth 8 and the products suite at depth 10.
_NEWTON_DEPTH_CAP = 8
_PRODUCT_DEPTH_CAP = 10


@dataclass
class Span:
    """One timed interval.  Spans of one op share `op`; `parent` is the
    id of the span that caused it.  A layer span aggregates every call
    of one public function under its parent: `busy` sums their time and
    `calls` counts them."""

    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    busy: float = 0.0
    calls: int = 0


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def open(self, name: str, op: int, parent: Span | None = None) -> Span:
        span = Span(len(self.spans), parent.id if parent else None, op, name, perf_counter())
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy += span.end - span.start
        span.calls += 1

    def timed(self, span: Span, fn, *args):
        started = perf_counter()
        out = fn(*args)
        span.end = perf_counter()
        span.busy += span.end - started
        span.calls += 1
        return out

    def busy(self, name: str) -> float:
        return sum(s.busy for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(s.calls for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _candidates(lib, tr: Tracer, engine: Span, k: int, h: int, method: str):
    """approximate's proposals, (index, a, b), with engine time on `engine`."""
    if method == "linear":
        spec = lib.SeqSpec(lib.Family.AB, k=k) if h == 1 else lib.SeqSpec(lib.Family.UV, k=k, h=h)
        stream = lib.coupled_stream(spec)
        tr.timed(engine, next, stream)  # n = 0 has denominator 0 in the uv family
        while True:
            pair = tr.timed(engine, next, stream)
            yield pair.n, pair.num, pair.den
    elif method == "jump":
        index = 1
        while True:
            pair = tr.timed(engine, lib.fast_term, k, index)
            yield index, pair.num, pair.den
            index *= 2
    else:
        state = tr.timed(engine, lib.newton_start, k, h)
        while True:
            state = tr.timed(engine, lib.newton_step, state)
            yield state.n, state.a, state.b


def replay_approx(lib, tr: Tracer, op: int, args: tuple, n_used: int, expected: str) -> dict:
    """Replay one approximate call; returns its deterministic fields."""
    k, h, digits, method = args
    parent = tr.open("approx.replay", op)
    engine = tr.open(ENGINE_LAYER[method], op, parent)
    certify = tr.open("approx.certify_digits", op, parent)
    for index, a, b in _candidates(lib, tr, engine, k, h, method):
        out = tr.timed(certify, lib.certify_digits, a, b, k, h, digits)
        if out is not None or index >= n_used:
            break
    fields = {"n_used": n_used, "candidates": certify.calls, "a_bits": a.bit_length(),
              "b_bits": b.bit_length(), "certified": out is not None,
              "matched": index == n_used and out == expected}
    tr.close(parent)
    return fields


def overshoot(b_bits: int, digits: int) -> float:
    """Bits of the final b over the ~D log2(10) / 2 bits a certificate needs."""
    return b_bits / (digits * log2(10) / 2)


def replay_sweep(lib, tr: Tracer, op: int, args: tuple) -> None:
    """Direct timed calls of the term evaluators one suite call uses."""
    suite, k_min, k_max, n_max = args
    parent = tr.open("verify.replay", op)
    if suite == "strategies":
        closed = tr.open("sequences.closed_form_term", op, parent)
        binom = tr.open("sequences.binomial_term", op, parent)
        with_h = (lib.SequenceName.U, lib.SequenceName.V)
        for k in range(k_min, k_max + 1):
            for name in lib.SequenceName:
                h = (2 if k % 2 else 3) if name in with_h else 1
                for n in range(n_max + 1):
                    tr.timed(closed, lib.closed_form_term, name, k, n, h)
                    tr.timed(binom, lib.binomial_term, name, k, n, h)
    elif suite == "newton":
        span = tr.open("newton.newton_closed_form", op, parent)
        for k in range(k_min, k_max + 1):
            for n in range(min(n_max, _NEWTON_DEPTH_CAP) + 1):
                tr.timed(span, lib.newton_closed_form, k, n)
    elif suite == "products":
        span = tr.open("products.cd_closed_form", op, parent)
        for r in range(k_min, k_max + 1):
            for n in range(1, min(n_max, _PRODUCT_DEPTH_CAP) + 1):
                tr.timed(span, lib.cd_closed_form, r, n)
    elif suite == "reduction":
        span = tr.open("sequences.reduced_cd", op, parent)
        for k in range(k_min, k_max + 1):
            if k % 2:
                tr.timed(span, lib.reduced_cd, (k - 1) // 2, n_max + 1)
    tr.close(parent)


def cli_overhead(lib, cli, tr: Tracer, op: int, workload: str, args: tuple, expected) -> bool:
    """Time `cli.main(..., --format json)` against the bare library call
    on one input; True when the CLI printed the expected result."""
    if workload == "verify-sweep":
        suite, k_min, k_max, n_max = args
        lib_span = tr.open("cli.verify.library", op)
        reports = lib.run_suite(suite, k_min, k_max, n_max)
        tr.close(lib_span)
        argv = ["verify", "--suite", suite, "--k-min", str(k_min), "--k-max", str(k_max),
                "--n-max", str(n_max), "--format", "json"]
        main_name = "cli.verify.main"
    else:
        k, h, digits, method = args
        lib_span = tr.open("cli.approx.library", op)
        lib.approximate(k, h, digits, lib.Method(method))
        tr.close(lib_span)
        argv = ["approx", "--k", str(k), "--h", str(h), "--digits", str(digits),
                "--method", method, "--format", "json"]
        main_name = "cli.approx.main"
    buf = StringIO()
    main_span = tr.open(main_name, op)
    with redirect_stdout(buf):
        code = cli.main(argv)
    tr.close(main_span)
    if code != 0:
        return False
    rows = json.loads(buf.getvalue())["rows"]
    if workload == "verify-sweep":
        got = [(r["identity"], int(r["k"]), int(r["passes"])) for r in rows]
        return got == [(r.identity, r.k, r.passes) for r in reports]
    return rows[0]["digits"] == expected


DOMAIN_K = (2, 3, 4, 6, 8)
DOMAIN_H = (1, 2, 3, 4, 8)
DOMAIN_DIGITS = 20
STALL_TIMEOUT_S = 2.0


def returns_in_time(src: Path, k: int, h: int, digits: int, method: str) -> bool:
    """Whether approximate(k, h, digits, method) returns or raises within
    STALL_TIMEOUT_S.  It runs in a child process, killed on timeout."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import surdseq; "
            "surdseq.approximate(*map(int, sys.argv[2:5]), surdseq.Method(sys.argv[5]))")
    try:
        subprocess.run([sys.executable, "-c", code, str(src), str(k), str(h), str(digits), method],
                       capture_output=True, timeout=STALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return True


def domain_probe(lib, src: Path, expected_digits) -> dict:
    """Engine disagreement on a fixed (k, h) grid.

    `rejections` counts (k, h, method) triples that raise ValueError
    while another method certifies the same (k, h).  `jump_stalls`
    counts square k with h = 1 on which JUMP neither returns nor raises;
    those calls run in a child process with a timeout.  `wrong` counts
    accepted results that disagree with `floor_root_scaled`.
    """
    rejections = stalls = wrong = 0
    for k in DOMAIN_K:
        for h in DOMAIN_H:
            expected = expected_digits(k, h, DOMAIN_DIGITS)
            accepted, rejected = 0, 0
            for method in lib.Method:
                if (method.value == "jump" and h == 1 and is_square(k)
                        and not returns_in_time(src, k, h, DOMAIN_DIGITS, method.value)):
                    stalls += 1
                    continue
                try:
                    out = lib.approximate(k, h, DOMAIN_DIGITS, method).digits
                except ValueError:
                    rejected += 1
                    continue
                accepted += 1
                wrong += out != expected
            if accepted:
                rejections += rejected
    return {"rejections": rejections, "jump_stalls": stalls, "wrong": wrong}


INT_STR_PROBE = (2, 1, 5000)


def int_str_probe(lib) -> int | None:
    """1 when approximate(2, 1, 5000) raises under the interpreter's
    default int->str digit cap, 0 when it does not, None on interpreters
    without the cap.  The cap is lifted again before returning.

    NEWTON keeps the probe to milliseconds; the cap bites in the digit
    formatting that every engine shares.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return None
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        lib.approximate(*INT_STR_PROBE, lib.Method.NEWTON)
        return 0
    except ValueError:
        return 1
    finally:
        sys.set_int_max_str_digits(0)
