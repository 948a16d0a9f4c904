"""Layered benchmark for surdseq: certified digits and verify sweeps.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-deep --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each call starts when the last
one returned.  A run builds its inputs from the seed (workloads.py),
then repeats that round of inputs until --seconds have passed and at
least MIN_ROUNDS rounds are done, always finishing the round in
progress.  Every output is checked outside the timed region: digit
strings against `floor_root_scaled`, identity reports for a pass and
for an exact repeat of the first round.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
and one traced round on the same inputs, replays the layers (layers.py)
and prints the per-layer metrics.  Human-readable lines come first; the
last line of stdout is one JSON object.  The exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import layers
from workloads import SUITES, WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SPANS_DIR = ROOT / ".perfbench"
SETUP_FIRST = 3
SETUP_INTERVAL_S = 1.0
MIN_ROUNDS = 3
P90_MIN_SAMPLES = 100
CLI_SAMPLES = 3


def unload_library() -> None:
    """Drop surdseq from the module cache and free the old modules, so
    repeated set-ups neither reuse nor pile up imported code."""
    for name in [m for m in sys.modules if m == "surdseq" or m.startswith("surdseq.")]:
        del sys.modules[name]
    gc.collect()


def load_library():
    """Import surdseq and surdseq.cli from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "surdseq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no surdseq package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = importlib.import_module("surdseq")
    cli = importlib.import_module("surdseq.cli")
    if Path(lib.__file__).resolve().parent != (src / "surdseq").resolve():
        raise SystemExit(f"perfbench: imported surdseq from {lib.__file__}, not {src}")
    return lib, cli


def warm_up(lib, workload: str) -> None:
    if workload == "verify-sweep":
        for suite in SUITES:
            lib.run_suite(suite, 2, 3, 4)
    else:
        for method in lib.Method:
            lib.approximate(2, 1, 50, method)


class Session:
    """The library under test, the seed's inputs and every set-up time.

    A set-up imports surdseq afresh, generates the inputs and warms up.
    It runs SETUP_FIRST times before the first call and then between
    calls about every SETUP_INTERVAL_S, so that its median spans the
    quiet and the busy spells of the machine alike.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_times: list[float] = []
        for _ in range(SETUP_FIRST):
            self.setup()

    def setup(self) -> None:
        unload_library()
        started = perf_counter()
        self.lib, self.cli = load_library()
        self.ops = make_ops(self.workload, self.seed)
        warm_up(self.lib, self.workload)
        self.last_setup = perf_counter()
        self.setup_times.append(self.last_setup - started)


def _call(lib, workload: str, op: tuple):
    if workload == "verify-sweep":
        return lib.run_suite(*op)
    k, h, digits, method = op
    return lib.approximate(k, h, digits, lib.Method(method))


def _span_name(workload: str, op: tuple) -> str:
    return f"verify.{op[0]}" if workload == "verify-sweep" else "approx.approximate"


def _summary(workload: str, result) -> tuple:
    if isinstance(result, Exception):
        return ("raised", f"{type(result).__name__}: {result}")
    if workload == "verify-sweep":
        return ("ok", tuple((r.identity, r.k, r.passes, r.passed) for r in result))
    return ("ok", result.digits, result.n_used)


def run_round(session: Session, tr: layers.Tracer | None = None,
              interleave_setup: bool = False) -> list:
    """One pass over the inputs: (input index, latency, summary) per call."""
    records = []
    workload = session.workload
    for i, op in enumerate(session.ops):
        span = tr.open(_span_name(workload, op), i) if tr else None
        started = perf_counter()
        try:
            result = _call(session.lib, workload, op)
        except Exception as exc:  # a call that raises is a failed op; keep measuring
            result = exc
        latency = perf_counter() - started
        if span:
            tr.close(span)
        records.append((i, latency, _summary(workload, result)))
        if interleave_setup and perf_counter() - session.last_setup >= SETUP_INTERVAL_S:
            session.setup()
    return records


def format_digits(t: int, digits: int) -> str:
    raw = str(t).rjust(digits + 1, "0")
    return raw[:-digits] + "." + raw[-digits:]


class Oracle:
    """Expected digit strings from `floor_root_scaled`, computed once per
    input and timed, so the traced run can report the isqrt layer."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.cache: dict[tuple, str] = {}
        self.seconds: dict[tuple, float] = {}

    def digits(self, k: int, h: int, digits: int) -> str:
        key = (k, h, digits)
        if key not in self.cache:
            started = perf_counter()
            t = self.lib.floor_root_scaled(k, h, digits)
            self.seconds[key] = perf_counter() - started
            self.cache[key] = format_digits(t, digits)
        return self.cache[key]


def check(workload: str, ops: list, records: list, oracle: Oracle) -> list[str]:
    """One message per failed call: wrong digits, a failed identity, a
    report that differs from the first one for the same input, or an
    exception."""
    failures = []
    first: dict[int, tuple] = {}
    for i, _, summary in records:
        op = ops[i]
        if summary[0] != "ok":
            failures.append(f"{op}: {summary[1]}")
        elif workload == "verify-sweep":
            bad = [r for r in summary[1] if not r[3]]
            if bad:
                failures.append(f"{op}: identities failed: {[r[0] for r in bad]}")
            elif first.setdefault(i, summary) != summary:
                failures.append(f"{op}: report differs from the first round")
        elif summary[1] != oracle.digits(*op[:3]):
            failures.append(f"{op}: digits differ from floor_root_scaled")
    return failures


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def print_header(session: Session) -> None:
    print(f"perfbench workload={session.workload} seed={session.seed} "
          f"inputs_per_round={len(session.ops)}")
    print(f"env python={platform.python_version()} implementation={platform.python_implementation()} "
          f"nproc={nproc()}")
    print("int->str digit cap lifted for the measured calls with sys.set_int_max_str_digits(0), "
          "exactly as surdseq.cli.main does")


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<32} {shown:>14} {unit}{'  ' + note if note else ''}")


def end_to_end(session: Session, records: list, wall: float, rss: float, failed: int) -> dict:
    """Print every end-to-end metric; return the values the JSON line carries.

    Latency statistics and rates pool every call of every round.  On a
    shared machine the speed of one call varies up to twofold in spells
    of a few seconds; statistics over many calls spread across the run
    are far steadier.
    """
    workload, ops = session.workload, session.ops
    latencies = [latency for _, latency, _ in records]
    work = sum((sum(r[2] for r in s[1]) if workload == "verify-sweep" else ops[i][2])
               for i, _, s in records if s[0] == "ok")
    metrics = {
        "setup_s": statistics.median(session.setup_times),
        "ops_per_s": len(records) / wall,
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": rss,
    }
    units = declared("end_to_end")
    notes = {
        "setup_s": f"median of {len(session.setup_times)} set-ups",
        "ops_per_s": f"{len(records)} calls in {len(records) // len(ops)} rounds of "
                     f"{len(ops)} inputs, {wall:.1f} s",
        "latency_p50_s": f"over {len(latencies)} calls",
    }
    for name, value in metrics.items():
        print_metric(name, value, units[name], notes.get(name, ""))
    if workload == "verify-sweep":
        print_metric("cases_per_s", work / wall, "1/s", f"{work} verify cases passed")
    else:
        print_metric("digits_per_s", work / wall, "1/s", f"{work} certified digits")
    if len(latencies) >= P90_MIN_SAMPLES:
        print_metric("latency_p90_s", statistics.quantiles(latencies, n=10)[8], "s",
                     f"over {len(latencies)} calls")
    else:
        print_metric("latency_p90_s", "n/a", "s",
                     f"{len(latencies)} calls < {P90_MIN_SAMPLES}; only the median is reported")
    print_metric("failed_share", failed / len(records), "1", f"{failed} of {len(records)} calls")
    return metrics


def timed_run(session: Session, seconds: float):
    """Whole rounds until `seconds` have passed and MIN_ROUNDS are done;
    the wall time returned leaves out the set-ups made between calls."""
    records = []
    done = len(session.setup_times)
    started = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - started < seconds:
        records.extend(run_round(session, interleave_setup=True))
        rounds += 1
    return records, perf_counter() - started - sum(session.setup_times[done:])


def golden_summary(workload: str, det: list) -> dict:
    """Deterministic fields of one traced round, as compared with golden.json."""
    digest = hashlib.sha256(json.dumps(det).encode()).hexdigest()[:16]
    if workload == "verify-sweep":
        out = {"ops": len(det)}
        for suite in SUITES:
            out[f"cases.{suite}"] = sum(r[2] for d in det if d["args"][0] == suite for r in d["reports"])
        return {**out, "digest": digest}
    return {
        "ops": len(det),
        "n_used": sum(d["n_used"] for d in det),
        "candidates": sum(d["candidates"] for d in det),
        "a_bits": sum(d["a_bits"] for d in det),
        "b_bits": sum(d["b_bits"] for d in det),
        "overshoot_ratio": repr(statistics.fmean(layers.overshoot(d["b_bits"], d["args"][2]) for d in det)),
        "digest": digest,
    }


def compare_golden(workload: str, seed: int, summary: dict) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    want = golden.get(workload, {}).get(str(seed))
    if want is None:
        print(f"golden: no record for {workload} seed {seed}; nothing compared")
        return 0
    diff = [key for key in sorted(set(want) | set(summary)) if want.get(key) != summary.get(key)]
    for key in diff:
        print(f"golden: {key} recorded {want.get(key)!r}, now {summary.get(key)!r}")
    print(f"golden: {len(summary) - len(diff)} of {len(summary)} deterministic fields match")
    return len(diff)


def traced_run(session: Session):
    """Untraced round, traced round, layer replays and domain probes.

    Returns (per-layer metrics, deterministic summary, records, failures).
    """
    lib, cli, workload, ops = session.lib, session.cli, session.workload, session.ops
    started = perf_counter()
    untraced = run_round(session)
    untraced_wall = perf_counter() - started
    tr = layers.Tracer()
    started = perf_counter()
    traced = run_round(session, tr)
    traced_wall = perf_counter() - started

    oracle = Oracle(lib)
    records = untraced + traced
    failures = check(workload, ops, records, oracle)
    first = {i: s for i, _, s in untraced}

    det = []
    # What the spans add around the calls: each round's wall time outside
    # the calls themselves, traced minus untraced.  Comparing whole walls
    # would only measure how the machine's speed drifted between rounds.
    outside = [wall - sum(latency for _, latency, _ in rnd)
               for wall, rnd in ((untraced_wall, untraced), (traced_wall, traced))]
    m: dict[str, float] = {"tracing_overhead_s": outside[1] - outside[0]}
    if workload == "verify-sweep":
        for i, op in enumerate(ops):
            layers.replay_sweep(lib, tr, i, op)
            det.append({"args": list(op),
                        "reports": [list(r[:3]) for r in first[i][1]] if first[i][0] == "ok" else []})
    else:
        for i, op in enumerate(ops):
            expected = oracle.digits(*op[:3])
            n_used = first[i][2] if first[i][0] == "ok" else 0
            fields = layers.replay_approx(lib, tr, i, op, n_used, expected)
            det.append({"args": list(op), **fields})

    for i in range(0, len(ops), max(1, len(ops) // CLI_SAMPLES))[:CLI_SAMPLES]:
        op = ops[i]
        expected = None if workload == "verify-sweep" else oracle.digits(*op[:3])
        if not layers.cli_overhead(lib, cli, tr, i, workload, op, expected):
            failures.append(f"{op}: cli output differs from the library result")

    summary = golden_summary(workload, det)
    approx_s = tr.busy("approx.approximate")
    engine_s = sum(tr.busy(name) for name in layers.ENGINE_LAYER.values())
    certify_s = tr.busy("approx.certify_digits")
    calls = tr.calls("approx.certify_digits")
    isqrt_s = sum(oracle.seconds.values())
    m.update({
        "approx.approximate.s": approx_s,
        **{f"{name}.s": tr.busy(name) for name in layers.ENGINE_LAYER.values()},
        "approx.candidates": summary.get("candidates", 0),
        "approx.n_used": summary.get("n_used", 0),
        "approx.final_b_bits": summary.get("b_bits", 0),
        "approx.overshoot_ratio": float(summary.get("overshoot_ratio", 0.0)),
        "approx.certify_digits.s": certify_s,
        "approx.certify_digits.calls": calls,
        "approx.certify_accept_ratio": sum(d.get("certified", False) for d in det) / calls if calls else 0.0,
        "approx.rest.s": approx_s - engine_s - certify_s if approx_s else 0.0,
        "approx.floor_root_scaled.s": isqrt_s,
        "approx.vs_isqrt": approx_s / isqrt_s if isqrt_s else 0.0,
        "approx.replay_mismatches": sum(not d.get("matched", True) for d in det),
    })
    for suite in SUITES:
        m[f"verify.{suite}.s"] = tr.busy(f"verify.{suite}")
        m[f"verify.{suite}.cases"] = summary.get(f"cases.{suite}", 0)
    for name in ("sequences.closed_form_term", "sequences.binomial_term",
                 "newton.newton_closed_form", "products.cd_closed_form", "sequences.reduced_cd"):
        m[f"{name}.s"] = tr.busy(name)
    for kind in ("approx", "verify"):
        m[f"cli.{kind}.overhead_s"] = tr.busy(f"cli.{kind}.main") - tr.busy(f"cli.{kind}.library")

    domain = layers.domain_probe(lib, ROOT / "src", oracle.digits)
    if domain["wrong"]:
        failures.append(f"domain grid: {domain['wrong']} accepted results differ from floor_root_scaled")
    int_str = layers.int_str_probe(lib)
    m["approx.domain_rejections"] = domain["rejections"]
    m["approx.jump_square_stalls"] = domain["jump_stalls"]
    m["approx.int_str_limit_failures"] = int_str or 0
    if int_str is None:
        print("int-str probe: this interpreter has no int->str digit cap; reported 0")

    m["golden.mismatches"] = compare_golden(workload, session.seed, summary)
    tr.write(SPANS_DIR / f"{workload}-seed{session.seed}.spans.jsonl")
    return m, summary, records, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # as surdseq.cli.main does; layers.int_str_probe tests the default
    session = Session(args.workload, args.seed)
    print_header(session)

    if args.trace:
        values, _, records, failures = traced_run(session)
        units = declared("per_layer")
        for name, value in values.items():
            print_metric(name, value, units[name])
    else:
        records, wall = timed_run(session, args.seconds)
        rss = peak_rss_mb()
        failures = check(args.workload, session.ops, records, Oracle(session.lib))
        values = end_to_end(session, records, wall, rss, len(failures))
        units = declared("end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         f"are not both measured and declared in BENCHMARK.json")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for message in failures:
        print(f"FAILED {message}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
