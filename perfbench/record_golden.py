"""Record the traced run's deterministic fields into golden.json.

    python3 perfbench/record_golden.py [seed ...]

Runs the traced round of every workload for each seed (1 to 10 by
default) and stores the summaries that run.py compares exactly.  Run it
from the repository root after a change that alters n_used, candidate
counts, bit widths or verify case counts on purpose.
"""
from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or list(range(1, 11))
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    for workload in WORKLOADS:
        for seed in seeds:
            _, summary, _, failures = run.traced_run(run.Session(workload, seed))
            if failures:
                raise SystemExit(f"{workload} seed {seed}: {failures[0]}")
            golden.setdefault(workload, {})[str(seed)] = summary
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
