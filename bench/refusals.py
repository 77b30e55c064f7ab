"""Record how many calls of the constructors stream the program refuses.

    python3 bench/refusals.py

For every seed in ``SEEDS`` it runs one untimed pass of the constructors
workload's guard probe (its stream with p0/m up to ``PROBE_RATIO_MAX``) and
writes the number of calls refused by the scale-blind on-shell guard to
``refusals.json``.  The constructors workload flags a probe that refuses
more calls than recorded for its seed, so the table is recorded
once, on the commit that defines the benchmark, and a later fix of the
guard may only lower the counts.  The script stops if a pass gives a wrong
result, since the table must come from correct runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

SEEDS = range(1000)


def main() -> int:
    counts = []
    for seed in SEEDS:
        points = workloads.constructor_stream(seed, workloads.PROBE_RATIO_MAX)
        calls = workloads.stream_calls(points, workloads.resolve_api())
        done = workloads.stream_pass(calls, allow_refusals=True)[0]
        if done.problems:
            raise SystemExit(f"seed {seed}: {done.problems[0]}")
        counts.append(len(done.refused))
    table = {"first_seed": SEEDS[0], "calls_per_pass": len(calls), "refused_per_pass": counts}
    workloads.REFUSALS_FILE.write_text(json.dumps(table) + "\n")
    print(f"seeds {SEEDS[0]}-{SEEDS[-1]}: {sum(counts)} refused calls, "
          f"{min(counts)}-{max(counts)} per pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
