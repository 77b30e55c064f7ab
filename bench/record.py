"""Run the benchmark over several seeds and record the figures.

    python3 bench/record.py [--seeds 1-10] [--output bench/out/record.json]

For every workload of BENCHMARK.json it runs ``run.py`` untraced once per
seed, then traced once with the first seed, all with ``run_seconds`` from
BENCHMARK.json.
It prints, per end-to-end metric, the median and the spread (the distance
between the first and third quartile as a share of the median), and writes
every run's result to the output file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return {"seed": seed, "env": env, "lines": lines[1:-1], **json.loads(lines[-1])}


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--output", default=str(BENCH / "out" / "record.json"))
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": seconds, "workloads": {}}
    seeds = seed_list(args.seeds)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, seconds, 0))
            values = {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: failed {runs[-1]['failed']}/{runs[-1]['attempted']} "
                  f"{values}", flush=True)
        entry = {"runs": runs, "summary": {}}
        for name in bounds:
            summary = spread([r["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = summary
            print(f"  {name:<14} median {summary['median']:<12.6g} spread "
                  f"{summary['spread']:.4f} (bound {bounds[name]})", flush=True)
        entry["traced"] = run(workload, seeds[0], seconds, 1)
        record["workloads"][workload] = entry
    Path(args.output).parent.mkdir(exist_ok=True)
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
