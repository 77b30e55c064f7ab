"""Benchmark of the bispinor toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``verify-registry``, ``constructors`` and ``cli-cold`` (see
``workloads.py``).  With ``--trace 0`` the run measures the end-to-end
metrics that ``BENCHMARK.json`` lists, with ``--trace 1`` the per-layer
metrics from spans.  A per-layer metric that a workload does not exercise
by design (``workloads.not_exercised``) reads 0; any other metric that was
not measured stops the run.  Every run checks the program's outputs.

Standard output: an environment stamp, one line per metric with its unit
and how it was measured, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The same data, and in a
traced run the spans, are written under ``bench/out/``.  The exit code is 0
for a correct run, 1 when an output was wrong and 2 when the benchmark
cannot run here (no ``src/bispinor`` or no ``BENCHMARK.json``) or did not
measure a declared metric.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, and inherited by every child interpreter.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
PROBE_REPEATS = 5


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, size: dict) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_size": size,
    }


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"no BENCHMARK.json at {ROOT}")
    if not (SRC / "bispinor" / "__init__.py").is_file():
        return fail(f"no bispinor sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import bispinor

    if Path(bispinor.__file__).resolve().parent != SRC / "bispinor":
        return fail(f"imported bispinor from {bispinor.__file__}, not from {SRC}")

    import tracing
    import workloads

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # One core for the benchmark and its children, so that the calibration
    # kernel runs on the core whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = workloads.Context(ROOT, args.seed, args.seconds, env)

    # The first interpreter compiles the sources to bytecode; users do not
    # pay that on every start, so it is not timed.
    workloads.child_times(ctx, workloads.SETUP_CODE, 1)
    if args.trace:
        probes = {
            "cli.python_start_s": statistics.median(
                workloads.child_times(ctx, "pass", PROBE_REPEATS)[0]),
            "cli.import_s": statistics.median(
                workloads.child_times(ctx, workloads.IMPORT_CODE, PROBE_REPEATS, inner=True)[0]),
            **workloads.serialization_probe(args.seed),
        }
        tracer = tracing.Tracer()
        outcome = workloads.WORKLOADS[args.workload](ctx, tracer)
        outcome.metrics.update(probes)
    else:
        raw, calibrated = workloads.child_times(ctx, workloads.SETUP_CODE, SETUP_REPEATS)
        outcome = workloads.WORKLOADS[args.workload](ctx)
        outcome.metrics["setup_s"] = statistics.median(calibrated)
        outcome.lines[:0] = [
            ("setup_s", outcome.metrics["setup_s"], "s",
             f"import bispinor + registry() in a fresh interpreter, median of "
             f"{SETUP_REPEATS}, calibrated"),
            ("setup_s_raw", statistics.median(raw), "s", "not calibrated"),
        ]
        outcome.lines.append(("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB",
                              "child processes" if args.workload == "cli-cold"
                              else "benchmark process"))

    metrics, unexercised = {}, []
    for entry in declared:
        name = entry["name"]
        if name in outcome.metrics:
            value = outcome.metrics[name]
        elif args.trace and workloads.not_exercised(args.workload, name):
            value = 0.0
            unexercised.append(name)
        else:
            return fail(f"metric {name} was not measured")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    share = outcome.failed / outcome.attempted
    outcome.lines.append(("failed_op_share", share, "share",
                          f"{outcome.failed} of {outcome.attempted} operations failed"))

    stamp = environment(args, outcome.size)
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, value, unit, how in outcome.lines:
        print(f"{name:<24} {value:>16.6g} {unit:<6} {how}")
    for name, m in metrics.items():
        note = "  (not exercised by this workload)" if name in unexercised else ""
        print(f"{name:<56} {m['value']:>16.6g} {m['unit']}{note}")
    for problem in outcome.examples:
        print(f"INCORRECT: {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    record = {"env": stamp, "metrics": metrics, "all_metrics": outcome.metrics,
              "lines": outcome.lines, "violations": outcome.examples}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")

    correct = outcome.violations == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
