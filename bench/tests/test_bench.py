"""Tests of the benchmark's own code.

    python -m pytest bench/tests

The end-to-end tests run every workload for a fraction of a second.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bispinor
import bispinor.projectors
import bispinor.spinors
import bispinor.verify
import calibration
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload-specific metrics each untraced run prints, by name and unit,
# beside the generic end-to-end metrics of BENCHMARK.json.
NAMED = {
    "verify-registry": ("setup_s", "check_samples_per_s", "peak_rss_mb", "failed_op_share"),
    "constructors": ("setup_s", "call_us_p50", "call_us_p99", "calls_per_s",
                     "peak_rss_mb", "failed_op_share"),
    "cli-cold": ("setup_s", "cold_start_s", "cold_start_s_tail", "peak_rss_mb",
                 "failed_op_share"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_input_generators_are_deterministic_in_the_seed():
    assert workloads.constructor_stream(5) == workloads.constructor_stream(5)
    assert workloads.constructor_stream(5) != workloads.constructor_stream(6)
    first = [s for s, _ in zip(workloads.cli_seeds(5), range(20))]
    assert first == [s for s, _ in zip(workloads.cli_seeds(5), range(20))]
    assert first != [s for s, _ in zip(workloads.cli_seeds(6), range(20))]


@pytest.mark.parametrize("ratio_max", [workloads.REAL_RATIO_MAX, workloads.PROBE_RATIO_MAX])
def test_constructor_stream_covers_the_specified_domain(ratio_max):
    points = workloads.constructor_stream(11, ratio_max)
    real = [p for p in points if p.band == "real"]
    breve = [p for p in points if p.band == "breve"]
    assert len(real) == len(breve) == len(points) // 2
    assert all(1e-3 <= p.m <= 1e3 for p in points)
    assert all(1.0 <= p.p0 / p.m <= ratio_max for p in real)
    assert max(p.p0 / p.m for p in real) > ratio_max / 2
    assert all(-1.0 <= p.p0 / p.m <= 1.0 for p in breve)
    assert all(math.isclose(np.linalg.norm(p.nhat), 1.0) for p in points)


def test_report_with_a_forced_wrong_status_is_a_failed_operation():
    report = bispinor.verify.run_all(seed=4, samples=2)
    expected = workloads.expected_statuses(bispinor.verify.registry())
    good = report.to_json()
    assert workloads.report_problems(good, expected, 4, 2) == []

    doc = json.loads(good)
    holds = next(row for row in doc["checks"] if expected[row["name"]] == "pass")
    holds["status"] = "fail"
    outcome = workloads.Outcome(size={})
    outcome.record(workloads.report_problems(json.dumps(doc), expected, 4, 2))
    outcome.record(workloads.report_problems(good, expected, 4, 2))
    assert (outcome.attempted, outcome.failed, outcome.violations) == (2, 1, 1)
    assert workloads.report_problems("not json", expected, 4, 2)
    assert workloads.report_problems(good, expected, 5, 2)


def test_wrong_constructor_results_are_flagged():
    k = bispinor.KinematicPoint(1.0, 2.0, (0.0, 0.0, 1.0))
    lhs, rhs = bispinor.polsum("spinor", k)
    assert workloads.call_problem("polsum.spinor", (lhs, rhs)) is None
    assert workloads.call_problem("polsum.spinor", (lhs, rhs + 1e-6))
    assert workloads.call_problem("polsum.breve-plus", (lhs, rhs + 1.0)) is None
    assert workloads.call_problem("slash", np.full((4, 4), np.nan))
    assert workloads.call_problem("dirac_u", np.zeros(3))
    assert workloads.call_problem("diad", ZeroDivisionError("x"))


def test_only_the_on_shell_guard_refuses():
    off_shell = ValueError("momentum is off shell: |p.p - m^2| = 1.0e-06")
    assert workloads.is_refusal("polsum.spinor", off_shell)
    assert workloads.is_refusal("pi_projector", off_shell)
    assert not workloads.is_refusal("dirac_u", off_shell)
    assert not workloads.is_refusal("energy_projector", ValueError("sign must be +1 or -1"))
    assert not workloads.is_refusal("polsum.spinor", ZeroDivisionError("momentum is off shell"))


def test_an_unexpected_value_error_is_a_wrong_result(monkeypatch):
    k = bispinor.KinematicPoint(1.0, 2.0, (0.0, 0.0, 1.0))

    def refuse(*args):
        raise ValueError("momentum is off shell: |p.p - m^2| = 1.0e-06")

    monkeypatch.setattr(bispinor.projectors, "dirac_u", refuse)
    done = workloads.stream_pass([("dirac_u", "dirac_u", (k, 0.5, 0.5))],
                                 allow_refusals=True)[0]
    assert done.refused == []
    assert len(done.problems) == 1 and "raised ValueError" in done.problems[0]


def test_a_refusal_outside_the_guard_probe_is_a_wrong_result(monkeypatch):
    k = bispinor.KinematicPoint(1.0, 2.0, (0.0, 0.0, 1.0))

    def refuse(*args):
        raise ValueError("momentum is off shell: |p.p - m^2| = 1.0e-06")

    monkeypatch.setattr(bispinor.projectors, "polsum", refuse)
    call = [("polsum.spinor", "polsum", ("spinor", k))]
    assert workloads.stream_pass(call, allow_refusals=True)[0].refused == [(0, "polsum.spinor")]
    done = workloads.stream_pass(call)[0]
    assert done.refused == []
    assert len(done.problems) == 1 and "raised ValueError" in done.problems[0]


def test_more_refusals_than_recorded_are_violations(monkeypatch):
    ctx = workloads.Context(ROOT, 2, 0.01, {})
    out = workloads.constructors(ctx)
    assert (out.violations, out.failed) == (0, 0) and out.attempted > 0
    assert out.lines[0][:2] == ("guard_refused_calls", 60)
    monkeypatch.setattr(workloads, "recorded_refusals", lambda seed: 10)
    out = workloads.constructors(ctx)
    assert out.violations == 1 and "more than the 10 recorded" in out.examples[0]


def test_recorded_refusals_cover_the_baseline_seeds():
    assert [workloads.recorded_refusals(s) for s in (1, 2, 3)] == [130, 60, 85]
    assert workloads.recorded_refusals(-1) is None


def test_wrappers_are_gone_after_a_traced_run():
    tracer = tracing.Tracer()
    k = bispinor.KinematicPoint(1.0, 2.0, (0.0, 0.0, 1.0))
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer) as inst:
            patched = inst.patched
            assert bispinor.verify.polsum is not bispinor.projectors.polsum
            bispinor.verify.run_all(seed=1, samples=1)
            bispinor.projectors.polsum("spinor", k)
            raise RuntimeError("leave the block by an exception")
    assert len(tracer) > 0 and len(patched) > 20
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    assert bispinor.verify.polsum is bispinor.projectors.polsum
    assert bispinor.projectors.dirac_u is bispinor.spinors.dirac_u
    assert bispinor.verify.KinematicPoint is bispinor.spinors.KinematicPoint
    assert bispinor.spinors.pauli_dot is bispinor.clifford.pauli_dot
    assert bispinor.verify.registry()[0].lhs.__module__ == "bispinor.verify"


def test_self_times_add_up_to_the_top_level_spans():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        bispinor.verify.run_all(seed=2, samples=3)
    a = tracer.arrays()
    top = a["parent"] < 0
    own = tracing.self_times(a)
    assert np.all(own >= 0)
    assert own.sum() == pytest.approx((a["t1"] - a["t0"])[top].sum())


def test_tail_rule():
    assert workloads.tail(range(1000)) == ("p99", pytest.approx(989.01))
    assert workloads.tail(range(1, 41)) == ("p75.0", 30)
    assert workloads.tail([3, 1, 2]) == ("max of 3", 3)


def test_calibration_scales_each_time_by_the_kernel_times_around_it():
    ref = calibration.REFERENCE_NS
    assert calibration.between([10, 20], [1, 2, 4]) == [10 * ref / 1.5, 20 * ref / 3]


def _lines(stdout: str) -> dict:
    """name -> unit of every 'name value unit ...' line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] != "env":
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_every_metric_is_printed_with_its_unit(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = _lines(proc.stdout)
    for name in NAMED[workload]:
        assert printed.get(name), f"{name} not printed with a unit"
    assert result["failed"] == 0
    if workload == "constructors":
        assert printed["guard_refused_calls"] == "count"


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == units
    value = {k: v["value"] for k, v in metrics.items()}
    layers = sum(value[f"{layer}.self_us_per_sample"]
                 for layer in ("verify", "clifford", "spinors", "projectors", "bench"))
    assert layers == pytest.approx(value["trace.wall_us_per_sample"], rel=1e-9)
    measured = [name for name in value
                if not workloads.not_exercised(workload, name)
                and not name.endswith("failed_calls") and name != "trace.overhead_ratio"]
    assert [name for name in measured if not value[name] > 0] == []
    assert "not exercised" not in "".join(
        line for line in proc.stdout.splitlines() if line.split()[0] in measured)


def test_not_exercised_metrics_are_only_the_other_workloads_own():
    names = [m["name"] for m in SPEC["per_layer"]]
    absent = {w: {n for n in names if workloads.not_exercised(w, n)} for w in NAMED}
    assert "verify.check.completeness.us_per_sample" in absent["constructors"]
    assert "verify.registry_ms" not in absent["constructors"]
    assert "projectors.diad.us_per_call" in absent["verify-registry"]
    assert not any(n.startswith("verify.check.") or n in workloads.VERIFY_LOOP_METRICS
                   for n in absent["verify-registry"] | absent["cli-cold"])
    assert not any(n.endswith(".us_per_call") for n in absent["constructors"])


def test_refuses_to_run_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("constructors", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
