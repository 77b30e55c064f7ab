"""The benchmark's workloads, their seeded inputs and correctness gates.

Every workload is a single-threaded closed loop: the next operation starts
when the previous one has returned.

* ``verify-registry``: full registry runs, ``run_all(seed, samples=1000)``
  followed by ``to_json()``.  One operation is one report.  This is where
  the per-sample loop of ``verify``, its samplers, the re-evaluation of
  fixed rows and the per-sample constructor calls spend their time.
* ``constructors``: a seeded stream of single-point public calls, the way
  ``show`` and library callers use ``spinors`` and ``projectors``.  One
  operation is one call, and the stream is replayed in whole passes.  The
  timed domain is m log-uniform in [1e-3, 1e3], p0/m log-uniform in
  [1, 1e2] on the real band and uniform in [-1, 1] on the breve band; every
  call must succeed there.  The real band stops at p0/m = 1e2 because the
  scale-blind on-shell guard in ``projectors`` refuses valid points from
  about p0/m = 5e2 on.  That defect is not hidden: every run also makes one
  untimed pass over the same stream with p0/m up to 1e3 (the guard probe),
  prints how many calls the guard refused and flags a pass that refuses
  more calls than ``refusals.json`` records for the seed.  Only that
  guard's error counts as a refusal in the probe; anything else is a wrong
  result.
* ``cli-cold``: sequential fresh processes of
  ``python -m bispinor verify --samples 10 --format json``.  One operation
  is one process; only interpreter start, imports, ``registry()``,
  argument parsing, a small run and serialization show up here.

Each workload has an untraced form, which gives the end-to-end metrics,
and a traced form, which gives the per-layer metrics from spans.  The
untraced timings are calibrated against the machine's current speed (see
``calibration.py``); the raw medians are printed beside them.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import tracing

VERIFY_SAMPLES = 1000
CLI_SAMPLES = 10
STREAM_POINTS = 2000  # alternating real-band and breve-band points
REAL_RATIO_MAX = 1e2  # largest p0/m of the timed stream's real band
PROBE_RATIO_MAX = 1e3  # largest p0/m of the guard probe's real band
# Calls that take a momentum or a kinematic point, which the scale-blind
# on-shell guard may refuse, and the message of its refusal.
REFUSING_CALLS = ("polsum.", "energy_projector", "pi_projector")
REFUSAL_MESSAGE = "momentum is off shell"
REFUSALS_FILE = Path(__file__).resolve().parent / "refusals.json"
SERIALIZATION_REPEATS = 15
POLSUM_REL_TOL = 1e-10
CHECKED_POLSUM = ("spinor", "antispinor", "completeness")
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
CHILD_TIMEOUT_S = 60
# share of --seconds spent on untraced reference operations in a traced run
TRACE_REFERENCE_SHARE = 0.25

clock = time.perf_counter_ns


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    child_env: dict


@dataclass
class Outcome:
    """What one run measured: operations, failures and metrics.

    A violation is a correctness failure (a wrong result, a report with a
    wrong status, a crash); it counts as a failed operation, and any one of
    them makes the run incorrect.
    """

    size: dict
    attempted: int = 0
    violations: int = 0
    examples: list = field(default_factory=list)  # the first few violations
    metrics: dict = field(default_factory=dict)
    # (name, value, unit, how it was measured) in the names of the workload
    lines: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.violations

    def flag(self, problem: str) -> None:
        self.violations += 1
        if len(self.examples) < 20:
            self.examples.append(problem)

    def record(self, problems) -> None:
        """Count one operation whose correctness problems are ``problems``."""
        self.attempted += 1
        if problems:
            self.violations += 1
            self.examples.extend(problems[:20 - len(self.examples)])


def rounds(seconds: float, min_ops: int = 1):
    """Yield until ``seconds`` have passed and ``min_ops`` rounds were run."""
    start = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        yield done
        done += 1


def tail(values) -> tuple:
    """(label, value) of the tail latency.

    p99 when at least ten samples lie beyond it; otherwise the highest
    percentile with ten samples beyond it, as long as that is not below the
    median; with fewer than twenty samples, the maximum.
    """
    xs = sorted(values)
    n = len(xs)
    if n * 0.01 >= TAIL_BEYOND:
        return "p99", float(np.percentile(xs, 99))
    if n >= 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return f"p{100.0 * rank / n:.1f}", float(xs[rank - 1])
    return f"max of {n}", float(xs[-1])


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reports (verify-registry and cli-cold)
# ---------------------------------------------------------------------------

def expected_statuses(registry) -> dict:
    """Row name -> the status a correct report gives it."""
    return {c.name: ("pass" if c.expected_status == "holds" else "info") for c in registry}


def report_problems(text: str, expected: dict, seed: int, samples: int) -> list:
    """Correctness problems of one JSON report; empty when it is correct."""
    try:
        doc = json.loads(text)
        rows = {row["name"]: row for row in doc["checks"]}
        header = (doc["seed"], doc["samples"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    problems = []
    if header != (seed, samples):
        problems.append(f"report header (seed, samples) = {header}, expected {(seed, samples)}")
    if set(rows) != set(expected):
        problems.append(f"report rows differ from the registry: {sorted(set(rows) ^ set(expected))}")
    for name, want in expected.items():
        got = rows.get(name, {}).get("status", want)
        if got != want:
            problems.append(f"row {name}: status {got!r}, expected {want!r}")
    return problems


def holds_margin_max(report) -> float:
    """Largest max_residual / tolerance over the rows expected to hold."""
    return max(c.max_residual / c.tolerance for c in report.checks
               if c.expected_status == "holds")


def _plain(fn, name):
    return fn


def verify_registry(ctx: Context, tracer=None) -> Outcome:
    import bispinor.verify as verify

    expected = expected_statuses(verify.registry())
    units = len(expected) * VERIFY_SAMPLES
    out = Outcome(size={"samples_per_check": VERIFY_SAMPLES, "checks": len(expected),
                        "check_samples_per_report": units})
    first = []

    def op(span, sampler=contextlib.nullcontext()):
        with sampler:
            t0 = clock()
            report = verify.run_all(seed=ctx.seed, samples=VERIFY_SAMPLES)
            text = span(report.to_json, "verify.to_json")()
            wall = clock() - t0
        problems = report_problems(text, expected, ctx.seed, VERIFY_SAMPLES)
        if not first:
            first.append(text)
        elif text != first[0]:
            problems.append("two reports of the same seed differ in their JSON bytes")
        out.record(problems)
        return wall, report

    if tracer is None:
        # two reports at least, so that byte-identity is always checked
        walls = []
        for _ in rounds(ctx.seconds, min_ops=2):
            sampler = calibration.Sampler()
            wall = op(_plain, sampler)[0]
            walls.append((wall, sampler.calibrated(wall)))
        raw = statistics.median(w for w, _ in walls)
        p50 = statistics.median(c for _, c in walls)
        label, worst = tail([c for _, c in walls])
        out.metrics.update(op_ms_p50=p50 / 1e6, op_ms_tail=worst / 1e6,
                           work_per_s=units / (p50 / 1e9), peak_rss_mb=peak_rss_mb())
        n = f"{len(walls)} reports"
        out.lines += [
            ("check_samples_per_s", units / (p50 / 1e9), "1/s",
             f"{units} check-samples / median report time, {n}, calibrated"),
            ("report_ms_p50", p50 / 1e6, "ms", f"run_all + to_json, median of {n}, calibrated"),
            ("report_ms_tail", worst / 1e6, "ms", f"{label} of {n}, calibrated"),
            ("report_ms_p50_raw", raw / 1e6, "ms", f"median of {n}, not calibrated"),
        ]
        return out

    trace_reports(ctx, tracer, op, out, VERIFY_SAMPLES)
    return out


def trace_reports(ctx: Context, tracer, op, out: Outcome, samples: int) -> None:
    """Traced form of the report workloads.

    ``op(span)`` runs one report; the first share of the time runs it
    untraced as the reference for the tracing overhead.
    """
    reference = [op(_plain)[0] for _ in rounds(ctx.seconds * TRACE_REFERENCE_SHARE)]
    walls, margin, distinct, evaluated = [], 0.0, 0, 0
    with tracing.installed(tracer) as inst:
        for _ in rounds(ctx.seconds * (1 - TRACE_REFERENCE_SHARE)):
            wall, report = op(tracer.wrap)
            walls.append(wall)
            margin = max(margin, holds_margin_max(report))
            distinct += len({(name, json.dumps(pt, sort_keys=True)) for name, pt in inst.points})
            evaluated += len(inst.points)
            inst.points.clear()
    units = out.size["checks"] * samples * len(walls)
    out.metrics.update(tracing.layer_metrics(
        tracer, sum(walls), units, len(walls), samples * len(walls)))
    out.metrics.update({
        "verify.unique_point_ratio": distinct / evaluated,
        "verify.holds_margin_max": margin,
        "trace.overhead_ratio": statistics.median(walls) / statistics.median(reference) - 1,
    })


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamPoint:
    band: str  # "real" (|p0| >= m) or "breve" (|p0| <= m)
    m: float
    p0: float
    nhat: tuple
    lam_a: float
    lam_b: float
    sign: int
    insert: str
    variant: str


def constructor_stream(seed: int, ratio_max: float = REAL_RATIO_MAX) -> list:
    """The seeded input points of the constructors workload.

    ``ratio_max`` is the largest p0/m of the real band; the other draws do
    not depend on it.
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(STREAM_POINTS):
        band = "real" if i % 2 == 0 else "breve"
        m = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        if band == "real":
            ratio = math.exp(rng.uniform(0.0, math.log(ratio_max)))
        else:
            ratio = rng.uniform(-1.0, 1.0)
        v = rng.normal(size=3)
        nhat = tuple(float(x) for x in v / np.linalg.norm(v))
        lam_a, lam_b = (float(x) for x in rng.choice((0.5, -0.5), size=2))
        points.append(StreamPoint(
            band, m, m * ratio, nhat, lam_a, lam_b,
            int(rng.choice((1, -1))),
            str(rng.choice(("gamma0", "gamma5"))),
            str(rng.choice(("lambda", "neg-lambda")))))
    return points


API_NAMES = ("KinematicPoint", "slash", "dirac_u", "dirac_u_bar", "breve_u", "breve_u_bar",
             "polsum", "energy_projector", "spin_projector", "pi_projector", "diad")


def resolve_api() -> dict:
    """The public callables as ``bispinor.projectors`` binds them.

    Resolved anew for every pass, so a traced pass calls the span wrappers.
    """
    import bispinor.projectors as projectors
    import bispinor.spinors as spinors

    api = {name: getattr(projectors, name) for name in API_NAMES}
    api["momentum"] = spinors.KinematicPoint.momentum
    return api


def stream_calls(points, api) -> list:
    """(label, function name, args) for every call of one pass.

    The arguments that are themselves program objects (the kinematic point,
    the momentum, the bispinor) are built here once, before any timing.
    """
    calls = []
    for pt in points:
        k = api["KinematicPoint"](pt.m, pt.p0, pt.nhat)
        p = api["momentum"](k)
        s = np.array([0.0, *pt.nhat])
        col, row = ("dirac_u", "dirac_u_bar") if pt.band == "real" else ("breve_u", "breve_u_bar")
        kinds = (("spinor", "antispinor") if pt.band == "real" else ("breve-plus", "breve-minus"))
        u = api[col](k, pt.lam_a, pt.lam_b)
        calls += [
            ("KinematicPoint", "KinematicPoint", (pt.m, pt.p0, pt.nhat)),
            ("momentum", "momentum", (k,)),
            ("slash", "slash", (p,)),
            (col, col, (k, pt.lam_a, pt.lam_b)),
            (row, row, (k, pt.lam_a, pt.lam_b)),
            *((f"polsum.{kind}", "polsum", (kind, k)) for kind in (*kinds, "completeness")),
            ("energy_projector", "energy_projector", (p, pt.m, pt.sign)),
            ("spin_projector", "spin_projector", (s,)),
            ("pi_projector", "pi_projector", (p, pt.m, s, pt.variant)),
            ("diad", "diad", (u, pt.insert)),
        ]
    return calls


SHAPES = {
    "momentum": (4,), "dirac_u": (4,), "dirac_u_bar": (4,), "breve_u": (4,),
    "breve_u_bar": (4,), "slash": (4, 4), "energy_projector": (4, 4),
    "spin_projector": (4, 4), "pi_projector": (4, 4), "diad": (4, 4),
}


def call_problem(label: str, result):
    """None when a call's result is correct, else why it is not."""
    if isinstance(result, Exception):
        return f"{label} raised {result!r}"
    if label == "KinematicPoint":
        values = [result.m, result.p0, *result.nhat]
        return None if len(values) == 5 and np.all(np.isfinite(values)) else \
            f"KinematicPoint has non-finite or malformed fields {values}"
    if label.startswith("polsum."):
        if not (isinstance(result, tuple) and len(result) == 2):
            return f"{label} did not return an (lhs, rhs) pair"
        lhs, rhs = (np.asarray(x) for x in result)
        if lhs.shape != (4, 4) or rhs.shape != (4, 4):
            return f"{label} returned shapes {lhs.shape}, {rhs.shape}"
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            return f"{label} returned a non-finite value"
        if label.split(".", 1)[1] in CHECKED_POLSUM:
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
            residual = np.max(np.abs(lhs - rhs)) / scale
            if not residual <= POLSUM_REL_TOL:
                return f"{label} relative residual {residual:.3e} > {POLSUM_REL_TOL:g}"
        return None
    value = np.asarray(result)
    if value.shape != SHAPES[label]:
        return f"{label} returned shape {value.shape}, expected {SHAPES[label]}"
    if not np.all(np.isfinite(value)):
        return f"{label} returned a non-finite value"
    return None


def is_refusal(label: str, result) -> bool:
    """Whether a call's result is a refusal by the on-shell guard.

    Only the guard's ``momentum is off shell`` error from a call that takes
    a momentum or a kinematic point counts; any other exception is a wrong
    result.  Refusals are allowed in the guard probe only.
    """
    return (isinstance(result, ValueError) and label.startswith(REFUSING_CALLS)
            and str(result).startswith(REFUSAL_MESSAGE))


def recorded_refusals(seed: int):
    """Refused calls per pass recorded for ``seed``, or None if not recorded."""
    table = json.loads(REFUSALS_FILE.read_text())
    index = seed - table["first_seed"]
    counts = table["refused_per_pass"]
    return counts[index] if 0 <= index < len(counts) else None


@dataclass
class Pass:
    """One pass over the call stream.

    ``latencies`` and ``marks`` cover the calls that were not refused:
    the time inside the call without calibration ticks, and the number of
    calibration samples taken when it ended.
    """

    latencies: list
    marks: list
    refused: list  # (index, label) of every refused call, when refusals are allowed
    problems: list  # one line per wrong result
    wall: int


def stream_pass(calls, calibrate: bool = False, allow_refusals: bool = False) -> tuple:
    """Run every call once, closed loop; returns (Pass, Sampler).

    Each result is checked and dropped right after its call, outside the
    call's timing, as a caller would use it.  A refusal by the on-shell
    guard is a wrong result unless ``allow_refusals``.
    """
    api = resolve_api()
    sampler = calibration.Sampler()
    samples = sampler.samples
    latencies, marks, refused, problems = [], [], [], []
    with sampler if calibrate else contextlib.nullcontext():
        start = clock()
        for i, (label, fname, args) in enumerate(calls):
            fn = api[fname]
            ticks = sampler.spent_ns
            t0 = clock()
            try:
                result = fn(*args)
            except Exception as exc:
                result = exc
            latency = clock() - t0 - (sampler.spent_ns - ticks)
            if allow_refusals and is_refusal(label, result):
                refused.append((i, label))
                continue
            latencies.append(latency)
            marks.append(len(samples))
            problem = call_problem(label, result)
            if problem is not None:
                problems.append(f"call {i}: {problem}")
        wall = clock() - start
    return Pass(latencies, marks, refused, problems, wall), sampler


def guard_probe(seed: int, out: Outcome) -> tuple:
    """One untimed pass over the stream with p0/m up to ``PROBE_RATIO_MAX``.

    Returns the output line that counts the refused calls.  The probe's
    calls are not operations of the run; a wrong result, or more refusals
    than ``refusals.json`` records for the seed, is a violation.
    """
    calls = stream_calls(constructor_stream(seed, PROBE_RATIO_MAX), resolve_api())
    done = stream_pass(calls, allow_refusals=True)[0]
    for problem in done.problems:
        out.flag(f"guard probe {problem}")
    expected = recorded_refusals(seed)
    if expected is not None and len(done.refused) > expected:
        out.flag(f"{len(done.refused)} calls refused in a pass, more than the "
                 f"{expected} recorded for seed {seed}")
    by_label: dict = {}
    for _, name in done.refused:
        by_label[name] = by_label.get(name, 0) + 1
    breakdown = ", ".join(f"{k} {v}" for k, v in sorted(by_label.items()))
    recorded = "none recorded" if expected is None else f"{expected} recorded"
    return ("guard_refused_calls", len(done.refused), "count",
            f"of {len(calls)} calls in one untimed pass with p0/m up to {PROBE_RATIO_MAX:g} "
            f"({recorded}), not counted as operations; off-shell ValueError on valid "
            f"points: {breakdown or 'none'}")


def constructors(ctx: Context, tracer=None) -> Outcome:
    points = constructor_stream(ctx.seed)
    calls = stream_calls(points, resolve_api())
    out = Outcome(size={"points_per_pass": len(points), "calls_per_pass": len(calls),
                        "real_band_points": sum(p.band == "real" for p in points),
                        "real_band_ratio_max": REAL_RATIO_MAX})
    out.lines.append(guard_probe(ctx.seed, out))

    def run_pass(calibrate: bool = False):
        done, sampler = stream_pass(calls, calibrate)
        out.attempted += len(calls)
        for problem in done.problems:
            out.flag(problem)
        return done, sampler

    if tracer is None:
        busy, p50s, tails = [], [], []
        for _ in rounds(ctx.seconds):
            done, sampler = run_pass(calibrate=True)
            calibrated = sampler.around(done.latencies, done.marks)
            label, worst = tail(calibrated)
            busy.append(calibrated.sum())
            p50s.append((statistics.median(done.latencies), float(np.median(calibrated))))
            tails.append(worst)
        served = len(done.latencies)
        raw = statistics.median(r for r, _ in p50s)
        p50 = statistics.median(c for _, c in p50s)
        worst = statistics.median(tails)
        rate = served / (statistics.median(busy) / 1e9)
        out.metrics.update(op_ms_p50=p50 / 1e6, op_ms_tail=worst / 1e6, work_per_s=rate,
                           peak_rss_mb=peak_rss_mb())
        n = f"median over {len(busy)} passes of {served} calls"
        out.lines += [
            ("call_us_p50", p50 / 1e3, "us", f"{n}, calibrated"),
            ("call_us_p99", worst / 1e3, "us", f"{label}, {n}, calibrated"),
            ("calls_per_s", rate, "1/s", f"calls / time inside calls, {n}, calibrated"),
            ("call_us_p50_raw", raw / 1e3, "us", f"{n}, not calibrated"),
        ]
        return out

    reference = [sum(run_pass()[0].latencies)
                 for _ in rounds(ctx.seconds * TRACE_REFERENCE_SHARE)]
    walls, busy = [], []
    with tracing.installed(tracer):
        for _ in rounds(ctx.seconds * (1 - TRACE_REFERENCE_SHARE)):
            done = run_pass()[0]
            walls.append(done.wall)
            busy.append(sum(done.latencies))
    out.metrics.update(tracing.layer_metrics(
        tracer, sum(walls), len(points) * len(walls), len(walls), 0))
    out.metrics["trace.overhead_ratio"] = \
        statistics.median(busy) / statistics.median(reference) - 1
    return out


# ---------------------------------------------------------------------------
# cli-cold and the fresh-interpreter probes
# ---------------------------------------------------------------------------

def run_child(ctx: Context, argv) -> tuple:
    """Run ``python <argv>`` in the checkout; (wall_s, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ctx.root, env=ctx.child_env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def child_times(ctx: Context, code: str, n: int, inner: bool = False) -> tuple:
    """Times of ``n`` fresh interpreters running ``code``: (raw, calibrated).

    The raw time is the child's wall time, or with ``inner`` the time the
    child prints itself.
    """
    times, speeds = [], [calibration.speed()]
    for _ in range(n):
        wall, proc = run_child(ctx, ["-c", code])
        speeds.append(calibration.speed())
        if proc.returncode != 0:
            raise RuntimeError(f"probe {code!r} failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout) if inner else wall)
    return times, calibration.between(times, speeds)


SETUP_CODE = "import bispinor; bispinor.registry()"
IMPORT_CODE = ("import time; t = time.perf_counter(); import bispinor; "
               "print(time.perf_counter() - t)")


def cli_seeds(seed: int):
    """The seeded sequence of ``verify --seed`` values of the cli-cold workload."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2 ** 31 - 1))


def cli_cold(ctx: Context, tracer=None) -> Outcome:
    import bispinor.verify as verify

    expected = expected_statuses(verify.registry())
    seeds = cli_seeds(ctx.seed)
    out = Outcome(size={"samples_per_check": CLI_SAMPLES, "checks": len(expected)})

    if tracer is None:
        walls, speeds = [], [calibration.speed()]
        for seed, _ in zip(seeds, rounds(ctx.seconds)):
            argv = ["-m", "bispinor", "verify", "--samples", str(CLI_SAMPLES),
                    "--format", "json", "--seed", str(seed)]
            try:
                wall, proc = run_child(ctx, argv)
            except subprocess.TimeoutExpired:
                out.record([f"verify --seed {seed} ran longer than {CHILD_TIMEOUT_S} s"])
                continue
            walls.append(wall)
            speeds.append(calibration.speed())
            if proc.returncode != 0:
                out.record([f"verify --seed {seed} exited {proc.returncode}: {proc.stderr.strip()}"])
            else:
                out.record(report_problems(proc.stdout, expected, seed, CLI_SAMPLES))
        calibrated = calibration.between(walls, speeds)
        p50 = statistics.median(calibrated)
        label, worst = tail(calibrated)
        out.metrics.update(op_ms_p50=p50 * 1e3, op_ms_tail=worst * 1e3, work_per_s=1 / p50,
                           peak_rss_mb=peak_rss_mb(children=True))
        n = f"{len(walls)} processes"
        out.lines += [
            ("cold_start_s", p50, "s", f"median of {n}, calibrated"),
            ("cold_start_s_tail", worst, "s", f"{label} of {n}, calibrated"),
            ("cold_start_s_raw", statistics.median(walls), "s", f"median of {n}, not calibrated"),
        ]
        return out

    # Traced: the same verify work in this process, since spans cannot be
    # recorded inside the child interpreters.
    def op(span):
        seed = next(seeds)
        t0 = clock()
        report = verify.run_all(seed=seed, samples=CLI_SAMPLES)
        text = span(report.to_json, "verify.to_json")()
        wall = clock() - t0
        out.record(report_problems(text, expected, seed, CLI_SAMPLES))
        return wall, report

    trace_reports(ctx, tracer, op, out, CLI_SAMPLES)
    return out


def serialization_probe(seed: int) -> dict:
    """Median in-process times of registry(), to_json() and to_text()."""
    import bispinor.verify as verify

    report = verify.run_all(seed=seed, samples=CLI_SAMPLES)

    def median_ms(fn):
        times = []
        for _ in range(SERIALIZATION_REPEATS):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return statistics.median(times) / 1e6

    return {
        "verify.registry_ms": median_ms(verify.registry),
        "verify.to_json_ms": median_ms(report.to_json),
        "verify.to_text_ms": median_ms(report.to_text),
    }


# Per-layer metrics of the report workloads' verify loop, which the
# constructors workload does not run.
VERIFY_LOOP_METRICS = ("verify.eval_us_per_sample", "verify.run_check_self_us_per_sample",
                       "verify.self_us_per_sample", "verify.evals",
                       "verify.unique_point_ratio", "verify.holds_margin_max")


def not_exercised(workload: str, name: str) -> bool:
    """Whether a per-layer metric is absent from a workload by design.

    The constructors workload runs no registry rows; the report workloads
    time single calls only as part of the verify loop, so their per-call
    figures belong to the constructors workload.
    """
    if workload == "constructors":
        return name in VERIFY_LOOP_METRICS or name.startswith("verify.check.")
    return name.endswith(".us_per_call")


WORKLOADS = {
    "verify-registry": verify_registry,
    "constructors": constructors,
    "cli-cold": cli_cold,
}
