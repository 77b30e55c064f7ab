"""Span tracing around the calls into each layer of bispinor.

The benchmark never edits the program to trace it.  Instead ``install``
replaces, for the duration of a traced run, the public functions that the
consuming modules ``bispinor.verify``, ``bispinor.projectors`` and
``bispinor.spinors`` have bound from other layers with span-recording
wrappers, plus a few functions the layers call on themselves
(see ``SELF_BOUND``) and ``KinematicPoint.momentum``.  Each
registry row's ``lhs``/``rhs`` builders are wrapped through
``dataclasses.replace`` on the checks that ``registry()`` returns.
``uninstall`` puts every original object back.

Spans live in flat integer arrays while the run lasts and are written out
once at the end.  A span's self time is its duration minus the durations of
its direct children, so the self times of all spans add up to the total
duration of the top-level spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from array import array

import numpy as np

CONSUMERS = ("bispinor.verify", "bispinor.projectors", "bispinor.spinors")

# Public functions of a consuming module's own layer that the per-layer
# metrics name: called by the module itself (energy_projector from polsum,
# run_check and registry from run_all) or by the benchmark through it.
SELF_BOUND = {
    "bispinor.projectors": ("polsum", "energy_projector", "spin_projector",
                            "pi_projector", "diad"),
    "bispinor.verify": ("run_all", "run_check", "registry"),
}


class Tracer:
    """In-memory span recorder.

    Each span stores a name id, a tag id (-1 for none), its parent span
    index (-1 for a top-level span), start and end in nanoseconds, and
    whether the call ended in an exception.
    """

    def __init__(self):
        self.strings: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.tag = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.error = array("b")
        self._stack = [-1]

    def intern(self, s: str) -> int:
        sid = self._ids.get(s)
        if sid is None:
            sid = self._ids[s] = len(self.strings)
            self.strings.append(s)
        return sid

    def wrap(self, fn, name: str, tag_of=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``tag_of(args)`` may name a sub-case of the call (a polsum kind, a
        registry row); it is evaluated per call.
        """
        nid = self.intern(name)
        names, tags, parents = self.name, self.tag, self.parent
        t0s, t1s, errors, stack = self.t0, self.t1, self.error, self._stack
        intern = self.intern
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(t0s)
            names.append(nid)
            tags.append(-1 if tag_of is None else intern(tag_of(args)))
            parents.append(stack[-1])
            t1s.append(0)
            errors.append(0)
            stack.append(idx)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                t1s[idx] = clock()
                stack.pop()

        # updated=() keeps a wrapped class's attributes out of the function
        return functools.update_wrapper(span, fn, updated=())

    def __len__(self) -> int:
        return len(self.t0)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "tag": np.frombuffer(self.tag, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "t0": np.frombuffer(self.t0, dtype=np.int64),
            "t1": np.frombuffer(self.t1, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, strings=np.array(self.strings), **self.arrays())


def _layer_of(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _wrappable(obj, home: str) -> bool:
    """A bispinor callable bound from another module; exceptions excluded."""
    module = getattr(obj, "__module__", "") or ""
    if not callable(obj) or not module.startswith("bispinor.") or module == home:
        return False
    return not (isinstance(obj, type) and issubclass(obj, BaseException))


def _tag_polsum(args):
    return args[0]


def _tag_check(args):
    return args[0].name


class Installation:
    """Wrappers installed into the bispinor modules; ``uninstall`` undoes them.

    ``points`` collects ``(row name, sample point)`` for every call of a
    registry row's lhs, so the benchmark can count distinct points.
    """

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.points: list = []
        self._saved: list = []  # (owner, attribute, original)
        for home in CONSUMERS:
            module = modules[home]
            for attr, obj in sorted(vars(module).items()):
                if _wrappable(obj, home) or attr in SELF_BOUND.get(home, ()):
                    self._patch(module, attr, self._span_for(attr, obj))
        kp = modules["bispinor.spinors"].KinematicPoint
        self._patch(kp, "momentum", tracer.wrap(kp.momentum, "spinors.momentum"))

    def _span_for(self, attr, obj):
        name = f"{_layer_of(obj)}.{attr}"
        if attr == "polsum":
            return self.tracer.wrap(obj, name, _tag_polsum)
        if attr == "run_check":
            return self.tracer.wrap(obj, name, _tag_check)
        if attr == "registry":
            return self.tracer.wrap(self._traced_registry(obj), name)
        return self.tracer.wrap(obj, name)

    def _traced_registry(self, registry):
        tracer, points = self.tracer, self.points

        def record(name, lhs):
            def first_side(pt):
                points.append((name, pt))
                return lhs(pt)
            return first_side

        def traced_registry(*args, **kwargs):
            checks = registry(*args, **kwargs)
            return [
                dataclasses.replace(
                    c,
                    lhs=tracer.wrap(record(c.name, c.lhs), "verify.lhs", lambda a, n=c.name: n),
                    rhs=tracer.wrap(c.rhs, "verify.rhs", lambda a, n=c.name: n),
                )
                for c in checks
            ]

        return traced_registry

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @property
    def patched(self) -> list:
        """(owner, attribute, original) for every replaced attribute."""
        return list(self._saved)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers for the body of a ``with`` block."""
    import bispinor  # noqa: F401  (loads every submodule)

    inst = Installation(tracer, {name: sys.modules[name] for name in CONSUMERS})
    try:
        yield inst
    finally:
        inst.uninstall()


def self_times(arrays: dict) -> np.ndarray:
    """Per-span self time in ns: duration minus the direct children's."""
    dur = arrays["t1"] - arrays["t0"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def layer_metrics(tracer: Tracer, wall_ns: int, units: int, ops: int,
                  check_samples: int) -> dict:
    """Per-layer metrics derived from the recorded spans.

    ``wall_ns`` is the benchmark's own wall time around the traced
    operations, ``units`` the work units (samples) they covered, ``ops`` the
    number of operations and ``check_samples`` the samples each registry
    row evaluated over all operations (0 when no report was run).
    """
    a = tracer.arrays()
    strings = tracer.strings
    layers = sorted({s.split(".", 1)[0] for s in strings})
    layer_of = np.array([layers.index(s.split(".", 1)[0]) for s in strings] or [0])
    dur = (a["t1"] - a["t0"]).astype(float)
    own = self_times(a)
    layer = layer_of[a["name"]]
    top = a["parent"] < 0
    parent_layer = np.where(top, -1, layer_of[a["name"][np.maximum(a["parent"], 0)]])
    entered = top | (parent_layer != layer)

    def ids(name):
        return a["name"] == (strings.index(name) if name in strings else -1)

    per_us = 1e-3 / units
    out = {
        "trace.wall_us_per_sample": wall_ns * per_us,
        "bench.self_us_per_sample": (wall_ns - dur[top].sum()) * per_us,
    }
    for name in ("clifford", "spinors", "projectors", "verify"):
        mask = layer == (layers.index(name) if name in layers else -1)
        out[f"{name}.self_us_per_sample"] = own[mask].sum() * per_us
        out[f"{name}.calls_per_sample"] = mask.sum() / units
        out[f"{name}.failed_calls"] = (mask & entered & (a["error"] == 1)).sum() / ops
    count = np.bincount(a["name"], minlength=len(strings))
    total = np.bincount(a["name"], weights=dur, minlength=len(strings))
    for sid, name in enumerate(strings):
        if count[sid] and "." in name:
            out[f"{name}.us_per_call"] = total[sid] / count[sid] * 1e-3
    polsum = ids("projectors.polsum")
    for kind in {strings[t] for t in a["tag"][polsum]}:
        mask = polsum & (a["tag"] == strings.index(kind))
        out[f"projectors.polsum.{kind}.us_per_call"] = dur[mask].mean() * 1e-3
    sides = ids("verify.lhs") | ids("verify.rhs")
    run_check = ids("verify.run_check")
    out["verify.eval_us_per_sample"] = dur[sides].sum() * per_us
    out["verify.run_check_self_us_per_sample"] = own[run_check].sum() * per_us
    out["verify.evals"] = sides.sum() / ops
    for t in set(a["tag"][run_check].tolist()):
        mask = run_check & (a["tag"] == t)
        out[f"verify.check.{strings[t]}.us_per_sample"] = dur[mask].sum() * 1e-3 / check_samples
    return out
