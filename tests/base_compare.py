"""One rule compares a change with its base commit: `python tests/base_compare.py BASE HEAD`.

BASE and HEAD are two source trees. One child interpreter per tree, under `python -W error`
with `PYTHONPATH=<tree>/src`, collects every output in-process: `TOOL_VERSION`, the report
grid (seeds 0, 7, 42 x samples 1, 100, 1000, json and text), twelve `bispinor show` outputs
(the README's examples, each polsum kind and each projector kind) and the projector arrays;
each `cli.main` call must return 0. Unless HEAD bumps `TOOL_VERSION`, every output keeps its
bytes. After a bump, each JSON report keeps its header (but the version) and each base row
its name, order and status, rows matched by name, so added rows are listed; each show keeps
its bytes; the arrays keep their count, dtypes and shapes. Exits 0, or names what changed.
"""
import contextlib
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

GRID = list(itertools.product((0, 7, 42), (1, 100, 1000)))
SHOWS = ["basis --tau 1 --p0 1 --m 1", "breve --p0 0 --m 1 --lp 0.5 --lm 0.5",
         "projector --kind spin --sz 1", "projector --kind pi --p0 0.5 --m 1 --sz 1",
         "polsum --kind spinor --p0 1.25 --m 1 --nz 1",
         "polsum --kind antispinor --p0 2 --m 1 --nx 1",
         "polsum --kind breve-plus --p0 0.3 --m 1 --ny 1",
         "polsum --kind breve-minus --p0 -0.3 --m 2 --nz 1",
         "polsum --kind completeness --p0 3 --m 1 --nz 1",
         "projector --kind energy-plus --p0 2 --m 1 --nz 1",
         "projector --kind energy-minus --p0 2 --m 1 --nx 1",
         "projector --kind pi-neg --p0 2 --m 1 --nz 1 --sx 1"]


def projector_arrays():
    """The report grid's samplers fix m = 1, so it cannot see how the projectors scale with the
    mass: momentum, each polsum kind on its band, energy_projector (+-1), spin_projector (s and
    -s) and pi_projector (both variants) at seeded single points and one batch per band with m
    log-uniform in [1e-3, 1e3], at one momentum over a batch of masses, and at one batch per
    band with m log-uniform in [1e-300, 1e150], in that order."""
    from bispinor.projectors import energy_projector, pi_projector, polsum, spin_projector
    from bispinor.spinors import KinematicPoint
    rng = np.random.default_rng(28)
    arrays = []

    def units(n):
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1)[:, None]

    def projectors(p, m, s):
        arrays.extend(energy_projector(p, m, sign) for sign in (+1, -1))
        arrays.extend(spin_projector(sign * s) for sign in (+1, -1))
        arrays.extend(pi_projector(p, m, s, variant) for variant in ("lambda", "neg-lambda"))

    # |p0|/m log-uniform in [1, 10] on the real band, uniform in [0, 1] on the breve band,
    # m log-uniform in [low, high]: 100 points per band, each alone if singles, then one batch
    def bands(low, high, singles):
        ratios = {("spinor", "antispinor", "completeness"): np.exp(rng.uniform(0.0, np.log(10.0), 100)),
                  ("breve-plus", "breve-minus", "completeness"): rng.uniform(0.0, 1.0, 100)}
        for kinds, ratio in ratios.items():
            m = np.exp(rng.uniform(np.log(low), np.log(high), 100))
            p0, nhat = m * ratio * rng.choice([-1.0, 1.0], 100), units(100)
            s = np.concatenate([np.zeros((100, 1)), units(100)], axis=1)
            points = [(KinematicPoint(*point), s_i) for *point, s_i in zip(m, p0, nhat, s)]
            for k, s_k in [*(points if singles else []), (KinematicPoint(m, p0, nhat), s)]:
                p = k.momentum()
                arrays.append(p)
                arrays.extend(side for kind in kinds for side in polsum(kind, k))
                projectors(p, k.m, s_k)
    bands(1e-3, 1e3, singles=True)
    # one momentum over a batch of masses, each on its shell to within 1e-10
    k = KinematicPoint(0.37, 1.3, units(1)[0])
    projectors(k.momentum(), k.m * np.array([1.0, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40]),
               np.array([0.0, *units(1)[0]]))
    # one batch per band at extreme masses, drawn last so the arrays above keep their draws
    bands(1e-300, 1e150, singles=False)
    return arrays


def outputs():
    """Every output of the bispinor this interpreter imports, collected in-process."""
    from bispinor import cli
    from bispinor.verify import TOOL_VERSION

    def run(*args):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(list(args))
        if code != 0:
            raise SystemExit(f"bispinor {' '.join(args)} returned {code}")
        return out.getvalue().encode()
    reports = {fmt: {f"seed {seed}, samples {samples}":
                     run("verify", "--seed", str(seed), "--samples", str(samples), "--format", fmt)
                     for seed, samples in GRID} for fmt in ("json", "text")}
    return {"version": TOOL_VERSION, **reports,
            "show": {args: run("show", *args.split()) for args in SHOWS},
            "arrays": projector_arrays()}


def collect(src):
    """outputs() of the bispinor under src, from one child in which every warning is an error."""
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import base_compare, pickle, sys; sys.stdout.buffer.write(pickle.dumps(base_compare.outputs()))"],
        stdout=subprocess.PIPE, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)])))
    return pickle.loads(child.stdout)


def compare(base, head):
    """The one rule: head keeps base's outputs, or after a TOOL_VERSION bump what a bump keeps of
    them. Returns the verdict lines and the labels of the outputs that changed."""
    bumped = base["version"] != head["version"]
    lines = [f"TOOL_VERSION {base['version']} -> {head['version']}: each output keeps "
             + ("what a bump keeps" if bumped else "its bytes")]
    failures = []

    def verdict(label, old, new, bump_keeps=lambda output: output):
        keep = bump_keeps if bumped else lambda output: output
        said = "byte-identical" if old == new else "kept" if keep(old) == keep(new) else "CHANGED"
        lines.append(f"{label}: {said}")
        failures.extend([label] if said == "CHANGED" else [])

    def rows_kept(report, names):
        """What a bump keeps of a JSON report: its header but the version, and the name and
        status of each row named in names, in order; so an added row is let through."""
        header = {key: value for key, value in json.loads(report).items() if key != "version"}
        return header, [(row["name"], row["status"]) for row in header.pop("checks") if row["name"] in names]
    for label, report in base["json"].items():
        other = head["json"][label]
        old, new = ({row["name"]: row for row in json.loads(r)["checks"]} for r in (report, other))
        verdict(f"json, {label}", report, other, lambda r: rows_kept(r, old))
        if report != other:
            added, dropped = [n for n in new if n not in old], [n for n in old if n not in new]
            lines.append(f"  rows added {added}, dropped {dropped}, with other values"
                         f" {[name for name, row in new.items() if old.get(name, row) != row]}")
    if not bumped:  # a bump changes the values a text report prints
        for label, report in base["text"].items():
            verdict(f"text, {label}", report, head["text"][label])
    for args, output in base["show"].items():
        verdict(f"show {args}", output, head["show"][args])
    verdict(f"{len(base['arrays'])} projector arrays",
            *([(a.dtype, a.shape, a.tobytes()) for a in arrays] for arrays in (base["arrays"], head["arrays"])),
            lambda keys: [key[:2] for key in keys])
    for i, (b, h) in enumerate(zip(base["arrays"], head["arrays"])):
        if (b.dtype, b.shape) != (h.dtype, h.shape):
            lines.append(f"  array {i}: {b.dtype} {b.shape} -> {h.dtype} {h.shape}")
        elif b.tobytes() != h.tobytes():
            with np.errstate(all="ignore"):
                change = np.max(np.abs(h - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny)
            lines.append(f"  array {i} {h.dtype} {h.shape}: max relative change {change:.3e}")
    return lines, failures


def main(argv):
    if len(argv) != 2:
        return "usage: python tests/base_compare.py BASE_TREE HEAD_TREE"
    lines, failures = compare(*(collect(Path(tree) / "src") for tree in argv))
    print("\n".join(lines))
    return f"changed: {'; '.join(failures)}" if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
