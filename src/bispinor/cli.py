"""Command-line front end: run the verification suite or print objects.

Exit codes: 0 success, 1 at least one expected-holds check failed,
2 usage or configuration error, including any input the library rejects.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .clifford import check_choice
from .projectors import POLSUM_KINDS, energy_projector, pi_projector, polsum, spin_projector
from .spinors import KinematicPoint, _spatial, breve_u, tetrad_bispinor
from .verify import ConfigurationError, run_all

_PROJECTOR_KINDS = ("spin", "energy-plus", "energy-minus", "pi", "pi-neg")


def _fmt(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _print_vector(v) -> None:
    print("(" + ", ".join(_fmt(complex(z)) for z in v) + ")")


def _print_matrix(m) -> None:
    for row in np.asarray(m):
        print("  [" + ", ".join(_fmt(complex(z)) for z in row) + "]")


def _direction(args, prefix: str):
    """Collect --<prefix>x/y/z into a unit 3-vector; None if all unset."""
    comps = [getattr(args, prefix + axis) for axis in ("x", "y", "z")]
    if all(c is None for c in comps):
        return None
    v = [0.0 if c is None else float(c) for c in comps]
    if not (all(map(math.isfinite, v)) and any(v)):
        raise ValueError(f"--{prefix}x/--{prefix}y/--{prefix}z must be finite, not all zero: {v}")
    v = np.array(v) / max(map(abs, v))  # largest component 1: math.hypot cannot overflow
    return v / math.hypot(*v)


def _spin_vector(args) -> np.ndarray:
    svec = _direction(args, "s")
    if svec is None:
        raise ValueError(f"show {args.object} --kind {args.kind} requires --sx/--sy/--sz")
    return _spatial(svec)


def _require(args, *keys) -> None:
    missing = [f"--{k}" for k in keys if getattr(args, k, None) is None]
    if missing:
        raise ValueError(f"show {args.object} requires: " + ", ".join(missing))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bispinor",
        description="Dirac spinor/bispinor bases, spin projectors, and a "
                    "seeded verification suite for their algebraic identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run the identity registry and report residuals")
    ver.add_argument("--seed", type=int, default=42, help="sampling seed (default 42)")
    ver.add_argument("--samples", type=int, default=100,
                     help="samples per sampled check; label and fixed checks evaluate "
                          "every label tuple once (default 100)")
    ver.add_argument("--tolerance", type=float, default=None,
                     help="override every check's tolerance (default: per-check values)")
    ver.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format (default text)")
    ver.add_argument("--output", default=None, help="write the report to this path")

    show = sub.add_parser("show", help="print one object for inspection")
    show.add_argument("object", choices=("basis", "breve", "projector", "polsum"))
    show.add_argument("--tau", type=int, help="tetrad index 1..4 (basis)")
    show.add_argument("--p0", type=float, help="energy parameter")
    show.add_argument("--m", type=float, help="mass")
    for axis in ("x", "y", "z"):
        show.add_argument(f"--n{axis}", type=float, default=None,
                          help=f"spin-axis {axis} component (direction is normalized)")
        show.add_argument(f"--s{axis}", type=float, default=None,
                          help=f"spin-vector {axis} component (direction is normalized)")
    show.add_argument("--lp", type=float, default=0.5,
                      help="upper helicity label for breve (+0.5/-0.5)")
    show.add_argument("--lm", type=float, default=0.5,
                      help="lower helicity label for breve (+0.5/-0.5)")
    show.add_argument("--kind", help="projector kind %s or polsum kind %s"
                      % (_PROJECTOR_KINDS, POLSUM_KINDS))
    return parser


def _kinematic_point(args) -> KinematicPoint:
    _require(args, "p0", "m")
    nhat = _direction(args, "n")
    return KinematicPoint(args.m, args.p0, (0.0, 0.0, 1.0) if nhat is None else tuple(nhat))


def cmd_verify(args) -> int:
    report = run_all(seed=args.seed, samples=args.samples, tolerance_override=args.tolerance)
    payload = report.to_json() if args.format == "json" else report.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 1 if report.failed else 0


def cmd_show(args) -> int:
    if args.object == "basis":
        _require(args, "tau")
        _print_vector(tetrad_bispinor(_kinematic_point(args), args.tau))
    elif args.object == "breve":
        _print_vector(breve_u(_kinematic_point(args), args.lp, args.lm))
    elif args.object == "projector":
        check_choice("--kind", args.kind, _PROJECTOR_KINDS)
        if args.kind == "spin":
            _print_matrix(spin_projector(_spin_vector(args)))
        elif args.kind in ("energy-plus", "energy-minus"):
            k = _kinematic_point(args)
            sign = +1 if args.kind == "energy-plus" else -1
            _print_matrix(energy_projector(k.momentum(), k.m, sign))
        else:
            k = _kinematic_point(args)
            variant = "lambda" if args.kind == "pi" else "neg-lambda"
            _print_matrix(pi_projector(k.momentum(), k.m, _spin_vector(args), variant))
    else:
        lhs, rhs = polsum(args.kind, _kinematic_point(args))
        print("lhs:")
        _print_matrix(lhs)
        print("rhs:")
        _print_matrix(rhs)
        print(f"max residual: {float(np.max(np.abs(lhs - rhs))):.12g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return cmd_verify(args) if args.command == "verify" else cmd_show(args)
    except (ValueError, ConfigurationError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
