"""Seeded verification harness for the identity registry.

Each registered identity carries a citation anchor into the source
derivation, a kinematic-domain sampler, lhs/rhs builders, a tolerance and
an expected status.  Expected statuses were frozen from brute-force oracle
runs during development:

  holds          every sample must satisfy the identity within tolerance,
  expected-fail  a displayed equation that the arithmetic contradicts,
                 kept as documentation (reported, never asserted),
  informational  a recorded relation with no asserted equality.

Reports are pure functions of (seed, samples, tolerance_override): samples
are drawn from a generator seeded per check by (seed, sha256(name)), so
repeated runs are bit-identical and checks do not perturb each other.

A check's lhs and rhs builders take a batch of points as columns, one list
per sampler key, and return arrays with a leading sample axis; given one
point (a reported worst_point) they return that point's arrays.  A check
on the "fixed" sampler has no sample axis and is evaluated once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clifford import (
    METRIC,
    _I2,
    _I4,
    check_choice,
    check_vectors,
    dot,
    gamma,
    gamma5,
    gamma5_from_epsilon,
    gamma_dot_spatial,
    gamma_lower,
    generalized_pauli,
    pauli_dot,
    row_times,
    slash,
    times_column,
    trace,
)
from .projectors import (
    diad,
    pi_projector,
    polsum,
    spin_projector,
    spin_projector_rest,
)
from .spinors import (
    HELICITIES,
    KinematicPoint,
    antisym_bispinor,
    boosted_spinor,
    breve_u,
    breve_u_bar,
    dirac_adjoint,
    dirac_u,
    kappa,
    parity_components,
    rest_basis,
    spinor_from_breve,
)

TOOL_VERSION = "0.1.0"
DEFAULT_TOLERANCE = 1e-10

EXPECTED_STATUSES = ("holds", "informational", "expected-fail")

CONVENTIONS = {
    "metric": "diag(+1, -1, -1, -1)",
    "representation": "Dirac (standard): gamma0 = diag(1, 1, -1, -1), "
                      "gamma5 = off-diagonal unit blocks",
    "branch_rule": "sqrt of a negative real -> +i sqrt(|.|) (principal branch); "
                   "this single rule generates the n -> i n continuation",
    "gamma_dot_s_index": "upper index: gamma.s = sum_i gamma^i s^i",
    "epsilon_orientation": "eps(0,1,2,3) = +1 and eps(1,2,3) = +1; the pseudoscalar "
                           "contraction is evaluated over index-lowered gammas",
    "generalized_pauli_sum": "double sum over all ordered index pairs "
                             "(factor 2 relative to a single-ordering sum)",
    "plane_wave_phase": "fixed to 1 (all objects evaluated at the spacetime origin)",
    "notes": [
        "kappa = tanh(chi/2) is 0 at p0 = m and approaches 1 only asymptotically; "
        "the requirement kappa = +-1 is recorded here as motivation, not as a check",
        "negated-energy objects come from the same constructors at p0 -> -p0 with the "
        "spin axis kept; adjoint rows are continued by formula, not conjugated numerically",
    ],
}


class ConfigurationError(RuntimeError):
    """A check's sampler and builders disagree about their domain."""


@dataclass(frozen=True)
class IdentityCheck:
    """One named identity: sampler key, batch side builders, tolerance, expectation."""

    name: str
    paper_ref: str
    sampler: str
    lhs: Callable[[dict], np.ndarray]
    rhs: Callable[[dict], np.ndarray]
    tolerance: float
    expected_status: str

    def __post_init__(self):
        check_choice("expected status", self.expected_status, EXPECTED_STATUSES)
        check_choice("sampler", self.sampler, tuple(_SAMPLERS))


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper_ref: str
    samples: int
    max_residual: float
    worst_point: dict
    status: str  # pass | fail | info
    expected_status: str
    tolerance: float

    def to_dict(self) -> dict:
        """Schema-stable JSON row (the wider fields stay text-format only)."""
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "worst_point": self.worst_point,
            "status": self.status,
        }


def _json(o, indent: str = "") -> str:
    """o as indented JSON; floats with 17 significant digits (round-trip safe)."""
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("non-finite float in report")
        return format(o, ".17g")
    inner = indent + "  "
    if isinstance(o, dict) and o:
        items = [f"{json.dumps(key)}: {_json(value, inner)}" for key, value in o.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(o, (list, tuple)) and o:
        items = [_json(value, inner) for value in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(o)


@dataclass(frozen=True)
class VerificationReport:
    version: str
    seed: int
    samples: int
    tolerance: float
    conventions: dict
    checks: tuple

    @property
    def failed(self) -> tuple:
        return tuple(c for c in self.checks if c.status == "fail")

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "conventions": self.conventions,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return _json(self.to_dict()) + "\n"

    def to_text(self) -> str:
        lines = [
            f"identity verification report (tool {self.version})",
            f"seed={self.seed} samples={self.samples} default_tolerance={self.tolerance:g}",
            "conventions:",
        ]
        for key, value in self.conventions.items():
            if key == "notes":
                for note in value:
                    lines.append(f"  note: {note}")
            else:
                lines.append(f"  {key}: {value}")
        lines.append("checks:")
        for c in self.checks:
            lines.append(
                f"  {c.status:<4} {c.name:<32} max_residual={c.max_residual:.3e} "
                f"n={c.samples} tol={c.tolerance:g} expected={c.expected_status}"
            )
        n_pass = sum(1 for c in self.checks if c.status == "pass")
        n_fail = len(self.failed)
        n_info = sum(1 for c in self.checks if c.status == "info")
        lines.append(f"summary: {n_pass} pass, {n_fail} fail, {n_info} info")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# samplers: each draws one JSON-serializable point so that worst_point rows
# reproduce the failure without rerunning the harness
# ---------------------------------------------------------------------------

def _unit_vector(rng) -> list:
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(v.dot(v))  # the value np.linalg.norm(v) computes
        if n > 1e-6:
            return (v / n).tolist()


_LOG_10 = np.log(10.0)


def _sample_real_band(rng) -> dict:
    # p0/m log-uniform in [1, 10], m fixed to 1 (identities are homogeneous in m)
    return {"m": 1.0, "p0": float(np.exp(rng.uniform(0.0, _LOG_10))),
            "nhat": _unit_vector(rng)}


def _sample_breve_band(rng) -> dict:
    return {"m": 1.0, "p0": float(rng.uniform(-1.0, 1.0)), "nhat": _unit_vector(rng)}


def _sample_sphere(rng) -> dict:
    return {"nhat": _unit_vector(rng)}


def _sample_index_pair(rng) -> dict:
    return {"mu": int(rng.integers(0, 4)), "nu": int(rng.integers(0, 4))}


def _sample_gamma_label(rng) -> dict:
    # 0..3 the gammas, 4 stands for gamma5
    return {"mu": int(rng.integers(0, 5))}


def _sample_matrix_seed(rng) -> dict:
    return {"matrix_seed": int(rng.integers(0, 2 ** 31 - 1))}


def _sample_spinor4(rng) -> dict:
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return {"xi_re": z.real.tolist(), "xi_im": z.imag.tolist()}


_SAMPLERS = {
    "real-band": _sample_real_band,
    "breve-band": _sample_breve_band,
    "sphere": _sample_sphere,
    "index-pair": _sample_index_pair,
    "gamma-label": _sample_gamma_label,
    "matrix-seed": _sample_matrix_seed,
    "spinor4": _sample_spinor4,
    "fixed": lambda rng: {},
}


def _kin(pt: dict) -> KinematicPoint:
    return KinematicPoint(pt["m"], pt["p0"], pt["nhat"])


def _xi_of(pt: dict) -> np.ndarray:
    return np.asarray(pt["xi_re"], dtype=float) + 1j * np.asarray(pt["xi_im"], dtype=float)


def _spatial(nhat) -> np.ndarray:
    """The spatial four-vectors (0, nhat) for nhat of shape (..., 3)."""
    n = np.asarray(nhat, dtype=float)
    return np.concatenate([np.zeros(n.shape[:-1] + (1,)), n], axis=-1)


def section4_two_valued(xi) -> tuple:
    """Two-valuedness contraction (sum_lam x^lam x_lam, |xi|^4).

    x_lam = xi^+ (sigma_lam gamma5) xi and x^lam = xi^+ (gamma5 conj(sigma_lam)) xi
    with sigma_lam the plus-variant generalized Pauli matrices; both factors
    are real, so the left side is quartic in |xi| and scales as |alpha|^4.
    Broadcasts over leading batch axes of xi (..., 4).
    """
    xi = check_vectors(xi, 4, "bispinor")
    g5 = gamma5()
    bra = np.conj(xi)
    total = 0.0
    for lam in (1, 2, 3):
        sp = generalized_pauli(lam, +1)
        x_low = dot(row_times(bra, sp @ g5), xi)
        x_up = dot(row_times(bra, g5 @ np.conj(sp)), xi)
        total = total + (x_up.real * x_low.real - x_up.imag * x_low.imag)
    rhs = np.sum(np.abs(xi) ** 2, axis=-1) ** 2
    return total, rhs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ZHAT = (0.0, 0.0, 1.0)
_GAMMAS = np.stack([gamma(mu) for mu in range(4)])
_GAMMAS_LOWER = np.stack([gamma_lower(mu) for mu in range(4)])
_GAMMA_LABELS = np.stack([*_GAMMAS, gamma5()])  # label 4 stands for gamma5
_BAND_CENTER_PAIRS = ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5))
_REST_EIGENVALUES = (1.0, -1.0, -1.0, 1.0)
_ZERO_ROWS = np.zeros((2, 4), dtype=complex)


def _times_i4(x) -> np.ndarray:
    """x I4 for a scalar x per batch point."""
    return np.asarray(x)[..., None, None] * _I4


def _anticommutator(stack, pt):
    a, b = stack[np.asarray(pt["mu"])], stack[np.asarray(pt["nu"])]
    return a @ b + b @ a


def _three_matrices(seeds) -> np.ndarray:
    """Three seeded uniform complex 4x4 matrices per seed, stacked as (3, ..., 4, 4).

    Each seed draws real part, imaginary part, real part, ... in turn.
    """
    draws = np.array([np.random.default_rng(seed).uniform(-0.5, 0.5, (3, 2, 4, 4))
                      for seed in np.ravel(seeds).tolist()])
    mats = draws[:, :, 0] + 1j * draws[:, :, 1]
    return np.moveaxis(mats.reshape(np.shape(seeds) + (3, 4, 4)), -3, 0)


def _norm_gram(pt):
    k = _kin(pt)
    us = [dirac_u(k, lam, lam) for lam in HELICITIES]
    return np.stack([np.stack([dot(dirac_adjoint(u), v) for v in us], axis=-1) for u in us],
                    axis=-2)


def _polsum_side(kind: str, side: int):
    return lambda pt: polsum(kind, _kin(pt))[side]


def _kappa_pair(pt):
    k = _kin(pt)
    return np.stack([kappa(k.p0, k.m), kappa(k.m, k.m)], axis=-1)


def _norm(x) -> np.ndarray:
    """Euclidean norm over the last axis, summed as numpy's vector norm sums it."""
    return np.sqrt(dot(x.real, x.real) + dot(x.imag, x.imag))


def _kappa_reference(pt):
    k = _kin(pt)
    even, odd = parity_components(boosted_spinor(k, 0.5, dotted=False),
                                  boosted_spinor(k, 0.5, dotted=True))
    ratio = _norm(odd) / _norm(even)
    return np.stack([ratio, np.zeros_like(ratio)], axis=-1)


def _rest_spin_action(pt):
    big_sigma = np.block([
        [pauli_dot(np.asarray(_ZHAT)), np.zeros((2, 2))],
        [np.zeros((2, 2)), -pauli_dot(np.asarray(_ZHAT))],
    ])
    return np.stack([big_sigma @ rest_basis(tau) for tau in (1, 2, 3, 4)])


def _breve_norms(pt, pairs):
    k = _kin(pt)
    return np.stack([dot(breve_u_bar(k, lp, lm), breve_u(k, lp, lm)) for lp, lm in pairs],
                    axis=-1)


def _adjoint_dirac_rows(pt):
    k = _kin(pt)
    op = slash(k.momentum()) + _times_i4(k.m)
    return np.stack([row_times(breve_u_bar(k, lam, lam), op) for lam in HELICITIES], axis=-2)


def _adjoint_dagger_rows(pt, paper_sign: bool):
    k = _kin(pt)
    p = k.momentum()
    if paper_sign:
        dag = -(p[..., :1, None] * gamma(0) + gamma_dot_spatial(p))
    else:
        dag = np.conj(np.swapaxes(slash(p), -1, -2))
    op = dag - _times_i4(k.m)
    return np.stack([row_times(np.conj(breve_u(k, lam, lam)), op) for lam in HELICITIES],
                    axis=-2)


def _pi_annihilation(pt):
    k = _kin(pt)
    pi = pi_projector(k.momentum(), k.m, _spatial(pt["nhat"]), "lambda")
    return np.stack([times_column(pi, breve_u(k, lam, lam)) for lam in HELICITIES], axis=-2)


def _map_roundtrip(pt, expected: bool):
    k = _kin(pt)
    s = _spatial(pt["nhat"])
    return np.stack([-breve_u(k, lam, lam) if expected else
                     spinor_from_breve(spinor_from_breve(breve_u(k, lam, lam), s, "u"), s, "v")
                     for lam in HELICITIES], axis=-2)


def _orientation_projector(pt):
    # spin four-vector contraction with index-lowered gammas, then gamma5
    s = _spatial(pt["nhat"])[..., None, None]
    contracted = sum(s[..., mu, :, :] * gamma_lower(mu) for mu in range(4))
    return (_I4 + gamma5() @ contracted) / 2.0


# Each row: name, paper_ref, sampler, lhs, rhs, tolerance, expected status.
_REGISTRY = tuple(IdentityCheck(*row) for row in (
    ("anticommutator-minkowski",
     "gamma-matrix anticommutation with the Minkowski metric on the right side",
     "index-pair", lambda pt: _anticommutator(_GAMMAS, pt),
     lambda pt: _times_i4(2.0 * METRIC[pt["mu"], pt["nu"]]), 1e-14, "holds"),
    ("anticommutator-literal-delta",
     "gamma-matrix anticommutation with a literal Kronecker delta, as displayed",
     "index-pair", lambda pt: _anticommutator(_GAMMAS_LOWER, pt),
     lambda pt: _times_i4(2.0 * np.where(np.equal(pt["mu"], pt["nu"]), 1.0, 0.0)),
     1e-14, "expected-fail"),
    ("gamma-hermiticity",
     "hermiticity pattern: gamma0 and gamma5 Hermitian, spatial gammas anti-Hermitian",
     "gamma-label", lambda pt: np.conj(np.swapaxes(_GAMMA_LABELS[np.asarray(pt["mu"])], -1, -2)),
     lambda pt: (np.where(np.isin(pt["mu"], (0, 4)), 1.0, -1.0)[..., None, None]
                 * _GAMMA_LABELS[np.asarray(pt["mu"])]), 1e-14, "holds"),
    ("gamma5-pseudoscalar",
     "gamma5 from the quadruple product equals the epsilon-contraction form",
     "fixed", lambda pt: gamma5(), lambda pt: gamma5_from_epsilon(), 1e-14, "holds"),
    ("trace-cyclicity",
     "trace of a cyclic permutation of a matrix product (toolkit invariant)",
     "matrix-seed", lambda pt: trace(_three_matrices(pt["matrix_seed"]))[..., None],
     lambda pt: trace(np.roll(_three_matrices(pt["matrix_seed"]), 1, axis=0))[..., None],
     1e-14, "holds"),
    ("norm-spinor",
     "normalization of the definite-parity bispinor basis: ubar u = delta",
     "real-band", _norm_gram, lambda pt: _I2, 1e-12, "holds"),
    ("helicity-sum-unity",
     "sum of the two-spinor helicity projectors over +-n gives unity",
     "sphere", lambda pt: (spin_projector_rest(pt["nhat"])
                           + spin_projector_rest(-np.asarray(pt["nhat"]))),
     lambda pt: _I2, 1e-14, "holds"),
    ("polsum-spinor",
     "polarization-sum rule, spinor sector: closed form (pslash + m)/2m",
     "real-band", _polsum_side("spinor", 0), _polsum_side("spinor", 1), 1e-12, "holds"),
    ("polsum-antispinor",
     "polarization-sum rule, antisymmetric sector: closed form (m - pslash)/2m",
     "real-band", _polsum_side("antispinor", 0), _polsum_side("antispinor", 1),
     1e-12, "holds"),
    ("unity-decomposition-gamma0",
     "unity decomposition over the antisymmetric-basis gamma0 diads at p0 = -m",
     "sphere", lambda pt: sum(diad(antisym_bispinor(KinematicPoint(1.0, -1.0, pt["nhat"]),
                                                    tau, +1), "gamma0") for tau in (1, 2, 3, 4)),
     lambda pt: _I4, 1e-12, "expected-fail"),
    ("kappa-boundary",
     "spin-eigenvalue ratio: closed form vs the parity-amplitude ratio, zero at threshold",
     "real-band", _kappa_pair, _kappa_reference, 1e-12, "holds"),
    ("rest-eigenvalues",
     "band-center basis eigenvalues of diag(sigma.n, -sigma.n) along z: +1, -1, -1, +1",
     "fixed", _rest_spin_action,
     lambda pt: np.stack([_REST_EIGENVALUES[tau - 1] * rest_basis(tau) for tau in (1, 2, 3, 4)]),
     1e-14, "holds"),
    ("breve-norm",
     "norm of the complex bispinor equals 2 for equal helicity labels",
     "breve-band", lambda pt: _breve_norms(pt, ((0.5, 0.5), (-0.5, -0.5))),
     lambda pt: np.array([2.0, 2.0]), 1e-12, "holds"),
    ("breve-norm-cross",
     "complex-bispinor norm with unequal helicity labels (recorded, not asserted)",
     "breve-band", lambda pt: _breve_norms(pt, ((0.5, -0.5), (-0.5, 0.5))),
     lambda pt: np.array([2.0, 2.0]), 1e-12, "informational"),
    ("adjoint-dirac",
     "adjoint momentum-space equation ubar (pslash + m) = 0, as displayed",
     "breve-band", _adjoint_dirac_rows, lambda pt: _ZERO_ROWS, 1e-12, "expected-fail"),
    ("adjoint-dirac-paper-dagger",
     "conjugated equation with the displayed overall sign of the dagger of pslash",
     "breve-band", lambda pt: _adjoint_dagger_rows(pt, paper_sign=True),
     lambda pt: _ZERO_ROWS, 1e-12, "expected-fail"),
    ("adjoint-dirac-standard-dagger",
     "conjugated equation with the numerical conjugate transpose of pslash",
     "breve-band", lambda pt: _adjoint_dagger_rows(pt, paper_sign=False),
     lambda pt: _ZERO_ROWS, 1e-12, "informational"),
    ("diad-half-unity",
     "gamma5 diads over the band-center basis sum to half unity, as displayed",
     "fixed", lambda pt: sum(diad(rest_basis(tau), "gamma5") for tau in (1, 2, 3, 4)),
     lambda pt: _I4 / 2.0, 1e-12, "expected-fail"),
    ("tetrad-projector-sum",
     "tetrad sum of covariant spin projectors: sum_tau P(s_tau)/2 = 1",
     "sphere", lambda pt: sum(spin_projector(_spatial(s)) for s in
                              (pt["nhat"], -np.asarray(pt["nhat"])) * 2) / 2.0,
     lambda pt: _I4, 1e-12, "holds"),
    ("polsum-breve-plus",
     "complex-band polarization sum against the closed form (pslash + m)/2m",
     "breve-band", _polsum_side("breve-plus", 0), _polsum_side("breve-plus", 1),
     1e-12, "informational"),
    ("polsum-breve-minus",
     "complex-band polarization sum against the closed form (m - pslash)/2m",
     "breve-band", _polsum_side("breve-minus", 0), _polsum_side("breve-minus", 1),
     1e-12, "informational"),
    ("completeness",
     "the two energy projectors form a complete set: their sum is unity",
     "real-band", _polsum_side("completeness", 0), _polsum_side("completeness", 1),
     1e-12, "holds"),
    ("pi-annihilation",
     "annihilation of the constructed complex bispinors by the explicit band projector",
     "breve-band", _pi_annihilation, lambda pt: _ZERO_ROWS, 1e-12, "informational"),
    ("breve-rest-relation",
     "constructed complex bispinor at band center vs the displayed unit basis",
     "fixed", lambda pt: np.stack([breve_u(KinematicPoint(1.0, 0.0, _ZHAT), lp, lm)
                                   for lp, lm in _BAND_CENTER_PAIRS]),
     lambda pt: np.stack([rest_basis(tau) for tau in (1, 2, 3, 4)]), 1e-12, "informational"),
    ("spinor-breve-maps",
     "the two spinor/bispinor maps through gamma5 gamma.s compose to minus one",
     "breve-band", lambda pt: _map_roundtrip(pt, expected=False),
     lambda pt: _map_roundtrip(pt, expected=True), 1e-12, "holds"),
    ("section4-projector-equivalence",
     "covariant orientation projector (1 + gamma5 s.gamma)/2 matches the spin projector",
     "sphere", _orientation_projector, lambda pt: spin_projector(_spatial(pt["nhat"])),
     1e-14, "holds"),
    ("section4-two-valued",
     "two-valuedness contraction: sum_lam x^lam x_lam against |xi|^4 (recorded)",
     "spinor4", lambda pt: section4_two_valued(_xi_of(pt))[0][..., None],
     lambda pt: section4_two_valued(_xi_of(pt))[1][..., None], 1e-10, "informational"),
))
assert len({c.name for c in _REGISTRY}) == len(_REGISTRY), "registry names must be unique"


def registry() -> tuple:
    """All registered identity checks, in derivation-chain order (built once)."""
    return _REGISTRY


def _per_check_seed(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def sample_points(check: IdentityCheck, seed: int, samples: int) -> list:
    """The check's sample points for (seed, samples >= 1), drawn one at a time."""
    if not samples >= 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed % 2 ** 63, _per_check_seed(check.name)]))
    sampler = _SAMPLERS[check.sampler]
    return [sampler(rng) for _ in range(samples)]


def residuals(check: IdentityCheck, points: list) -> np.ndarray:
    """max |lhs - rhs| per point from one evaluation of each side on the columns of
    the points (one residual in all for a "fixed" check, whose points are empty).
    A builder's domain error or a non-finite residual is a ConfigurationError."""
    columns = {key: [pt[key] for pt in points] for key in points[0]}
    try:
        diff = np.abs(np.asarray(check.lhs(columns)) - np.asarray(check.rhs(columns)))
    except ValueError as exc:
        raise ConfigurationError(f"check {check.name!r}: {exc}") from exc
    n = len(points) if columns else 1
    if columns and diff.shape[:1] != (n,):
        raise ConfigurationError(
            f"check {check.name!r}: sides of shape {diff.shape} have no leading axis "
            f"of {n} samples")
    out = diff.reshape(n, -1).max(axis=1)
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ConfigurationError(
            f"check {check.name!r}: non-finite residual at sample {i}, point {points[i]}")
    return out


def run_check(check: IdentityCheck, seed: int, samples: int) -> CheckResult:
    """Evaluate one check over deterministic samples drawn for (seed, name); the
    worst sample is the first one with the largest residual."""
    points = sample_points(check, seed, samples)
    res = residuals(check, points)
    worst = int(np.argmax(res))
    if check.expected_status == "holds":
        status = "pass" if res[worst] <= check.tolerance else "fail"
    else:
        status = "info"
    return CheckResult(
        name=check.name,
        paper_ref=check.paper_ref,
        samples=samples,
        max_residual=float(res[worst]),
        worst_point=points[worst],
        status=status,
        expected_status=check.expected_status,
        tolerance=check.tolerance,
    )


def run_all(seed: int = 42, samples: int = 100,
            tolerance_override: float | None = None) -> VerificationReport:
    """Run the whole registry; deterministic in (seed, samples, override).

    samples must be >= 1 and an override must satisfy 0 < tolerance < inf.
    """
    if tolerance_override is not None and not 0 < tolerance_override < math.inf:
        raise ValueError(f"tolerance must satisfy 0 < tolerance < inf, got {tolerance_override}")
    results = []
    for check in registry():
        if tolerance_override is not None:
            check = dataclasses.replace(check, tolerance=tolerance_override)
        results.append(run_check(check, seed, samples))
    return VerificationReport(
        version=TOOL_VERSION,
        seed=seed,
        samples=samples,
        tolerance=tolerance_override if tolerance_override is not None else DEFAULT_TOLERANCE,
        conventions=json.loads(json.dumps(CONVENTIONS)),
        checks=tuple(results),
    )
