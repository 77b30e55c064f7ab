"""Seeded verification harness for the identity registry.

Each registered identity carries a citation anchor into the source
derivation, a kinematic-domain sampler, lhs/rhs builders, a tolerance and
an expected status.  Expected statuses were frozen from brute-force oracle
runs during development:

  holds          every sample must satisfy the identity within tolerance,
  expected-fail  a displayed equation that the arithmetic contradicts,
                 kept as documentation (reported, never asserted),
  informational  a recorded relation with no asserted equality.

Reports are pure functions of (seed, samples, tolerance_override): each
sampled check draws all its samples as columns, one numpy call per key, from a
generator seeded per check by (seed, sha256(name)), so repeated runs are
bit-identical and checks do not perturb each other; a label row evaluates every
label tuple once and a "fixed" check its one point, whatever the seed and samples.

A check's lhs and rhs builders take a Columns, one column per sampler key,
and return arrays with a leading sample axis; given the Columns of one point
they return that point's arrays, so a reported worst_point replays as
residuals(check, Columns(worst_point)), its max_residual.  Columns is the
registry's one input boundary: Columns(mapping) checks every column it copies by
the validator of its key, and residuals checks that the columns are the ones the
check's sampler makes; the sampler's own draw or grid, valid by construction, is
handed over unchecked.  The builders then call the unchecked cores of the public
functions (spinors._point for the KinematicPoint, projectors._spin_projector, ...):
only band checks (spinors._state's, and two rows' own) and residuals' key, shape and
finiteness checks run on the draw.  A side is made by
_fixed if it depends on no sample (a value built at import, read-only, or a
table of them indexed by the labels); by _sides, with the other side,
if both are one evaluation make(pt) -> (lhs, rhs); else as a builder of its
own.  A row that reads several labelled states (helicities, tetrad slots, the
dotted flag) reads them from one spinors._state pass, a stack with a label
axis, and residuals reduces across the sample axis, never along a short one.
Builders read only Columns.arrays; Columns.derived keeps the _sides results.

The JSON report is the report dataclasses field for field (each its __dict__, the
fields in field order), written by the stdlib encoder: every float in its shortest
round-trip repr, so each value comes back from json.loads with its type, sign and bits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from functools import reduce
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .clifford import (METRIC, _BLOCK_SWAP, _I2, _I4, _contract, _contraction, _read_only,
                       check_choice, check_real, dot, gamma, gamma5, gamma5_from_epsilon,
                       gamma_lower, generalized_pauli, pauli_dot, row_times, times_column, trace)
from .projectors import (_ENERGY, _diad, _pi_projector, _spin_projector, _spin_projector_rest,
                         diad, polsum)
from .spinors import (KinematicPoint, _dirac_adjoint, _kappa, _parity_components, _point,
                      _require, _spatial, _spinor_from_breve, _state, breve_u, check_band,
                      check_bispinor, check_energy, check_mass, check_scale, check_unit_vector,
                      rest_basis)

TOOL_VERSION = "0.4.3"
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
    lhs: Callable[[Columns], np.ndarray]
    rhs: Callable[[Columns], np.ndarray]
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

    def to_json(self) -> str:
        return json.dumps(self, default=vars, indent=2, allow_nan=False) + "\n"

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
# samplers: each draws all n points of a check as numpy columns, one call per
# key, or holds its finite grid; sample_points hands them on in a Columns, as
# the read-only arrays the builders read
# ---------------------------------------------------------------------------

def _unit_rows(rng, n: int) -> np.ndarray:
    """n unit 3-vectors; rows with |v| <= 1e-6 are redrawn in order until none is left."""
    v = rng.normal(size=(n, 3))
    while True:
        x, y, z = v.T  # summed in np.sum's order, without a reduction over a 3-wide axis
        norm = np.sqrt((x * x + y * y) + z * z)
        short = norm <= 1e-6
        if not short.any():
            return v / norm[:, None]
        v[short] = rng.normal(size=(int(short.sum()), 3))


_LOG_10 = np.log(10.0)
# the label samplers' keys and top labels: 0..3 the gammas, 0..4 with 4 standing for gamma5
_LABEL_TOPS = {"index-pair": {"mu": 3, "nu": 3}, "gamma-label": {"mu": 4}}
_ONES = lambda rng, n: np.ones(n)

# each drawn sampler's columns in the order it draws them, {key: draw(rng, n)}; a uniform draw
# takes rng.uniform(low, high)'s low + (high - low) u from rng.random()'s u, bit for bit
_DRAWS = {
    # p0/m log-uniform in [1, 10], m fixed to 1 (identities are homogeneous in m)
    "real-band": {"m": _ONES, "p0": lambda rng, n: np.exp(rng.random(n) * _LOG_10),
                  "nhat": _unit_rows},
    "breve-band": {"m": _ONES, "p0": lambda rng, n: rng.random(n) * 2.0 - 1.0, "nhat": _unit_rows},
    "sphere": {"nhat": _unit_rows},
    # three complex 4x4 matrices per point, 48 real and 48 imaginary parts in row-major order
    "matrices": dict.fromkeys(("a_re", "a_im"),
                              lambda rng, n: np.subtract(u := rng.random((n, 48)), 0.5, out=u)),
    "spinor4": dict.fromkeys(("xi_re", "xi_im"), lambda rng, n: rng.normal(size=(n, 4))),
}
# each finite sampler's columns, drawn by none: every label tuple once, flattened in row-major
# order, read-only; "fixed" has no columns and is one point
_GRIDS = {**{name: dict(zip(tops, _read_only(
    np.indices([top + 1 for top in tops.values()]).reshape(len(tops), -1))))
    for name, tops in _LABEL_TOPS.items()}, "fixed": {}}
# every sampler's keys in column order: the one table of them
_SAMPLERS = {name: tuple(columns) for name, columns in {**_DRAWS, **_GRIDS}.items()}
# the width of each column drawn as a vector per point; every other key draws one number
_WIDTHS = {"nhat": 3, "a_re": 48, "a_im": 48, "xi_re": 4, "xi_im": 4}


def _checked_column(key: str, column, columns) -> np.ndarray:
    """A fresh array of ``column`` under the one validator of its key: a unit nhat, a mass m,
    a finite p0, int labels mu, nu in their sampler's range (_LABEL_TOPS; mu beside nu an index
    pair's), finite real rows a_*, xi_* of their width.  Any other key is a ValueError."""
    if key == "nhat":
        return check_unit_vector(column)
    if key == "m":
        m = check_real(column, "mass")
        check_mass(m)
        return m
    if key == "p0":
        p0 = check_real(column, "p0")
        check_energy(p0)
        return p0
    if key in ("mu", "nu"):
        labels = check_real(column, key, int)
        top = _LABEL_TOPS["index-pair" if "nu" in columns else "gamma-label"][key]
        _require((labels >= 0) & (labels <= top), f"{key} must be a label in 0..{top}, got {{}}",
                 labels)
        return labels
    if key in _WIDTHS:
        return check_bispinor(column, _WIDTHS[key], key, float)
    raise ValueError(f"no sampler draws a column {key!r}")


class Columns(dict):
    """A check's sample columns, from any mapping of columns (a reported worst_point, or
    another Columns, whose arrays it reads): ``arrays``, a read-only copy of each column,
    the only thing the builders read, and ``derived``, each _sides row's (lhs, rhs) under
    its make, filled on first use, read-only, and only read after.

    Every column is checked as it is copied, by the validator of its key
    (_checked_column; a ValueError for a key no sampler draws), and all must share one
    sample shape; p0 must also be in scale against m where both are given (else
    OverflowError, as for a KinematicPoint).  So no write to the caller's arrays can change
    the columns, and the builders read only checked values.  Only _unchecked hands over
    arrays the library made uncopied and unchecked: sample_points' fresh draw, shape (n,),
    and a finite sampler's grid.  ``shape`` is that one sample shape: () for one point or for
    no columns.  The dict stays empty: json encodes it as {}."""

    __slots__ = ("arrays", "derived", "shape")

    def __init__(self, columns: dict):
        if isinstance(columns, Columns):
            columns = columns.arrays
        arrays = {key: _read_only(_checked_column(key, column, columns))
                  for key, column in columns.items()}
        shapes = {key: a.shape[:-1] if key in _WIDTHS else a.shape for key, a in arrays.items()}
        if len(set(shapes.values())) > 1:
            raise ValueError(f"columns must share one sample shape, got {shapes}")
        if "m" in arrays and "p0" in arrays:
            check_scale(arrays["p0"], arrays["m"])
        self.arrays = arrays
        self.derived = {}
        self.shape = next(iter(shapes.values()), ())


def _unchecked(arrays: dict, shape: tuple) -> Columns:
    """A Columns of arrays the library made, valid by construction, handed over unchecked."""
    columns = Columns({})
    columns.arrays, columns.shape = arrays, shape
    return columns


def point(columns: Columns, i) -> dict:
    """Row i of a check's sample columns: plain Python floats, ints and lists."""
    return {key: array[i].tolist() for key, array in columns.arrays.items()}


def _kin(pt: Columns) -> KinematicPoint:
    """The point of pt's checked columns, built without checking them again."""
    return _point(pt.arrays["m"], pt.arrays["p0"], pt.arrays["nhat"])


def _complex_of(pt: Columns, name: str) -> np.ndarray:
    """The complex array name_re + i name_im of pt's arrays, its parts filled in place."""
    z = np.empty(pt.arrays[name + "_re"].shape, dtype=complex)
    z.real, z.imag = pt.arrays[name + "_re"], pt.arrays[name + "_im"]
    return z


# The six factors of section4_two_valued as one (lam, low/up, 4, 4) stack, built once:
# sigma_lam gamma5 and gamma5 conj(sigma_lam) for lam = 1, 2, 3, with sigma_lam the
# plus-variant generalized Pauli matrix: its column blocks swapped, its conjugate's rows.
# Each column holds one nonzero entry (+-2 or +-2i), so each entry of a row vector times
# the stack, taken as _contract's (4, lam low/up col) stack, is one exact product.
_TWO_VALUED_FACTORS = _read_only(np.array([
    (sigma.take(_BLOCK_SWAP, axis=-1), np.conj(sigma).take(_BLOCK_SWAP, axis=-2))
    for sigma in (generalized_pauli(lam, +1) for lam in (1, 2, 3))]))
_TWO_VALUED_ROWS = _contraction(np.moveaxis(_TWO_VALUED_FACTORS, -2, 0))


def section4_two_valued(xi) -> tuple:
    """Two-valuedness contraction (sum_lam x^lam x_lam, |xi|^4).

    x_lam = xi^+ (sigma_lam gamma5) xi and x^lam = xi^+ (gamma5 conj(sigma_lam)) xi
    with sigma_lam the plus-variant generalized Pauli matrices; both factors
    are real, so the left side is quartic in |xi| and scales as |alpha|^4.
    Broadcasts over leading batch axes of xi (..., 4), a finite bispinor; all six
    bilinears come from one _contract of conj(xi) with the stack _TWO_VALUED_FACTORS.
    """
    return _section4_two_valued(check_bispinor(xi))


def _section4_two_valued(xi) -> tuple:
    """section4_two_valued without its check, for finite complex bispinors xi."""
    bra = _contract(np.conj(xi), _TWO_VALUED_ROWS)  # (..., lam, low/up, 4)
    x = dot(bra, xi[..., None, None, :])
    low, up = x[..., 0], x[..., 1]
    total = np.sum(up.real * low.real - up.imag * low.imag, axis=-1)
    a = np.abs(xi)
    norm2 = np.sum(a * a, axis=-1)
    return total, norm2 * norm2


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ZHAT = (0.0, 0.0, 1.0)
_BAND_CENTER_PAIRS = ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5))
_REST_EIGENVALUES = (1.0, -1.0, -1.0, 1.0)
_ZERO_ROWS = np.zeros((2, 4), dtype=complex)


def _anticommutators(stack) -> np.ndarray:
    """{a, b} for every ordered pair of a stack's matrices, as (mu, nu, 4, 4)."""
    a, b = stack[:, None], stack[None, :]
    return a @ b + b @ a


# Tables of the sample-independent sides of the gamma-algebra rows, indexed by the
# labels: (mu, nu) for the anticommutators, mu for the labels 0..4 (4 for gamma5).
_GAMMAS = _read_only(np.stack([gamma(mu) for mu in range(4)]))
_GAMMA_LABELS = _read_only(np.stack([*_GAMMAS, gamma5()]))
_ANTICOMMUTATORS = _anticommutators(_GAMMAS)
_ANTICOMMUTATORS_LOWER = _anticommutators(np.stack([gamma_lower(mu) for mu in range(4)]))
_TWO_METRIC_I4 = (2.0 * METRIC)[..., None, None] * _I4
_TWO_DELTA_I4 = (2.0 * np.eye(4))[..., None, None] * _I4
_LABEL_DAGGERS = np.conj(np.swapaxes(_GAMMA_LABELS, -1, -2))
_SIGNED_LABELS = np.array([1.0, -1.0, -1.0, -1.0, 1.0])[:, None, None] * _GAMMA_LABELS


def _fixed(value, *keys):
    """A side that depends on no sample: value, built once and read-only, indexed by the
    labels pt.arrays[key] for each of keys (all of value, read-only, for none)."""
    value = _read_only(np.asarray(value))
    return lambda pt: value[tuple(pt.arrays[key] for key in keys)]


def _sides(make) -> tuple:
    """The lhs and rhs of a row whose two sides are one evaluation make(pt) -> (lhs, rhs),
    computed once per Columns, whichever side runs first, and kept read-only in
    pt.derived under make itself, as builders hand them on."""
    def side(pt: Columns, i: int):
        if make not in pt.derived:
            pt.derived[make] = tuple(map(_read_only, make(pt)))
        return pt.derived[make][i]
    return tuple(lambda pt, i=i: side(pt, i) for i in (0, 1))


def _three_matrices(pt) -> np.ndarray:
    """A point's three complex 4x4 matrices a, stacked as (3, ..., 4, 4)."""
    a = _complex_of(pt, "a")
    return np.moveaxis(a.reshape(a.shape[:-1] + (3, 4, 4)), -3, 0)


def _trace_cycle(pt) -> tuple:
    """tr(a0 a1 a2) and tr(a2 a0 a1) of a point's three matrices, read as views."""
    a = _three_matrices(pt)
    return trace(a)[..., None], trace((a[2], a[0], a[1]))[..., None]


def _boost_exponential(pt) -> tuple:
    """exp(+-(chi/2) sigma.n) phi_lam in spectral form, e^{+-chi/2} P(n) phi + e^{-+chi/2} P(-n)
    phi, e^{chi/2} = sqrt(r + |p|/m), r = p0/m, e^{-chi/2} = 1/e^{chi/2} = sqrt(m/(p0 + |p|)),
    no difference, so it does not cancel at large r; and boosted_spinor: rows (lam, dotted)."""
    k = _kin(pt)
    check_band("boost-exponential", k.p0, k.m, "p0 >= m")
    r = k.p0 / k.m
    # |p|/m = sqrt(r - 1) sqrt(r + 1), not momentum()'s 2 m a b: the row's own reference
    up = np.sqrt(r + np.sqrt(r - 1.0) * np.sqrt(r + 1.0))[..., None, None]
    down = 1.0 / up
    # P(+-n) phi_lam for lam = +1/2, -1/2 (phi the columns of I2), as (..., lam, 2)
    pa, pb = (np.swapaxes(_spin_projector_rest(n), -1, -2) for n in (k.nhat, -k.nhat))
    rows = np.stack([up * pa + down * pb, down * pa + up * pb], axis=-2)
    return rows.reshape(rows.shape[:-3] + (4, 2)), _state(k, "boosted_spinor")


def _norm_gram(pt):
    us = _state(_kin(pt), "dirac_u")[..., :2, :]
    return dot(_dirac_adjoint(us)[..., :, None, :], us[..., None, :, :])


def _norm(x) -> np.ndarray:
    """Euclidean norm over the last axis, summed as numpy's vector norm sums it."""
    return np.sqrt(dot(x.real, x.real) + dot(x.imag, x.imag))


def _kappa_boundary(pt) -> tuple:
    """kappa at p0 and at threshold, against the parity-amplitude ratio and zero."""
    k = _kin(pt)
    s = _state(k, "boosted_spinor")  # (lam, dotted): the first two are lam = +1/2
    check_band("kappa", k.p0, k.m, "p0 >= m")
    even, odd = _parity_components(s[..., 0, :], s[..., 1, :])
    ratio = _norm(odd) / _norm(even)
    return (np.stack([_kappa(k.p0, k.m), _kappa(k.m, k.m)], axis=-1),
            np.stack([ratio, np.zeros_like(ratio)], axis=-1))


def _rest_spin_action():
    big_sigma = np.block([
        [pauli_dot(np.asarray(_ZHAT)), np.zeros((2, 2))],
        [np.zeros((2, 2)), -pauli_dot(np.asarray(_ZHAT))],
    ])
    return np.stack([big_sigma @ rest_basis(tau) for tau in (1, 2, 3, 4)])


def _breve_norms(pt, crossed: bool):
    """breve_u_bar breve_u for the equal or the crossed label pairs."""
    s = _state(_kin(pt), "breve_u", crossed)
    return dot(s[..., 2:, :], s[..., :2, :])


# The adjoint rows' matrices, stacks for _contract of x = (p, m), or of conj(x): pslash + m,
# the displayed -(p0 gamma0 + gamma.p) - m, and pslash^+ - m = conj(p^mu) gamma^mu - m.
_ADJOINT_MATRICES = {None: _ENERGY[+1],
                     "paper": _contraction(-np.concatenate([_GAMMAS, _I4[None]])),
                     "standard": _contraction(np.concatenate([_GAMMAS, -_I4[None]]))}


def _adjoint_rows(pt, dagger=None):
    """The rows breve_u_bar (pslash + m), or given a dagger conj(breve_u) (pslash^+ - m),
    pslash^+ with its displayed overall sign ("paper") or conjugate-transposed ("standard")."""
    k = _kin(pt)
    x, pair = k._five_vector(), _state(k, "breve_u")
    rows = pair[..., 2:4, :] if dagger is None else np.conj(pair[..., :2, :])
    matrix = _contract(np.conj(x) if dagger == "standard" else x, _ADJOINT_MATRICES[dagger])
    return row_times(rows, matrix[..., None, :, :])


def _pi_annihilation(pt):
    k = _kin(pt)
    pi = _pi_projector(k._five_vector(), _spatial(pt.arrays["nhat"]), -1)  # "lambda"
    return times_column(pi[..., None, :, :], _state(k, "breve_u")[..., :2, :])


def _map_roundtrip(pt) -> tuple:
    """The two maps composed on the equal-helicity breve bispinors u, against -u."""
    us = _state(_kin(pt), "breve_u")[..., :2, :]
    s = _spatial(pt.arrays["nhat"])[..., None, :]
    return _spinor_from_breve(_spinor_from_breve(us, s, "u"), s, "v"), -us


def _tetrad_sum(pt):
    """sum_tau P(s_tau)/2 over the tetrad (n, -n, n, -n), with P(n) and P(-n) built once."""
    along, against = (_spin_projector(_spatial(n)) for n in (pt.arrays["nhat"], -pt.arrays["nhat"]))
    return sum((along, against) * 2) * 0.5


def _spin_blocks(pt):
    """The two-spinor block form diag((1 + sigma.n)/2, (1 - sigma.n)/2) of P(s), s = (0, nhat)."""
    n = pt.arrays["nhat"]
    out = np.zeros(n.shape[:-1] + (4, 4), dtype=complex)
    out[..., :2, :2], out[..., 2:, 2:] = _spin_projector_rest(n), _spin_projector_rest(-n)
    return out


# Each row: name, paper_ref, sampler, lhs, rhs, tolerance, expected status.
_REGISTRY = tuple(IdentityCheck(*row) for row in (
    ("anticommutator-minkowski",
     "gamma-matrix anticommutation with the Minkowski metric on the right side",
     "index-pair", _fixed(_ANTICOMMUTATORS, "mu", "nu"),
     _fixed(_TWO_METRIC_I4, "mu", "nu"), 1e-14, "holds"),
    ("anticommutator-literal-delta",
     "gamma-matrix anticommutation with a literal Kronecker delta, as displayed",
     "index-pair", _fixed(_ANTICOMMUTATORS_LOWER, "mu", "nu"),
     _fixed(_TWO_DELTA_I4, "mu", "nu"), 1e-14, "expected-fail"),
    ("gamma-hermiticity",
     "hermiticity pattern: gamma0 and gamma5 Hermitian, spatial gammas anti-Hermitian",
     "gamma-label", _fixed(_LABEL_DAGGERS, "mu"), _fixed(_SIGNED_LABELS, "mu"), 1e-14, "holds"),
    ("gamma5-pseudoscalar",
     "gamma5 from the quadruple product equals the epsilon-contraction form",
     "fixed", _fixed(gamma5()), _fixed(gamma5_from_epsilon()), 1e-14, "holds"),
    ("trace-cyclicity",
     "trace of a cyclic permutation of a matrix product (toolkit invariant)",
     "matrices", *_sides(_trace_cycle), 1e-14, "holds"),
    ("boost-exponential",
     "boosted two-spinor as the exponential exp(+-(chi/2) sigma.n) phi, cosh chi = p0/m",
     "real-band", *_sides(_boost_exponential), 1e-12, "holds"),
    ("norm-spinor",
     "normalization of the definite-parity bispinor basis: ubar u = delta",
     "real-band", _norm_gram, _fixed(_I2), 1e-12, "holds"),
    ("helicity-sum-unity",
     "sum of the two-spinor helicity projectors over +-n gives unity",
     "sphere",
     lambda pt: _spin_projector_rest(pt.arrays["nhat"]) + _spin_projector_rest(-pt.arrays["nhat"]),
     _fixed(_I2), 1e-14, "holds"),
    ("polsum-spinor",
     "polarization-sum rule, spinor sector: closed form (pslash + m)/2m",
     "real-band", *_sides(lambda pt: polsum("spinor", _kin(pt))), 1e-12, "holds"),
    ("polsum-antispinor",
     "polarization-sum rule, antisymmetric sector: closed form (m - pslash)/2m",
     "real-band", *_sides(lambda pt: polsum("antispinor", _kin(pt))), 1e-12, "holds"),
    ("unity-decomposition-gamma0",
     "unity decomposition over the antisymmetric-basis gamma0 diads at p0 = -m",
     # antisym_bispinor(k, tau, +1) at p0 = -m is the tetrad at p0 = m, where b = 0: no nhat;
     # its diads added in tau order from the first, so a -0 entry keeps its sign
     "fixed", _fixed(reduce(np.add, _diad(_state(_point(1.0, 1.0, np.array(_ZHAT)),
                                                 "tetrad_bispinor"), "gamma0"))),
     _fixed(_I4), 1e-12, "expected-fail"),
    ("kappa-boundary",
     "spin-eigenvalue ratio: closed form vs the parity-amplitude ratio, zero at threshold",
     "real-band", *_sides(_kappa_boundary), 1e-12, "holds"),
    ("rest-eigenvalues",
     "band-center basis eigenvalues of diag(sigma.n, -sigma.n) along z: +1, -1, -1, +1",
     "fixed", _fixed(_rest_spin_action()),
     _fixed(np.stack([_REST_EIGENVALUES[tau - 1] * rest_basis(tau) for tau in (1, 2, 3, 4)])),
     1e-14, "holds"),
    ("breve-norm",
     "norm of the complex bispinor equals 2 for equal helicity labels",
     "breve-band", lambda pt: _breve_norms(pt, False),
     _fixed([2.0, 2.0]), 1e-12, "holds"),
    ("breve-norm-cross",
     "complex-bispinor norm with unequal helicity labels (recorded, not asserted)",
     "breve-band", lambda pt: _breve_norms(pt, True),
     _fixed([2.0, 2.0]), 1e-12, "informational"),
    ("adjoint-dirac",
     "adjoint momentum-space equation ubar (pslash + m) = 0, as displayed",
     "breve-band", _adjoint_rows, _fixed(_ZERO_ROWS), 1e-12, "expected-fail"),
    ("adjoint-dirac-paper-dagger",
     "conjugated equation with the displayed overall sign of the dagger of pslash",
     "breve-band", lambda pt: _adjoint_rows(pt, "paper"),
     _fixed(_ZERO_ROWS), 1e-12, "expected-fail"),
    ("adjoint-dirac-standard-dagger",
     "conjugated equation with the numerical conjugate transpose of pslash",
     "breve-band", lambda pt: _adjoint_rows(pt, "standard"),
     _fixed(_ZERO_ROWS), 1e-12, "informational"),
    ("diad-half-unity",
     "gamma5 diads over the band-center basis sum to half unity, as displayed",
     "fixed", _fixed(sum(diad(rest_basis(tau), "gamma5") for tau in (1, 2, 3, 4))),
     _fixed(_I4 / 2.0), 1e-12, "expected-fail"),
    ("tetrad-projector-sum",
     "tetrad sum of covariant spin projectors: sum_tau P(s_tau)/2 = 1",
     "sphere", _tetrad_sum, _fixed(_I4), 1e-12, "holds"),
    ("polsum-breve-plus",
     "complex-band polarization sum against the closed form (pslash + m)/2m",
     "breve-band", *_sides(lambda pt: polsum("breve-plus", _kin(pt))), 1e-12, "informational"),
    ("polsum-breve-minus",
     "complex-band polarization sum against the closed form (m - pslash)/2m",
     "breve-band", *_sides(lambda pt: polsum("breve-minus", _kin(pt))), 1e-12, "informational"),
    ("completeness",
     "the two energy projectors form a complete set: their sum is unity",
     "real-band", *_sides(lambda pt: polsum("completeness", _kin(pt))), 1e-12, "holds"),
    ("pi-annihilation",
     "annihilation of the constructed complex bispinors by the explicit band projector",
     "breve-band", _pi_annihilation, _fixed(_ZERO_ROWS), 1e-12, "informational"),
    ("breve-rest-relation",
     "constructed complex bispinor at band center vs the displayed unit basis",
     "fixed", _fixed([breve_u(KinematicPoint(1.0, 0.0, _ZHAT), lp, lm)
                      for lp, lm in _BAND_CENTER_PAIRS]),
     _fixed([rest_basis(tau) for tau in (1, 2, 3, 4)]), 1e-12, "informational"),
    ("spinor-breve-maps",
     "the two spinor/bispinor maps through gamma5 gamma.s compose to minus one",
     "breve-band", *_sides(_map_roundtrip), 1e-12, "holds"),
    ("section4-projector-equivalence",
     "covariant orientation projector (1 + gamma5 s.gamma)/2 matches the spin projector",
     "sphere", _spin_blocks, lambda pt: _spin_projector(_spatial(pt.arrays["nhat"])),
     1e-14, "holds"),
    ("section4-two-valued",
     "two-valuedness contraction: sum_lam x^lam x_lam against |xi|^4 (recorded)",
     "spinor4", *_sides(lambda pt: tuple(
         x[..., None] for x in _section4_two_valued(_complex_of(pt, "xi")))),
     1e-10, "informational"),
))
assert len({c.name for c in _REGISTRY}) == len(_REGISTRY), "registry names must be unique"


def registry() -> tuple:
    """All registered identity checks, in derivation-chain order (built once)."""
    return _REGISTRY


def _per_check_seed(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def sample_points(check: IdentityCheck, seed: int, samples: int) -> Columns:
    """The check's sample points for integers (numbers.Integral, not bools) seed >= 0 and
    samples >= 1 as a Columns, read-only and not copied: a drawn sampler's own draw, one array
    of samples rows per key; a finite sampler's grid, every label tuple once, built by no
    generator (no columns and shape () for a "fixed" check)."""
    for name, value, low in (("seed", seed, 0), ("samples", samples, 1)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if check.sampler in _GRIDS:
        grid = _GRIDS[check.sampler]
        return _unchecked(dict(grid), next((a.shape for a in grid.values()), ()))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _per_check_seed(check.name)]))
    return _unchecked({key: _read_only(draw(rng, int(samples)))
                       for key, draw in _DRAWS[check.sampler].items()}, (int(samples),))


def residuals(check: IdentityCheck, columns: Columns) -> np.ndarray:
    """max |lhs - rhs| per point from one evaluation of each side on the columns (one
    residual for a "fixed" check, or one point's columns).  Columns other than the keys of
    the check's sampler are a ValueError; a builder's domain error or a non-finite residual
    is a ConfigurationError."""
    keys = _SAMPLERS[check.sampler]
    if columns.arrays.keys() != set(keys):
        raise ValueError(f"check {check.name!r} reads the columns {list(keys)}, "
                         f"got {list(columns.arrays)}")
    try:
        diff = np.abs(np.asarray(check.lhs(columns)) - np.asarray(check.rhs(columns)))
    except ValueError as exc:
        raise ConfigurationError(f"check {check.name!r}: {exc}") from exc
    shape = columns.shape
    n = math.prod(shape)
    if diff.shape[:len(shape)] != shape:
        raise ConfigurationError(
            f"check {check.name!r}: sides of shape {diff.shape} have no leading axis "
            f"of {n} samples")
    # each sample's maximum taken across the sample axis, one pass per residual entry
    out = np.ascontiguousarray(diff.reshape(n, -1).T).max(axis=0)
    finite = np.isfinite(out)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ConfigurationError(f"check {check.name!r}: non-finite residual at sample {i}, "
                                 f"point {point(columns, np.unravel_index(i, columns.shape))}")
    return out


def run_check(check: IdentityCheck, seed: int, samples: int) -> CheckResult:
    """Evaluate one check over its points, drawn for (seed, name) or its sampler's grid;
    the worst point is the first one with the largest residual, and samples their number."""
    columns = sample_points(check, seed, samples)
    res = residuals(check, columns)
    worst = int(np.argmax(res))
    if check.expected_status == "holds":
        status = "pass" if res[worst] <= check.tolerance else "fail"
    else:
        status = "info"
    return CheckResult(
        name=check.name,
        paper_ref=check.paper_ref,
        samples=res.size,
        max_residual=float(res[worst]),
        worst_point=point(columns, worst),
        status=status,
        expected_status=check.expected_status,
        tolerance=check.tolerance,
    )


def run_all(seed: int = 42, samples: int = 100,
            tolerance_override: float | None = None) -> VerificationReport:
    """Run the whole registry; deterministic in (seed, samples, override).

    seed must be an integer >= 0 and samples one >= 1 (Python or NumPy ints, not bools;
    the report holds them as ints), and an override a real number (not a bool) with
    0 < tolerance < inf.
    """
    t = tolerance_override
    if t is not None and (isinstance(t, bool) or not isinstance(t, Real) or not 0 < t < math.inf):
        raise ValueError(f"tolerance must be a real number with 0 < tolerance < inf, got {t!r}")
    results = []
    for check in registry():
        if tolerance_override is not None:
            check = dataclasses.replace(check, tolerance=tolerance_override)
        results.append(run_check(check, seed, samples))
    return VerificationReport(
        version=TOOL_VERSION,
        seed=int(seed),  # integers, as run_check checked
        samples=int(samples),
        tolerance=tolerance_override if tolerance_override is not None else DEFAULT_TOLERANCE,
        conventions=json.loads(json.dumps(CONVENTIONS)),
        checks=tuple(results),
    )
