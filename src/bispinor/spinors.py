"""Two-spinor and bispinor constructors.

All objects are built from a kinematic point (m, p0, nhat) through the two
half-boost amplitudes

    a = sqrt((p0 + m) / 2m),    b = sqrt((p0 - m) / 2m),

evaluated with the principal branch: the square root of a negative real is
+i sqrt(|.|).  That single rule extends every constructor off the band it
was written for (negated energies, the |p0| <= m strip) without separate
code paths.  Plane-wave phases are fixed to 1, i.e. everything is evaluated
at the spacetime origin.

A KinematicPoint may hold a batch of points: m and p0 of shape (...) and
nhat of shape (..., 3).  Every constructor broadcasts over those leading
axes (a bispinor comes back as (..., 4)), a single point being the empty
batch shape, and every validator checks every point of a batch.  A single
point keeps Python floats, which round ** and math.* differently from numpy
arrays, so code shared with batches applies neither to a point's values.

Every band state is one formula, a * E + b * (nhat @ M), its signs and phases in
the constants E and M: -M for the dotted two-spinor and the row dirac_u_bar, i M
for the breve states, a zero E or M for the tetrad.  Each band constructor has one
table per label family, a (4, 4, w) stack [E; M_1; M_2; M_3] of four states built at
import: two for dirac_u and breve_u, the equal labels and the crossed (read by their _bar
constructors too), one for the others.  _state evaluates one family as one
clifford._contract of the point's cached vector (a, b nhat) with its table, (..., 4, w),
so a caller evaluates only the states it reads; a constructor copies out its row.

Each input concept has one validator, applied where the input enters: it
states the set it accepts, so NaN and +-inf fail by construction.  Objects
built from an already-validated point are not validated again.  Each public
function is its validators followed by a private core (_kappa, _dirac_adjoint,
...), which callers holding checked values (verify's builders) call directly, and
_point builds a KinematicPoint from checked fields without running its checks.

One ownership rule holds wherever the library keeps arrays (a KinematicPoint, a
verify.Columns): an object that keeps arrays copies every array a caller passes it
and marks its copy read-only, so no write by the caller can reach a validated
point; arrays the library makes itself are handed on uncopied and marked read-only
with one setflags (clifford._read_only), where they are built: the constant tables
and matrices as well.  Nothing inspects which array views which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# pauli_dot is not used here, but callers resolve it as spinors.pauli_dot
from .clifford import (_BLOCK_SWAP, _GAMMA0_SIGNS, _GAMMA_DOT_S_DOT, _contract, _contraction,
                       _read_only, _require, check_bispinor, check_choice, check_real,
                       check_vectors, pauli, pauli_dot, times_column)

HELICITIES = (0.5, -0.5)
_TETRAD = (1, 2, 3, 4)

_REL_TOL = 1e-12
_MAX = 2.0 ** 1023  # the one range bound: a sum of two magnitudes below it is finite
_TINY = float(np.finfo(float).tiny)  # the smallest normal float; 1 / (2 m) is finite above it


class RegionError(ValueError):
    """Constructor evaluated outside its energy band."""


def check_mass(m):
    """Raise ValueError unless every mass is a normal float, 2.2e-308 <= m < inf."""
    _require((m >= _TINY) & (m < math.inf), "mass must satisfy 2.2e-308 <= m < inf, got {}", m)


def _norm3(v):
    """|v| over the last axis of length 3, by hypot: no square of a component is formed."""
    return np.hypot.reduce(v, axis=-1)


def check_energy(p0):
    """Raise ValueError unless every energy parameter is finite."""
    _require(abs(p0) < math.inf, "p0 must be finite, got {}", p0)


def check_scale(x, m, what: str = "|p0|"):
    """Raise OverflowError unless |x|, m and |x|/m lie below 2^1023, x the p0 of a point or the
    max_i |p_i| of a momentum, named by ``what``.  Then a sum of two such magnitudes (p0 +- m,
    p1 +- i p2), such a sum over m and |p| <= max(|p0|, m), all that either forms, are finite."""
    x = abs(x)
    _require((x < _MAX) & (m < _MAX) & (x / _MAX < m), "{0}, m and {0}/m must lie below 2^1023, "
             "got {0}={1}, m={2}", what, x, m, error=OverflowError)


def check_unit_vector(nhat) -> np.ndarray:
    """nhat as a read-only float array of shape (..., 3), each row of unit length."""
    n = check_vectors(nhat, 3, "nhat", float)
    norm = _norm3(n)
    _require(abs(norm - 1.0) <= _REL_TOL, "nhat must be a unit vector, |n| = {}", norm)
    return _read_only(n)


def check_spin_vector(s) -> np.ndarray:
    """s as a float array of shape (..., 4), each row a spatial four-vector
    (0, svec) with s.s = -1: |svec| = 1 as for a unit nhat, so non-finite or huge
    components fail without s.s being formed."""
    s = check_vectors(s, 4, "spin vector", float)
    ok = (abs(s[..., 0]) <= _REL_TOL) & (abs(_norm3(s[..., 1:]) - 1.0) <= _REL_TOL)
    _require(ok, "spin vector must be (0, svec) with s.s = -1, got {}", s)
    return s


def _spatial(nhat) -> np.ndarray:
    """The spatial four-vectors (0, nhat) for nhat of shape (..., 3)."""
    n = np.asarray(nhat, dtype=float)
    return np.concatenate([np.zeros(n.shape[:-1] + (1,)), n], axis=-1)


# check_band's message per band, filled in only on a refusal: the name, p0 and m
_BAND_MESSAGES = {band: "{} needs " + band + " (got p0={}, m={})" + hint for band, hint in {
    "|p0| >= m": "; use breve_u / breve_u_bar on the |p0| <= m band",
    "|p0| <= m": "; use the real-band constructors (boosted_spinor, dirac_u, ...)",
    "p0 >= m": "",
}.items()}


def check_band(what: str, p0, m, band: str) -> None:
    """Raise RegionError naming ``what`` unless every point (p0, m) lies in ``band``, one of
    the keys of _BAND_MESSAGES, to a relative 1e-12."""
    e = p0 if band == "p0 >= m" else abs(p0)
    ok = e <= m * (1.0 + _REL_TOL) if band == "|p0| <= m" else e >= m * (1.0 - _REL_TOL)
    _require(ok, _BAND_MESSAGES[band], what, p0, m, error=RegionError)


def _blocks(up, low) -> np.ndarray:
    """Constant bispinor table with upper block ``up`` and lower block ``low``."""
    return np.concatenate(np.broadcast_arrays(up, low), axis=-1).astype(complex)


# The basis two-spinors phi and, per helicity slot (0 for +1/2, 1 for -1/2), the rows
# sigma_i phi (i = 1..3), so that (sigma.n) phi = nhat @ _SIGMA_PHI[slot], and the rows
# phi^+ sigma_i.  The tables below place them in blocks.
_PHI = _read_only(np.eye(2, dtype=complex))
_SIGMA_PHI = _read_only(np.array([[pauli(i)[:, j] for i in (1, 2, 3)] for j in (0, 1)]))
_PHI_SIGMA = _read_only(np.conj(_SIGMA_PHI))


def _dirac(up, low, row=False) -> tuple:
    """(E, M) of dirac_u, (a phi_up ; b (sigma.n) phi_low), or with ``row`` of
    dirac_u_bar, (a phi_up^+ | -b phi_low^+ (sigma.n))."""
    return _blocks(_PHI[up], 0), _blocks(0, -_PHI_SIGMA[low] if row else _SIGMA_PHI[low])


def _breve(plus, minus, row=False) -> tuple:
    """(E, M) of breve_u, ([a + i b (sigma.n)] phi_plus ; [a - i b (sigma.n)] phi_minus),
    or with ``row`` of breve_u_bar, the same with the rows phi^+ sigma_i."""
    s = _PHI_SIGMA if row else _SIGMA_PHI
    return _blocks(_PHI[plus], _PHI[minus]), 1j * _blocks(s[plus], -s[minus])


def _tetrad(i) -> tuple:
    """(E, M) of tetrad column i: a phi in the upper block for i = 0, 1, b (sigma.n) phi
    in the lower block for i = 2, 3, phi = +1/2 then -1/2."""
    e, m = _dirac(i % 2, i % 2)
    return (e, np.zeros_like(m)) if i < 2 else (np.zeros_like(e), m)


def _table(states) -> tuple:
    """Four states (E, M) in order as one (4, 4, w) stack [E; M_1; M_2; M_3] for _contract."""
    return _contraction(np.stack([np.concatenate([e[None], m]) for e, m in states], axis=1))


_REAL_BAND, _BREVE_BAND = "|p0| >= m", "|p0| <= m"
# the states (lam, lam', row) of dirac_u and breve_u: equal labels, crossed labels (_pair)
_DIRAC, _BREVE = (tuple(_table(state(j, j ^ cross, row) for row in (0, 1) for j in (0, 1))
                        for cross in (0, 1)) for state in (_dirac, _breve))
# constructor name -> (its band, its tables by label family: a _bar name's are its column's)
_TABLES = {
    "boosted_spinor": (_REAL_BAND, (_table(
        (_PHI[j], -_SIGMA_PHI[j] if dotted else _SIGMA_PHI[j])
        for j in (0, 1) for dotted in (False, True)),)),
    "dirac_u": (_REAL_BAND, _DIRAC),
    "dirac_u_bar": (_REAL_BAND, _DIRAC),
    "tetrad_bispinor": (_REAL_BAND, (_table(_tetrad(i) for i in range(4)),)),
    "breve_u": (_BREVE_BAND, _BREVE),
    "breve_u_bar": (_BREVE_BAND, _BREVE),
}


def _slot(lam) -> int:
    """The helicity slot of lam, 0 for +1/2 and 1 for -1/2: its basis two-spinor is _PHI[slot]."""
    return check_choice("helicity", lam, HELICITIES)


@dataclass(frozen=True, eq=False)
class KinematicPoint:
    """Mass, energy parameter and spin axis defining one sample point, or a batch.

    p0 may be negative or smaller than m; which constructors accept the point depends on the
    band |p0| >= m (real boosts) versus |p0| <= m (complex continuation).  m must satisfy
    2.2e-308 <= m < inf, p0 must be finite (m, |p0| and |p0|/m below 2^1023, else OverflowError)
    and nhat a unit 3-vector.  A single point keeps m and p0 as floats; a batch broadcasts
    read-only copies of m, p0 and the rows of nhat to one batch shape; nhat is read-only, (..., 3).
    It keeps two read-only vectors, each built on first use: _boosts, the (a, b nhat) that _state
    reads, and _five_vector, the x = (p0, p1, p2, p3, m) built from it that the projectors read.
    """

    m: float
    p0: float
    nhat: np.ndarray

    def __post_init__(self):
        n = check_unit_vector(self.nhat)
        m, p0 = check_real(self.m, "mass"), check_real(self.p0, "p0")
        if m.ndim or p0.ndim:  # nhat takes the batch shape the three share
            n = np.broadcast_to(n, np.broadcast_shapes(m.shape, p0.shape, n.shape[:-1]) + (3,))
        # checked as the fields are kept: a single point's floats are cheaper to compare
        _fill(self, m, p0, n)
        check_mass(self.m)
        check_energy(self.p0)
        check_scale(self.p0, self.m)

    @property
    def _boosts(self) -> np.ndarray:
        """(a, b nhat) for the half-boost amplitudes a, b = sqrt((p0 +- m) / 2m), principal
        branch below threshold: one read-only (..., 4) vector, computed on first use, shared by
        every constructor called on the point and by _five_vector, and kept as _vector (a
        cached_property would cost each point ~60 B more)."""
        if getattr(self, "_vector", None) is None:
            p0, m = self.p0, self.m
            a, b = np.sqrt((p0 + m) / m * 0.5 + 0j), np.sqrt((p0 - m) / m * 0.5 + 0j)
            v = np.concatenate([a[..., None], b[..., None] * self.nhat], axis=-1)
            object.__setattr__(self, "_vector", _read_only(v))
        return self._vector

    def momentum(self) -> np.ndarray:
        """On-shell four-momentum (p0, |p| nhat), |p| = 2 m a b from the principal-branch a, b
        the constructors read: sqrt(p0^2 - m^2) for p0 >= m, imaginary for |p0| < m (the n -> i n
        continuation), -sqrt(p0^2 - m^2) for p0 <= -m, so on |p0| >= m, p(-p0) = -p(p0).  |p| may
        round a few ulp above max(|p0|, m) to 2^1023, which energy_projector's guard refuses: at
        p0 = 0 along z, for the two largest masses below 2^1023.  A fresh, writable copy of the
        point's kept x."""
        return self._five_vector()[..., :4].copy()

    def _five_vector(self) -> np.ndarray:
        """x = (p0, p1, p2, p3, m), the momentum beside the mass: one read-only complex (..., 5),
        built once per point on first use and kept as _x beside _vector, its spatial part
        (a m)(2 b nhat) from _boosts: no square, so no step under- or overflows."""
        if getattr(self, "_x", None) is None:
            v = self._boosts
            x = np.empty(v.shape[:-1] + (5,), dtype=complex)
            x[..., 0], x[..., 4] = self.p0, self.m
            bn = v[..., 1:]
            np.multiply(v[..., :1] * x[..., 4:], bn + bn, out=x[..., 1:4])
            object.__setattr__(self, "_x", _read_only(x))
        return self._x

    def negated(self) -> "KinematicPoint":
        """The same point with p0 -> -p0 (spin axis kept), built by _point from the
        validated fields."""
        return _point(self.m, -self.p0, self.nhat)


def _fill(k: KinematicPoint, m, p0, nhat) -> KinematicPoint:
    """k with the fields of checked values: nhat a read-only float array (..., 3) of unit
    rows, m and p0 reals that broadcast to its batch shape.  m and p0 are kept as floats
    for a single point, as read-only arrays of the batch shape for a batch."""
    shape = nhat.shape[:-1]
    if shape:
        m, p0 = np.broadcast_to(m, shape), np.broadcast_to(p0, shape)
    else:
        m, p0 = float(m), float(p0)
    k.__dict__.update(m=m, p0=p0, nhat=nhat)
    return k


def _point(m, p0, nhat) -> KinematicPoint:
    """KinematicPoint(m, p0, nhat) for values its checks accept, built without running them."""
    return _fill(object.__new__(KinematicPoint), m, p0, nhat)


def _state(k: KinematicPoint, name: str, crossed: bool = False) -> np.ndarray:
    """The four states a E + b (nhat @ M) of constructor ``name``'s equal-label (or crossed)
    family at k, (..., 4, w): one clifford._contract of the point's cached (a, b nhat) with
    its table.  Raises RegionError naming ``name`` if a point lies outside its band."""
    band, tables = _TABLES[name]
    check_band(name, k.p0, k.m, band)
    return _contract(k._boosts, tables[crossed])


def _one(k: KinematicPoint, name: str, i: int) -> np.ndarray:
    """State i (i % 4 of family i // 4) of ``name`` as a fresh array: it keeps no other alive."""
    return _state(k, name, i > 3)[..., i % 4, :].copy()


def _pair(lam, lam_other, row: int = 0) -> int:
    """Index i of the column (row 0) or row (row 1) state (lam, lam_other): family i // 4."""
    i, j = _slot(lam), _slot(lam_other)
    return 4 * (i != j) + 2 * row + i


def boosted_spinor(k: KinematicPoint, lam, dotted: bool = False) -> np.ndarray:
    """Helicity basis spinor boosted to the point k.

    Undotted: [a + (sigma.n) b] phi_lam;  dotted: [a - (sigma.n) b] phi_lam.
    dotted must be a bool (Python or NumPy), not any value with a truth value.
    """
    if not isinstance(dotted, (bool, np.bool_)):
        raise ValueError(f"dotted must be True or False, got {dotted!r}")
    return _one(k, "boosted_spinor", 2 * _slot(lam) + bool(dotted))


def parity_components(xi_undotted, xi_dotted):
    """Even/odd parity combinations ((xi + xid)/2, (xi - xid)/2) of finite two-spinors."""
    xi = check_bispinor(xi_undotted, 2, "two-spinor")
    return _parity_components(xi, check_bispinor(xi_dotted, 2, "two-spinor"))


def _parity_components(xi, xid) -> tuple:
    """parity_components without its checks, for finite two-spinors."""
    return (xi + xid) * 0.5, (xi - xid) * 0.5


def dirac_u(k: KinematicPoint, lam_up, lam_low) -> np.ndarray:
    """Positive-parity-stack bispinor (a phi_up ; b (sigma.n) phi_low)."""
    return _one(k, "dirac_u", _pair(lam_up, lam_low))


def dirac_u_bar(k: KinematicPoint, lam_up, lam_low) -> np.ndarray:
    """Adjoint row of dirac_u evaluated from its closed form.

    Returns (a phi_up^+ | -b phi_low^+ (sigma.n)).  On the p0 >= m band this
    equals dirac_adjoint(dirac_u(k, ...)) entry by entry; at negated-energy
    points it is the continuation of the formula, in which the boost
    amplitudes a, b enter unconjugated.  The polarization-sum closed forms
    hold only under this continuation.
    """
    return _one(k, "dirac_u_bar", _pair(lam_up, lam_low, row=1))


def tetrad_bispinor(k: KinematicPoint, tau) -> np.ndarray:
    """Tetrad basis column: tau 1,2 carry a phi in the upper block,
    tau 3,4 carry b (sigma.n) phi in the lower block (phi = +1/2, -1/2).

    The antisymmetric partner basis, imaginary at threshold, is tetrad_bispinor(k.negated(),
    tau): on p0 >= m, i b phi (tau 1,2) and i a (sigma.n) phi (tau 3,4); the phase -i is the
    plain product -1 * column.  On p0 <= -m it is real, minus the principal-branch i b, i a.
    """
    return _one(k, "tetrad_bispinor", check_choice("tetrad index", tau, _TETRAD))


def breve_u(k: KinematicPoint, lam_plus, lam_minus) -> np.ndarray:
    """Complex bispinor on the band |p0| <= m.

    Upper block [a + i (sigma.n) b] phi_{lam+}, lower block
    [a - i (sigma.n) b] phi_{lam-}; here b = i sqrt((m - p0)/2m) is
    imaginary, so both block operators are real and Hermitian.
    """
    return _one(k, "breve_u", _pair(lam_plus, lam_minus))


def breve_u_bar(k: KinematicPoint, lam_plus, lam_minus) -> np.ndarray:
    """Conjugated row partner of breve_u.

    Built from the displayed construction: the conjugate rows carry the
    factors [a - i (sigma.n) b] (upper slot) and [a + i (sigma.n) b] (lower
    slot) as written, and the gamma5 block swap then pairs the + factor
    with lam+ and the - factor with lam-.  Contracting with breve_u gives
    exactly 2 whenever lam+ = lam-.
    """
    return _one(k, "breve_u_bar", _pair(lam_plus, lam_minus, row=1))


def rest_basis(tau) -> np.ndarray:
    """Displayed band-center basis column e_tau / sqrt(2)."""
    e = np.zeros(4, dtype=complex)
    e[check_choice("tetrad index", tau, _TETRAD)] = 1.0 / math.sqrt(2.0)
    return e


def dirac_adjoint(u) -> np.ndarray:
    """u^+ gamma^0 as a row vector: conj(u) with its lower block negated."""
    return _dirac_adjoint(check_bispinor(u))


def _dirac_adjoint(u) -> np.ndarray:
    """dirac_adjoint without its check, for finite bispinors u."""
    return np.conj(u) * _GAMMA0_SIGNS


def spinor_from_breve(breve, s, variant: str = "u") -> np.ndarray:
    """Map a breve-band bispinor through the spatial spin tetrad s = (0, svec).

    variant "u": gamma5 (gamma.s) breve;  variant "v": (gamma.s) gamma5 breve,
    with gamma.s = sum_i gamma^i s^i.  Since (gamma.s)^2 = -1 for unit svec,
    which s must be, the two maps compose to -1 and are inverse to each
    other up to sign.  The "v" map is the "u" map negated: every nonzero entry has the
    negated bits, but a zero entry may keep its sign.
    """
    s = check_spin_vector(s)
    check_choice("variant", variant, ("u", "v"))
    return _spinor_from_breve(check_bispinor(breve), s, variant)


def _spinor_from_breve(breve, s, variant: str) -> np.ndarray:
    """spinor_from_breve without its checks, for finite bispinors and s as check_spin_vector's."""
    axis = -2 if variant == "u" else -1
    return times_column(_contract(s, _GAMMA_DOT_S_DOT).take(_BLOCK_SWAP, axis=axis), breve)


def kappa(p0, m):
    """Spin-eigenvalue ratio sqrt((p0 - m)/(p0 + m)) = tanh(chi/2).

    Vanishes at threshold p0 = m and tends to 1 only as p0 -> infinity.
    Raises RegionError unless p0 >= m.  Both terms are halved, an exact scaling
    for normal floats, so p0 + m cannot overflow.
    """
    p0, m = check_real(p0, "p0"), check_real(m, "mass")
    check_mass(m)
    check_energy(p0)
    check_band("kappa", p0, m, "p0 >= m")
    return _kappa(p0, m)


def _kappa(p0, m):
    """kappa without its checks, for masses and energies that pass them, p0 >= m."""
    return np.sqrt(np.maximum(0.5 * (p0 - m), 0.0) / (0.5 * p0 + 0.5 * m))
