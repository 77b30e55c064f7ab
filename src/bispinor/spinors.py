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

Every band constructor is one formula, alpha * E + beta * (nhat @ M) with
alpha, beta drawn from a, b and constant tables E, M, evaluated by _combine.
The tables of the two equal-helicity states (lam, lam) also sit side by side
as one table with a helicity axis, so that _equal_helicity_pair builds both
states of a point, columns and rows, in one pass, for the polarization sums.

Each input concept has one validator, applied where the input enters: it
states the set it accepts, so NaN and +-inf fail by construction.  Objects
built from an already-validated point are not validated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# pauli_dot is not used here, but callers resolve it as spinors.pauli_dot
from .clifford import (_GAMMA5_GAMMA_DOT_S, _GAMMA_DOT_S_GAMMA5, _contract, check_choice,
                       check_vectors, gamma, pauli, pauli_dot, row_times, times_column)

HELICITIES = (0.5, -0.5)
_TETRAD = (1, 2, 3, 4)

_REL_TOL = 1e-12
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # x * x is finite for |x| < _SQRT_MAX
_TINY = float(np.finfo(float).tiny)  # the smallest normal float; 1 / (2 m) is finite above it


class RegionError(ValueError):
    """Constructor evaluated outside its energy band."""


def _require(ok, message: str, *values, error=ValueError) -> None:
    """Raise ``error`` unless ``ok`` holds at every point; ``message`` is formatted
    with the values (per-point scalars or rows) at the first point where it fails."""
    if (ok.all() if isinstance(ok, np.ndarray) else ok):
        return
    ok = np.asarray(ok)
    at = np.unravel_index(np.argmin(ok), ok.shape)
    raise error(message.format(*(np.asarray(v)[at] if np.ndim(v) > ok.ndim
                                 else np.broadcast_to(v, ok.shape)[at] for v in values)))


def check_mass(m):
    """Raise ValueError unless every mass is a normal float, 2.2e-308 <= m < inf."""
    _require((m >= _TINY) & (m < math.inf), "mass must satisfy 2.2e-308 <= m < inf, got {}", m)


def _in_scale(x, m):
    """Whether |x| and |x| / m lie below 1.3e154, so that x * x and x / m are finite."""
    x = abs(x)
    return (x < _SQRT_MAX) & (x / _SQRT_MAX < m)


def _norm3(v):
    """|v| over the last axis of length 3, by hypot: no square of a component is formed."""
    return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


def check_energy(p0):
    """Raise ValueError unless every energy parameter is finite."""
    _require(abs(p0) < math.inf, "p0 must be finite, got {}", p0)


def check_unit_vector(nhat) -> np.ndarray:
    """nhat as a read-only float array of shape (..., 3), each row of unit length."""
    n = check_vectors(np.array(nhat, dtype=float), 3, "nhat", float)
    norm = _norm3(n)
    _require(abs(norm - 1.0) <= _REL_TOL, "nhat must be a unit vector, |n| = {}", norm)
    n.setflags(write=False)
    return n


def check_spin_vector(s) -> np.ndarray:
    """s as a float array of shape (..., 4), each row a spatial four-vector
    (0, svec) with s.s = -1: |svec| = 1 as for a unit nhat, so non-finite or huge
    components fail without s.s being formed."""
    s = check_vectors(s, 4, "spin vector", float)
    ok = (abs(s[..., 0]) <= _REL_TOL) & (abs(_norm3(s[..., 1:]) - 1.0) <= _REL_TOL)
    _require(ok, "spin vector must be (0, svec) with s.s = -1, got {}", s)
    return s


_BAND_HINTS = {
    "|p0| >= m": "; use breve_u / breve_u_bar on the |p0| <= m band",
    "|p0| <= m": "; use the real-band constructors (boosted_spinor, dirac_u, ...)",
    "p0 >= m": "",
}


def check_band(what: str, p0, m, band: str) -> None:
    """Raise RegionError naming ``what`` unless every point (p0, m) lies in ``band``, one of
    the keys of _BAND_HINTS, to a relative 1e-12."""
    e = p0 if band == "p0 >= m" else abs(p0)
    ok = e <= m * (1.0 + _REL_TOL) if band == "|p0| <= m" else e >= m * (1.0 - _REL_TOL)
    message = f"{what} needs {band} (got p0={{}}, m={{}}){_BAND_HINTS[band]}"
    _require(ok, message, p0, m, error=RegionError)


def _blocks(up, low) -> np.ndarray:
    """Constant bispinor table with upper block ``up`` and lower block ``low``."""
    return np.concatenate(np.broadcast_arrays(up, low), axis=-1).astype(complex)


# Constant tables indexed by the slot of a helicity label (0 for +1/2, 1 for
# -1/2): the basis two-spinors phi, the rows sigma_i phi (i = 1..3), so that
# (sigma.n) phi = nhat @ _SIGMA_PHI[slot], and the rows phi^+ sigma_i.  The
# bispinor tables place them in a block; the breve tables are indexed
# [slot+, slot-].  Every band constructor below is _combine's
# alpha * E + beta * (nhat @ M), with E = table[slot] of shape (4,) and M of
# shape (3, 4).
_PHI = np.eye(2, dtype=complex)
_PHI.setflags(write=False)
_SIGMA_PHI = np.array([[pauli(i)[:, j] for i in (1, 2, 3)] for j in (0, 1)])
_PHI_SIGMA = np.conj(_SIGMA_PHI)
_UP_PHI = _blocks(_PHI, 0)
_LOW_SIGMA_PHI = _blocks(0, _SIGMA_PHI)
_LOW_PHI_SIGMA = _blocks(0, _PHI_SIGMA)
_BREVE_PHI = _blocks(_PHI[:, None], _PHI)
_BREVE_SIGMA_PHI = _blocks(_SIGMA_PHI[:, None], -_SIGMA_PHI)
_BREVE_PHI_SIGMA = _blocks(_PHI_SIGMA[:, None], -_PHI_SIGMA)


def _pair(tables) -> np.ndarray:
    """The tables of the two helicity slots as one table with a helicity axis, E of shape
    (2, 4) or M of shape (3, 2, 4), flattened for the matmul to (8,) or (3, 8)."""
    return np.concatenate(tuple(tables), axis=-1)


# Tables with a helicity axis: the equal-helicity states (lam, lam), lam = +1/2
# then -1/2, as (E, M of the column, M of the row) for dirac_u / dirac_u_bar and
# for breve_u / breve_u_bar.  _combine evaluates both states at once, (..., 8).
_PAIR_DIRAC = _pair(_UP_PHI), _pair(_LOW_SIGMA_PHI), _pair(_LOW_PHI_SIGMA)
_PAIR_BREVE = (_pair(_BREVE_PHI[(0, 1), (0, 1)]), _pair(_BREVE_SIGMA_PHI[(0, 1), (0, 1)]),
               _pair(_BREVE_PHI_SIGMA[(0, 1), (0, 1)]))


def _slot(lam) -> int:
    """Index of the nonzero entry of basis_spinor(lam)."""
    return check_choice("helicity", lam, HELICITIES)


def basis_spinor(lam) -> np.ndarray:
    """Rest-frame basis two-spinor: (1,0) for +1/2, (0,1) for -1/2 (read-only)."""
    return _PHI[_slot(lam)]


@dataclass(frozen=True, eq=False)
class KinematicPoint:
    """Mass, energy parameter and spin axis defining one sample point, or a batch.

    p0 may be negative or smaller than m; which constructors accept the
    point depends on the band |p0| >= m (real boosts) versus |p0| <= m
    (complex continuation).  m must satisfy 2.2e-308 <= m < inf, p0 must be finite
    (|p0| and |p0|/m below 1.3e154, else OverflowError) and nhat a unit 3-vector.
    A single point keeps m and p0 as floats; a batch broadcasts m, p0 and the rows of nhat
    to one batch shape.  nhat is a read-only array of shape (..., 3).
    """

    m: float
    p0: float
    nhat: np.ndarray

    def __post_init__(self):
        n = check_unit_vector(self.nhat)
        m, p0 = np.asarray(self.m, dtype=float), np.asarray(self.p0, dtype=float)
        if m.ndim or p0.ndim or n.ndim > 1:
            shape = np.broadcast_shapes(m.shape, p0.shape, n.shape[:-1])
            m, p0 = np.broadcast_to(m, shape), np.broadcast_to(p0, shape)
            n = np.broadcast_to(n, shape + (3,))
        else:
            m, p0 = float(m), float(p0)
        check_mass(m)
        check_energy(p0)
        _require(_in_scale(p0, m), "p0 overflows: p0^2 or p0/m is out of range at p0={}, m={}",
                 p0, m, error=OverflowError)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "nhat", n)

    def boost_factor(self, sign: int):
        """a for sign=+1, b for sign=-1; principal branch below threshold.  Halved after
        the division, not divided by 2m, which overflows for m > 8.99e307."""
        return np.sqrt((self.p0 + sign * self.m) / self.m * 0.5 + 0j)

    @cached_property
    def _half_boosts(self) -> tuple:
        """(a, b) = (boost_factor(+1), boost_factor(-1)), read-only: computed on first use
        and shared by every constructor called on this point."""
        ab = self.boost_factor(+1), self.boost_factor(-1)
        for x in ab:
            x.setflags(write=False)
        return ab

    def momentum(self) -> np.ndarray:
        """On-shell four-momentum (p0, |p| nhat), |p| = sqrt(p0^2 - m^2).

        Inside the |p0| < m band the spatial part is imaginary (principal
        branch), which is the mechanical form of the n -> i n continuation.
        Raises OverflowError where m^2 overflows (p0^2 is finite by construction).
        """
        _require(self.m < _SQRT_MAX, "momentum overflows: "
                 "p0^2 - m^2 is out of range at p0={}, m={}", self.p0, self.m, error=OverflowError)
        q = np.sqrt(self.p0 * self.p0 - self.m * self.m + 0j)
        p = np.empty(self.nhat.shape[:-1] + (4,), dtype=complex)
        p[..., 0] = self.p0
        np.multiply(q[..., None], self.nhat, out=p[..., 1:])
        return p

    def negated(self) -> "KinematicPoint":
        """The same point with p0 -> -p0 (spin axis kept), built from the validated
        fields without running __post_init__ again."""
        k = object.__new__(KinematicPoint)
        k.__dict__.update(m=self.m, p0=-self.p0, nhat=self.nhat)
        return k


def _amplitudes(k: KinematicPoint, what: str, band: str = "|p0| >= m"):
    """The half-boost amplitudes a, b of k, each with a trailing axis of length 1.

    Raises RegionError naming ``what`` if a point lies outside ``band``.
    """
    check_band(what, k.p0, k.m, band)
    a, b = k._half_boosts
    return a[..., None], b[..., None]


def _combine(alpha, beta, nhat, e, m) -> np.ndarray:
    """alpha * E + beta * (nhat @ M) for amplitudes alpha, beta with a trailing axis of
    length 1 and constant tables E of shape (d,) and M of shape (3, d): one state (d = 4,
    or 2 for a two-spinor), or the two states of a helicity pair side by side (_pair)."""
    return alpha * e + beta * (nhat @ m)


def _equal_helicity_pair(k: KinematicPoint, breve: bool) -> tuple:
    """The columns and rows of both equal-helicity states (lam, lam), lam = +1/2 then
    -1/2, at k, each of shape (..., 2, 4), after one band check: dirac_u and dirac_u_bar
    on |p0| >= m, or breve_u and breve_u_bar (breve) on |p0| <= m.  Each state has the
    bits of its public constructor."""
    if breve:
        a, b = _amplitudes(k, "breve_u", "|p0| <= m")
        beta_col = beta_row = 1j * b
        e, m_col, m_row = _PAIR_BREVE
    else:
        a, b = _amplitudes(k, "dirac_u")
        beta_col, beta_row = b, -b
        e, m_col, m_row = _PAIR_DIRAC
    shape = k.nhat.shape[:-1] + (2, 4)
    return (_combine(a, beta_col, k.nhat, e, m_col).reshape(shape),
            _combine(a, beta_row, k.nhat, e, m_row).reshape(shape))


def boosted_spinor(k: KinematicPoint, lam, dotted: bool = False) -> np.ndarray:
    """Helicity basis spinor boosted to the point k.

    Undotted: [a + (sigma.n) b] phi_lam;  dotted: [a - (sigma.n) b] phi_lam.
    """
    a, b = _amplitudes(k, "boosted_spinor")
    j = _slot(lam)
    return _combine(a, -b if dotted else b, k.nhat, _PHI[j], _SIGMA_PHI[j])


def parity_components(xi_undotted, xi_dotted):
    """Even/odd parity combinations ((xi + xid)/2, (xi - xid)/2)."""
    xi = np.asarray(xi_undotted, dtype=complex)
    xid = np.asarray(xi_dotted, dtype=complex)
    return (xi + xid) * 0.5, (xi - xid) * 0.5


def dirac_u(k: KinematicPoint, lam_up, lam_low) -> np.ndarray:
    """Positive-parity-stack bispinor (a phi_up ; b (sigma.n) phi_low)."""
    a, b = _amplitudes(k, "dirac_u")
    return _combine(a, b, k.nhat, _UP_PHI[_slot(lam_up)], _LOW_SIGMA_PHI[_slot(lam_low)])


def dirac_u_bar(k: KinematicPoint, lam_up, lam_low) -> np.ndarray:
    """Adjoint row of dirac_u evaluated from its closed form.

    Returns (a phi_up^+ | -b phi_low^+ (sigma.n)).  On the p0 >= m band this
    equals dirac_adjoint(dirac_u(k, ...)) entry by entry; at negated-energy
    points it is the continuation of the formula, in which the boost
    amplitudes a, b enter unconjugated.  The polarization-sum closed forms
    hold only under this continuation.
    """
    a, b = _amplitudes(k, "dirac_u_bar")
    return _combine(a, -b, k.nhat, _UP_PHI[_slot(lam_up)], _LOW_PHI_SIGMA[_slot(lam_low)])


def tetrad_bispinor(k: KinematicPoint, tau) -> np.ndarray:
    """Tetrad basis column: tau 1,2 carry a phi in the upper block,
    tau 3,4 carry b (sigma.n) phi in the lower block (phi = +1/2, -1/2)."""
    i = check_choice("tetrad index", tau, _TETRAD)
    a, b = _amplitudes(k, "tetrad_bispinor")
    if i < 2:
        return a * _UP_PHI[i % 2]
    return b * (k.nhat @ _LOW_SIGMA_PHI[i % 2])


def antisym_bispinor(k: KinematicPoint, tau, sign: int = +1) -> np.ndarray:
    """Antisymmetric partner basis, imaginary at threshold.

    tau 1,2: (+-i) b phi in the upper block; tau 3,4: (+-i) a (sigma.n) phi
    in the lower block.  The overall +-i is the explicit sign argument.
    """
    i = check_choice("tetrad index", tau, _TETRAD)
    check_choice("sign", sign, (+1, -1))
    a, b = _amplitudes(k, "antisym_bispinor")
    if i < 2:
        return sign * 1j * b * _UP_PHI[i % 2]
    return sign * 1j * a * (k.nhat @ _LOW_SIGMA_PHI[i % 2])


def breve_u(k: KinematicPoint, lam_plus, lam_minus) -> np.ndarray:
    """Complex bispinor on the band |p0| <= m.

    Upper block [a + i (sigma.n) b] phi_{lam+}, lower block
    [a - i (sigma.n) b] phi_{lam-}; here b = i sqrt((m - p0)/2m) is
    imaginary, so both block operators are real and Hermitian.
    """
    a, b = _amplitudes(k, "breve_u", "|p0| <= m")
    j = _slot(lam_plus), _slot(lam_minus)
    return _combine(a, 1j * b, k.nhat, _BREVE_PHI[j], _BREVE_SIGMA_PHI[j])


def breve_u_bar(k: KinematicPoint, lam_plus, lam_minus) -> np.ndarray:
    """Conjugated row partner of breve_u.

    Built from the displayed construction: the conjugate rows carry the
    factors [a - i (sigma.n) b] (upper slot) and [a + i (sigma.n) b] (lower
    slot) as written, and the gamma5 block swap then pairs the + factor
    with lam+ and the - factor with lam-.  Contracting with breve_u gives
    exactly 2 whenever lam+ = lam-.
    """
    a, b = _amplitudes(k, "breve_u_bar", "|p0| <= m")
    j = _slot(lam_plus), _slot(lam_minus)
    return _combine(a, 1j * b, k.nhat, _BREVE_PHI[j], _BREVE_PHI_SIGMA[j])


def rest_basis(tau) -> np.ndarray:
    """Displayed band-center basis column e_tau / sqrt(2)."""
    e = np.zeros(4, dtype=complex)
    e[check_choice("tetrad index", tau, _TETRAD)] = 1.0 / math.sqrt(2.0)
    return e


def dirac_adjoint(u) -> np.ndarray:
    """u^+ gamma^0 as a row vector."""
    return row_times(np.conj(check_vectors(u, 4, "bispinor")), gamma(0))


def spinor_from_breve(breve, s, variant: str = "u") -> np.ndarray:
    """Map a breve-band bispinor through the spatial spin tetrad s = (0, svec).

    variant "u": gamma5 (gamma.s) breve;  variant "v": (gamma.s) gamma5 breve,
    with gamma.s = sum_i gamma^i s^i.  Since (gamma.s)^2 = -1 for unit svec,
    which s must be, the two maps compose to -1 and are inverse to each
    other up to sign.
    """
    s = check_spin_vector(s)
    u_map = check_choice("variant", variant, ("u", "v")) == 0
    breve = np.asarray(breve, dtype=complex)
    stack = _GAMMA5_GAMMA_DOT_S if u_map else _GAMMA_DOT_S_GAMMA5
    return times_column(_contract(s, stack, "spin vector"), breve)


def kappa(p0, m):
    """Spin-eigenvalue ratio sqrt((p0 - m)/(p0 + m)) = tanh(chi/2).

    Vanishes at threshold p0 = m and tends to 1 only as p0 -> infinity.
    Raises RegionError unless p0 >= m.  Both terms are halved, an exact scaling
    for normal floats, so p0 + m cannot overflow.
    """
    p0, m = np.asarray(p0, dtype=float), np.asarray(m, dtype=float)
    check_mass(m)
    check_energy(p0)
    check_band("kappa", p0, m, "p0 >= m")
    return np.sqrt(np.maximum(0.5 * (p0 - m), 0.0) / (0.5 * p0 + 0.5 * m))
