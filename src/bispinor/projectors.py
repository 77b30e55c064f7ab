"""Spin and energy projectors, diads, and polarization sums.

Polarization sums are returned as (lhs, rhs) pairs: lhs is the explicit
outer-product sum over the constructed basis, rhs the corresponding closed
form.  Tolerances and pass/fail policy live entirely in the verification
layer; nothing here compares the two sides.

Every function broadcasts over leading batch axes of its vector and
kinematic-point arguments (a matrix comes back as (..., 4, 4)), and every
validator checks every point of a batch.

The energy projector is one contraction of the five-vector x = (p0, p1, p2, p3, m) with a
constant stack, scaled by 1/2m in place, and the spin projector one of (s, 1), halved; the
energy stack comes in both signs, so the completeness sum Lambda+ + Lambda- is one
contraction with the two-sign stack, scaled once, and Pi takes P(-s) at the negated s.
x is the one carrier of (p, m): KinematicPoint._five_vector builds it once per point and keeps
it read-only, the on-shell guard of the public projectors builds it for a caller's momentum,
and the cores only read it, the mass from its slot 4.  Each public function is its validators
followed by a private core (_spin_projector, _pi_projector, ...), which callers holding checked
values call directly.
"""

from __future__ import annotations

import numpy as np

# slash and the band constructors are not called here, but callers resolve them as
# projectors.slash, projectors.dirac_u and so on
from .clifford import (_BLOCK_SWAP, _I2, _I4, _PAULI_DOT, _SLASH, _contract, _contraction,
                       _read_only, _require, check_bispinor, check_choice, check_real,
                       check_vectors, slash)
from .spinors import (KinematicPoint, _dirac_adjoint, _state, breve_u, breve_u_bar, check_mass,
                      check_scale, check_spin_vector, check_unit_vector, dirac_u, dirac_u_bar)

POLSUM_KINDS = ("spinor", "antispinor", "breve-plus", "breve-minus", "completeness")

_ONSHELL_TOL = 1e-10


# _contract(x, _ENERGY[sign]) is sign pslash + m I4 for x = (p0, p1, p2, p3, m), and
# _contract((s0, s1, s2, s3, 1), _SPIN) is 1 + gamma5 slash(s): the (5, 4, 4) slash
# stacks (for gamma5 slash, with its row blocks swapped) with I4 appended.
# _ENERGY_PAIR is the two flat energy stacks as one (2, 5, 16) stack: the product of points
# x (n, 5) with it is Lambda+ and Lambda- as two contiguous (n, 16) blocks.  Every entry of
# a stack matrix is 0, +-1 or +-i, and I4 adds m or 1 only to diagonal entries that hold
# +-p0 or +-s3, so each entry is exact up to one rounding, as in slash; a sign carried by
# the stack gives the bits of negating the vector.
_ENERGY = {sign: _contraction(np.concatenate([sign * _SLASH, _I4[None]])) for sign in (+1, -1)}
_ENERGY_PAIR = _read_only(np.stack([_ENERGY[sign][0] for sign in (+1, -1)]))
_SPIN = _contraction(np.concatenate([_SLASH.take(_BLOCK_SWAP, axis=-2), _I4[None]]))
# the metric's signs over x = (p0, p1, p2, p3, m): y.y with this weight is p.p - m^2
_SHELL = _read_only(np.array([1, -1, -1, -1, -1], dtype=complex))


def _outer(u, v) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _check_on_shell(p, m) -> np.ndarray:
    """The complex five-vectors x = (p0, p1, p2, p3, m) that the cores read m from, of finite
    four-momenta p and masses m >= 2.2e-308 given as any real or sequence of reals, in scale by
    spinors.check_scale (else OverflowError) and each on the mass shell p.p = m^2:
    |p.p - m^2| <= 1e-10 max(m^2, max_i |p_i|^2), relative at every scale.  x is
    divided by top = max(m, max_i |p_i|) >= m before any square is formed, so a far-off-shell
    momentum is refused without overflow, and the residual is one contraction of y = x / top:
    |sum_i w_i y_i^2| with w = (1, -1, -1, -1, -1).  Each |y_i| <= 1, so the quotients, the
    squares and their sum each round by a few units of 2^-53 on terms of at most 1, about
    6e-15 in all over the five terms: only a momentum whose exact residual lies that close to
    1e-10 may go either way.  x has the batch shape p and m share, one momentum per mass."""
    p = check_vectors(p, 4, "momentum")
    m = check_real(m, "mass")[()]
    check_mass(m)
    # max_i |p_i| at p's own batch shape, which the finiteness message indexes; then with m
    top = abs(p).max(axis=-1)
    _require(top < np.inf, "momentum must be finite, got {}", p)
    check_scale(top, m, "max_i |p_i|")
    top = np.maximum(top, m)
    x = np.empty(top.shape + (5,), dtype=complex)
    x[..., :4] = p
    x[..., 4] = m
    y = x / top[..., None]
    residual = abs((y * y) @ _SHELL)
    _require(residual <= _ONSHELL_TOL, "momentum is off shell: "
             "|p.p - m^2| / max(m^2, max_i |p_i|^2) = {:.3e}", residual)
    return x


def spin_projector_rest(nhat) -> np.ndarray:
    """Two-spinor helicity projector (1 + sigma.n)/2."""
    return _spin_projector_rest(check_unit_vector(nhat))


def _spin_projector_rest(n) -> np.ndarray:
    """spin_projector_rest without its check, for unit vectors n that check_unit_vector gave."""
    return (_I2 + _contract(n, _PAULI_DOT)) * 0.5


def spin_projector(s) -> np.ndarray:
    """Covariant spin projector (1 + gamma5 slash(s))/2 for spatial unit s.

    Block-diagonal in the Dirac representation:
    diag((1 + sigma.s)/2, (1 - sigma.s)/2).
    """
    return _spin_projector(check_spin_vector(s))


def _spin_projector(s) -> np.ndarray:
    """spin_projector without its check, for spin vectors s that check_spin_vector gave."""
    y = np.empty(s.shape[:-1] + (5,), dtype=complex)
    y[..., :4] = s
    y[..., 4] = 1.0
    return _contract(y, _SPIN) * 0.5


def _over_2m(x, flat) -> np.ndarray:
    """x @ flat for x = (p0, p1, p2, p3, m) with real m, scaled by 1/2m: a flat energy stack's
    product, its matrices not yet shaped.  x is only read; the fresh product is scaled."""
    e = x @ flat
    # scaled in place by 0.5 / m, 1 / 2m rounded once, through the float view, as numpy divides
    # a complex by a real: (re, im) * (1 / d), so only a zero's sign may differ from e / 2m
    scaled = e.view(float)
    scaled *= 0.5 / x[..., 4:].real
    return e


def _energy_projector(x, sign: int) -> np.ndarray:
    """energy_projector without its checks, for x = (p0, p1, p2, p3, m) with real m."""
    flat, shape = _ENERGY[sign]
    return _over_2m(x, flat).reshape(x.shape[:-1] + shape)


def energy_projector(p, m, sign: int) -> np.ndarray:
    """(pslash + m)/2m for sign=+1, (m - pslash)/2m for sign=-1."""
    x = _check_on_shell(p, m)
    check_choice("sign", sign, (+1, -1))
    return _energy_projector(x, sign)


def diad(phi, insert: str) -> np.ndarray:
    """Rank-1 matrix |phi> <phi| Gamma with Gamma inserted on the bra side.

    insert is "gamma0" or "gamma5"; the gamma0 case reproduces the usual
    u ubar outer product.
    """
    phi = check_bispinor(phi)
    check_choice("insert", insert, ("gamma0", "gamma5"))
    return _diad(phi, insert)


def _diad(phi, insert: str) -> np.ndarray:
    """diad without its checks, for finite bispinors phi and insert "gamma0" or "gamma5"."""
    if insert == "gamma0":
        return _outer(phi, _dirac_adjoint(phi))
    return _outer(phi, np.conj(phi).take(_BLOCK_SWAP, axis=-1))


def pi_projector(p, m, s, variant: str = "lambda") -> np.ndarray:
    """Explicit band projectors Lambda_-+(p) P(+-s): energy_projector times spin_projector.

    "lambda":      Lambda_-(p) P(s)  = -(1/4m) (pslash - m) (1 - gamma5 gamma.s)
    "neg-lambda":  Lambda_+(p) P(-s) = +(1/4m) (pslash + m) (1 - gamma.s gamma5)

    A projector (Pi^2 = Pi, rank 1) only where s.p = 0, i.e. svec is orthogonal to pvec,
    where Lambda(p) and P(s) commute; else, as on the breve band with svec along nhat, not.
    """
    sign = +1 if check_choice("variant", variant, ("lambda", "neg-lambda")) else -1
    return _pi_projector(_check_on_shell(p, m), check_spin_vector(s), sign)


def _pi_projector(x, s, sign: int) -> np.ndarray:
    """pi_projector without its checks, for x as _energy_projector's and s check_spin_vector's."""
    return _energy_projector(x, sign) @ _spin_projector(-s if sign > 0 else s)


def polsum(kind: str, k: KinematicPoint):
    """Polarization sum for the given kind, as an (lhs, rhs) pair.

    lhs is always the explicit sum of outer products over the two equal
    helicity labels; rhs is the closed form attached to that sum:

      spinor       sum_l u(p)  ubar(p)   vs (pslash + m)/2m, |p0| >= m
      antispinor   sum_l u(-p) ubar(-p)  vs (m - pslash)/2m, |p0| >= m
      breve-plus   sum_l breve ubar      vs (pslash + m)/2m, |p0| <= m
      breve-minus  same lhs              vs (m - pslash)/2m, |p0| <= m
      completeness energy(+) + energy(-) vs identity

    The antispinor lhs evaluates the same constructors at the negated
    energy point, where the closed form holds through the principal-branch
    continuation of both the column and the adjoint row.  Both sides have
    shape (..., 4, 4) for a batch of points k.  The band constructors raise
    RegionError for a point outside their band.  The momentum is the
    validated point k's kept x, so the on-shell guard of energy_projector
    is not applied to it.
    """
    check_choice("kind", kind, POLSUM_KINDS)
    x = k._five_vector()

    if kind in ("spinor", "antispinor", "breve-plus", "breve-minus"):
        # the equal-label states: the columns u(+1/2), u(-1/2), then their rows
        name = "breve_u" if kind.startswith("breve") else "dirac_u"
        u = _state(k.negated() if kind == "antispinor" else k, name)
        lhs = u[..., 0, :, None] * u[..., 2, None, :] + u[..., 1, :, None] * u[..., 3, None, :]
        rhs = _energy_projector(x, +1 if kind in ("spinor", "breve-plus") else -1)
        return lhs, rhs

    # Lambda+ and Lambda- of every point, the sign axis first: (2, n, 16)
    both = _over_2m(x.reshape(-1, 5), _ENERGY_PAIR)
    lhs = (both[0] + both[1]).reshape(x.shape[:-1] + (4, 4))
    rhs = np.empty_like(lhs)
    rhs[...] = _I4
    return lhs, rhs
