"""Spin and energy projectors, diads, and polarization sums.

Polarization sums are returned as (lhs, rhs) pairs: lhs is the explicit
outer-product sum over the constructed basis, rhs the corresponding closed
form.  Tolerances and pass/fail policy live entirely in the verification
layer; nothing here compares the two sides.

Every function broadcasts over leading batch axes of its vector and
kinematic-point arguments (a matrix comes back as (..., 4, 4)), and every
validator checks every point of a batch.
"""

from __future__ import annotations

import numpy as np

from .clifford import (_GAMMA5_SLASH, _I2, _I4, _contract, check_choice, check_vectors, gamma,
                       gamma5, minkowski_dot, pauli_dot, row_times, slash)
# the band constructors are not called here, but callers resolve them as projectors.dirac_u
from .spinors import (_SQRT_MAX, KinematicPoint, _in_scale, _require, _state, breve_u,
                      breve_u_bar, check_bispinor, check_mass, check_spin_vector,
                      check_unit_vector, dirac_u, dirac_u_bar)

POLSUM_KINDS = ("spinor", "antispinor", "breve-plus", "breve-minus", "completeness")

_ONSHELL_TOL = 1e-10


def _outer(u, v) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _check_on_shell(p, m) -> np.ndarray:
    """p as a complex array of finite four-momenta (|p_i| and |p_i|/m below 1.3e154, else
    OverflowError), each on the mass shell p.p = m^2 of a mass 2.2e-308 <= m < 1.3e154:
    |p.p - m^2| <= 1e-10 max(1, m^2, max_i |p_i|^2), so the tolerance grows with the
    momentum's scale.  p and m are divided by max(1, m, max_i |p_i|) before any square is
    formed, so a far-off-shell momentum is refused without overflow.  p comes back
    broadcast to the batch shape it shares with m, one momentum per mass."""
    p = check_vectors(p, 4, "momentum")
    check_mass(m)
    top = abs(p).max(axis=-1)  # nan for a nan component
    _require(top < np.inf, "momentum must be finite, got {}", p)
    _require(_in_scale(top, m) & (m < _SQRT_MAX), "momentum overflows: "
             "p.p - m^2 is out of range at p={}, m={}", p, m, error=OverflowError)
    scale = np.maximum(np.maximum(top, m), 1.0)
    q, mu = p / scale[..., None], m / scale
    gap = minkowski_dot(q, q) - mu * mu
    residual = np.hypot(gap.real, gap.imag)
    _require(residual <= _ONSHELL_TOL, "momentum is off shell: "
             "|p.p - m^2| / max(1, m^2, max_i |p_i|^2) = {:.3e}", residual)
    return p if p.shape == q.shape else np.broadcast_to(p, q.shape)


def spin_projector_rest(nhat) -> np.ndarray:
    """Two-spinor helicity projector (1 + sigma.n)/2."""
    return (_I2 + pauli_dot(check_unit_vector(nhat))) * 0.5


def spin_projector(s) -> np.ndarray:
    """Covariant spin projector (1 + gamma5 slash(s))/2 for spatial unit s.

    Block-diagonal in the Dirac representation:
    diag((1 + sigma.s)/2, (1 - sigma.s)/2).
    """
    return (_I4 + _contract(check_spin_vector(s), _GAMMA5_SLASH, "spin vector")) * 0.5


def add_diagonal(x: np.ndarray, d) -> np.ndarray:
    """x + d I for a fresh C-contiguous stack x of square matrices (..., n, n) and one
    scalar d per matrix, added in place to the diagonal of x, which is returned."""
    if not x.flags.c_contiguous:
        raise ValueError("add_diagonal needs a C-contiguous stack of matrices")
    n = x.shape[-1]
    # a reshape of a C-contiguous array is a view, so the add writes into x
    diagonal = x.reshape(x.shape[:-2] + (n * n,))[..., ::n + 1]
    diagonal += np.asarray(d)[..., None]
    return x


def _energy_projector(p, m, sign: int) -> np.ndarray:
    """energy_projector without its checks, for a momentum built from a validated point."""
    # each entry of slash is exact up to one rounding (see clifford), so slash(-p) equals
    # -slash(p) entry for entry; only the sign of a zero entry may differ
    x = add_diagonal(slash(p if sign > 0 else -p), m)
    # scaled in place by 1 / 2m through the float view, as numpy divides a complex by a
    # real: (re, im) * (1 / d), so only the sign of a zero entry may differ from x / 2m
    scaled = x.view(float)
    scaled *= np.asarray(1.0 / (2.0 * m))[..., None, None]
    return x


def energy_projector(p, m, sign: int) -> np.ndarray:
    """(pslash + m)/2m for sign=+1, (m - pslash)/2m for sign=-1."""
    p = _check_on_shell(p, m)
    check_choice("sign", sign, (+1, -1))
    return _energy_projector(p, m, sign)


def diad(phi, insert: str) -> np.ndarray:
    """Rank-1 matrix |phi> <phi| Gamma with Gamma inserted on the bra side.

    insert is "gamma0" or "gamma5"; the gamma0 case reproduces the usual
    u ubar outer product.
    """
    phi = check_bispinor(phi)
    use_gamma0 = check_choice("insert", insert, ("gamma0", "gamma5")) == 0
    return _outer(phi, row_times(np.conj(phi), gamma(0) if use_gamma0 else gamma5()))


def pi_projector(p, m, s, variant: str = "lambda") -> np.ndarray:
    """Explicit band projectors Lambda_-+(p) P(+-s): energy_projector times spin_projector.

    "lambda":      Lambda_-(p) P(s)  = -(1/4m) (pslash - m) (1 - gamma5 gamma.s)
    "neg-lambda":  Lambda_+(p) P(-s) = +(1/4m) (pslash + m) (1 - gamma.s gamma5)
    """
    if check_choice("variant", variant, ("lambda", "neg-lambda")) == 0:
        return energy_projector(p, m, -1) @ spin_projector(s)
    return energy_projector(p, m, +1) @ spin_projector(np.negative(s))


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
    RegionError for a point outside their band.  The momentum is built here
    from the validated point k, so the on-shell guard of energy_projector
    is not applied to it.
    """
    check_choice("kind", kind, POLSUM_KINDS)
    p = k.momentum()

    if kind in ("spinor", "antispinor", "breve-plus", "breve-minus"):
        # the columns u(+1/2), u(-1/2), then the rows ubar(+1/2), ubar(-1/2), in one pass
        name = "breve_u" if kind.startswith("breve") else "dirac_u"
        pair = _state(k.negated() if kind == "antispinor" else k, name, "pair")
        u = pair.reshape(pair.shape[:-1] + (4, 4))
        lhs = _outer(u[..., 0, :], u[..., 2, :]) + _outer(u[..., 1, :], u[..., 3, :])
        rhs = _energy_projector(p, k.m, +1 if kind in ("spinor", "breve-plus") else -1)
        return lhs, rhs

    lhs = _energy_projector(p, k.m, +1) + _energy_projector(p, k.m, -1)
    rhs = np.empty_like(lhs)
    rhs[...] = _I4
    return lhs, rhs
