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

from .clifford import (_I2, _I4, check_choice, check_vectors, gamma, gamma5, gamma_dot_spatial,
                       minkowski_dot, pauli_dot, row_times, slash)
from .spinors import (HELICITIES, KinematicPoint, _require, breve_u, breve_u_bar, check_mass,
                      check_spin_vector, check_unit_vector, dirac_u, dirac_u_bar)

POLSUM_KINDS = ("spinor", "antispinor", "breve-plus", "breve-minus", "completeness")

_ONSHELL_TOL = 1e-10


def _outer(u, v) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _check_on_shell(p, m) -> np.ndarray:
    """p as a complex array of four-momenta, each on the mass shell p.p = m^2 of a
    mass 0 < m < inf.  The tolerance does not grow with p0, so it refuses some
    valid momenta at large p0/m."""
    p = check_vectors(p, 4, "momentum")
    check_mass(m)
    gap = minkowski_dot(p, p) - m * m
    residual = np.hypot(gap.real, gap.imag)
    _require(residual <= _ONSHELL_TOL * np.maximum(1.0, m * m),
             "momentum is off shell: |p.p - m^2| = {:.3e}", residual)
    return p


def spin_projector_rest(nhat) -> np.ndarray:
    """Two-spinor helicity projector (1 + sigma.n)/2."""
    return (_I2 + pauli_dot(check_unit_vector(nhat))) / 2.0


def spin_projector(s) -> np.ndarray:
    """Covariant spin projector (1 + gamma5 slash(s))/2 for spatial unit s.

    Block-diagonal in the Dirac representation:
    diag((1 + sigma.s)/2, (1 - sigma.s)/2).
    """
    return (_I4 + gamma5() @ slash(check_spin_vector(s))) / 2.0


def _energy_projector(p, m, sign: int) -> np.ndarray:
    """energy_projector without its checks, for a momentum built from a validated point."""
    m = np.asarray(m)[..., None, None]  # one mass per matrix of the batch
    if sign > 0:
        return (slash(p) + m * _I4) / (2.0 * m)
    return (m * _I4 - slash(p)) / (2.0 * m)


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
    phi = check_vectors(phi, 4, "bispinor")
    use_gamma0 = check_choice("insert", insert, ("gamma0", "gamma5")) == 0
    return _outer(phi, row_times(np.conj(phi), gamma(0) if use_gamma0 else gamma5()))


def pi_projector(p, m, s, variant: str = "lambda") -> np.ndarray:
    """Explicit band projectors built from (pslash -+ m) and gamma.s.

    "lambda":      -(1/4m) (pslash - m) (1 - gamma5 gamma.s)
    "neg-lambda":  +(1/4m) (pslash + m) (1 - gamma.s gamma5)
    """
    p = _check_on_shell(p, m)
    gs = gamma_dot_spatial(check_spin_vector(s))
    lambda_variant = check_choice("variant", variant, ("lambda", "neg-lambda")) == 0
    m = np.asarray(m)[..., None, None]  # one mass per matrix of the batch
    if lambda_variant:
        return -(slash(p) - m * _I4) @ (_I4 - gamma5() @ gs) / (4.0 * m)
    return (slash(p) + m * _I4) @ (_I4 - gs @ gamma5()) / (4.0 * m)


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
        if kind in ("spinor", "antispinor"):
            kk = k if kind == "spinor" else k.negated()
            col, row = dirac_u, dirac_u_bar
        else:
            kk, col, row = k, breve_u, breve_u_bar
        lhs = sum(_outer(col(kk, lam, lam), row(kk, lam, lam)) for lam in HELICITIES)
        rhs = _energy_projector(p, k.m, +1 if kind in ("spinor", "breve-plus") else -1)
        return lhs, rhs

    lhs = _energy_projector(p, k.m, +1) + _energy_projector(p, k.m, -1)
    rhs = np.empty_like(lhs)
    rhs[...] = _I4
    return lhs, rhs
