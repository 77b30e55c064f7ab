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

from .clifford import gamma, gamma5, gamma_dot_spatial, minkowski_dot, pauli_dot, row_times, slash
from .spinors import (HELICITIES, KinematicPoint, RegionError, _first, breve_u, breve_u_bar,
                      check_mass, check_unit_vector, dirac_u, dirac_u_bar)

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)

POLSUM_KINDS = ("spinor", "antispinor", "breve-plus", "breve-minus", "completeness")

_ONSHELL_TOL = 1e-10


def _outer(u, v) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _check_spatial_unit(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != (4,):
        raise ValueError(f"spin vector must be a four-vector, got shape {s.shape}")
    bad = _first(abs(s[..., 0]) > 1e-12, s[..., 0])
    if bad:
        raise ValueError(f"spin vector must be spatial (s0 = 0), got s0 = {bad[0]}")
    ss = minkowski_dot(s, s)
    bad = _first(abs(ss + 1.0) > 1e-12, ss)
    if bad:
        raise ValueError(f"spin vector must satisfy s.s = -1, got {bad[0]}")
    return s


def _check_on_shell(p, m) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    if p.shape[-1:] != (4,):
        raise ValueError(f"momentum must be a four-vector, got shape {p.shape}")
    check_mass(m)
    gap = minkowski_dot(p, p) - m * m
    residual = np.hypot(gap.real, gap.imag)
    bad = _first(residual > _ONSHELL_TOL * np.maximum(1.0, m * m), residual)
    if bad:
        raise ValueError(f"momentum is off shell: |p.p - m^2| = {bad[0]:.3e}")
    return p


def spin_projector_rest(nhat) -> np.ndarray:
    """Two-spinor helicity projector (1 + sigma.n)/2."""
    return (_I2 + pauli_dot(check_unit_vector(nhat))) / 2.0


def spin_projector(s) -> np.ndarray:
    """Covariant spin projector (1 + gamma5 slash(s))/2 for spatial unit s.

    Block-diagonal in the Dirac representation:
    diag((1 + sigma.s)/2, (1 - sigma.s)/2).
    """
    s = _check_spatial_unit(s)
    return (_I4 + gamma5() @ slash(s)) / 2.0


def energy_projector(p, m, sign: int) -> np.ndarray:
    """(pslash + m)/2m for sign=+1, (m - pslash)/2m for sign=-1."""
    p = _check_on_shell(p, m)
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    m = np.asarray(m)[..., None, None]  # one mass per matrix of the batch
    if sign > 0:
        return (slash(p) + m * _I4) / (2.0 * m)
    return (m * _I4 - slash(p)) / (2.0 * m)


def diad(phi, insert: str) -> np.ndarray:
    """Rank-1 matrix |phi> <phi| Gamma with Gamma inserted on the bra side.

    insert is "gamma0" or "gamma5"; the gamma0 case reproduces the usual
    u ubar outer product.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape[-1:] != (4,):
        raise ValueError(f"expected a bispinor, got shape {phi.shape}")
    if insert not in ("gamma0", "gamma5"):
        raise ValueError(f"insert must be 'gamma0' or 'gamma5', got {insert!r}")
    return _outer(phi, row_times(np.conj(phi), gamma(0) if insert == "gamma0" else gamma5()))


def pi_projector(p, m, s, variant: str = "lambda") -> np.ndarray:
    """Explicit band projectors built from (pslash -+ m) and gamma.s.

    "lambda":      -(1/4m) (pslash - m) (1 - gamma5 gamma.s)
    "neg-lambda":  +(1/4m) (pslash + m) (1 - gamma.s gamma5)
    """
    p = _check_on_shell(p, m)
    s = _check_spatial_unit(s)
    gs = gamma_dot_spatial(s)
    m = np.asarray(m)[..., None, None]  # one mass per matrix of the batch
    if variant == "lambda":
        return -(slash(p) - m * _I4) @ (_I4 - gamma5() @ gs) / (4.0 * m)
    if variant == "neg-lambda":
        return (slash(p) + m * _I4) @ (_I4 - gs @ gamma5()) / (4.0 * m)
    raise ValueError(f"variant must be 'lambda' or 'neg-lambda', got {variant!r}")


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
    shape (..., 4, 4) for a batch of points k.
    """
    if kind not in POLSUM_KINDS:
        raise ValueError(f"kind must be one of {POLSUM_KINDS}, got {kind!r}")
    p = k.momentum()

    if kind in ("spinor", "antispinor", "breve-plus", "breve-minus"):
        real = kind in ("spinor", "antispinor")
        bad = _first(np.logical_not(k.in_real_band if real else k.in_breve_band), k.p0)
        if bad:
            raise RegionError(f"polsum kind {kind!r} needs |p0| {'>=' if real else '<='} m, "
                              f"got p0={bad[0]}")
        if real:
            kk = k if kind == "spinor" else k.negated()
            col, row = dirac_u, dirac_u_bar
        else:
            kk, col, row = k, breve_u, breve_u_bar
        lhs = sum(_outer(col(kk, lam, lam), row(kk, lam, lam)) for lam in HELICITIES)
        rhs = energy_projector(p, k.m, +1 if kind in ("spinor", "breve-plus") else -1)
        return lhs, rhs

    lhs = energy_projector(p, k.m, +1) + energy_projector(p, k.m, -1)
    rhs = np.empty_like(lhs)
    rhs[...] = _I4
    return lhs, rhs
