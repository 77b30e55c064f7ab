"""Spin and energy projectors, diads, and polarization sums.

Polarization sums are returned as (lhs, rhs) pairs: lhs is the explicit
outer-product sum over the constructed basis, rhs the corresponding closed
form.  Tolerances and pass/fail policy live entirely in the verification
layer; nothing here compares the two sides.

Every function broadcasts over leading batch axes of its vector and
kinematic-point arguments (a matrix comes back as (..., 4, 4)), and every
validator checks every point of a batch.

The energy projector is one clifford._contract of the five-vector x = (p0, p1, p2, p3, m)
with a constant stack, scaled by 1/2m in place, and the spin projector one of (s, 1),
halved; the on-shell guard of the public projectors builds x once and hands it on.
Each public function is its validators followed by a private core (_spin_projector,
_pi_projector, ...), which callers holding checked values call directly.
"""

from __future__ import annotations

import numpy as np

# slash and the band constructors are not called here, but callers resolve them as
# projectors.slash, projectors.dirac_u and so on
from .clifford import (_BLOCK_SWAP, _I2, _I4, _PAULI_DOT, _SLASH, _contract, _contraction,
                       check_choice, check_real, check_vectors, minkowski_dot, slash)
from .spinors import (_SQRT_MAX, KinematicPoint, _dirac_adjoint, _require, _state, breve_u,
                      breve_u_bar, check_bispinor, check_mass, check_spin_vector, check_unit_vector,
                      dirac_u, dirac_u_bar)

POLSUM_KINDS = ("spinor", "antispinor", "breve-plus", "breve-minus", "completeness")

_ONSHELL_TOL = 1e-10


# _contract(x, _ENERGY[sign]) is sign pslash + m I4 for x = (p0, p1, p2, p3, m), and
# _contract((s0, s1, s2, s3, 1), _SPIN) is 1 + gamma5 slash(s): the (5, 4, 4) slash stacks
# (for gamma5 slash, with its row blocks swapped) with I4 appended.  Every entry of a stack
# matrix is 0, +-1 or +-i, and I4 adds m or 1 only to diagonal entries that hold +-p0 or
# +-s3, so each entry is exact up to one rounding, as in slash.
_ENERGY = {sign: _contraction(np.concatenate([sign * _SLASH, _I4[None]])) for sign in (+1, -1)}
_SPIN = _contraction(np.concatenate([_SLASH.take(_BLOCK_SWAP, axis=-2), _I4[None]]))


def _outer(u, v) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _five_vector(k: KinematicPoint) -> np.ndarray:
    """x = (p0, p1, p2, p3, m) of a validated point k: its momentum beside its mass."""
    x = k._momentum_in(5)
    x[..., 4] = k.m
    return x


def _check_on_shell(p, m) -> tuple:
    """(x, m): the masses m as floats, from any real or sequence of reals, and the complex
    five-vectors x = (p0, p1, p2, p3, m) of finite four-momenta p (|p_i| and |p_i|/m below
    1.3e154, else OverflowError), each on the mass shell p.p = m^2 of a mass 2.2e-308 <= m
    < 1.3e154: |p.p - m^2| <= 1e-10 max(m^2, max_i |p_i|^2), relative at every scale.  p and
    m are divided by max(m, max_i |p_i|) >= m before any square is formed, so a far-off-shell
    momentum is refused without overflow.  x has the batch shape p and m share, one momentum
    per mass."""
    p = check_vectors(p, 4, "momentum")
    m = check_real(m, "mass")[()]
    check_mass(m)
    # max_i |p_i| at p's own batch shape, which the finiteness message indexes; then with m
    top = abs(p).max(axis=-1)
    _require(top < np.inf, "momentum must be finite, got {}", p)
    top = np.maximum(top, m)
    x = np.empty(top.shape + (5,), dtype=complex)
    x[..., :4] = p
    x[..., 4] = m
    # top < 1.3e154 and top / 1.3e154 < m iff m, each |p_i| and each |p_i|/m are below 1.3e154
    _require((top < _SQRT_MAX) & (top / _SQRT_MAX < m), "momentum overflows: p.p - m^2 is "
             "out of range at p={}, m={}", x[..., :4], m, error=OverflowError)
    q, mu = p / top[..., None], m / top
    gap = minkowski_dot(q, q) - mu * mu
    residual = np.hypot(gap.real, gap.imag)
    _require(residual <= _ONSHELL_TOL, "momentum is off shell: "
             "|p.p - m^2| / max(m^2, max_i |p_i|^2) = {:.3e}", residual)
    return x, m


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


def _energy_projector(x, m, sign: int) -> np.ndarray:
    """energy_projector without its checks: (sign pslash + m I4) / 2m, fresh, for five-vectors
    x = (p, m) and float masses m (a validated point's, or _check_on_shell's), sign +1 or -1."""
    e = _contract(x, _ENERGY[sign])
    # scaled in place by 1 / 2m through the float view, as numpy divides a complex by a
    # real: (re, im) * (1 / d), so only the sign of a zero entry may differ from e / 2m
    scaled = e.view(float)
    scaled *= np.asarray(1.0 / (2.0 * m))[..., None, None]
    return e


def energy_projector(p, m, sign: int) -> np.ndarray:
    """(pslash + m)/2m for sign=+1, (m - pslash)/2m for sign=-1."""
    x, m = _check_on_shell(p, m)
    check_choice("sign", sign, (+1, -1))
    return _energy_projector(x, m, sign)


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
    x, m = _check_on_shell(p, m)
    return _pi_projector(x, m, check_spin_vector(s), sign)


def _pi_projector(x, m, s, sign: int) -> np.ndarray:
    """pi_projector without its checks: Lambda_sign P(-sign s) for five-vectors x = (p, m)
    and float masses m (as _energy_projector takes them) and spin vectors s that
    check_spin_vector accepts; sign -1 is "lambda", +1 "neg-lambda"."""
    return _energy_projector(x, m, sign) @ _spin_projector(-sign * s)


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
    x = _five_vector(k)

    if kind in ("spinor", "antispinor", "breve-plus", "breve-minus"):
        # the equal-label states: the columns u(+1/2), u(-1/2), then their rows
        name = "breve_u" if kind.startswith("breve") else "dirac_u"
        u = _state(k.negated() if kind == "antispinor" else k, name)
        lhs = _outer(u[..., 0, :], u[..., 2, :]) + _outer(u[..., 1, :], u[..., 3, :])
        rhs = _energy_projector(x, k.m, +1 if kind in ("spinor", "breve-plus") else -1)
        return lhs, rhs

    lhs = _energy_projector(x, k.m, +1) + _energy_projector(x, k.m, -1)
    rhs = np.empty_like(lhs)
    rhs[...] = _I4
    return lhs, rhs
