"""Dirac gamma matrices and the surrounding Clifford-algebra helpers.

Everything is fixed to the standard (Dirac) representation and the
metric diag(+1, -1, -1, -1).  Matrices are complex128, cached at module
load, and returned as read-only views; all functions are pure.  Functions
of vectors broadcast over leading batch axes: a (..., 4) input gives a
(..., 4, 4) output, and a single vector is the empty batch shape.

gamma0 (the diagonal _GAMMA0_SIGNS) and gamma5 (which swaps the two blocks) are signed
permutations: a product of an argument with either is a sign flip or an index take along
the permuted axis (_BLOCK_SWAP), exact entry by entry, never a matmul.  So gamma5 M is
M.take(_BLOCK_SWAP, axis=-2) and M gamma5 is M.take(_BLOCK_SWAP, axis=-1), for a constant
stack M too.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from numbers import Integral

import numpy as np


def _read_only(a):
    """a, an array the library made itself, marked read-only (a scalar as it is)."""
    if isinstance(a, np.ndarray):
        a.setflags(write=False)
    return a


METRIC = _read_only(np.diag([1.0, -1.0, -1.0, -1.0]))

_I2 = _read_only(np.eye(2, dtype=complex))
_I4 = _read_only(np.eye(4, dtype=complex))
_Z2 = _read_only(np.zeros((2, 2), dtype=complex))

_PAULI = tuple(map(_read_only, (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)))

_GAMMA = tuple(map(_read_only, (
    np.block([[_I2, _Z2], [_Z2, -_I2]]),
    np.block([[_Z2, _PAULI[0]], [-_PAULI[0], _Z2]]),
    np.block([[_Z2, _PAULI[1]], [-_PAULI[1], _Z2]]),
    np.block([[_Z2, _PAULI[2]], [-_PAULI[2], _Z2]]),
)))
_GAMMA5 = _read_only(1j * _GAMMA[0] @ _GAMMA[1] @ _GAMMA[2] @ _GAMMA[3])
_GAMMA0_SIGNS = _read_only(_GAMMA[0].diagonal().copy())
_BLOCK_SWAP = _read_only(np.array([2, 3, 0, 1]))


def _contraction(stack) -> tuple:
    """A constant (k, r, c) stack as _contract takes it: its read-only (k, r c) form, (r, c)."""
    stack = np.asarray(stack)
    return _read_only(stack.reshape(len(stack), -1)), stack.shape[1:]


# Matrix stacks for pauli_dot, slash and spinors.spinor_from_breve's gamma.s: vector component
# i multiplies matrix i.  Each entry of the sum collects at most two exact
# products (a component times 0, +-1 or +-i), so one matrix product of the
# vectors with the flattened stack equals the term-by-term sum exactly.
_PAULI_DOT = _contraction(_PAULI)
_SLASH = _read_only(np.stack((_GAMMA[0], -_GAMMA[1], -_GAMMA[2], -_GAMMA[3])))
_GAMMA_DOT_S = _read_only(np.stack((0 * _GAMMA[0], *_GAMMA[1:])))
_SLASH_DOT, _GAMMA_DOT_S_DOT = _contraction(_SLASH), _contraction(_GAMMA_DOT_S)
_PLAIN = frozenset((float, int))  # the element types of a sequence of plain numbers
_NOT_A_CHOICE = (bool, np.bool_, complex, np.complexfloating, np.ndarray)  # see check_choice


def _holds_bool(x) -> bool:
    """Whether a list or tuple x holds a bool, an np.bool_ or a bool array at any depth."""
    return not _PLAIN.issuperset(map(type, x)) and any(
        _holds_bool(v) if isinstance(v, (list, tuple)) else np.asarray(v).dtype == bool
        for v in x)


# the array kinds check_real converts to each dtype, and the word its refusal uses
_KINDS = {float: ("iuf", "real"), complex: ("iufc", "numeric"), int: ("iu", "integer"),
          None: ("iufc", "numeric")}


def check_real(x, what: str, dtype=float) -> np.ndarray:
    """x as a fresh float array, for dtype int a fresh int64 one (labels), for dtype
    complex a complex128 one (x itself if it is), or for dtype None an int, float or
    complex array of x's own type (x itself if it is an array).  Only int and float input
    converts to float, only int input to int, and complex input to complex; anything else
    (a complex where a real is required, a float where an integer is, a str, bytes, a bool,
    a dict, an object array, a sequence holding a bool), which numpy would parse, cut to
    real or read as 0 or 1, is a ValueError."""
    if dtype is float and type(x) is float:  # what the steps below give, without them
        return np.array(x)
    if isinstance(x, (list, tuple)) and _holds_bool(x):
        x = True  # refused below as a bool alone is, before numpy reads it as 0 or 1
    x = np.array(x) if dtype is float or dtype is int else np.asarray(x)
    kinds, kind = _KINDS[dtype]
    if x.dtype.kind not in kinds:
        raise ValueError(f"{what} must be {kind}, got {x.dtype}")
    return x if dtype is None else x.astype(dtype, copy=False)


def check_vectors(x, n: int, what: str, dtype=complex) -> np.ndarray:
    """x as an array of ``dtype`` (by check_real) with shape (..., n), one per point."""
    x = check_real(x, what, dtype)
    if x.shape[-1:] == (n,):
        return x
    raise ValueError(f"{what} must have shape (..., {n}), got shape {x.shape}")


def _require(ok, message: str, *values, error=ValueError) -> None:
    """Raise ``error`` unless ``ok`` holds at every point; ``message`` is formatted
    with the values (per-point scalars or rows) at the first point where it fails."""
    if (ok.all() if isinstance(ok, np.ndarray) else ok):
        return
    ok = np.asarray(ok)
    at = np.unravel_index(np.argmin(ok), ok.shape)
    raise error(message.format(*(np.asarray(v)[at] if np.ndim(v) > ok.ndim
                                 else np.broadcast_to(v, ok.shape)[at] for v in values)))


def check_bispinor(u, n: int = 4, what: str = "bispinor", dtype=complex) -> np.ndarray:
    """u as an array of ``dtype`` (by check_vectors) of shape (..., n), each component finite:
    a bispinor, a two-spinor (n = 2), or the 3- or 4-vector of a Clifford helper."""
    u = check_vectors(u, n, what, dtype)
    _require(np.isfinite(u).all(axis=-1), what + " must be finite, got {}", u)
    return u


def check_choice(what: str, value, options: tuple) -> int:
    """The position of value in options, which must hold it.  Refused although Python
    finds them equal to an option: a bool (True == 1), a complex (0.5+0j == 0.5, as
    check_real refuses a complex where a real is required), a value that is not an integer
    (numbers.Integral, which NumPy ints are) where it matches an int option (1.0 == 1),
    and an array of any size, whose == is elementwise."""
    if not isinstance(value, _NOT_A_CHOICE) and value in options:
        i = options.index(value)
        if not isinstance(options[i], int) or isinstance(value, Integral):
            return i
    raise ValueError(f"{what} must be one of {options}, got {value!r}")


def _contract(x, stack: tuple) -> np.ndarray:
    """sum_i x[..., i] S[i] for checked vectors x (..., k) and a stack S from _contraction."""
    flat, shape = stack
    return (x @ flat).reshape(x.shape[:-1] + shape)


def pauli(i: int) -> np.ndarray:
    """Pauli matrix sigma_i, i in {1, 2, 3}."""
    return _PAULI[check_choice("Pauli index", i, (1, 2, 3))]


def pauli_dot(nvec) -> np.ndarray:
    """sigma . n for finite real or complex 3-vectors n of shape (..., 3)."""
    return _contract(check_bispinor(nvec, 3, "3-vector"), _PAULI_DOT)


def gamma(mu: int) -> np.ndarray:
    """Contravariant gamma^mu in the Dirac representation, mu in 0..3."""
    return _GAMMA[check_choice("gamma index", mu, (0, 1, 2, 3))]


def gamma_lower(mu: int) -> np.ndarray:
    """Covariant gamma_mu = g_{mu mu} gamma^mu (no sum)."""
    g = gamma(mu)
    return g if mu == 0 else -g


def gamma5() -> np.ndarray:
    """gamma5 = i gamma^0 gamma^1 gamma^2 gamma^3; off-diagonal unit blocks."""
    return _GAMMA5


def _perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def gamma5_from_epsilon() -> np.ndarray:
    """gamma5 rebuilt from the rank-4 epsilon contraction.

    Evaluated as -(i/4!) sum_perm eps(perm) gamma_a gamma_b gamma_c gamma_d
    over index-lowered gammas with eps(0,1,2,3) = +1.  The lowered-index
    evaluation is what reproduces i gamma^0 gamma^1 gamma^2 gamma^3; the
    same sum over upper-index gammas flips the overall sign.
    """
    acc = np.zeros((4, 4), dtype=complex)
    for p in permutations(range(4)):
        acc += _perm_sign(p) * reduce(np.matmul, (gamma_lower(mu) for mu in p))
    return -1j / 24.0 * acc


def minkowski_dot(a, b):
    """a . b with metric diag(+1,-1,-1,-1) over the last axis of finite 4-vectors; bilinear."""
    # .T puts the component axis first; the second .T restores the batch axes
    t0, t1, t2, t3 = (check_bispinor(a, 4, "4-vector") * check_bispinor(b, 4, "4-vector")).T
    return (t0 - t1 - t2 - t3).T


def slash(a) -> np.ndarray:
    """Feynman slash a_mu gamma^mu = a^0 g0 - a^1 g1 - a^2 g2 - a^3 g3 of finite 4-vectors."""
    return _contract(check_bispinor(a, 4, "4-vector"), _SLASH_DOT)


def sigma_munu(mu: int, nu: int) -> np.ndarray:
    """sigma_{mu nu} = (i/2)[gamma_mu, gamma_nu] with lowered indices."""
    gm, gn = gamma_lower(mu), gamma_lower(nu)
    return 0.5j * (gm @ gn - gn @ gm)


def generalized_pauli(lam: int) -> np.ndarray:
    """Generalized Pauli matrix sigma^(+)_lam, lam in {1, 2, 3}.

    sum_{ij} eps_{lam i j} sigma_{ij} over all ordered pairs (i, j) in
    {1,2,3}^2.  Both orderings of each pair contribute, so the result carries
    a factor 2 relative to a single-ordering sum: sigma^+_3 = 2 sigma_{12}.
    The minus matrix sigma^(-)_lam, with eps_{lam j i}, is its negation.
    """
    check_choice("generalized Pauli index", lam, (1, 2, 3))
    acc = np.zeros((4, 4), dtype=complex)
    for i, j in permutations((1, 2, 3), 2):
        if lam not in (i, j):
            acc += _perm_sign((lam, i, j)) * sigma_munu(i, j)
    return acc


# Vector products per batch point through matmul with singleton axes: each
# point gets the same BLAS call as the single-vector product, so a batch
# reproduces the single-point values bit for bit.
def row_times(v, m) -> np.ndarray:
    """Row vectors v (..., n) times matrices m (..., n, k), one product per batch point."""
    return (np.asarray(v)[..., None, :] @ m)[..., 0, :]


def times_column(m, v) -> np.ndarray:
    """Matrices m (..., k, n) times column vectors v (..., n), one product per batch point."""
    return (m @ np.asarray(v)[..., None])[..., 0]


def dot(u, v):
    """Bilinear u . v over the last axis (no conjugation), one per batch point."""
    return (np.asarray(u)[..., None, :] @ np.asarray(v)[..., None])[..., 0, 0]


def trace(ms):
    """Trace of the ordered product M_1 ... M_k of k >= 1 int, float or complex matrices
    (arrays or nested lists) of shape (..., 4, 4) whose batch axes broadcast; any other
    factor is a ValueError (check_real's rule, then the shape).  Real factors give a real
    trace.  M = M_1 ... M_{k-1} takes k - 2 matmuls; with L = M_k, tr(M L) adds 16
    elementwise products over the batch as r_i = (M_i0 L_0i + M_i1 L_1i) + (M_i2 L_2i +
    M_i3 L_3i), then (r_0 + r_1) + (r_2 + r_3); one factor gives (M_00 + M_11) + (M_22 +
    M_33).  No sum runs along a point's own axis, so a point gives its batch row's bits."""
    ms = [_check_factor(m) for m in ms]
    if not ms:
        raise ValueError("trace of an empty product is undefined")
    return _trace(ms)


def _trace(ms):
    """trace without its checks, for k >= 1 factors that _check_factor accepts."""
    if len(ms) == 1:
        m = ms[0]
        return (m[..., 0, 0] + m[..., 1, 1]) + (m[..., 2, 2] + m[..., 3, 3])
    m, last = reduce(np.matmul, ms[:-1]), ms[-1]
    r = [(m[..., i, 0] * last[..., 0, i] + m[..., i, 1] * last[..., 1, i])
         + (m[..., i, 2] * last[..., 2, i] + m[..., i, 3] * last[..., 3, i]) for i in range(4)]
    return (r[0] + r[1]) + (r[2] + r[3])


def _check_factor(m) -> np.ndarray:
    """m as a numeric array (by check_real, keeping its type) of shape (..., 4, 4), each
    entry finite."""
    m = check_real(m, "trace factor", None)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"trace factor must have shape (..., 4, 4), got shape {m.shape}")
    _require(np.isfinite(m).all(axis=(-2, -1)), "trace factor must be finite, got {}", m)
    return m
