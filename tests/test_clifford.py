import re
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor import clifford as cl

I2 = np.eye(2)
I4 = np.eye(4)

# independent construction of the representation, used as the oracle below
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
G0_LIT = np.diag([1, 1, -1, -1]).astype(complex)
G_LIT = [G0_LIT] + [np.block([[0 * I2, s], [-s, 0 * I2]]) for s in (S1, S2, S3)]
G5_LIT = 1j * G_LIT[0] @ G_LIT[1] @ G_LIT[2] @ G_LIT[3]


def test_gamma0_is_diag_block():
    np.testing.assert_allclose(cl.gamma(0), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma_matches_literal_representation():
    for mu in range(4):
        np.testing.assert_allclose(cl.gamma(mu), G_LIT[mu])


def test_gamma_squares():
    np.testing.assert_allclose(cl.gamma(0) @ cl.gamma(0), I4, atol=1e-15)
    for i in (1, 2, 3):
        np.testing.assert_allclose(cl.gamma(i) @ cl.gamma(i), -I4, atol=1e-15)


def test_gamma_index_out_of_range():
    with pytest.raises(ValueError):
        cl.gamma(4)
    with pytest.raises(ValueError):
        cl.gamma(-1)
    with pytest.raises(ValueError):
        cl.gamma_lower(5)


def test_gammas_are_readonly_and_cached():
    g = cl.gamma(1)
    assert g is cl.gamma(1)
    with pytest.raises(ValueError):
        g[0, 0] = 7.0


def test_anticommutators_give_metric():
    for mu in range(4):
        for nu in range(4):
            anti = cl.gamma(mu) @ cl.gamma(nu) + cl.gamma(nu) @ cl.gamma(mu)
            np.testing.assert_allclose(anti, 2 * cl.METRIC[mu, nu] * I4, atol=1e-14)


def test_hermiticity_pattern():
    np.testing.assert_allclose(cl.gamma(0).conj().T, cl.gamma(0), atol=1e-15)
    np.testing.assert_allclose(cl.gamma5().conj().T, cl.gamma5(), atol=1e-15)
    for i in (1, 2, 3):
        np.testing.assert_allclose(cl.gamma(i).conj().T, -cl.gamma(i), atol=1e-15)


def test_gamma5_against_literal_product():
    np.testing.assert_allclose(cl.gamma5(), G5_LIT, atol=1e-15)
    # off-diagonal unit blocks in this representation
    expected = np.block([[0 * I2, I2], [I2, 0 * I2]]).astype(complex)
    np.testing.assert_allclose(cl.gamma5(), expected, atol=1e-15)


def test_gamma5_squares_and_anticommutes():
    np.testing.assert_allclose(cl.gamma5() @ cl.gamma5(), I4, atol=1e-15)
    for mu in range(4):
        anti = cl.gamma5() @ cl.gamma(mu) + cl.gamma(mu) @ cl.gamma5()
        np.testing.assert_allclose(anti, np.zeros((4, 4)), atol=1e-15)


def test_gamma5_epsilon_contraction_equivalence():
    np.testing.assert_allclose(cl.gamma5_from_epsilon(), cl.gamma5(), atol=1e-14)


def test_slash_of_time_unit_vector():
    np.testing.assert_allclose(cl.slash([1, 0, 0, 0]), cl.gamma(0), atol=1e-15)


def test_slash_square_is_minkowski_norm():
    # 1.25^2 - 0.75^2 = 1.0
    p = [1.25, 0.0, 0.0, 0.75]
    np.testing.assert_allclose(cl.slash(p) @ cl.slash(p), 1.0 * I4, atol=1e-14)


def test_slash_anticommutes_with_gamma5():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = rng.normal(size=4)
        anti = cl.slash(s) @ cl.gamma5() + cl.gamma5() @ cl.slash(s)
        np.testing.assert_allclose(anti, np.zeros((4, 4)), atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(-5, 5), beta=st.floats(-5, 5),
    a=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    b=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
)
def test_slash_linearity(alpha, beta, a, b):
    a, b = np.array(a), np.array(b)
    lhs = cl.slash(alpha * a + beta * b)
    rhs = alpha * cl.slash(a) + beta * cl.slash(b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_sigma_munu_antisymmetry():
    np.testing.assert_allclose(cl.sigma_munu(1, 1), np.zeros((4, 4)), atol=1e-15)
    np.testing.assert_allclose(cl.sigma_munu(2, 1), -cl.sigma_munu(1, 2), atol=1e-15)


def test_sigma_12_block_value():
    # (i/2)[gamma_1, gamma_2] = diag(sigma3, sigma3)
    expected = np.block([[S3, 0 * I2], [0 * I2, S3]])
    np.testing.assert_allclose(cl.sigma_munu(1, 2), expected, atol=1e-15)


def test_generalized_pauli_double_sum():
    np.testing.assert_allclose(cl.generalized_pauli(3), 2 * cl.sigma_munu(1, 2), atol=1e-15)
    np.testing.assert_allclose(cl.generalized_pauli(1), 2 * cl.sigma_munu(2, 3), atol=1e-15)
    np.testing.assert_allclose(cl.generalized_pauli(2), 2 * cl.sigma_munu(3, 1), atol=1e-15)


def test_generalized_pauli_minus_is_negated_plus():
    # sigma^(-)_lam = sum_ij eps_{lam j i} sigma_ij, written out, is -sigma^(+)_lam
    eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}
    for lam in (1, 2, 3):
        minus = sum(eps.get((lam, j, i), 0) * cl.sigma_munu(i, j)
                    for i, j in product((1, 2, 3), repeat=2))
        np.testing.assert_allclose(minus, -cl.generalized_pauli(lam), atol=1e-15)


def test_generalized_pauli_bad_args():
    for lam in (0, 4):
        with pytest.raises(ValueError):
            cl.generalized_pauli(lam)


def test_trace_values():
    assert cl.trace([cl.gamma(0), cl.gamma(0)]) == pytest.approx(4.0)
    assert cl.trace([cl.gamma(0), cl.gamma(1)]) == pytest.approx(0.0)
    # tr(slash p slash q) = 4 p.q = 8 for p=(1,0,0,0), q=(2,0,0,1)
    p, q = [1, 0, 0, 0], [2, 0, 0, 1]
    assert cl.trace([cl.slash(p), cl.slash(q)]) == pytest.approx(8.0)


def _trace_factor_sets(batch):
    """Factor lists at mixed scales: 3, 2 and 1 batched factors, and a batch beside a single."""
    rng = np.random.default_rng(len(batch) + sum(batch))
    scale = 10.0 ** rng.integers(-8, 8, (3, *batch, 4, 4))
    ms = scale * (rng.normal(size=scale.shape) + 1j * rng.normal(size=scale.shape))
    return ms, ms[:2], ms[:1], (ms[0], ms[1][(0,) * len(batch)])


def _trace_in_stated_order(factors):
    """trace's documented order written out over numpy scalars, one sample at a time.

    M = M_1 ... M_{k-1} is the batch's matmul, as trace forms it.  Each product is
    np.multiply of two numpy scalars, which runs the array loop; `*` on two numpy complex
    scalars runs numpy's scalar math instead, which can give other bits than that loop.
    """
    if len(factors) == 1:
        m = np.asarray(factors[0])
        diag = np.empty(m.shape[:-2], m.dtype)
        for idx in np.ndindex(diag.shape):
            d = m[idx]
            diag[idx] = (d[0, 0] + d[1, 1]) + (d[2, 2] + d[3, 3])
        return diag[()]
    m, last = reduce(np.matmul, factors[:-1]), factors[-1]
    shape = np.broadcast_shapes(m.shape, last.shape)
    m, last = np.broadcast_to(m, shape), np.broadcast_to(last, shape)
    out = np.empty(shape[:-2], np.result_type(m, last))
    for idx in np.ndindex(out.shape):
        a, b = m[idx], last[idx]
        r = [(np.multiply(a[i, 0], b[0, i]) + np.multiply(a[i, 1], b[1, i]))
             + (np.multiply(a[i, 2], b[2, i]) + np.multiply(a[i, 3], b[3, i]))
             for i in range(4)]
        out[idx] = (r[0] + r[1]) + (r[2] + r[3])
    return out[()]


@pytest.mark.parametrize("batch", [(), (1,), (7,), (1000,), (3, 5)])
def test_trace_keeps_the_bits_of_its_stated_order(batch):
    # trace adds its 16 products (its diagonal, for one factor) in the order its docstring
    # states; a change of that order, or of the products, fails here
    for factors in _trace_factor_sets(batch):
        want = np.asarray(_trace_in_stated_order(factors))
        got = np.asarray(cl.trace(factors))
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


@pytest.mark.parametrize("batch", [(), (7,), (1000,), (3, 5)])
def test_trace_is_within_a_few_ulps_of_np_trace(batch):
    # both read the same M = M_1 ... M_{k-1}; they round tr(M L) differently, each to within
    # a few ulps of the sum of the magnitudes of its 16 products
    sets = _trace_factor_sets(batch)
    for factors in sets[:2] + sets[3:]:
        m, last = reduce(np.matmul, factors[:-1]), factors[-1]
        bound = 8 * np.finfo(float).eps * np.abs(m * np.swapaxes(last, -1, -2)).sum(axis=(-2, -1))
        want = np.trace(reduce(np.matmul, factors), axis1=-2, axis2=-1)
        assert np.all(np.abs(cl.trace(factors) - want) <= bound)


def test_trace_forms_k_minus_2_matrix_products(monkeypatch):
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(cl.np, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
    factors = _trace_factor_sets((7,))[0]
    for k in range(1, 6):
        calls.clear()
        cl.trace([factors[i % 3] for i in range(k)])
        assert len(calls) == max(k - 2, 0)


def test_trace_of_two_gammas_is_four_times_the_metric():
    for mu in range(4):
        for nu in range(4):
            assert cl.trace([cl.gamma(mu), cl.gamma(nu)]) == 4 * cl.METRIC[mu, nu]


def test_trace_of_four_gammas_is_the_metric_pair_sum():
    # tr(g^mu g^nu g^rho g^sigma) = 4 (g^mu nu g^rho sigma - g^mu rho g^nu sigma
    # + g^mu sigma g^nu rho), exact over all 256 index sets, one at a time and as a batch
    g, idx = cl.METRIC, list(product(range(4), repeat=4))
    want = [4 * (g[m, n] * g[r, s] - g[m, r] * g[n, s] + g[m, s] * g[n, r]) for m, n, r, s in idx]
    got = [cl.trace([cl.gamma(mu) for mu in mus]) for mus in idx]
    assert got == want
    stacked = np.array([[cl.gamma(mu) for mu in mus] for mus in idx])  # (256, 4, 4, 4)
    assert list(cl.trace(np.moveaxis(stacked, 1, 0))) == want


def test_traces_with_gamma5_vanish():
    assert cl.trace([cl.gamma5()]) == 0
    for mu in range(4):
        for nu in range(4):
            assert cl.trace([cl.gamma5(), cl.gamma(mu), cl.gamma(nu)]) == 0


@pytest.mark.parametrize("factors, message", [
    ([np.eye(5)], "have shape (..., 4, 4), got shape (5, 5)"),
    ([np.eye(2)], "have shape (..., 4, 4), got shape (2, 2)"),
    (np.eye(4).tolist(), "have shape (..., 4, 4), got shape (4,)"),
    ([np.eye(4), np.ones((3, 4))], "have shape (..., 4, 4), got shape (3, 4)"),
    ([np.eye(4, dtype=bool)], "be numeric, got bool"),
    ([np.full((4, 4), "1")], "be numeric, got <U1"),
    ([np.full((4, 4), b"1")], "be numeric, got |S1"),
    ([np.eye(4).astype(object)], "be numeric, got object"),
    ([[[1.0, True, 0.0, 0.0]] * 4], "be numeric, got bool"),
])
def test_trace_refuses_a_factor_that_is_not_a_numeric_4x4_stack(factors, message):
    with pytest.raises(ValueError, match=re.escape("trace factor must " + message)):
        cl.trace(factors)


def test_trace_empty_list_rejected():
    with pytest.raises(ValueError):
        cl.trace([])


def test_trace_accepts_nested_lists_and_keeps_a_real_product_real():
    rows = (np.arange(16.0).reshape(4, 4) / 7).tolist()
    one = cl.trace([rows])
    assert (type(one), one) == (np.float64, cl.trace([np.array(rows)]))
    two = cl.trace([rows, rows])
    assert (type(two), two) == (np.float64, cl.trace([np.array(rows)] * 2))
    assert cl.trace([np.eye(4, dtype=int)] * 3) == 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_trace_cyclicity(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.uniform(-0.5, 0.5, (4, 4)) + 1j * rng.uniform(-0.5, 0.5, (4, 4))
            for _ in range(3)]
    a, b, c = mats
    assert cl.trace([a, b, c]) == pytest.approx(cl.trace([c, a, b]), abs=1e-14)


def test_pauli_product_identity():
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for i in (1, 2, 3):
        np.testing.assert_allclose(cl.pauli(i) @ cl.pauli(i), I2, atol=1e-15)
    for (i, j), k in eps.items():
        np.testing.assert_allclose(cl.pauli(i) @ cl.pauli(j), 1j * cl.pauli(k),
                                   atol=1e-15)


def test_pauli_dot_and_minkowski_dot():
    n = np.array([0.6, 0.0, 0.8])
    np.testing.assert_allclose(cl.pauli_dot(n) @ cl.pauli_dot(n), I2, atol=1e-15)
    assert cl.minkowski_dot([1, 0, 0, 0], [2, 0, 0, 1]) == pytest.approx(2.0)
    # spatial unit tetrad squares to -1
    assert cl.minkowski_dot([0, *n], [0, *n]) == pytest.approx(-1.0)


def test_the_spin_map_stack_is_gamma_dot_s_with_upper_indices():
    # spinor_from_breve's gamma.s = sum_i gamma^i s^i (CONVENTIONS' gamma_dot_s_index), equal
    # in value to -slash((0, svec)); s0 is not read: (s0, svec) gives the bytes of (0, svec),
    # and (1, 0, 0, 0) the zero matrix
    def gamma_dot_s(s):
        return cl._contract(np.asarray(s, dtype=complex), cl._GAMMA_DOT_S_DOT)

    s = (0.0, 0.6, -0.8, 0.25)
    np.testing.assert_array_equal(gamma_dot_s(s), sum(s[i] * cl.gamma(i) for i in (1, 2, 3)))
    np.testing.assert_array_equal(gamma_dot_s(s), -cl.slash(s))
    assert gamma_dot_s((7, 1, 2, 3)).tobytes() == gamma_dot_s((0, 1, 2, 3)).tobytes()
    assert not gamma_dot_s((1, 0, 0, 0)).any()
