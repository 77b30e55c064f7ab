from functools import reduce

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
    np.testing.assert_allclose(cl.generalized_pauli(3, +1), 2 * cl.sigma_munu(1, 2),
                               atol=1e-15)
    np.testing.assert_allclose(cl.generalized_pauli(1, +1), 2 * cl.sigma_munu(2, 3),
                               atol=1e-15)
    np.testing.assert_allclose(cl.generalized_pauli(2, +1), 2 * cl.sigma_munu(3, 1),
                               atol=1e-15)


def test_generalized_pauli_minus_is_negated_plus():
    for lam in (1, 2, 3):
        np.testing.assert_allclose(cl.generalized_pauli(lam, -1),
                                   -cl.generalized_pauli(lam, +1), atol=1e-15)


def test_generalized_pauli_bad_args():
    with pytest.raises(ValueError):
        cl.generalized_pauli(0, +1)
    with pytest.raises(ValueError):
        cl.generalized_pauli(1, 2)


def test_trace_values():
    assert cl.trace([cl.gamma(0), cl.gamma(0)]) == pytest.approx(4.0)
    assert cl.trace([cl.gamma(0), cl.gamma(1)]) == pytest.approx(0.0)
    # tr(slash p slash q) = 4 p.q = 8 for p=(1,0,0,0), q=(2,0,0,1)
    p, q = [1, 0, 0, 0], [2, 0, 0, 1]
    assert cl.trace([cl.slash(p), cl.slash(q)]) == pytest.approx(8.0)


@pytest.mark.parametrize("batch", [(), (1,), (7,), (1000,), (3, 5)])
def test_trace_keeps_the_bits_of_np_trace(batch):
    # trace adds the diagonal in the order np.trace sums it; a numpy that changes that
    # order fails here rather than in a report comparison
    rng = np.random.default_rng(len(batch) + sum(batch))
    scale = 10.0 ** rng.integers(-8, 8, (3, *batch, 4, 4))
    ms = scale * (rng.normal(size=scale.shape) + 1j * rng.normal(size=scale.shape))
    for factors in (ms, ms[:1], (ms[0], ms[1][(0,) * len(batch)])):
        want = np.trace(reduce(np.matmul, factors), axis1=-2, axis2=-1)
        got = np.asarray(cl.trace(factors))
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def test_trace_empty_list_rejected():
    with pytest.raises(ValueError):
        cl.trace([])


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
