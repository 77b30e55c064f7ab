import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor.spinors import HELICITIES, KinematicPoint, RegionError

I2 = np.eye(2)
I4 = np.eye(4)
ZHAT = (0.0, 0.0, 1.0)

unit_dirs = st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.2
).map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))


def _spatial(nhat):
    return np.concatenate([[0.0], np.asarray(nhat)])


def _random_points(seed, n, band="real"):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.normal(size=3)
        nhat = tuple(v / np.linalg.norm(v))
        if band == "real":
            p0 = float(np.exp(rng.uniform(0, np.log(10))))
        else:
            p0 = float(rng.uniform(-1, 1))
        yield KinematicPoint(1.0, p0, nhat)


def test_rest_projector_values():
    np.testing.assert_allclose(pj.spin_projector_rest(ZHAT), np.diag([1.0, 0.0]),
                               atol=1e-15)
    with pytest.raises(ValueError):
        pj.spin_projector_rest((0, 0, 2))


@settings(max_examples=40, deadline=None)
@given(nhat=unit_dirs)
def test_rest_projector_sum_and_idempotency(nhat):
    plus = pj.spin_projector_rest(nhat)
    minus = pj.spin_projector_rest(tuple(-x for x in nhat))
    np.testing.assert_allclose(plus + minus, I2, atol=1e-14)
    np.testing.assert_allclose(plus @ plus, plus, atol=1e-13)


def test_spin_projector_block_value():
    np.testing.assert_allclose(pj.spin_projector(_spatial(ZHAT)),
                               np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)


def test_spin_projector_rejects_bad_vectors():
    with pytest.raises(ValueError):
        pj.spin_projector([0.5, 0, 0, 1])          # not spatial
    with pytest.raises(ValueError):
        pj.spin_projector([0, 0, 0, 2])            # s.s != -1


def test_spin_projector_complementarity_and_idempotency():
    for k in _random_points(11, 100):
        s = _spatial(k.nhat)
        plus, minus = pj.spin_projector(s), pj.spin_projector(-s)
        np.testing.assert_allclose(plus + minus, I4, atol=1e-14)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
        np.testing.assert_allclose(plus @ minus, np.zeros((4, 4)), atol=1e-12)


def test_tetrad_projector_sum_is_unity():
    for k in _random_points(13, 50):
        n = np.asarray(k.nhat)
        total = sum(pj.spin_projector(_spatial(s)) for s in (n, -n, n, -n)) / 2.0
        np.testing.assert_allclose(total, I4, atol=1e-12)


def test_energy_projector_rest_blocks():
    p = np.array([1.0, 0, 0, 0])
    np.testing.assert_allclose(pj.energy_projector(p, 1.0, +1),
                               np.diag([1.0, 1, 0, 0]), atol=1e-15)
    np.testing.assert_allclose(pj.energy_projector(p, 1.0, -1),
                               np.diag([0.0, 0, 1, 1]), atol=1e-15)


def test_energy_projector_moving_entry():
    p = np.array([1.25, 0, 0, 0.75])
    assert pj.energy_projector(p, 1.0, +1)[0, 0] == pytest.approx(1.125, abs=1e-14)


def test_energy_projector_off_shell_rejected():
    with pytest.raises(ValueError, match="off shell"):
        pj.energy_projector([1.25, 0, 0, 0.5], 1.0, +1)


def test_energy_projector_algebra():
    for k in _random_points(17, 50):
        p = k.momentum()
        plus = pj.energy_projector(p, 1.0, +1)
        minus = pj.energy_projector(p, 1.0, -1)
        np.testing.assert_allclose(plus @ minus, np.zeros((4, 4)), atol=1e-12)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
        np.testing.assert_allclose(plus + minus, I4, atol=1e-14)


def test_spin_energy_commutation_for_orthogonal_spin():
    # s.p = 0 for rest momentum and spatial s
    p = np.array([1.0, 0, 0, 0])
    rng = np.random.default_rng(19)
    for _ in range(25):
        v = rng.normal(size=3)
        s = _spatial(v / np.linalg.norm(v))
        ps = pj.spin_projector(s)
        for sign in (+1, -1):
            lam = pj.energy_projector(p, 1.0, sign)
            np.testing.assert_allclose(ps @ lam - lam @ ps, np.zeros((4, 4)),
                                       atol=1e-12)


def test_diad_values():
    one = pj.diad(np.array([1, 0, 0, 0], dtype=complex), "gamma0")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(one, expected, atol=1e-15)

    e3 = np.array([0, 0, 1, 0], dtype=complex)
    lower = pj.diad(e3, "gamma0")
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = -1.0
    np.testing.assert_allclose(lower, expected, atol=1e-15)

    with pytest.raises(ValueError):
        pj.diad(e3, "gamma1")


def test_diad_gamma5_sum_over_band_center_basis():
    # the four gamma5 diads sum to gamma5/2, not to unity/2
    from bispinor.spinors import rest_basis
    total = sum(pj.diad(rest_basis(t), "gamma5") for t in (1, 2, 3, 4))
    np.testing.assert_allclose(total, cl.gamma5() / 2.0, atol=1e-15)
    assert np.max(np.abs(total - I4 / 2.0)) == pytest.approx(0.5, abs=1e-15)


def test_pi_projector_rest_values():
    p = np.array([1.0, 0, 0, 0])
    s = _spatial(ZHAT)
    lam = pj.pi_projector(p, 1.0, s, "lambda")
    np.testing.assert_allclose(lam, np.diag([0.0, 0, 0, 1]), atol=1e-14)
    np.testing.assert_allclose(lam @ lam, lam, atol=1e-12)
    neg = pj.pi_projector(p, 1.0, s, "neg-lambda")
    np.testing.assert_allclose(neg, np.diag([0.0, 1, 0, 0]), atol=1e-14)
    with pytest.raises(ValueError):
        pj.pi_projector(p, 1.0, s, "other")


def test_polsum_rest_spinor():
    k = KinematicPoint(1.0, 1.0, ZHAT)
    lhs, rhs = pj.polsum("spinor", k)
    np.testing.assert_allclose(lhs, np.diag([1.0, 1, 0, 0]), atol=1e-14)
    np.testing.assert_allclose(rhs, np.diag([1.0, 1, 0, 0]), atol=1e-14)


def test_polsum_spinor_closed_form():
    for k in _random_points(23, 100):
        lhs, rhs = pj.polsum("spinor", k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_polsum_antispinor_closed_form():
    for k in _random_points(27, 100):
        lhs, rhs = pj.polsum("antispinor", k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_polsum_completeness():
    for k in _random_points(31, 30):
        lhs, rhs = pj.polsum("completeness", k)
        np.testing.assert_allclose(rhs, I4, atol=1e-15)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_polsum_breve_kinds_return_both_sides():
    k = KinematicPoint(1.0, 0.25, (0.0, 0.6, 0.8))
    for kind in ("breve-plus", "breve-minus"):
        lhs, rhs = pj.polsum(kind, k)
        assert lhs.shape == (4, 4) and rhs.shape == (4, 4)
        # lhs is Hermitian by construction; rhs generally is not on this band
        np.testing.assert_allclose(lhs, np.conj(lhs.T), atol=1e-13)


def test_polsum_region_and_kind_errors():
    # off its band, polsum raises its column constructor's RegionError, for a point and
    # at the first failing point of a batch; the antispinor names the negated energy
    cases = (("spinor", 0.5, "dirac_u needs |p0| >= m (got p0=0.5, m=1.0); use breve_u / "
                             "breve_u_bar on the |p0| <= m band"),
             ("antispinor", 0.5, "dirac_u needs |p0| >= m (got p0=-0.5, m=1.0); use breve_u / "
                                 "breve_u_bar on the |p0| <= m band"),
             ("breve-plus", 2.0, "breve_u needs |p0| <= m (got p0=2.0, m=1.0); use the "
                                 "real-band constructors (boosted_spinor, dirac_u, ...)"),
             ("breve-minus", -2.0, "breve_u needs |p0| <= m (got p0=-2.0, m=1.0); use the "
                                   "real-band constructors (boosted_spinor, dirac_u, ...)"))
    for kind, p0, text in cases:
        for k in (KinematicPoint(1.0, p0, ZHAT),
                  KinematicPoint(np.ones(3), np.array([1.0, p0, 0.0 if p0 > 1 else 3.0]), ZHAT)):
            with pytest.raises(RegionError) as got:
                pj.polsum(kind, k)
            assert str(got.value) == text
    with pytest.raises(ValueError):
        pj.polsum("vector", KinematicPoint(1.0, 2.0, ZHAT))


def test_polsum_mass_homogeneity_at_m_two():
    k = KinematicPoint(2.0, 3.0, (0.8, 0.6, 0.0))
    for kind in ("spinor", "antispinor", "completeness"):
        lhs, rhs = pj.polsum(kind, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(unit_dirs, st.lists(unit_dirs, min_size=1, max_size=8))
def test_gamma5_stacks_equal_the_explicit_products(nhat, batch):
    # spin_projector and spinor_from_breve contract s against gamma5-gamma stacks; every
    # entry is a component times 0, +-1 or +-i, so each equals the explicit product
    g5 = cl.gamma5()
    rng = np.random.default_rng(len(batch))
    for s in (_spatial(nhat), np.array([_spatial(n) for n in batch])):
        assert np.array_equal(pj.spin_projector(s), (I4 + g5 @ cl.slash(s)) / 2.0)
        breve = rng.normal(size=s.shape[:-1] + (4,)) + 1j * rng.normal(size=s.shape[:-1] + (4,))
        gs = cl.gamma_dot_spatial(s)
        assert np.array_equal(sp.spinor_from_breve(breve, s, "u"),
                              cl.times_column(g5 @ gs, breve))
        assert np.array_equal(sp.spinor_from_breve(breve, s, "v"),
                              cl.times_column(gs @ g5, breve))


def test_energy_projector_equals_the_closed_form_entry_for_entry():
    # the mass is added in place to the diagonal of slash(+-p); the result equals the
    # closed form (+-pslash + m I4)/2m entry for entry (a zero entry may differ in sign)
    def closed_form(p, m, sign):
        m = np.asarray(m)[..., None, None]
        if sign > 0:
            return (cl.slash(p) + m * cl._I4) / (2.0 * m)
        return (m * cl._I4 - cl.slash(p)) / (2.0 * m)

    singles = [*_random_points(21, 5), *_random_points(22, 5, band="breve"),
               KinematicPoint(3.0, -7.5, ZHAT)]
    batch = KinematicPoint(np.array([k.m for k in singles]), np.array([k.p0 for k in singles]),
                           np.array([k.nhat for k in singles]))
    for k in (*singles, batch):
        p = k.momentum()
        for sign in (+1, -1):
            got = pj._energy_projector(p, k.m, sign)
            assert np.array_equal(got, closed_form(p, k.m, sign))
            assert got.shape == np.shape(k.p0) + (4, 4)


def test_energy_projector_broadcasts_one_momentum_over_a_batch_of_masses():
    # the mass is added in place, so the momentum is broadcast to the shared batch first
    p = np.array([1.25, 0, 0, 0.75])
    for sign in (+1, -1):
        got = pj.energy_projector(p, np.array([1.0, 1.0]), sign)
        assert got.shape == (2, 4, 4)
        assert np.array_equal(got, np.stack([pj.energy_projector(p, 1.0, sign)] * 2))


def test_add_diagonal_adds_in_place_and_refuses_a_strided_stack():
    x = np.arange(32, dtype=complex).reshape(2, 4, 4)
    want = x + np.array([1.5, -2.0])[:, None, None] * np.eye(4)
    assert pj.add_diagonal(x, np.array([1.5, -2.0])) is x
    assert np.array_equal(x, want)
    single = np.zeros((4, 4), dtype=complex)
    assert np.array_equal(pj.add_diagonal(single, 0.5), 0.5 * np.eye(4))
    # a conjugate transpose (a view, or a fresh array in its layout) is not C-contiguous:
    # a reshape would copy it, and the add would be lost
    dagger = np.conj(np.swapaxes(cl.slash(np.array([[2.0, 0, 0, 1], [3.0, 1, 1, 1]])), -1, -2))
    for stack in (dagger, np.swapaxes(x, -1, -2)):
        with pytest.raises(ValueError, match="C-contiguous"):
            pj.add_diagonal(stack, 1.0)


@pytest.mark.parametrize("kind", ["spinor", "antispinor", "breve-plus", "breve-minus"])
def test_polsum_of_a_point_equals_its_batch_row_bit_for_bit(kind):
    # points and batches take one path, the band edges included
    band = "breve" if kind.startswith("breve") else "real"
    singles = [*_random_points(31, 6, band=band),
               *((KinematicPoint(2.0, p0, ZHAT) for p0 in (-2.0, 0.0, 2.0)) if band == "breve"
                 else (KinematicPoint(2.0, 2.0, ZHAT), KinematicPoint(0.5, -0.75, ZHAT)))]
    batch = KinematicPoint(np.array([k.m for k in singles]), np.array([k.p0 for k in singles]),
                           np.array([k.nhat for k in singles]))
    lhs, rhs = pj.polsum(kind, batch)
    assert lhs.shape == rhs.shape == (len(singles), 4, 4)
    for i, k in enumerate(singles):
        one_lhs, one_rhs = pj.polsum(kind, k)
        assert one_lhs.tobytes() == lhs[i].tobytes()
        assert one_rhs.tobytes() == rhs[i].tobytes()

