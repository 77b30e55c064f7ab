import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor import verify as vf

ZHAT = (0.0, 0.0, 1.0)
SQ2 = math.sqrt(2.0)
PHI = np.eye(2, dtype=complex)  # the rest-frame basis two-spinors: column 0 is +1/2, 1 is -1/2


def _half_boosts(k) -> tuple:
    """a, b = sqrt((p0 +- m) / 2m) of a point as written out, principal branch below threshold."""
    return np.sqrt((k.p0 + k.m) / k.m * 0.5 + 0j), np.sqrt((k.p0 - k.m) / k.m * 0.5 + 0j)


def _directions(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.normal(size=3)
        yield tuple(v / np.linalg.norm(v))


unit_dirs = st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.2
).map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))


def test_at_threshold_a_boosted_spinor_is_its_rest_basis_spinor():
    # at p0 = m, a = 1 and b = 0: each label gives its column of I2 bit for bit, for three
    # masses and three axes, a signed-zero one among them
    for m in (1e-300, 1.0, 1e300):
        for nhat in (ZHAT, (-0.0, -1.0, 0.0), (0.6, -0.8, 0.0)):
            k = sp.KinematicPoint(m, m, nhat)
            for slot, lam in enumerate(sp.HELICITIES):
                assert sp.boosted_spinor(k, lam).tobytes() == PHI[:, slot].tobytes()
    with pytest.raises(ValueError, match=r"^helicity must be one of \(0\.5, -0\.5\), got 1\.0$"):
        sp.boosted_spinor(k, 1.0)


def test_kinematic_point_validation():
    with pytest.raises(ValueError):
        sp.KinematicPoint(1.0, 1.0, (0, 0, 2))
    with pytest.raises(ValueError):
        sp.KinematicPoint(-1.0, 1.0, ZHAT)
    # the band is checked by the constructors: p0 = m lies on both bands
    k = sp.KinematicPoint(1.0, 1.25, ZHAT)
    sp.dirac_u(k, 0.5, 0.5)
    with pytest.raises(sp.RegionError):
        sp.breve_u(k, 0.5, 0.5)
    edge = sp.KinematicPoint(1.0, 1.0, ZHAT)
    sp.dirac_u(edge, 0.5, 0.5)
    sp.breve_u(edge, 0.5, 0.5)


def test_momentum_on_shell_in_both_bands():
    for p0 in (1.25, -3.0, 0.5, 0.0, -0.9):
        k = sp.KinematicPoint(1.0, p0, (0.6, 0.0, 0.8))
        p = k.momentum()
        assert abs(cl.minkowski_dot(p, p) - 1.0) < 1e-12


def test_five_vector_holds_the_momentum_beside_the_mass():
    # slot 4 is the mass bit for bit and slots 0-3 are momentum(), for one point and for
    # each row of a batch; momentum() is a fresh, writable, C-contiguous (..., 4) array
    rng = np.random.default_rng(28)
    m = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 6))
    p0 = m * np.array([1.0, 1.25, 40.0, -3.0, 0.5, -0.9])
    nhat = np.array(list(_directions(28, 6)))
    batch = sp.KinematicPoint(m, p0, nhat)
    singles = [sp.KinematicPoint(*point) for point in zip(m, p0, nhat)]
    for k in (*singles, batch):
        x, p = k._five_vector(), k.momentum()
        assert x.dtype == complex and x.shape == np.shape(k.p0) + (5,)
        assert x[..., 4].real.tobytes() == np.asarray(k.m, dtype=float).tobytes()
        assert not x[..., 4].imag.any()
        assert p.tobytes() == x[..., :4].tobytes()
        assert p.shape == np.shape(k.p0) + (4,) and p.dtype == complex
        assert p.base is None and p.flags.writeable and p.flags.c_contiguous
    for i, k in enumerate(singles):
        assert k._five_vector().tobytes() == batch._five_vector()[i].tobytes()
        assert k.momentum().tobytes() == batch.momentum()[i].tobytes()



def _kept_x_points():
    """Single points and one batch of them, on the real band and on the breve band: the
    polsum kinds that read each band, then the points."""
    rng = np.random.default_rng(34)
    m = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 5))
    nhat = np.array(list(_directions(34, 5)))
    bands = {("spinor", "antispinor", "completeness"): [1.0, 1.25, 40.0, -3.0, -1.0],
             ("breve-plus", "breve-minus", "completeness"): [0.5, -0.9, 0.0, 1.0, -1.0]}
    for kinds, ratio in bands.items():
        p0 = m * np.array(ratio)
        singles = [sp.KinematicPoint(*point) for point in zip(m, p0, nhat)]
        yield kinds, singles, sp.KinematicPoint(m, p0, nhat)


def test_five_vector_is_kept_read_only():
    # _five_vector() builds x once and returns that same read-only array on every later call
    for _, singles, batch in _kept_x_points():
        for k in (*singles, batch):
            x = k._five_vector()
            assert k._five_vector() is x and not x.flags.writeable
            with pytest.raises(ValueError):
                x[..., 0] = 0.0


def test_momentum_is_a_writable_copy_of_the_kept_x():
    # momentum() shares no memory with x; writing to it reaches neither x nor the next copy
    for _, singles, batch in _kept_x_points():
        for k in (*singles, batch):
            x = k._five_vector()
            before = x.tobytes()
            p = k.momentum()
            assert p.flags.writeable and not np.shares_memory(p, x)
            p[...] = 7.0
            assert k._five_vector() is x and x.tobytes() == before
            assert k.momentum().tobytes() == x[..., :4].tobytes()


def test_negated_and_unchecked_points_build_their_own_x():
    # a point made from another's fields starts with no x and builds its own, with p0 negated,
    # bit for bit that of a fresh KinematicPoint with the same fields
    for _, singles, batch in _kept_x_points():
        for k in (*singles, batch):
            x = k._five_vector()
            for other in (k.negated(), sp._point(k.m, -k.p0, k.nhat)):
                assert vars(other).get("_x") is None
                y = other._five_vector()
                assert not np.shares_memory(y, x)
                fresh = sp.KinematicPoint(k.m, -k.p0, k.nhat)._five_vector()
                assert y.tobytes() == fresh.tobytes()
                assert y[..., 0].real.tobytes() == (-x[..., 0].real).tobytes()


def test_polsum_and_momentum_leave_the_kept_x_in_place():
    # polsum of every kind and then momentum() read the point's x and keep it; each single
    # point's kept x is its batch row, bit for bit
    for kinds, singles, batch in _kept_x_points():
        for k in (*singles, batch):
            x = k._five_vector()
            before = x.tobytes()
            for kind in kinds:
                pj.polsum(kind, k)
            k.momentum()
            assert k._five_vector() is x and x.tobytes() == before
        for i, k in enumerate(singles):
            assert k._five_vector().tobytes() == batch._five_vector()[i].tobytes()

def test_momentum_is_odd_in_p0_on_the_real_band():
    # for p0 <= -m both half-boost amplitudes are imaginary, so |p| = 2 m a b is negative and
    # the momentum at -p0 is minus the momentum at p0: the same factors, rounded in another
    # order, so to rounding rather than bit for bit
    rng = np.random.default_rng(32)
    m = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
    p0 = m * np.exp(rng.uniform(0.0, np.log(1e3), 2000))
    nhat = np.array(list(_directions(32, 2000)))
    up, down = (sp.KinematicPoint(m, sign * p0, nhat).momentum() for sign in (+1, -1))
    np.testing.assert_allclose(down, -up, rtol=1e-15, atol=0)


def _decimal_error(m, p0):
    """Max relative error of the momentum's |p| at the points (m, p0) along z, against
    sqrt(|p0 - m| |p0 + m|) at 60 digits from the same floats: imaginary on the breve band,
    real off it, and negative below -m."""
    got = sp.KinematicPoint(m, p0, ZHAT).momentum()[..., 3]
    with decimal.localcontext(decimal.Context(prec=60)):
        worst = decimal.Decimal(0)
        for mi, p0i, q in zip(m, p0, got):
            m_d, p0_d = decimal.Decimal(mi), decimal.Decimal(p0i)
            want = (abs(p0_d - m_d) * abs(p0_d + m_d)).sqrt()
            side = q.imag if abs(p0i) < mi else q.real if p0i > 0 else -q.real
            worst = max(worst, abs(decimal.Decimal(side) - want) / want)
    return float(worst)


def test_momentum_is_accurate_at_threshold_far_above_it_and_on_the_breve_band():
    # |p| = 2 m a b from differences p0 -+ m that Sterbenz's lemma makes exact near threshold:
    # within a few roundings of the exact value, against a 60-digit decimal reference, for m
    # near unit scale and log-uniform over [1e-300, 1e300], where p0 = m p0/m is kept below
    # 1e300 (so below 2^1023)
    rng = np.random.default_rng(32)
    for low, high in ((1e-3, 1e3), (1e-300, 1e300)):
        m = np.exp(rng.uniform(np.log(low), np.log(high), 400))
        for p0 in (m * (1.0 + np.exp(rng.uniform(np.log(1e-12), np.log(1e-2), 400))),
                   np.minimum(m * np.exp(rng.uniform(0.0, np.log(1e8), 400)), 1e300),
                   m * (1.0 - np.exp(rng.uniform(np.log(1e-12), 0.0, 400)))
                   * rng.choice((1, -1), 400)):
            assert _decimal_error(m, p0) <= 1e-15
            assert _decimal_error(m, -p0) <= 1e-15


def test_boosted_spinor_frozen_values():
    k = sp.KinematicPoint(1.0, 1.25, ZHAT)
    # sqrt(1.125) + sqrt(0.125) = sqrt(2), sqrt(1.125) - sqrt(0.125) = 1/sqrt(2)
    np.testing.assert_allclose(sp.boosted_spinor(k, 0.5), [SQ2, 0], atol=1e-14)
    np.testing.assert_allclose(sp.boosted_spinor(k, 0.5, dotted=True),
                               [1 / SQ2, 0], atol=1e-14)
    rest = sp.KinematicPoint(1.0, 1.0, ZHAT)
    np.testing.assert_allclose(sp.boosted_spinor(rest, 0.5), [1, 0], atol=1e-14)


def test_boosted_spinor_region_error():
    with pytest.raises(sp.RegionError):
        sp.boosted_spinor(sp.KinematicPoint(1.0, 0.5, ZHAT), 0.5)


def test_parity_components():
    k = sp.KinematicPoint(1.0, 1.25, ZHAT)
    xi = sp.boosted_spinor(k, 0.5)
    xid = sp.boosted_spinor(k, 0.5, dotted=True)
    even, odd = sp.parity_components(xi, xid)
    np.testing.assert_allclose(even, [math.sqrt(1.125), 0], atol=1e-14)
    np.testing.assert_allclose(odd, [math.sqrt(0.125), 0], atol=1e-14)
    np.testing.assert_allclose(even + odd, xi, atol=1e-15)
    same, zero = sp.parity_components(xi, xi)
    np.testing.assert_allclose(zero, [0, 0], atol=1e-15)


def test_parity_closed_forms_random_points():
    for i, nhat in enumerate(_directions(5, 30)):
        k = sp.KinematicPoint(1.0, 1.0 + 4.0 * i / 30.0, nhat)
        for lam in sp.HELICITIES:
            even, odd = sp.parity_components(sp.boosted_spinor(k, lam),
                                             sp.boosted_spinor(k, lam, dotted=True))
            a, b = _half_boosts(k)
            phi = PHI[:, sp.HELICITIES.index(lam)]
            np.testing.assert_allclose(even, a * phi, atol=1e-12)
            np.testing.assert_allclose(odd, b * (cl.pauli_dot(k.nhat) @ phi), atol=1e-12)


def _boost_row(side, p0, nhat, lam, dotted):
    """One (lam, dotted) row of a boost-exponential side at the point (1, p0, nhat)."""
    check = next(c for c in vf.registry() if c.name == "boost-exponential")
    rows = getattr(check, side)(vf.Columns({"m": 1.0, "p0": p0, "nhat": list(nhat)}))
    return rows[2 * sp.HELICITIES.index(lam) + dotted]


@settings(max_examples=60, deadline=None)
@given(p0=st.floats(1.0, 10.0), nhat=unit_dirs,
       lam=st.sampled_from([0.5, -0.5]), dotted=st.booleans())
def test_boost_equivalence(p0, nhat, lam, dotted):
    # exp(+-(chi/2) sigma.n) phi in spectral form equals the boosted spinor
    k = sp.KinematicPoint(1.0, p0, nhat)
    rhs = _boost_row("rhs", p0, nhat, lam, dotted)
    np.testing.assert_array_equal(rhs, sp.boosted_spinor(k, lam, dotted=dotted))
    np.testing.assert_allclose(_boost_row("lhs", p0, nhat, lam, dotted), rhs, rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_boost_exponential_holds_at_every_mass():
    # the row's reference forms sqrt((r - 1)(r + 1)) in units of m, r = p0/m: no square of
    # p0 or m, so it neither underflows at m = 1e-200 (a residual near 3 from p0 and m) nor
    # overflows at m = 1e300, and the replay at p0 = 10 m reads the unit mass's residual
    check = next(c for c in vf.registry() if c.name == "boost-exponential")
    nhat = [*_directions(5, 3), ZHAT]
    for n in nhat:
        want = vf.residuals(check, vf.Columns({"m": 1.0, "p0": 10.0, "nhat": list(n)}))
        assert want[0] <= 1e-15
        for m in np.logspace(-300.0, 300.0, 25):
            got = vf.residuals(check, vf.Columns({"m": m, "p0": 10.0 * m, "nhat": list(n)}))
            assert got[0] <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1e4, pytest.param(1e200, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the sides are near 1e100 at r = 1e200, so an absolute residual of 2.4e83 is the "
           "rounding of the sides; it passes only against a relative residual, ROADMAP item 4"))])
def test_boost_exponential_holds_ultra_relativistic(r):
    # e^{-chi/2} is 1/e^{chi/2}, no difference, and |p|/m = sqrt(r - 1) sqrt(r + 1) no
    # product: at r = 1e4 the residual is 2.8e-14, where sqrt(r - |p|/m) cancelled to 2.7e-11
    check = next(c for c in vf.registry() if c.name == "boost-exponential")
    got = vf.residuals(check, vf.Columns({"m": 1.0, "p0": r, "nhat": [0.0, 0.6, 0.8]}))
    assert np.isfinite(got[0]) and got[0] <= 1e-12


@pytest.mark.filterwarnings("error")
def test_boost_exponential_stays_finite_and_relatively_exact_up_to_the_largest_point():
    # every r = p0/m a point admits, to just below 2^1023: e^{chi/2} = sqrt(r + |p|/m) stays
    # below sqrt(2 r) and its inverse above 1/sqrt(2 r), so nothing overflows or underflows,
    # and the residual stays within a few ulps of the larger side
    check = next(c for c in vf.registry() if c.name == "boost-exponential")
    for r in [*np.logspace(0.0, 307.0, 60), 8e307, np.nextafter(2.0 ** 1023, 0.0)]:
        got = vf.residuals(check, vf.Columns({"m": 1.0, "p0": r, "nhat": [0.0, 0.6, 0.8]}))
        assert np.isfinite(got[0]) and got[0] <= 1e-15 * np.sqrt(2.0 * r), r


def test_boost_exponential_at_zero_rapidity_is_the_basis_spinor():
    for nhat in (ZHAT, *_directions(3, 10)):
        for lam in sp.HELICITIES:
            for dotted in (False, True):
                np.testing.assert_allclose(_boost_row("lhs", 1.0, nhat, lam, dotted),
                                           PHI[:, sp.HELICITIES.index(lam)], rtol=0, atol=1e-15)


def test_dotted_undotted_product_is_invariant():
    # xi_dot^+ xi = delta_{ll'} at every real-band point, as in the rest frame
    for i, nhat in enumerate(_directions(17, 25)):
        k = sp.KinematicPoint(1.0, 1.0 + 9.0 * (i / 25.0), nhat)
        for lam in sp.HELICITIES:
            for lamp in sp.HELICITIES:
                got = np.vdot(sp.boosted_spinor(k, lam, dotted=True),
                              sp.boosted_spinor(k, lamp))
                want = 1.0 if lam == lamp else 0.0
                assert abs(got - want) < 1e-12


def test_tetrad_bispinor_values():
    rest = sp.KinematicPoint(1.0, 1.0, ZHAT)
    np.testing.assert_allclose(sp.tetrad_bispinor(rest, 1), [1, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(sp.tetrad_bispinor(rest, 3), [0, 0, 0, 0], atol=1e-14)
    k = sp.KinematicPoint(1.0, 1.25, ZHAT)
    # sigma3 phi_- = -phi_- times sqrt(0.125)
    np.testing.assert_allclose(sp.tetrad_bispinor(k, 4),
                               [0, 0, 0, -math.sqrt(0.125)], atol=1e-14)
    with pytest.raises(ValueError):
        sp.tetrad_bispinor(k, 5)


def test_antisymmetric_basis_values():
    # the antisymmetric basis at threshold, the tetrad at p0 = -m: i b phi = 0 and
    # i a (sigma.n) phi, every column imaginary (or zero)
    anti = sp.KinematicPoint(1.0, 1.0, ZHAT).negated()
    np.testing.assert_allclose(sp.tetrad_bispinor(anti, 1), [0, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(sp.tetrad_bispinor(anti, 3), [0, 0, 1j, 0], atol=1e-14)
    for tau in (1, 2, 3, 4):
        np.testing.assert_allclose(sp.tetrad_bispinor(anti, tau).real, np.zeros(4), atol=1e-14)


def test_breve_u_frozen_values():
    rest = sp.KinematicPoint(1.0, 1.0, ZHAT)
    np.testing.assert_allclose(sp.breve_u(rest, 0.5, 0.5), [1, 0, 1, 0], atol=1e-14)
    assert sp.breve_u_bar(rest, 0.5, 0.5) @ sp.breve_u(rest, 0.5, 0.5) == pytest.approx(
        2.0, abs=1e-14)
    center = sp.KinematicPoint(1.0, 0.0, ZHAT)
    np.testing.assert_allclose(sp.breve_u(center, 0.5, 0.5), [0, 0, SQ2, 0],
                               atol=1e-14)
    with pytest.raises(sp.RegionError):
        sp.breve_u(sp.KinematicPoint(1.0, 1.5, ZHAT), 0.5, 0.5)


def test_breve_norm_is_two_for_equal_labels():
    rng = np.random.default_rng(29)
    for _ in range(100):
        v = rng.normal(size=3)
        k = sp.KinematicPoint(1.0, float(rng.uniform(-1, 1)),
                              tuple(v / np.linalg.norm(v)))
        for lam in sp.HELICITIES:
            norm = sp.breve_u_bar(k, lam, lam) @ sp.breve_u(k, lam, lam)
            assert abs(norm - 2.0) < 1e-12


def test_breve_norm_cross_labels_recorded_value():
    # unequal labels need not give 2; frozen from the development oracle
    k = sp.KinematicPoint(1.0, 0.5, ZHAT)
    got = sp.breve_u_bar(k, 0.5, -0.5) @ sp.breve_u(k, 0.5, -0.5)
    assert got == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)


def test_rest_basis():
    for tau in (1, 2, 3, 4):
        e = np.zeros(4)
        e[tau - 1] = 1 / SQ2
        np.testing.assert_allclose(sp.rest_basis(tau), e, atol=1e-15)
    complete = sum(2.0 * np.outer(sp.rest_basis(t), np.conj(sp.rest_basis(t)))
                   for t in (1, 2, 3, 4))
    np.testing.assert_allclose(complete, np.eye(4), atol=1e-15)


def test_dirac_adjoint_rows():
    np.testing.assert_allclose(sp.dirac_adjoint([1, 0, 0, 0]), [1, 0, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(sp.dirac_adjoint([0, 0, 1, 0]), [0, 0, -1, 0],
                               atol=1e-15)
    k = sp.KinematicPoint(1.0, 1.25, ZHAT)
    u = sp.dirac_u(k, 0.5, 0.5)
    assert sp.dirac_adjoint(u) @ u == pytest.approx(1.0, abs=1e-13)


def test_dirac_adjoint_keeps_the_bytes_of_the_matmul_row():
    # conj(u) with its lower block negated is the row conj(u) gamma0 entry for entry
    # (array_equal: where a product meets a zero, the zero's sign is free), for random
    # bispinors and every bispinor state of both bands at the band points, alone and batched
    rng = np.random.default_rng(4)
    us = [rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))]
    for breve in (False, True):
        names = ("breve_u",) if breve else ("dirac_u", "tetrad_bispinor")
        for k in _band_points(breve):
            us += [f(k, *labels) for name in names for f, labels in TABLE_STATES[name]]
    for u in us:
        for one in (u, u.reshape(-1, 4)[0]):
            assert np.array_equal(sp.dirac_adjoint(one), cl.row_times(np.conj(one), cl.gamma(0)))


def test_dirac_u_bar_matches_numeric_adjoint_on_real_band():
    for i, nhat in enumerate(_directions(31, 20)):
        k = sp.KinematicPoint(1.0, 1.0 + 0.45 * i, nhat)
        for lam in sp.HELICITIES:
            np.testing.assert_allclose(sp.dirac_u_bar(k, lam, lam),
                                       sp.dirac_adjoint(sp.dirac_u(k, lam, lam)),
                                       atol=1e-13)


def test_spinor_from_breve_values():
    # oracle: gamma5 gamma3 = diag(-1, +1, +1, -1) in this representation
    map_u = cl.gamma5() @ cl.gamma(3)
    np.testing.assert_allclose(map_u, np.diag([-1, 1, 1, -1]).astype(complex),
                               atol=1e-15)
    s = np.array([0.0, 0.0, 0.0, 1.0])
    v = np.array([0, 0, SQ2, 0], dtype=complex)
    np.testing.assert_allclose(sp.spinor_from_breve(v, s, "u"), map_u @ v, atol=1e-14)
    np.testing.assert_allclose(sp.spinor_from_breve(v, s, "u"), v, atol=1e-14)
    e1 = sp.rest_basis(1)
    np.testing.assert_allclose(sp.spinor_from_breve(e1, s, "u"), -e1, atol=1e-14)


def test_spinor_from_breve_roundtrip_and_errors():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = rng.normal(size=3)
        s = np.concatenate([[0.0], d / np.linalg.norm(d)])
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        # (gamma.s)^2 = -1, so v-map after u-map gives minus the input
        back = sp.spinor_from_breve(sp.spinor_from_breve(u, s, "u"), s, "v")
        np.testing.assert_allclose(back, -u, atol=1e-12)
    with pytest.raises(ValueError):
        sp.spinor_from_breve(u, [1.0, 0, 0, 1], "u")
    with pytest.raises(ValueError):
        sp.spinor_from_breve(u, s, "w")


def test_kappa_values():
    assert sp.kappa(1.0, 1.0) == 0.0
    assert sp.kappa(1.25, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sp.kappa(5.0 / 3.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        sp.kappa(0.5, 1.0)
    with pytest.raises(ValueError):
        sp.kappa(1.0, -1.0)


def test_mass_homogeneity_at_m_two():
    # identities are homogeneous in m; spot-check the norms once at m = 2
    k = sp.KinematicPoint(2.0, 2.5, (0.6, 0.0, 0.8))
    u = sp.dirac_u(k, 0.5, 0.5)
    assert sp.dirac_adjoint(u) @ u == pytest.approx(1.0, abs=1e-12)
    kb = sp.KinematicPoint(2.0, -1.2, (0.6, 0.0, 0.8))
    assert sp.breve_u_bar(kb, -0.5, -0.5) @ sp.breve_u(kb, -0.5, -0.5) == pytest.approx(
        2.0, abs=1e-12)


def test_cached_amplitudes_are_the_boost_factors():
    # the vector (a, b nhat) is computed once per point and shared by every constructor;
    # it keeps the bits of the written-out a and b nhat for a point, a batch and a negated
    # point
    rng = np.random.default_rng(8)
    nhat = rng.normal(size=(6, 3))
    nhat /= np.linalg.norm(nhat, axis=1)[:, None]
    points = (sp.KinematicPoint(1.0, 2.5, ZHAT), sp.KinematicPoint(2.0, 0.5, nhat[0]),
              sp.KinematicPoint(np.ones(6), rng.uniform(-3.0, 3.0, 6), nhat))
    for k in points:
        for kk in (k, k.negated()):  # k's vector is filled before negated() is called
            v = kk._boosts
            assert v.shape == np.shape(kk.p0) + (4,) and v.dtype == complex
            a, b = _half_boosts(kk)
            assert v[..., 0].tobytes() == a.tobytes()
            assert v[..., 1:].tobytes() == (b[..., None] * kk.nhat).tobytes()
            assert not v.flags.writeable
            assert kk._boosts is v


def _swap(z) -> np.ndarray:
    """z with its real and imaginary parts exchanged, i conj(z), filled part by part: a
    product with 1j would change the sign of a zero part."""
    out = np.empty_like(z)
    out.real, out.imag = z.imag, z.real
    return out


def test_negation_exchanges_the_amplitudes_up_to_a_swap_of_parts():
    # p0 -> -p0 takes p0 - m to -(p0 + m) exactly, and the principal root of -x is swap(root
    # of x), swap(z) = i conj(z), so a(-p0) = swap(b(p0)) and b(-p0) = swap(a(p0)) (i b and
    # i a on p0 >= m): the negated point's b nhat has the bits of swap(a) nhat, and the same
    # holds the other way round.  On both bands and their edges, for single points and for a
    # batch with m in [e^-20, e^20] and p0/m in +-[1, e^10], in (-1, 1) and in {0, +-1}
    rng = np.random.default_rng(14)
    m = np.exp(rng.uniform(-20.0, 20.0, 3000))
    ratio = np.concatenate([rng.choice((-1.0, 1.0), 1000) * np.exp(rng.uniform(0.0, 10.0, 1000)),
                            rng.uniform(-1.0, 1.0, 1000), rng.choice((0.0, 1.0, -1.0), 1000)])
    nhat = rng.normal(size=(3000, 3))
    nhat /= np.linalg.norm(nhat, axis=1)[:, None]
    batch = sp.KinematicPoint(m, m * ratio, nhat)
    for k in (*_band_points(False), *_band_points(True), batch):
        for one, other in ((k, k.negated()), (k.negated(), k)):
            want = _swap(one._boosts[..., 0])[..., None] * one.nhat
            assert other._boosts[..., 1:].tobytes() == want.tobytes()


def _band_points(breve: bool):
    """Single points and one batch of them on a band, the band edges included: p0 = +-m
    and p0 = 0 on the breve band; p0 = m, p0 = 2.5m and the negated() points on the real
    band; the first three along signed-zero axes."""
    rng = np.random.default_rng(12)
    m = np.exp(rng.uniform(-2.0, 2.0, 8))
    ratio = rng.uniform(-1.0, 1.0, 8) if breve else np.exp(rng.uniform(0.0, 3.0, 8))
    ratio[:4] = (1.0, -1.0, 0.0, 0.5) if breve else (1.0, 1.0, 1.0, 2.5)
    nhat = rng.normal(size=(8, 3))
    nhat /= np.linalg.norm(nhat, axis=1)[:, None]
    nhat[:3] = ((-0.0, -0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, -0.0))
    singles = [sp.KinematicPoint(float(mi), float(mi * r), n) for mi, r, n in zip(m, ratio, nhat)]
    points = [*singles, sp.KinematicPoint(m, m * ratio, nhat)]
    return points if breve else [*points, *(k.negated() for k in points)]


HALVES = sp.HELICITIES


def _paired(column, row) -> list:
    return [(f, (lam, sign * lam)) for sign in (1, -1) for f in (column, row) for lam in HALVES]


# each constructor's states in order, each a public constructor and its labels: for
# dirac_u and breve_u the equal-label table then the crossed, columns then rows in each
TABLE_STATES = {
    "boosted_spinor": [(sp.boosted_spinor, (lam, d)) for lam in HALVES for d in (False, True)],
    "dirac_u": _paired(sp.dirac_u, sp.dirac_u_bar),
    "tetrad_bispinor": [(sp.tetrad_bispinor, (tau,)) for tau in (1, 2, 3, 4)],
    "breve_u": _paired(sp.breve_u, sp.breve_u_bar),
}


@pytest.mark.parametrize("name", sorted(TABLE_STATES))
def test_each_table_row_is_its_public_constructor(name):
    # one table per label family of four states, read by a _bar name too; row i % 4 of
    # one _state pass over family i // 4 has the bits of state i's public constructor,
    # each label at a position of its own, after one band check naming the constructor
    names = [n for n, (_, tables) in sp._TABLES.items() if tables is sp._TABLES[name][1]]
    assert names == [f.__name__ for f in dict.fromkeys(f for f, _ in TABLE_STATES[name])]
    states = TABLE_STATES[name]
    assert len(set(states)) == len(states) == 4 * len(sp._TABLES[name][1])
    breve = name == "breve_u"
    for k in _band_points(breve):
        for crossed in range(len(states) // 4):
            table = sp._state(k, name, crossed)
            assert table.shape == np.shape(k.p0) + (4, 2 if name == "boosted_spinor" else 4)
            for i, (f, labels) in enumerate(states[4 * crossed:4 * crossed + 4]):
                assert table[..., i, :].tobytes() == f(k, *labels).tobytes(), (f.__name__, labels)
    for n in names:
        with pytest.raises(sp.RegionError, match=rf"^{n} needs "):
            sp._state(sp.KinematicPoint(1.0, 2.0 if breve else 0.5, ZHAT), n)


def test_a_single_state_is_a_fresh_array():
    # not a view of the whole table's evaluation, which it would keep alive
    for breve in (False, True):
        for k in _band_points(breve)[-2:]:
            for f, labels in (TABLE_STATES["breve_u" if breve else "dirac_u"]
                              + ([] if breve else TABLE_STATES["boosted_spinor"]
                                 + TABLE_STATES["tetrad_bispinor"])):
                assert f(k, *labels).base is None, (f.__name__, labels)


def test_band_constructors_keep_their_written_out_formulas():
    # every band constructor and label against its formula written out from a, b, phi and
    # the rows sigma_i phi, on both bands, the edges and negated points: bit for bit, but
    # for two deliberate differences.  The tetrad's zero block now adds a * 0 or b * 0,
    # which turns a -0 of tau 3, 4 into +0.  The antisymmetric basis is the negated-point
    # tetrad, whose amplitudes are real below the band, so there it is minus the written
    # i b, i a form: the same basis up to an overall sign.
    def blocks(up, low):
        return np.concatenate(np.broadcast_arrays(up, low), axis=-1).astype(complex)

    phi = np.eye(2, dtype=complex)
    sigma_phi = [np.array([cl.pauli(i)[:, j] for i in (1, 2, 3)]) for j in (0, 1)]
    phi_sigma = [np.conj(x) for x in sigma_phi]
    slots = [(j, l) for j in (0, 1) for l in (0, 1)]
    lam = sp.HELICITIES
    for breve in (False, True):
        for k in _band_points(breve):
            a, b = (x[..., None] for x in _half_boosts(k))
            n = k.nhat
            if breve:
                for j, l in slots:
                    e = blocks(phi[j], phi[l])
                    want = a * e + 1j * b * (n @ blocks(sigma_phi[j], -sigma_phi[l]))
                    assert sp.breve_u(k, lam[j], lam[l]).tobytes() == want.tobytes()
                    want = a * e + 1j * b * (n @ blocks(phi_sigma[j], -phi_sigma[l]))
                    assert sp.breve_u_bar(k, lam[j], lam[l]).tobytes() == want.tobytes()
                continue
            for j, dotted in ((0, False), (0, True), (1, False), (1, True)):
                want = a * phi[j] + (-b if dotted else b) * (n @ sigma_phi[j])
                assert sp.boosted_spinor(k, lam[j], dotted).tobytes() == want.tobytes()
            for j, l in slots:
                want = a * blocks(phi[j], 0) + b * (n @ blocks(0, sigma_phi[l]))
                assert sp.dirac_u(k, lam[j], lam[l]).tobytes() == want.tobytes()
                want = a * blocks(phi[j], 0) + -b * (n @ blocks(0, phi_sigma[l]))
                assert sp.dirac_u_bar(k, lam[j], lam[l]).tobytes() == want.tobytes()
            below = np.where(k.p0 < 0, -1.0, 1.0)[..., None]
            for i in range(4):
                upper = i < 2
                want = a * blocks(phi[i], 0) if upper else b * (n @ blocks(0, sigma_phi[i - 2]))
                got = sp.tetrad_bispinor(k, i + 1)
                assert got.tobytes() == want.tobytes() if upper else np.array_equal(got, want)
                want = (1j * b * blocks(phi[i], 0) if upper
                        else 1j * a * (n @ blocks(0, sigma_phi[i - 2])))
                assert np.array_equal(sp.tetrad_bispinor(k.negated(), i + 1), below * want)
    # off its band each constructor names itself, the tetrad at a negated point its p0
    real, center = sp.KinematicPoint(1.0, 0.5, ZHAT), sp.KinematicPoint(1.0, 2.0, ZHAT)
    for call, text in ((lambda: sp.boosted_spinor(real, 0.5), "boosted_spinor needs |p0| >= m"),
                       (lambda: sp.dirac_u(real, 0.5, 0.5), "dirac_u needs |p0| >= m"),
                       (lambda: sp.dirac_u_bar(real, 0.5, 0.5), "dirac_u_bar needs |p0| >= m"),
                       (lambda: sp.tetrad_bispinor(real, 1), "tetrad_bispinor needs |p0| >= m"),
                       (lambda: sp.tetrad_bispinor(real.negated(), 1),
                        "tetrad_bispinor needs |p0| >= m (got p0=-0.5, m=1.0)"),
                       (lambda: sp.breve_u(center, 0.5, 0.5), "breve_u needs |p0| <= m"),
                       (lambda: sp.breve_u_bar(center, 0.5, 0.5), "breve_u_bar needs |p0| <= m")):
        with pytest.raises(sp.RegionError) as got:
            call()
        assert str(got.value).startswith(text)
