from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor.spinors import HELICITIES, KinematicPoint, RegionError

I2 = np.eye(2)
I4 = np.eye(4)
ZHAT = (0.0, 0.0, 1.0)
ZS4 = (0.0, 0.0, 0.0, 1.0)
AXES = [(0.0, 0.0, 1.0), (-0.0, -0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, -0.0)]

unit_dirs = st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.2
).map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))


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
    np.testing.assert_allclose(pj.spin_projector(sp._spatial(ZHAT)),
                               np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)


def test_spin_projector_rejects_bad_vectors():
    with pytest.raises(ValueError):
        pj.spin_projector([0.5, 0, 0, 1])          # not spatial
    with pytest.raises(ValueError):
        pj.spin_projector([0, 0, 0, 2])            # s.s != -1


def test_spin_projector_complementarity_and_idempotency():
    for k in _random_points(11, 100):
        s = sp._spatial(k.nhat)
        plus, minus = pj.spin_projector(s), pj.spin_projector(-s)
        np.testing.assert_allclose(plus + minus, I4, atol=1e-14)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
        np.testing.assert_allclose(plus @ minus, np.zeros((4, 4)), atol=1e-12)


def test_tetrad_projector_sum_is_unity():
    for k in _random_points(13, 50):
        n = np.asarray(k.nhat)
        total = sum(pj.spin_projector(sp._spatial(s)) for s in (n, -n, n, -n)) / 2.0
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
    # the second is off shell by p.p = 4 m^2 at m = 5e-7: the tolerance has no absolute floor
    for p, m in (([1.25, 0, 0, 0.5], 1.0), ((1e-6, 0.0, 0.0, 0.0), 0.5e-6)):
        with pytest.raises(ValueError, match="off shell"):
            pj.energy_projector(p, m, +1)


def test_momenta_whose_squares_underflow_are_accepted_on_shell():
    # |p| = 2 m a b forms no square, so at p0 = 2m it is sqrt(3) m where p0 * p0 and m * m
    # underflow (m = 1e-200, 1e-300) as where they do not (1e-155): the momentum is the
    # unit-mass one scaled, on shell, and the guard accepts it
    unit = KinematicPoint(1.0, 2.0, ZHAT).momentum()
    for m in (1e-155, 1e-200, 1e-300):
        p = KinematicPoint(m, 2.0 * m, ZHAT).momentum()
        np.testing.assert_allclose(p, m * unit, rtol=1e-15, atol=0)
        assert abs(cl.minkowski_dot(p / m, p / m) - 1.0) < 1e-15
        pj.energy_projector(p, m, +1)


# The guard's rounding: it divides x = (p, m) by top = max(m, max_i |p_i|), so each |y_i| <= 1,
# and contracts y * y with (1, -1, -1, -1, -1).  The quotients, the squares and their sum each
# round by a few units of 2^-53 on terms of at most 1, at most about 6e-15 in all over the five
# terms, which is 6e-5 of the tolerance 1e-10; draws whose exact ratio lies closer to it than
# that may go either way.
_GUARD_EDGE = 1e-4


@settings(max_examples=300, deadline=None)
@given(log_m=st.floats(-100.0, 100.0), log_q=st.floats(-3.0, 3.0), nhat=unit_dirs,
       above=st.booleans(), log_gap=st.floats(-4.0, 1.0))
def test_guard_accepts_exactly_the_momenta_within_its_tolerance(log_m, log_q, nhat, above,
                                                                 log_gap):
    # the guard accepts p, m iff |p.p - m^2| / max(m^2, max_i |p_i|^2) <= 1e-10, here
    # evaluated exactly in fractions, for momenta near the shell on either side of the edge,
    # at masses far above and far below 1: the rule has no absolute floor
    m = 10.0 ** log_m
    q = m * 10.0 ** log_q
    on_shell = m * m + q * q
    ratio = 1e-10 * (1.0 + (1.0 if above else -1.0) * 10.0 ** log_gap)
    energy2 = on_shell + ratio * on_shell
    assume(energy2 > 0.0)
    p = np.array([np.sqrt(energy2), *(q * np.asarray(nhat))])
    exact = [Fraction(float(x)) for x in p]
    mass = Fraction(m)
    gap = exact[0] ** 2 - sum(x * x for x in exact[1:]) - mass * mass
    value = abs(gap) / max(mass * mass, max(x * x for x in exact))
    tol = Fraction(pj._ONSHELL_TOL)
    assume(abs(value - tol) > _GUARD_EDGE * tol)
    try:
        pj._check_on_shell(p, m)
        accepted = True
    except ValueError as exc:
        assert str(exc).startswith("momentum is off shell")
        accepted = False
    assert accepted == (value <= tol)


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
        s = sp._spatial(v / np.linalg.norm(v))
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
    s = sp._spatial(ZHAT)
    lam = pj.pi_projector(p, 1.0, s, "lambda")
    np.testing.assert_allclose(lam, np.diag([0.0, 0, 0, 1]), atol=1e-14)
    np.testing.assert_allclose(lam @ lam, lam, atol=1e-12)
    neg = pj.pi_projector(p, 1.0, s, "neg-lambda")
    np.testing.assert_allclose(neg, np.diag([0.0, 1, 0, 0]), atol=1e-14)
    with pytest.raises(ValueError):
        pj.pi_projector(p, 1.0, s, "other")


@pytest.mark.parametrize("variant", ["lambda", "neg-lambda"])
def test_pi_projector_is_a_projector_only_where_s_is_orthogonal_to_p(variant):
    # Lambda(p) and P(s) commute only where s.p = 0: at p0 = 3m along z, s along x or y gives
    # a rank-1 projector, s along z a rank-2 matrix with max |Pi^2 - Pi| = 2 sqrt 2
    p = KinematicPoint(1.0, 3.0, ZHAT).momentum()
    for s in ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)):
        pi = pj.pi_projector(p, 1.0, s, variant)
        assert np.max(np.abs(pi @ pi - pi)) <= 2.3e-16
        assert np.linalg.matrix_rank(pi) == 1
    for s in (ZS4, (0.0, 0.0, 0.0, -1.0)):
        pi = pj.pi_projector(p, 1.0, s, variant)
        assert np.max(np.abs(pi @ pi - pi)) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
        assert np.linalg.matrix_rank(pi) == 2


def test_polsum_rest_spinor():
    k = KinematicPoint(1.0, 1.0, ZHAT)
    lhs, rhs = pj.polsum("spinor", k)
    np.testing.assert_allclose(lhs, np.diag([1.0, 1, 0, 0]), atol=1e-14)
    np.testing.assert_allclose(rhs, np.diag([1.0, 1, 0, 0]), atol=1e-14)


def _closed_form_holds_on_the_real_band(kind, seed):
    # at 100 points with p0 >= m, at their negations p0 <= -m, where a and b are both imaginary
    # and the rhs's |p| = 2 m a b is negative, and at the negations as one batch
    points = list(_random_points(seed, 100))
    below = [k.negated() for k in points]
    batch = KinematicPoint(1.0, [k.p0 for k in below], [k.nhat for k in below])
    for k in (*points, *below, batch):
        lhs, rhs = pj.polsum(kind, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_polsum_spinor_closed_form():
    _closed_form_holds_on_the_real_band("spinor", 23)


def test_polsum_antispinor_closed_form():
    _closed_form_holds_on_the_real_band("antispinor", 27)


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


@pytest.mark.filterwarnings("error")
def test_polsum_spinor_holds_where_the_squares_of_p0_and_m_underflow():
    # polsum builds its momentum from the point without the on-shell guard, so nothing
    # refuses it; |p| = 2 m a b forms no square of p0 or m, so the closed form holds at
    # m = 1e-200 and 1e-300, with no warning raised
    for m in (1e-200, 1e-300):
        lhs, rhs = pj.polsum("spinor", KinematicPoint(m, 2.0 * m, ZHAT))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_spinor_from_breve_keeps_the_bytes_of_the_explicit_products():
    # the maps contract s against stacks with their blocks swapped; every entry is a component
    # times 0, +-1 or +-i, so each has the bits of the explicit product gamma5 (gamma.s) or
    # (gamma.s) gamma5 times the column, signed zeros included: for a (40, 25) batch whose
    # first spin vectors lie along signed-zero axes and whose first bispinors have signed-zero
    # components, and for those points alone
    rng = np.random.default_rng(29)
    n = rng.normal(size=(40, 25, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    n[0, :4] = AXES
    s = sp._spatial(n)
    breve = rng.normal(size=(40, 25, 4)) + 1j * rng.normal(size=(40, 25, 4))
    breve[0, :2] = [(0.0, -0.0, 1j, -1.0), (complex(-0.0, -0.0), 1.0, -1j, 0.0)]
    g5, gs = cl.gamma5(), cl._contract(s.astype(complex), cl._GAMMA_DOT_S_DOT)
    for variant, stack in (("u", g5 @ gs), ("v", gs @ g5)):
        want = cl.times_column(stack, breve)
        assert sp.spinor_from_breve(breve, s, variant).tobytes() == want.tobytes()
        for i in range(4):
            got = sp.spinor_from_breve(breve[0, i], s[0, i], variant)
            assert got.tobytes() == want[0, i].tobytes()


def test_spinor_from_breve_v_is_u_negated():
    # the "v" map is the "u" map negated, equal in value, so with the negated bits in every
    # nonzero entry: for a batch whose first spin vectors lie along signed-zero axes and
    # whose first bispinors have signed zeros, where a zero entry may keep its sign
    rng = np.random.default_rng(31)
    n = rng.normal(size=(20, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    n[:4] = AXES
    s = sp._spatial(n)
    breve = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    breve[:2] = [(0.0, -0.0, 1j, -1.0), (complex(-0.0, -0.0), 1.0, -1j, 0.0)]
    for got, x, u in ((sp.spinor_from_breve(breve, s, "v"), breve, s),
                      *((sp.spinor_from_breve(breve[i], s[i], "v"), breve[i], s[i])
                        for i in range(4))):
        assert np.array_equal(got, np.negative(sp.spinor_from_breve(x, u, "u")))


def _written_out_energy(p, m, sign):
    """The energy projector as slash, an in-place diagonal add and a scale: slash(+-p),
    m added to its diagonal through a strided view, then the float view times 1/2m."""
    m = np.asarray(m, dtype=float)
    p = np.broadcast_to(p, np.broadcast_shapes(np.shape(p)[:-1], m.shape) + (4,))
    x = cl.slash(p if sign > 0 else -p)
    x.reshape(x.shape[:-2] + (16,))[..., ::5] += m[..., None]
    scaled = x.view(float)
    scaled *= (1.0 / (2.0 * m))[..., None, None]
    return x


def _written_out_spin(s):
    """(I4 + s @ the gamma5 slash stack) / 2, the stack product taken over complex s and the
    stack built as the matmul gamma5 @ slash stack."""
    s = np.asarray(s, dtype=complex)
    g5s = (s @ (cl.gamma5() @ cl._SLASH).reshape(4, 16)).reshape(s.shape[:-1] + (4, 4))
    return (cl._I4 + g5s) * 0.5


def _written_out_polsum(kind, k) -> tuple:
    """polsum's sides written out: Lambda+ + Lambda- against the identity, or the two
    equal-label outer products of the public column and row constructors (at the negated
    point for the antispinor) against the closed form."""
    p = k.momentum()
    if kind == "completeness":
        both = _written_out_energy(p, k.m, +1) + _written_out_energy(p, k.m, -1)
        return both, np.broadcast_to(cl._I4, np.shape(k.p0) + (4, 4))
    breve = kind.startswith("breve")
    column, row = (sp.breve_u, sp.breve_u_bar) if breve else (sp.dirac_u, sp.dirac_u_bar)
    q = k.negated() if kind == "antispinor" else k
    plus, minus = (column(q, lam, lam)[..., :, None] * row(q, lam, lam)[..., None, :]
                   for lam in HELICITIES)
    sign = +1 if kind in ("spinor", "breve-plus") else -1
    return plus + minus, _written_out_energy(p, k.m, sign)


def _band_batch(rng, shape, breve: bool) -> KinematicPoint:
    """Points of one band at masses e^-3..e^3, with p0/m up to e^5 on the real band."""
    m = np.exp(rng.uniform(-3.0, 3.0, shape))
    ratio = rng.uniform(-1.0, 1.0, shape) if breve else np.exp(rng.uniform(0.0, 5.0, shape))
    n = rng.normal(size=shape + (3,))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return KinematicPoint(m, m * ratio, n)


def _projector_points() -> tuple:
    """Points of both bands over masses 1e-3..1e3, the band edges p0 = +-m, p0 = 0 and
    p0 = -2.5m along signed-zero axes, each alone; then batches: all of them, a (40, 25) batch
    of each band and 10 000 real-band points."""
    rng = np.random.default_rng(43)
    m = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 16))
    p0 = m * np.concatenate([np.exp(rng.uniform(0.0, np.log(1e2), 8)), rng.uniform(-1, 1, 8)])
    n = rng.normal(size=(16, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    edges = [KinematicPoint(mi, p0 * mi, a) for mi in (0.5, 3.0, float(m[0]))
             for p0 in (1.0, -1.0, 0.0, -2.5) for a in AXES]
    singles = [*(KinematicPoint(float(m[i]), float(p0[i]), n[i]) for i in range(16)), *edges,
               KinematicPoint(2.0, -7.5, (0.6, 0.0, -0.8))]
    batch = KinematicPoint(np.array([k.m for k in singles]), np.array([k.p0 for k in singles]),
                           np.array([k.nhat for k in singles]))
    return singles, [batch, _band_batch(rng, (40, 25), False), _band_batch(rng, (40, 25), True),
                     _band_batch(rng, (10000,), False)]


def _kinds(k) -> list:
    """The polsum kinds whose band holds every point of k."""
    real = np.abs(k.p0) >= k.m
    return ["completeness", *(["spinor", "antispinor"] if np.all(real) else []),
            *(["breve-plus", "breve-minus"] if not np.any(real & (np.abs(k.p0) > k.m)) else [])]


def test_projectors_keep_the_bytes_of_their_written_out_forms():
    # each projector is one product of (p, m) or (s, 1) with a constant stack; its bytes
    # (tobytes, so the signs of zero entries count) are those of slash, the in-place
    # diagonal add and the scale, and polsum's lhs those of the outer products of the public
    # constructors: for points, batches, and one momentum over many masses
    singles, batches = _projector_points()
    for k in (*singles, *batches):
        p, s = k.momentum(), sp._spatial(k.nhat)
        for sign in (+1, -1):
            assert pj.energy_projector(p, k.m, sign).tobytes() == \
                _written_out_energy(p, k.m, sign).tobytes()
        assert pj.spin_projector(s).tobytes() == _written_out_spin(s).tobytes()
        assert pj.pi_projector(p, k.m, s, "lambda").tobytes() == \
            (_written_out_energy(p, k.m, -1) @ _written_out_spin(s)).tobytes()
        assert pj.pi_projector(p, k.m, s, "neg-lambda").tobytes() == \
            (_written_out_energy(p, k.m, +1) @ _written_out_spin(np.negative(s))).tobytes()
        for kind in _kinds(k):
            for side, want in zip(pj.polsum(kind, k), _written_out_polsum(kind, k)):
                assert side.tobytes() == want.tobytes(), kind
    # one momentum over a batch of masses, for the guard's broadcast
    q, masses = np.array([1.25, 0.0, 0.0, 0.75]), np.array([1.0, 1.0, 1.0])
    for sign in (+1, -1):
        got = pj.energy_projector(q, masses, sign)
        assert got.shape == (3, 4, 4)
        assert got.tobytes() == _written_out_energy(q, masses, sign).tobytes()
    assert pj.pi_projector(q, masses, ZS4, "lambda").tobytes() == \
        (_written_out_energy(q, masses, -1) @ _written_out_spin(ZS4)).tobytes()


def test_diad_keeps_the_bytes_of_its_written_out_form():
    # |phi><phi| Gamma is the outer product of phi with the matmul row conj(phi) Gamma, entry
    # for entry (array_equal: where a product meets a zero, the zero's sign is free), for
    # random bispinors and the band states at the points, alone and in a batch
    rng = np.random.default_rng(4)
    phis = [rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))]
    singles, batches = _projector_points()
    for k in (*singles, *batches[1:3]):
        kinds = _kinds(k)
        names = ["dirac_u", "tetrad_bispinor"] if "spinor" in kinds else []
        names += ["breve_u"] if "breve-plus" in kinds else []
        phis += [sp._state(k, name, crossed) for name in names
                 for crossed in range(len(sp._TABLES[name][1]))]
    for insert, matrix in (("gamma0", cl.gamma(0)), ("gamma5", cl.gamma5())):
        for phi in phis:
            for u in (phi, phi.reshape(-1, 4)[0]):
                want = u[..., :, None] * cl.row_times(np.conj(u), matrix)[..., None, :]
                assert np.array_equal(pj.diad(u, insert), want), insert
