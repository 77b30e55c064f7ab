"""Input validation at the public entry points: each validator states the set
it accepts, so NaN and +-inf are rejected wherever a value enters."""

import math

import numpy as np
import pytest

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp

ZHAT = (0.0, 0.0, 1.0)
REST = (1.0, 0.0, 0.0, 0.0)
ZS = (0.0, 0.0, 0.0, 1.0)

ENTRY_POINTS = {
    "KinematicPoint-m": lambda x: sp.KinematicPoint(x, 1.0, ZHAT),
    "KinematicPoint-p0": lambda x: sp.KinematicPoint(1.0, x, ZHAT),
    "KinematicPoint-nhat": lambda x: sp.KinematicPoint(1.0, 1.0, (x, 0.0, 1.0)),
    "KinematicPoint-batch-p0": lambda x: sp.KinematicPoint(1.0, [1.0, x], ZHAT),
    "kappa-p0": lambda x: sp.kappa(x, 1.0),
    "kappa-m": lambda x: sp.kappa(2.0, x),
    "spin_projector": lambda x: pj.spin_projector((0.0, x, 0.0, 1.0)),
    "spin_projector_rest": lambda x: pj.spin_projector_rest((x, 0.0, 1.0)),
    "energy_projector-p": lambda x: pj.energy_projector((x, 0.0, 0.0, 0.0), 1.0, +1),
    "energy_projector-m": lambda x: pj.energy_projector(REST, x, +1),
    "pi_projector-s": lambda x: pj.pi_projector(REST, 1.0, (0.0, x, 0.0, 1.0)),
    "spinor_from_breve": lambda x: sp.spinor_from_breve(np.ones(4), (0.0, x, 0.0, 1.0)),
    "spinor_from_breve-bispinor": lambda x: sp.spinor_from_breve((x, 0.0, 0.0, 0.0), ZS),
    "dirac_adjoint": lambda x: sp.dirac_adjoint((x, 0.0, 0.0, 0.0)),
    "diad": lambda x: pj.diad((x, 0.0, 0.0, 0.0), "gamma0"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_input(entry, value):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](value)


# a discrete choice of each kind (an index, a sign) whose options include 1 or 0
CHOICES = {
    "gamma": cl.gamma,
    "pauli": cl.pauli,
    "generalized_pauli": cl.generalized_pauli,
    "tetrad_bispinor": lambda v: sp.tetrad_bispinor(sp.KinematicPoint(1.0, 2.0, ZHAT), v),
    "antisym_bispinor-sign": lambda v: sp.antisym_bispinor(sp.KinematicPoint(1.0, 2.0, ZHAT), 1, v),
    "energy_projector-sign": lambda v: pj.energy_projector(REST, 1.0, v),
}


@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("entry", sorted(CHOICES))
def test_a_bool_is_not_a_discrete_choice(entry, value):
    # True == 1 and False == 0, but neither is taken for an index or a sign
    with pytest.raises(ValueError, match=r" must be one of \(.*\), got (np\.)?(True|False)"):
        CHOICES[entry](value)
    CHOICES[entry](1)


def test_spinor_from_breve_requires_unit_spin_vector():
    x = np.array([1.0, 2.0, -1.0, 0.5j])
    s = (0.0, 0.0, 0.0, 2.0)  # spatial, but s.s = -4
    with pytest.raises(ValueError, match="s.s = -1"):
        sp.spinor_from_breve(sp.spinor_from_breve(x, s, "u"), s, "v")
    unit = (0.0, 0.0, 0.0, 1.0)
    back = sp.spinor_from_breve(sp.spinor_from_breve(x, unit, "u"), unit, "v")
    np.testing.assert_allclose(back, -x, atol=1e-15)


def test_kappa_outside_its_band_is_a_region_error():
    for p0 in (0.5, -2.0):
        with pytest.raises(sp.RegionError, match="kappa needs p0 >= m"):
            sp.kappa(p0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_momentum_is_rejected_as_non_finite(value):
    for p in ((value, 0.0, 0.0, 0.0), (2.0, 0.0, value, 1.0)):
        with pytest.raises(ValueError, match="^momentum must be finite"):
            pj.energy_projector(p, 1.0, +1)
        with pytest.raises(ValueError, match="^momentum must be finite"):
            pj.pi_projector(p, 1.0, (0.0, 0.0, 0.0, 1.0))


@pytest.mark.filterwarnings("error")
def test_finite_off_shell_momentum_is_off_shell():
    # the second has each component in scale, but a sum of spatial squares that is not
    for p in ((2.0, 0.0, 0.0, 0.0), (0.0, 1e154, 1e154, 0.0)):
        for call in (lambda q: pj.energy_projector(q, 1.0, +1),
                     lambda q: pj.pi_projector(q, 1.0, ZS)):
            for q in (p, [REST, p]):
                with pytest.raises(ValueError, match="^momentum is off shell"):
                    call(q)


@pytest.mark.filterwarnings("error")
def test_on_shell_tolerance_scales_with_the_momentum():
    # momenta built from valid points are accepted up to p0/m = 1e9 and over m in 1e-6..1e6
    rng = np.random.default_rng(4)
    m = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 2000))
    p0 = m * np.exp(rng.uniform(0.0, np.log(1e9), 2000)) * rng.choice((1.0, -1.0), 2000)
    n = rng.normal(size=(2000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    p = sp.KinematicPoint(m, p0, n).momentum()
    assert np.isfinite(pj.energy_projector(p, m, +1)).all()
    for p0 in (1e4, 1e6, 1e9):
        pj.energy_projector(sp.KinematicPoint(1.0, p0, ZHAT).momentum(), 1.0, -1)


@pytest.mark.filterwarnings("error")
def test_kappa_does_not_overflow_near_the_largest_float():
    want = math.sqrt(0.7 / 2.7)
    assert sp.kappa(1.7e308, 1e308) == pytest.approx(want, rel=1e-15)
    batch = sp.kappa([1.7e308, 3.0], [1e308, 1.0])
    assert batch == pytest.approx([want, math.sqrt(0.5)], rel=1e-15)
    assert batch[0] == sp.kappa(1.7e308, 1e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p0", [0.0, 2.0 ** 150, -2.0 ** 150])
def test_breve_amplitudes_at_the_largest_masses_equal_the_unit_mass_ones(p0):
    # the amplitudes depend on p0/m only, so m = 2**1023 gives the m = 1 bits; 2m overflows
    m = 2.0 ** 1023
    for breve in (sp.breve_u, sp.breve_u_bar):
        want = breve(sp.KinematicPoint(1.0, p0 / m, ZHAT), 0.5, 0.5)
        assert np.any(want != 0)
        assert breve(sp.KinematicPoint(m, p0, ZHAT), 0.5, 0.5).tobytes() == want.tobytes()
        batch = breve(sp.KinematicPoint([m, 1.0], [p0, p0 / m], ZHAT), 0.5, 0.5)
        assert batch[0].tobytes() == batch[1].tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200],
                         ids=["nan", "inf", "-inf", "1e200"])
@pytest.mark.parametrize("entry", ["spin_projector", "pi_projector-s", "spinor_from_breve"])
def test_spin_vector_is_rejected_before_s_dot_s_is_formed(entry, value):
    with pytest.raises(ValueError, match=r"^spin vector must be \(0, svec\)"):
        ENTRY_POINTS[entry](value)


@pytest.mark.filterwarnings("error")
def test_caller_momentum_beyond_the_scale_overflows_for_a_point_and_a_batch():
    p = (1e200, 0.0, 0.0, 1e200)
    for call in (lambda q: pj.energy_projector(q, 1.0, +1), lambda q: pj.pi_projector(q, 1.0, ZS)):
        with pytest.raises(OverflowError, match=r"^momentum overflows: .* at p=\[1\.e\+200"):
            call(p)
        with pytest.raises(OverflowError, match=r"^momentum overflows: .* at p=\[1\.e\+200"):
            call([(2.0, 0.0, 0.0, math.sqrt(3.0)), p])
    # |p_i| / m at or above the scale, and a mass whose square overflows
    with pytest.raises(OverflowError, match="^momentum overflows"):
        pj.energy_projector((1e-140, 0.0, 0.0, 0.0), 1e-300, +1)
    with pytest.raises(OverflowError, match="^momentum overflows"):
        pj.energy_projector(REST, 1e200, +1)


@pytest.mark.filterwarnings("error")
def test_a_mass_must_be_a_normal_float():
    for m in (5e-324, 1e-310):
        with pytest.raises(ValueError, match="^mass must satisfy"):
            sp.KinematicPoint(m, 0.0, ZHAT)
        with pytest.raises(ValueError, match="^mass must satisfy"):
            pj.energy_projector((m, 0.0, 0.0, 0.0), m, +1)
    k = sp.KinematicPoint(np.finfo(float).tiny, 0.0, ZHAT)
    for kind in ("breve-plus", "breve-minus", "completeness"):
        assert all(np.isfinite(side).all() for side in pj.polsum(kind, k))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, p0", [(1.0, 1e200), (1.2697076285132332e-146, 1e200), (1e-300, 3.0)])
def test_p0_beyond_the_scale_of_m_overflows_at_construction(m, p0):
    for batch in (False, True):
        with pytest.raises(OverflowError, match=r"^p0 overflows: .* at p0="):
            sp.KinematicPoint([2.0 * m, m] if batch else m, [m, p0] if batch else p0, ZHAT)
    k = sp.KinematicPoint(m, 0.99 * m * 1.3e154, ZHAT)
    assert np.isfinite(sp.dirac_u(k, 0.5, 0.5)).all()
