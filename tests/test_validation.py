"""Input validation at the public entry points: each validator states the set
it accepts, so NaN and +-inf are rejected wherever a value enters."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bispinor
from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor import verify as vf

ZHAT = (0.0, 0.0, 1.0)
REST = (1.0, 0.0, 0.0, 0.0)
ZS = (0.0, 0.0, 0.0, 1.0)
SCALE = 2.0 ** 1023  # the range bound: m, |p0| (max_i |p_i|) and their ratio lie below it
BELOW = float(np.nextafter(SCALE, 0.0))

ENTRY_POINTS = {
    "KinematicPoint-m": lambda x: sp.KinematicPoint(x, 1.0, ZHAT),
    "KinematicPoint-p0": lambda x: sp.KinematicPoint(1.0, x, ZHAT),
    "KinematicPoint-nhat": lambda x: sp.KinematicPoint(1.0, 1.0, (x, 0.0, 1.0)),
    "KinematicPoint-nhat-z": lambda x: sp.KinematicPoint(1.0, 2.0, (0, 0, x)),
    "KinematicPoint-batch-p0": lambda x: sp.KinematicPoint(1.0, [1.0, x], ZHAT),
    "kappa-p0": lambda x: sp.kappa(x, 1.0),
    "kappa-m": lambda x: sp.kappa(2.0, x),
    "spin_projector": lambda x: pj.spin_projector((0.0, x, 0.0, 1.0)),
    "spin_projector_rest": lambda x: pj.spin_projector_rest((x, 0.0, 1.0)),
    "energy_projector-p": lambda x: pj.energy_projector((x, 0.0, 0.0, 0.0), 1.0, +1),
    "energy_projector-m": lambda x: pj.energy_projector(REST, x, +1),
    "pi_projector-s": lambda x: pj.pi_projector(REST, 1.0, (0.0, x, 0.0, 1.0)),
    "pi_projector-s-neg-lambda":
        lambda x: pj.pi_projector(REST, 1.0, (0.0, x, 0.0, 1.0), "neg-lambda"),
    "spinor_from_breve": lambda x: sp.spinor_from_breve(np.ones(4), (0.0, x, 0.0, 1.0)),
    "spinor_from_breve-bispinor": lambda x: sp.spinor_from_breve((x, 0.0, 0.0, 0.0), ZS),
    "dirac_adjoint": lambda x: sp.dirac_adjoint((x, 0.0, 0.0, 0.0)),
    "diad": lambda x: pj.diad((x, 0.0, 0.0, 0.0), "gamma0"),
    "section4_two_valued": lambda x: vf.section4_two_valued((x, 0.0, 0.0, 0.0)),
    "parity_components-undotted": lambda x: sp.parity_components((x, 0.0), (1.0, 0.0)),
    "parity_components-dotted": lambda x: sp.parity_components((1.0, 0.0), (0.0, x)),
    "slash": lambda x: cl.slash((x, 0.0, 0.0, 0.0)),
    "pauli_dot": lambda x: cl.pauli_dot((x, 0.0, 0.0)),
    "minkowski_dot-a": lambda x: cl.minkowski_dot((x, 0.0, 0.0, 0.0), REST),
    "minkowski_dot-b": lambda x: cl.minkowski_dot(REST, (x, 0.0, 0.0, 0.0)),
    "trace": lambda x: cl.trace([[[x, 0, 0, 0], *[[0, 0, 0, 0]] * 3]]),
}
# the exported functions and classes that take no numeric array: a label, a kind, a point
# already checked, run parameters, or nothing; or an exception or a result record
TAKES_NO_ARRAY = {
    "gamma", "gamma5", "gamma5_from_epsilon", "gamma_lower", "generalized_pauli", "pauli",
    "sigma_munu", "polsum", "boosted_spinor", "breve_u", "breve_u_bar",
    "dirac_u", "dirac_u_bar", "rest_basis", "tetrad_bispinor", "registry", "run_all",
    "run_check", "IdentityCheck", "CheckResult", "VerificationReport", "RegionError",
    "ConfigurationError",
}


def test_every_exported_function_of_a_numeric_array_is_an_entry_point():
    # an exported callable is either an entry point (by the name before its first "-") or
    # named as taking no numeric array, never both: a new one fails here until it is listed
    exported = {name for name, obj in vars(bispinor).items()
                if callable(obj) and not name.startswith("_")}
    entries = {entry.split("-")[0] for entry in ENTRY_POINTS}
    assert entries <= exported and TAKES_NO_ARRAY <= exported
    assert not entries & TAKES_NO_ARRAY
    assert exported == entries | TAKES_NO_ARRAY


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_finite_input(entry, value):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](value)


# every real input, given its valid value v, and the name a refusal gives it; the momentum
# and the bispinor are complex inputs and stay so
REAL_INPUTS = {
    "KinematicPoint-m": ("mass", 1.0, lambda v: sp.KinematicPoint(v, 2.0, ZHAT)),
    "KinematicPoint-p0": ("p0", 2.0, lambda v: sp.KinematicPoint(1.0, v, ZHAT)),
    "KinematicPoint-nhat": ("nhat", ZHAT, lambda v: sp.KinematicPoint(1.0, 2.0, v)),
    "kappa-p0": ("p0", 2.0, lambda v: sp.kappa(v, 1.0)),
    "kappa-m": ("mass", 1.0, lambda v: sp.kappa(2.0, v)),
    "spin_projector": ("spin vector", ZS, pj.spin_projector),
    "spin_projector_rest": ("nhat", ZHAT, pj.spin_projector_rest),
    "energy_projector-m": ("mass", 1.0, lambda v: pj.energy_projector(REST, v, +1)),
    "pi_projector-m": ("mass", 1.0, lambda v: pj.pi_projector(REST, v, ZS)),
    "pi_projector-s": ("spin vector", ZS, lambda v: pj.pi_projector(REST, 1.0, v)),
    # s is checked before "neg-lambda" negates it
    "pi_projector-s-neg-lambda":
        ("spin vector", ZS, lambda v: pj.pi_projector(REST, 1.0, v, "neg-lambda")),
    "spinor_from_breve": ("spin vector", ZS, lambda v: sp.spinor_from_breve(np.ones(4), v)),
}

# the valid value made complex: Python complex numbers, a complex array with a zero
# imaginary part, and a batch of two with a nonzero one
COMPLEX_FORMS = {
    "python-complex": lambda v: complex(v) if np.ndim(v) == 0 else tuple(map(complex, v)),
    "complex-array": lambda v: np.asarray(v, dtype=complex),
    "complex-batch": lambda v: np.asarray([v, v]) + 1e-3j,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", sorted(COMPLEX_FORMS))
@pytest.mark.parametrize("entry", sorted(REAL_INPUTS))
def test_a_complex_value_is_refused_where_a_real_is_required(entry, form):
    what, valid, call = REAL_INPUTS[entry]
    call(valid)
    with pytest.raises(ValueError, match=rf"^{what} must be real, got complex128$"):
        call(COMPLEX_FORMS[form](valid))


def _each(convert):
    """convert applied to a scalar, or to each component of a vector."""
    return lambda v: convert(v) if np.ndim(v) == 0 else tuple(map(convert, v))


# the valid value in a form that is not numbers, which numpy would parse (str, bytes), count
# as 0 or 1 (bool), or fail to convert with a TypeError (a dict, an object-array complex)
NON_NUMERIC_FORMS = {
    "str": _each(str),
    "bytes": _each(lambda c: str(c).encode()),
    "bool": _each(bool),
    # a bool among numbers, which numpy would convert with them: (..., True), [v, True]
    "bool-in-sequence": lambda v: [v, True] if np.ndim(v) == 0 else (*v[:-1], np.True_),
    "dict": lambda v: {"value": v},
    "object-complex": lambda v: np.array(COMPLEX_FORMS["python-complex"](v), dtype=object),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", sorted(NON_NUMERIC_FORMS))
@pytest.mark.parametrize("entry", sorted(REAL_INPUTS))
def test_a_value_that_is_not_numbers_is_refused_where_a_real_is_required(entry, form):
    what, valid, call = REAL_INPUTS[entry]
    with pytest.raises(ValueError, match=rf"^{what} must be real, got "):
        call(NON_NUMERIC_FORMS[form](valid))


# one component that is not a number makes the whole input an array of strs, bytes or
# objects; a bool component, which numpy would read as the number 0 or 1, is refused
# before the conversion, alone or inside a list or tuple
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1", b"1", {}, np.array(1j, dtype=object), True, np.True_,
                                   np.array([False])],
                         ids=["str", "bytes", "dict", "object-complex", "True", "np.True_",
                              "bool-array"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_a_component_that_is_not_a_number(entry, value):
    with pytest.raises(ValueError, match=r" must be (real|numeric), got "):
        ENTRY_POINTS[entry](value)


# a discrete choice of each kind (an index, a sign, a helicity) and a valid value of it; the
# options of all but the helicity include 1 or 0
CHOICES = {
    "gamma": (cl.gamma, 1),
    "pauli": (cl.pauli, 1),
    "generalized_pauli": (cl.generalized_pauli, 1),
    "tetrad_bispinor": (lambda v: sp.tetrad_bispinor(sp.KinematicPoint(1.0, 2.0, ZHAT), v), 1),
    "rest_basis": (sp.rest_basis, 1),
    "energy_projector-sign": (lambda v: pj.energy_projector(REST, 1.0, v), 1),
    "helicity": (lambda v: sp.dirac_u(sp.KinematicPoint(1.0, 2.0, ZHAT), v, 0.5), 0.5),
}


@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("entry", sorted(CHOICES))
def test_a_bool_is_not_a_discrete_choice(entry, value):
    # True == 1 and False == 0, but neither is taken for an index, a sign or a helicity
    call, valid = CHOICES[entry]
    with pytest.raises(ValueError, match=r" must be one of \(.*\), got (np\.)?(True|False)"):
        call(value)
    call(valid)


@pytest.mark.parametrize("value", [1.0, np.float64(1.0)], ids=["1.0", "np.float64"])
@pytest.mark.parametrize("entry", sorted(CHOICES))
def test_a_float_is_not_an_integer_choice(entry, value):
    # 1.0 == 1, but where the options are ints only an integer is taken; NumPy scalars of the
    # option's own kind (NumPy ints, NumPy floats) are
    call, valid = CHOICES[entry]
    with pytest.raises(ValueError, match=r" must be one of \(.*\), got (np\.float64\()?1\.0"):
        call(value)
    call(np.asarray(valid)[()])


# the valid value as a complex equal to it, or as an array holding it, which == compares
# elementwise: numpy's truth-value error for more than one element, a match for one
NOT_A_CHOICE_FORMS = {
    "python-complex": complex,
    "numpy-complex": np.complex128,
    "array-of-two": lambda v: np.array([v, v]),
    "array-of-one": lambda v: np.array([v]),
    "0-d-array": np.array,
}


@pytest.mark.parametrize("form", sorted(NOT_A_CHOICE_FORMS))
@pytest.mark.parametrize("entry", sorted(CHOICES))
def test_a_complex_or_an_array_is_not_a_discrete_choice(entry, form):
    # refused with the one message, as check_real refuses a complex where a real is required
    call, valid = CHOICES[entry]
    with pytest.raises(ValueError, match=r" must be one of \(.*\), got "):
        call(NOT_A_CHOICE_FORMS[form](valid))


def test_helicity_labels_stay_float_choices_and_dotted_is_a_bool():
    k = sp.KinematicPoint(1.0, 2.0, ZHAT)
    for lam in (0.5, np.float64(0.5)):
        assert sp.boosted_spinor(k, lam).tobytes() == sp.boosted_spinor(k, 0.5).tobytes()
    for value in ("no", 1, 0, 1.0, None):
        with pytest.raises(ValueError, match=r"^dotted must be True or False, got "):
            sp.boosted_spinor(k, 0.5, dotted=value)
    for value in (True, np.True_, False, np.False_):
        assert sp.boosted_spinor(k, 0.5, dotted=value).tobytes() == \
            sp.boosted_spinor(k, 0.5, bool(value)).tobytes()
    assert sp.boosted_spinor(k, 0.5, True).tobytes() != sp.boosted_spinor(k, 0.5).tobytes()


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


GUARD_REFUSALS = {
    "nan": ((math.nan, 0.0, 0.0, 0.0), ValueError, "momentum must be finite, got "),
    "inf": ((2.0, 0.0, -math.inf, 1.0), ValueError, "momentum must be finite, got "),
    "overflow": ((SCALE, 0.0, 0.0, SCALE), OverflowError,
                 "max_i |p_i|, m and max_i |p_i|/m must lie below 2^1023, got max_i |p_i|="),
    "off-shell": ((1.25, 0.0, 0.0, 0.5), ValueError,
                  "momentum is off shell: |p.p - m^2| / max(m^2, max_i |p_i|^2) = "),
    # p0 = 500 m moved off the shell by 5 times the tolerance, relative to p0^2
    "near-shell": (tuple(sp.KinematicPoint(1.0, 500.0, (0.6, 0.0, 0.8)).momentum()
                         * (1.0 + 2.5e-10, 1.0, 1.0, 1.0)), ValueError,
                   "momentum is off shell: |p.p - m^2| / max(m^2, max_i |p_i|^2) = 5.000e-10"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(GUARD_REFUSALS))
def test_the_guard_refuses_with_one_type_and_prefix_at_a_point_and_in_a_batch(case):
    # the guard that builds the five-vector (p, m) refuses with one exception type (not a
    # subclass) and one message prefix per case; a batch of momenta whose second one fails,
    # and one momentum over a batch of masses, raise the message of that momentum alone
    p, error, prefix = GUARD_REFUSALS[case]
    on_shell = (1.25, 0.0, 0.0, 0.75)
    calls = [lambda q, m: pj.energy_projector(q, m, +1), lambda q, m: pj.energy_projector(q, m, -1),
             lambda q, m: pj.pi_projector(q, m, ZS, "lambda"),
             lambda q, m: pj.pi_projector(q, m, ZS, "neg-lambda")]
    for call in calls:
        with pytest.raises(error) as alone:
            call(p, 1.0)
        assert type(alone.value) is error and str(alone.value).startswith(prefix)
        two = np.array([1.0, 1.0])
        for q, m in (([on_shell, p], 1.0), ([on_shell, p], two), (p, two)):
            with pytest.raises(error) as caught:
                call(q, m)
            assert type(caught.value) is error and str(caught.value) == str(alone.value)


def _reference_guard(p, m):
    """The on-shell guard as a rule written out with its range tested on the one scale
    top = max(m, max_i |p_i|): top < 2^1023 and top / 2^1023 < m, which holds iff m,
    max_i |p_i| and max_i |p_i| / m lie below 2^1023; then scaled by top."""
    p = cl.check_vectors(p, 4, "momentum")
    m = cl.check_real(m, "mass")[()]
    sp.check_mass(m)
    big = abs(p).max(axis=-1)
    sp._require(big < np.inf, "momentum must be finite, got {}", p)
    scale = np.maximum(big, m)
    sp._require((scale < SCALE) & (scale / SCALE < m), "max_i |p_i|, m and max_i |p_i|/m must "
                "lie below 2^1023, got max_i |p_i|={}, m={}", big, m, error=OverflowError)
    x = np.empty(scale.shape + (5,), dtype=complex)
    x[..., :4] = p
    x[..., 4] = m
    q, mu = p / scale[..., None], m / scale
    gap = cl.minkowski_dot(q, q) - mu * mu
    residual = np.hypot(gap.real, gap.imag)
    sp._require(residual <= pj._ONSHELL_TOL, "momentum is off shell: "
                "|p.p - m^2| / max(m^2, max_i |p_i|^2) = {:.3e}", residual)
    return x


def _guard_outcome(guard, p, m):
    """What guard(p, m) does: the bits, dtype and shape of the five-vectors x it returns, or
    the exact type and message it raises."""
    try:
        x = guard(p, m)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return "accepted", x.tobytes(), x.dtype, x.shape


def _last_below(limit, m):
    """The largest float t with t / limit < m."""
    t = limit * m
    while t / limit >= m:
        t = np.nextafter(t, 0.0)
    while np.nextafter(t, math.inf) / limit < m:
        t = np.nextafter(t, math.inf)
    return t


def _range_edges():
    """(name, p, m, the outcome expected) at each edge of the guard's range: m above and
    below max_i |p_i|, |p_i| and |p_i|/m just inside and just outside 2^1023, m at it, a
    tiny m, and non-finite components; then momenta on and off shell far below unit scale."""
    big, below, above = SCALE, BELOW, np.nextafter(SCALE, math.inf)
    tiny = float(np.finfo(float).tiny)

    def breve(m):  # on shell with every |p_i| below m: p0 = m/2 and an imaginary |p|
        return (0.5 * m, 0.0, 0.0, 1j * math.sqrt(0.75) * m)

    def light(t):  # (t, 0, 0, t): on shell to 1e-10 for every m <= 1e-6 t
        return (t, 0.0, 0.0, t)

    cases = [("m above max |p_i|", breve(1.0), 1.0, "accepted"),
             ("m above max |p_i|, m just below the scale", breve(below), below, "accepted"),
             ("m above max |p_i|, m at the scale", breve(big), big, OverflowError),
             ("m above max |p_i|, m just above the scale", breve(above), above, OverflowError),
             ("m at the scale, at rest", (big, 0.0, 0.0, 0.0), big, OverflowError),
             ("m below max |p_i|", (1.25, 0.0, 0.0, 0.75), 1.0, "accepted"),
             ("|p_i| just below the scale", light(below), 1.0, "accepted"),
             ("|p_i| at the scale", light(big), 1.0, OverflowError),
             ("|p_i| just above the scale", light(above), 1.0, OverflowError),
             ("tiny m at rest", (tiny, 0.0, 0.0, 0.0), tiny, "accepted"),
             ("tiny m, |p_i| of 1", light(1.0), tiny, "accepted"),
             ("tiny m, |p_i| of 4", light(4.0), tiny, OverflowError),
             ("off shell", (2.0, 0.0, 0.0, 0.0), 1.0, ValueError),
             ("nan component", (math.nan, 0.0, 0.0, 0.0), 1.0, ValueError),
             ("inf component", (2.0, 0.0, -math.inf, 1.0), 1.0, ValueError),
             ("component of infinite modulus", (1.5e308 + 1.5e308j, 0.0, 0.0, 0.0), 1.0,
              ValueError)]
    for m in (1e-300, 1e-100, tiny, 1e-6):
        t = _last_below(big, m)
        cases += [(f"|p_i|/m just below the scale, m={m}", light(t), m, "accepted"),
                  (f"|p_i|/m just above the scale, m={m}", light(np.nextafter(t, math.inf)), m,
                   OverflowError)]
    # the shell test has no absolute floor: far below unit scale p.p = 4 m^2 is refused
    for m in (1e-6, 1e-300):
        cases += [(f"m={m} at rest", (m, 0.0, 0.0, 0.0), m, "accepted"),
                  (f"m={m}, p.p = 4 m^2 at rest", (2.0 * m, 0.0, 0.0, 0.0), m, ValueError),
                  (f"m={m}, p.p = 4 m^2 moving", (math.sqrt(5.0) * m, 0.0, 0.0, m), m,
                   ValueError)]
    return cases


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, m, expected", [pytest.param(*case, id=name)
                                             for name, *case in _range_edges()])
def test_the_guard_decides_each_range_edge_as_the_written_out_rule(p, m, expected):
    # the guard tests max_i |p_i| and m apart against 2^1023 (spinors.check_scale); the
    # rule that tests max(m, max_i |p_i|) gives the same outcome, bit for bit or error for error,
    # for a point, a batch beside an accepted point, and one momentum over a batch of masses
    assert _guard_outcome(_reference_guard, p, m)[0] == expected
    ok_p, ok_m = (1.25, 0.0, 0.0, 0.75), 1.0
    for q, mass in ((p, m), ([ok_p, p], [ok_m, m]), ([p, ok_p], [m, ok_m]), (p, [m, m])):
        got, want = (_guard_outcome(guard, q, mass) for guard in (pj._check_on_shell,
                                                                  _reference_guard))
        assert got == want


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
    # the amplitudes depend on p0/m only, so m = 2**1022, the largest power of two below the
    # range bound, gives the m = 1 bits, and the largest float below it their values;
    # m = 2**1023 is refused, alone and in a batch
    m = 2.0 ** 1022
    for breve in (sp.breve_u, sp.breve_u_bar):
        want = breve(sp.KinematicPoint(1.0, p0 / m, ZHAT), 0.5, 0.5)
        assert np.any(want != 0)
        assert breve(sp.KinematicPoint(m, p0, ZHAT), 0.5, 0.5).tobytes() == want.tobytes()
        batch = breve(sp.KinematicPoint([m, 1.0], [p0, p0 / m], ZHAT), 0.5, 0.5)
        assert batch[0].tobytes() == batch[1].tobytes() == want.tobytes()
        got = breve(sp.KinematicPoint(BELOW, p0, ZHAT), 0.5, 0.5)
        np.testing.assert_allclose(got, breve(sp.KinematicPoint(1.0, p0 / BELOW, ZHAT), 0.5, 0.5),
                                   rtol=0, atol=1e-15)
    for m in (SCALE, [1.0, SCALE]):
        with pytest.raises(OverflowError, match=r"^\|p0\|, m and \|p0\|/m must lie below 2\^1023"):
            sp.KinematicPoint(m, p0, ZHAT)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200],
                         ids=["nan", "inf", "-inf", "1e200"])
@pytest.mark.parametrize("entry", ["spin_projector", "pi_projector-s",
                                   "pi_projector-s-neg-lambda", "spinor_from_breve"])
def test_spin_vector_is_rejected_before_s_dot_s_is_formed(entry, value):
    with pytest.raises(ValueError, match=r"^spin vector must be \(0, svec\)"):
        ENTRY_POINTS[entry](value)


@pytest.mark.filterwarnings("error")
def test_caller_momentum_beyond_the_scale_overflows_for_a_point_and_a_batch():
    refused = r"^max_i \|p_i\|, m and max_i \|p_i\|/m must lie below 2\^1023, got max_i \|p_i\|="
    p = (1e308, 0.0, 0.0, 1e308)
    for call in (lambda q: pj.energy_projector(q, 1.0, +1), lambda q: pj.pi_projector(q, 1.0, ZS)):
        with pytest.raises(OverflowError, match=refused + r"1e\+308, m=1\.0$"):
            call(p)
        with pytest.raises(OverflowError, match=refused + r"1e\+308, m=1\.0$"):
            call([(2.0, 0.0, 0.0, math.sqrt(3.0)), p])
        # just inside: 1e307 is below 2^1023, and p is light-like, on shell for m = 1
        assert np.isfinite(call((1e307, 0.0, 0.0, 1e307))).all()
    # |p_i| / m above the scale (1e8 / 1e-300 > 2^1023), and below it
    with pytest.raises(OverflowError, match=refused):
        pj.energy_projector((1e8, 0.0, 0.0, 1e8), 1e-300, +1)
    assert np.isfinite(pj.energy_projector((1e7, 0.0, 0.0, 1e7), 1e-300, +1)).all()
    # a mass at the scale, and the largest mass below it
    with pytest.raises(OverflowError, match=refused):
        pj.energy_projector((SCALE, 0.0, 0.0, 0.0), SCALE, +1)
    assert np.isfinite(pj.energy_projector((BELOW, 0.0, 0.0, 0.0), BELOW, +1)).all()


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
@pytest.mark.parametrize("m, p0", [(1.0, SCALE), (1.0, -1e308), (1.2697076285132332e-146, 1e200),
                                   (1e-300, 1e8), (SCALE, 0.0), (1.7976931348623157e308, 0.0)])
def test_p0_beyond_the_scale_of_m_overflows_at_construction(m, p0):
    # a point, and a batch whose second point it is, are refused with one message naming it
    for batch in (False, True):
        with pytest.raises(OverflowError) as caught:
            sp.KinematicPoint([1.0, m] if batch else m, [1.0, p0] if batch else p0, ZHAT)
        assert str(caught.value) == \
            f"|p0|, m and |p0|/m must lie below 2^1023, got |p0|={abs(p0)}, m={m}"
    # just inside the edge: the largest mass below 2^1023, |p0| just below 2^1023 m
    m = min(m, BELOW)
    k = sp.KinematicPoint(m, math.copysign(0.99 * m * SCALE if m < 1.0 else BELOW, p0), ZHAT)
    assert np.isfinite(sp.dirac_u(k, 0.5, 0.5)).all()


@pytest.mark.filterwarnings("error")
def test_the_range_rule_admits_what_the_arithmetic_forms_and_refuses_what_overflows():
    # accepted, each output finite: a mass near the top of the range beside a p0 below it,
    # the momentum of a mass of 1e200 in the guard, a p0 of 1e200 at unit mass
    k = sp.KinematicPoint(1e300, 2e299, ZHAT)
    assert np.isfinite(k.momentum()).all()
    for kind in ("breve-plus", "breve-minus", "completeness"):
        assert all(np.isfinite(side).all() for side in pj.polsum(kind, k))
    k = sp.KinematicPoint(1e200, 0.0, ZHAT)
    assert np.isfinite(pj.energy_projector(k.momentum(), 1e200, +1)).all()
    k = sp.KinematicPoint(1.0, 1e200, ZHAT)
    for kind in ("spinor", "antispinor", "completeness"):
        assert all(np.isfinite(side).all() for side in pj.polsum(kind, k))
    # refused: the largest float as a mass, whose momentum at p0 = 0 would be inf i
    with pytest.raises(OverflowError, match=r"^\|p0\|, m and \|p0\|/m must lie below 2\^1023"):
        sp.KinematicPoint(1.7976931348623157e308, 0.0, ZHAT)


@pytest.mark.filterwarnings("error")
def test_the_guard_takes_the_momenta_of_the_largest_masses_but_the_two_named():
    # at p0 = 0 along z, |p| = 2 m a b rounds to m (1 + 2^-52): for the two largest masses
    # below 2^1023 that is 2^1023, which the guard refuses, as momentum()'s docstring says;
    # the six below them it accepts, alone and as a batch
    masses = [SCALE - i * 2.0 ** 970 for i in range(1, 9)]  # 2^970: their unit in the last place
    batch = sp.KinematicPoint(masses, 0.0, ZHAT)
    for i, m in enumerate(masses):
        p = sp.KinematicPoint(m, 0.0, ZHAT).momentum()
        assert p.tobytes() == batch.momentum()[i].tobytes()
        assert np.isfinite(p).all()
        if i < 2:
            assert abs(p[3]) == SCALE
            with pytest.raises(OverflowError, match=r"^max_i \|p_i\|, m and max_i \|p_i\|/m"):
                pj.energy_projector(p, m, +1)
        else:
            assert abs(p[3]) < SCALE
            assert np.isfinite(pj.energy_projector(p, m, +1)).all()
    assert np.isfinite(pj.energy_projector(batch.momentum()[2:], masses[2:], -1)).all()


_REAL_BAND_STATES = [(sp.boosted_spinor, lam, dotted) for lam in sp.HELICITIES
                     for dotted in (False, True)]
_REAL_BAND_STATES += [(f, lam, lam_other) for f in (sp.dirac_u, sp.dirac_u_bar)
                      for lam in sp.HELICITIES for lam_other in sp.HELICITIES]
# the tetrad, and at the negated point the antisymmetric basis
_REAL_BAND_STATES += [(f, tau) for f in (sp.tetrad_bispinor,
                                         lambda k, tau: sp.tetrad_bispinor(k.negated(), tau))
                      for tau in (1, 2, 3, 4)]
_BREVE_BAND_STATES = [(f, lam, lam_other) for f in (sp.breve_u, sp.breve_u_bar)
                      for lam in sp.HELICITIES for lam_other in sp.HELICITIES]
_DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.2).map(lambda v: tuple(np.array(v) / np.linalg.norm(v)))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(m=st.floats(), p0=st.floats(), nhat=_DIRECTIONS)
@example(m=1e300, p0=2e299, nhat=ZHAT)
@example(m=1.0, p0=1e200, nhat=ZHAT)
@example(m=1.7976931348623157e308, p0=0.0, nhat=ZHAT)
@example(m=BELOW, p0=0.0, nhat=ZHAT)
@example(m=2.0, p0=-BELOW, nhat=ZHAT)
@example(m=float(np.finfo(float).tiny), p0=1.0, nhat=ZHAT)
def test_every_accepted_point_gives_finite_outputs_over_the_whole_float_range(m, p0, nhat):
    # a point is refused only by a ValueError or an OverflowError, never by a warning (each
    # is an error here); an accepted point gives a finite momentum that the guard takes,
    # finite band constructors and finite polsum sides of each kind on its band.  The
    # guard may refuse the momentum only where max(|p0|, m) lies within a few units in the
    # last place of 2^1023, as momentum()'s docstring names
    try:
        k = sp.KinematicPoint(m, p0, nhat)
    except (ValueError, OverflowError):
        return
    p = k.momentum()
    assert np.isfinite(p).all()
    for sign in (+1, -1):
        try:
            assert np.isfinite(pj.energy_projector(p, k.m, sign)).all()
        except OverflowError:
            assert max(abs(p0), m) >= SCALE * (1.0 - 2.0 ** -50)
    bands = []
    if abs(p0) >= m * (1.0 - 1e-12):
        bands.append((_REAL_BAND_STATES, ("spinor", "antispinor", "completeness")))
    if abs(p0) <= m * (1.0 + 1e-12):
        bands.append((_BREVE_BAND_STATES, ("breve-plus", "breve-minus", "completeness")))
    for states, kinds in bands:
        for f, *labels in states:
            assert np.isfinite(f(k, *labels)).all()
        for kind in kinds:
            assert all(np.isfinite(side).all() for side in pj.polsum(kind, k))
