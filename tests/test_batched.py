"""One code path for single points and batches: constructors broadcast over
leading batch axes, and the verify runner evaluates each registry row once
per report on the whole batch of its sample points."""

import dataclasses
import json

import numpy as np
import pytest

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor import verify as vf
from bispinor.cli import main

SAMPLES = 150


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


AXES = ((0.0, 0.0, 1.0), (-0.0, -0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, -0.0))


def _points(seed, n, band):
    """n points of a band at masses 1e-2..1e2, the first four its edges at m = 1 along
    signed-zero axes: p0 = +-1, and on the real band -2.5 and 3.561285623743724, whose
    p0 ** 2 rounds otherwise than p0 * p0; on the breve band 0 and 0.5."""
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
    if band == "real":
        ratio = np.exp(rng.uniform(0.0, np.log(50.0), n)) * rng.choice((1.0, -1.0), n)
        edges = (1.0, -1.0, -2.5, 3.561285623743724)
    else:
        ratio = rng.uniform(-1.0, 1.0, n)
        edges = (1.0, -1.0, 0.0, 0.5)
    nhat = _unit_rows(rng, n)
    m[:4], ratio[:4], nhat[:4] = 1.0, edges[:n], AXES[:n]
    return m, m * ratio, nhat


def _raises_like(scalar_call, batch_call):
    """The batch raises the exception class and message of the scalar call."""
    with pytest.raises(Exception) as single:
        scalar_call()
    with pytest.raises(single.type) as batch:
        batch_call()
    assert str(batch.value) == str(single.value)


# ---------------------------------------------------------------------------
# the runner: one evaluation per row, residuals equal to single-point replays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 42])
def test_batched_residuals_equal_each_point_evaluated_alone(seed):
    for check in vf.registry():
        columns = vf.sample_points(check, seed, SAMPLES)
        batched = vf.residuals(check, columns)
        # SAMPLES points drawn, or a finite sampler's grid: its label tuples, or one point
        assert batched.shape == (columns.shape[0] if columns.shape else 1,)
        for i in range(len(batched)):
            point = vf.Columns(vf.point(columns, i))
            alone = np.max(np.abs(np.asarray(check.lhs(point)) - np.asarray(check.rhs(point))))
            assert batched[i] == alone, (check.name, i)


@pytest.mark.parametrize("samples", [1, 7, 1000])
def test_fixed_row_sides_are_evaluated_once(samples):
    calls = {"lhs": 0, "rhs": 0}

    def counted(side, fn):
        def build(pt):
            calls[side] += 1
            return fn(pt)
        return build

    for check in vf.registry():
        if check.sampler != "fixed":
            continue
        calls.update(lhs=0, rhs=0)
        wrapped = dataclasses.replace(check, lhs=counted("lhs", check.lhs),
                                      rhs=counted("rhs", check.rhs))
        result = vf.run_check(wrapped, seed=3, samples=samples)
        assert calls == {"lhs": 1, "rhs": 1}, check.name
        assert result.samples == 1 and result.worst_point == {}


def test_every_row_is_evaluated_once_per_report(monkeypatch):
    calls = []
    checks = tuple(
        dataclasses.replace(c, lhs=lambda pt, f=c.lhs, n=c.name: calls.append(n) or f(pt))
        for c in vf.registry())
    monkeypatch.setattr(vf, "registry", lambda: checks)
    vf.run_all(seed=5, samples=40)
    assert sorted(calls) == sorted(c.name for c in checks)


def test_registry_is_built_once():
    assert isinstance(vf.registry(), tuple)
    assert vf.registry() is vf.registry()
    loose = vf.run_all(seed=2, samples=3, tolerance_override=1e-3)
    assert {c.tolerance for c in loose.checks} == {1e-3}
    assert {c.tolerance for c in vf.registry()} != {1e-3}


def _nan_fixture(every_sample: bool):
    def lhs(pt):
        x = pt.arrays["nhat"][..., :1]
        return np.full_like(x, np.nan) if every_sample else np.where(x > 0, np.nan, 0.0)
    return vf.IdentityCheck(
        name="nan-fixture", paper_ref="non-finite residual fixture", sampler="sphere",
        lhs=lhs, rhs=lambda pt: np.zeros(1), tolerance=1e-12, expected_status="holds")


@pytest.mark.parametrize("every_sample", [False, True])
def test_non_finite_residual_fails_closed(every_sample):
    with pytest.raises(vf.ConfigurationError, match="nan-fixture.*non-finite residual") as err:
        vf.run_check(_nan_fixture(every_sample), seed=1, samples=50)
    first = vf.sample_points(_nan_fixture(every_sample), 1, 50)
    i = 0 if every_sample else next(i for i in range(50) if first.arrays["nhat"][i, 0] > 0)
    assert f"sample {i}, point {vf.point(first, i)}" in str(err.value)
    # a replayed point has no sample axis: it is sample 0, named as it was given
    one = r"sample 0, point \{'nhat': \[1.0, 0.0, 0.0\]\}$"
    with pytest.raises(vf.ConfigurationError, match=one):
        vf.residuals(_nan_fixture(every_sample), vf.Columns({"nhat": [1.0, 0.0, 0.0]}))


def test_non_finite_residual_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(vf, "registry", lambda: (_nan_fixture(False),))
    assert main(["verify", "--samples", "20"]) == 2
    assert "non-finite residual" in capsys.readouterr().err


def test_builders_without_a_sample_axis_are_a_configuration_error():
    check = vf.IdentityCheck("no-axis", "fixture", "sphere", lambda pt: np.eye(2),
                             lambda pt: np.eye(2), 1e-12, "holds")
    with pytest.raises(vf.ConfigurationError, match="no-axis"):
        vf.run_check(check, seed=0, samples=5)


# ---------------------------------------------------------------------------
# the report encoder
# ---------------------------------------------------------------------------

def _leaves(value, parsed):
    """(value, parsed) pairs of a report's leaves and their json.loads counterparts."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        assert list(parsed) == list(value)
        for key in value:
            yield from _leaves(value[key], parsed[key])
    elif isinstance(value, (list, tuple)):
        assert len(parsed) == len(value)
        for v, p in zip(value, parsed):
            yield from _leaves(v, p)
    else:
        yield value, parsed


def _reference_json(report) -> str:
    """indent=2 JSON of a report's dataclass fields, with each float spelled as
    its shortest round-trip repr."""
    floats = []

    def mark(o):
        if dataclasses.is_dataclass(o):
            return {f.name: mark(getattr(o, f.name)) for f in dataclasses.fields(o)}
        if isinstance(o, float):
            floats.append(repr(o))
            return f"\0{len(floats) - 1}\0"
        if isinstance(o, dict):
            return {k: mark(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [mark(v) for v in o]
        return o

    text = json.dumps(mark(report), indent=2)
    for i, f in enumerate(floats):
        text = text.replace(json.dumps(f"\0{i}\0"), f, 1)
    return text + "\n"


@pytest.mark.parametrize("seed,samples", [(0, 1), (7, 20), (42, 3)])
def test_report_json_matches_reference_encoding(seed, samples):
    report = vf.run_all(seed=seed, samples=samples)
    assert report.to_json() == _reference_json(report)


def test_report_json_keeps_every_value_type_and_bit():
    report = vf.run_all(seed=42, samples=2)
    leaves = list(_leaves(report, json.loads(report.to_json())))
    floats = [(value, parsed) for value, parsed in leaves if type(value) is float]
    assert any(value.is_integer() for value, _ in floats)  # e.g. m = 1.0
    for value, parsed in leaves:
        assert type(parsed) is type(value) and parsed == value
    for value, parsed in floats:
        assert parsed.hex() == value.hex()


def test_report_json_rejects_non_finite_floats():
    row = dataclasses.replace(vf.run_all(seed=0, samples=1).checks[0], max_residual=float("inf"))
    report = dataclasses.replace(vf.run_all(seed=0, samples=1), checks=(row,))
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()


# ---------------------------------------------------------------------------
# constructors: a batch of N equals the stack of N single-point calls
# ---------------------------------------------------------------------------

N = 40


def _same_bits(alone, row):
    alone, row = np.asarray(alone), np.asarray(row)
    assert alone.dtype == row.dtype and alone.shape == row.shape
    assert alone.tobytes() == row.tobytes()


def _same_as_stack(batch, single_calls):
    """The batch has the bits of the stack of single-point calls, the sign of each zero too."""
    _same_bits(np.stack([np.asarray(x) for x in single_calls]), batch)


def test_kinematic_point_batch():
    m, p0, n = _points(1, N, "real")
    k = sp.KinematicPoint(m, p0, n)
    assert k.nhat.shape == (N, 3) and not k.nhat.flags.writeable
    singles = [sp.KinematicPoint(*args) for args in zip(m, p0, n)]
    assert p0[3] ** 2 != p0[3] * p0[3]  # a point where a power rounds otherwise than a product
    _same_as_stack(k.momentum(), [s.momentum() for s in singles])
    _same_as_stack(cl.slash(k.momentum()), [cl.slash(s.momentum()) for s in singles])
    _same_as_stack(k.negated().momentum(), [s.negated().momentum() for s in singles])
    _same_as_stack(k._boosts, [s._boosts for s in singles])
    _same_as_stack(cl.pauli_dot(k.nhat), [cl.pauli_dot(s.nhat) for s in singles])
    shared = sp.KinematicPoint(1.0, -1.0, n)
    assert shared.m.shape == shared.p0.shape == (N,)
    bad_n = n.copy()
    bad_n[7] *= 1.5
    _raises_like(lambda: sp.KinematicPoint(m[7], p0[7], bad_n[7]),
                 lambda: sp.KinematicPoint(m, p0, bad_n))
    bad_m = m.copy()
    bad_m[3] = -1.0
    _raises_like(lambda: sp.KinematicPoint(bad_m[3], p0[3], n[3]),
                 lambda: sp.KinematicPoint(bad_m, p0, n))


def test_a_batch_point_copies_what_the_caller_passes():
    # a validated point holds read-only copies: a later write of NaN or a negative mass into
    # the caller's arrays changes no bit of the point or of anything built on it
    m, p0, n = _points(10, N, "real")
    k = sp.KinematicPoint(m, p0, n)
    kb = sp.KinematicPoint(m, m * np.linspace(-0.9, 0.9, N), n)
    before = (k.m.copy(), k.p0.copy(), sp.dirac_u(k, 0.5, -0.5), sp.breve_u(kb, -0.5, 0.5),
              *pj.polsum("spinor", k), *pj.polsum("breve-plus", kb))
    m[0], p0[1], n[2] = -1.0, np.nan, np.nan
    after = (k.m, k.p0, sp.dirac_u(k, 0.5, -0.5), sp.breve_u(kb, -0.5, 0.5),
             *pj.polsum("spinor", k), *pj.polsum("breve-plus", kb))
    for old, new in zip(before, after):
        assert old.tobytes() == new.tobytes()
    for array in (k.m, k.p0, k.nhat, k.negated().p0, kb.negated().m):
        assert not array.flags.writeable
        assert not any(np.shares_memory(array, given) for given in (m, p0, n))


@pytest.mark.parametrize("lams", [(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)])
def test_bispinor_constructors_batch(lams):
    for band, names in (("real", ("dirac_u", "dirac_u_bar")),
                        ("breve", ("breve_u", "breve_u_bar"))):
        m, p0, n = _points(2, N, band)
        k = sp.KinematicPoint(m, p0, n)
        singles = [sp.KinematicPoint(*args) for args in zip(m, p0, n)]
        for name in names:
            fn = getattr(sp, name)
            _same_as_stack(fn(k, *lams), [fn(s, *lams) for s in singles])
        other = _points(3, N, "breve" if band == "real" else "real")
        mixed_p0 = p0.copy()
        mixed_p0[11] = other[1][11] / other[0][11] * m[11]
        mixed = sp.KinematicPoint(m, mixed_p0, n)
        for name in names:
            fn = getattr(sp, name)
            _raises_like(lambda: fn(sp.KinematicPoint(m[11], mixed_p0[11], n[11]), *lams),
                         lambda: fn(mixed, *lams))


def test_real_band_basis_constructors_batch():
    m, p0, n = _points(4, N, "real")
    k = sp.KinematicPoint(m, p0, n)
    singles = [sp.KinematicPoint(*args) for args in zip(m, p0, n)]
    for tau in (1, 2, 3, 4):
        _same_as_stack(sp.tetrad_bispinor(k, tau), [sp.tetrad_bispinor(s, tau) for s in singles])
        _same_as_stack(sp.tetrad_bispinor(k.negated(), tau),
                       [sp.tetrad_bispinor(s.negated(), tau) for s in singles])
    for dotted in (False, True):
        _same_as_stack(sp.boosted_spinor(k, -0.5, dotted),
                       [sp.boosted_spinor(s, -0.5, dotted) for s in singles])
    u = sp.dirac_u(k, 0.5, -0.5)
    _same_as_stack(sp.dirac_adjoint(u), [sp.dirac_adjoint(x) for x in u])
    _same_as_stack(sp.kappa(np.abs(p0), m), [sp.kappa(a, b) for a, b in zip(np.abs(p0), m)])
    low = np.abs(p0)
    low[5] = 0.5 * m[5]
    _raises_like(lambda: sp.kappa(low[5], m[5]), lambda: sp.kappa(low, m))


def test_clifford_functions_batch():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(N, 4)) + 1j * rng.normal(size=(N, 4))
    b = rng.normal(size=(N, 4)) + 1j * rng.normal(size=(N, 4))
    _same_as_stack(cl.slash(a), [cl.slash(x) for x in a])
    _same_as_stack(cl.pauli_dot(a[:, 1:]), [cl.pauli_dot(x) for x in a[:, 1:]])
    _same_as_stack(cl.minkowski_dot(a, b), [cl.minkowski_dot(x, y) for x, y in zip(a, b)])
    mats = rng.normal(size=(3, N, 4, 4))
    _same_as_stack(cl.trace(mats), [cl.trace(mats[:, i]) for i in range(N)])
    assert cl.slash(a.reshape(4, 10, 4)).shape == (4, 10, 4, 4)


def test_projectors_batch():
    # the one point-versus-batch test of the projectors: on both bands, the edges included,
    # each point gives the bits of its batch row for every projector, diad and polsum kind
    for band, seed, kinds in (("real", 6, ("spinor", "antispinor", "completeness")),
                              ("breve", 7, ("breve-plus", "breve-minus", "completeness"))):
        m, p0, n = _points(seed, N, band)
        k = sp.KinematicPoint(m, p0, n)
        singles = [sp.KinematicPoint(*args) for args in zip(m, p0, n)]
        p, s = k.momentum(), sp._spatial(n)
        for sign in (+1, -1):
            _same_as_stack(pj.energy_projector(p, m, sign),
                           [pj.energy_projector(x, y, sign) for x, y in zip(p, m)])
        for variant in ("lambda", "neg-lambda"):
            _same_as_stack(pj.pi_projector(p, m, s, variant),
                           [pj.pi_projector(x, y, z, variant) for x, y, z in zip(p, m, s)])
        _same_as_stack(pj.spin_projector(s), [pj.spin_projector(x) for x in s])
        _same_as_stack(pj.spin_projector_rest(n), [pj.spin_projector_rest(x) for x in n])
        u = (sp.dirac_u if band == "real" else sp.breve_u)(k, -0.5, 0.5)
        for insert in ("gamma0", "gamma5"):
            _same_as_stack(pj.diad(u, insert), [pj.diad(x, insert) for x in u])
        for kind in kinds:
            for side, rows in enumerate(pj.polsum(kind, k)):
                _same_as_stack(rows, [pj.polsum(kind, x)[side] for x in singles])


def test_an_empty_batch_gives_empty_arrays_everywhere():
    k = sp.KinematicPoint(np.ones(0), np.zeros(0), np.zeros((0, 3)))
    p, s, u = np.zeros((0, 4), dtype=complex), np.zeros((0, 4)), np.zeros((0, 4), dtype=complex)
    out = {
        "momentum": (k.momentum(), (4,)),
        "slash": (cl.slash(p), (4, 4)),
        "pauli_dot": (cl.pauli_dot(s[:, 1:]), (2, 2)),
        "spin_projector": (pj.spin_projector(s), (4, 4)),
        "spin_projector_rest": (pj.spin_projector_rest(s[:, 1:]), (2, 2)),
        "spinor_from_breve": (sp.spinor_from_breve(u, s), (4,)),
        "diad": (pj.diad(u, "gamma5"), (4, 4)),
        "boosted_spinor": (sp.boosted_spinor(k, 0.5, True), (2,)),
        "dirac_u": (sp.dirac_u(k, 0.5, -0.5), (4,)),
        "dirac_u_bar": (sp.dirac_u_bar(k, 0.5, -0.5), (4,)),
        "tetrad_bispinor": (sp.tetrad_bispinor(k, 3), (4,)),
        "breve_u": (sp.breve_u(k, -0.5, 0.5), (4,)),
        "breve_u_bar": (sp.breve_u_bar(k, -0.5, 0.5), (4,)),
    }
    for sign in (+1, -1):
        out[f"energy_projector {sign}"] = (pj.energy_projector(p, np.ones(0), sign), (4, 4))
    for variant in ("lambda", "neg-lambda"):
        out[f"pi_projector {variant}"] = (pj.pi_projector(p, np.ones(0), s, variant), (4, 4))
    for kind in pj.POLSUM_KINDS:
        for side, a in zip(("lhs", "rhs"), pj.polsum(kind, k)):
            out[f"polsum {kind} {side}"] = (a, (4, 4))
    for name, (a, tail) in out.items():
        assert a.shape == (0, *tail), name


def test_projector_validators_check_every_point():
    # (an off-shell momentum is refused alike for a point and a batch: test_validation)
    m, p0, n = _points(8, N, "real")
    p = sp.KinematicPoint(m, p0, n).momentum()
    s = np.concatenate([np.zeros((N, 1)), n], axis=1)
    tilted = s.copy()
    tilted[4, 0] = 0.1
    _raises_like(lambda: pj.spin_projector(tilted[4]), lambda: pj.spin_projector(tilted))
    _raises_like(lambda: sp.spinor_from_breve(p[4], tilted[4]),
                 lambda: sp.spinor_from_breve(p, tilted))
    long = s.copy()
    long[6] *= 2.0
    _raises_like(lambda: pj.spin_projector(long[6]), lambda: pj.spin_projector(long))
    short = n.copy()
    short[2] *= 0.5
    _raises_like(lambda: pj.spin_projector_rest(short[2]), lambda: pj.spin_projector_rest(short))
    heavy = m.copy()
    heavy[1] = -heavy[1]
    _raises_like(lambda: pj.energy_projector(p[1], heavy[1], -1),
                 lambda: pj.energy_projector(p, heavy, -1))


def test_the_guard_and_polsum_accept_points_far_above_threshold():
    # the on-shell guard's tolerance scales with max(m^2, p_i^2): at p0/m from 1e2 to 1e3 it
    # accepts every momentum built from a valid point, alone and as a batch, and polsum,
    # which needs no guard, meets its closed form to 1e-10 relative
    rng = np.random.default_rng(9)
    m = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 400))
    p0 = m * np.exp(rng.uniform(np.log(1e2), np.log(1e3), 400))
    n = _unit_rows(rng, 400)
    p = sp.KinematicPoint(m, p0, n).momentum()
    _same_as_stack(pj.energy_projector(p, m, +1),
                   [pj.energy_projector(p[i], m[i], +1) for i in range(400)])
    for i in range(400):
        lhs, rhs = pj.polsum("spinor", sp.KinematicPoint(m[i], p0[i], n[i]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))


def test_guard_takes_a_mass_as_any_real_or_sequence_of_reals():
    # energy_projector and pi_projector convert the mass once, in the guard: a float, int,
    # list or tuple mass gives the bits of its ndarray form, alone and in a batch
    m, p0, n = _points(11, 3, "real")
    k = sp.KinematicPoint(m, p0, n)
    p, s = k.momentum(), np.concatenate([np.zeros((3, 1)), n], axis=1)
    point = sp.KinematicPoint(2.0, 3.0, n[0])
    for pp, ss, masses in ((p, s, (m.tolist(), tuple(m.tolist()))),
                           (p.tolist(), s.tolist(), (m.tolist(),)),
                           (point.momentum(), s[0], (2, 2.0, np.float64(2.0), [2.0], (2.0,)))):
        for mass in masses:
            want = np.array(mass, dtype=float)
            for sign in (+1, -1):
                _same_bits(pj.energy_projector(pp, want, sign),
                           pj.energy_projector(pp, mass, sign))
            for variant in ("lambda", "neg-lambda"):
                _same_bits(pj.pi_projector(pp, want, ss, variant),
                           pj.pi_projector(pp, mass, ss, variant))
    with pytest.raises(ValueError, match="^mass must satisfy"):
        pj.energy_projector(p, [1.0, -1.0, 1.0], +1)


# ---------------------------------------------------------------------------
# a single point computes its batch's bits, at points where Python float
# powers (** on a float or a numpy scalar) round differently from products
# ---------------------------------------------------------------------------

ZHAT = (0.0, 0.0, 1.0)


def test_section4_two_valued_agrees_alone_and_in_a_batch():
    check = next(c for c in vf.registry() if c.name == "section4-two-valued")
    columns = vf.sample_points(check, 7, 1000)
    xis = [vf._complex_of(vf.Columns(vf.point(columns, i)), "xi") for i in range(1000)]
    # the first sample whose |xi|^2 squares differently with ** than with a product
    i = next((i for i, xi in enumerate(xis)
              if np.float64(norm2 := np.sum(np.abs(xi) ** 2)) ** 2 != norm2 * norm2), None)
    assert i is not None
    batch = vf.section4_two_valued(vf._complex_of(columns, "xi"))
    for alone, rows in zip(vf.section4_two_valued(xis[i]), batch):
        _same_bits(alone, rows[i])


@pytest.mark.filterwarnings("error")
def test_a_huge_mass_gives_the_unit_mass_momentum_scaled():
    # (a p0 or m out of scale is refused alike for a point and a batch: test_validation)
    # a huge mass is no overflow: |p| = 2 m a b forms no m * m, so at m = 1e200 and at the
    # largest float below 2^1023 the momentum is the unit-mass one at p0 / m scaled by m, and
    # the breve band's polsum sides are the unit mass's, for each point alone and the batch
    rng = np.random.default_rng(32)
    for m in (1e200, float(np.nextafter(2.0 ** 1023, 0.0))):
        p0, nhat = np.array([0.0, 1e150, -1e153]), _unit_rows(rng, 3)
        batch, unit = sp.KinematicPoint(m, p0, nhat), sp.KinematicPoint(1.0, p0 / m, nhat)
        singles = [sp.KinematicPoint(m, *point) for point in zip(p0, nhat)]
        for row, k in [*enumerate(singles), (..., batch)]:
            np.testing.assert_allclose(k.momentum(), m * unit.momentum()[row], rtol=1e-15, atol=0)
            for kind in ("breve-plus", "breve-minus", "completeness"):
                for side, want in zip(pj.polsum(kind, k), pj.polsum(kind, unit)):
                    np.testing.assert_allclose(side, want[row], rtol=0, atol=1e-15)


def _pi_expanded(p, m, s, variant):
    """The band projectors as first written, expanded by hand (the reference)."""
    gs = cl._contract(np.asarray(s, dtype=complex), cl._GAMMA_DOT_S_DOT)
    m = np.asarray(m)[..., None, None]
    i4 = np.eye(4)
    if variant == "lambda":
        return -(cl.slash(p) - m * i4) @ (i4 - cl.gamma5() @ gs) / (4.0 * m)
    return (cl.slash(p) + m * i4) @ (i4 - gs @ cl.gamma5()) / (4.0 * m)


@pytest.mark.parametrize("band", ["real", "breve"])
@pytest.mark.parametrize("variant", ["lambda", "neg-lambda"])
def test_pi_projector_matches_its_expanded_closed_form(band, variant):
    rng = np.random.default_rng(10)
    if band == "real":
        ratio = rng.uniform(1.0, 10.0, 2000) * rng.choice((1.0, -1.0), 2000)
    else:
        ratio = rng.uniform(-1.0, 1.0, 2000)
    n = _unit_rows(rng, 2000)
    s = np.concatenate([np.zeros((2000, 1)), n], axis=1)
    for m in (np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000)), 1.0, 0.25, 8.0):
        p = sp.KinematicPoint(m, m * ratio, n).momentum()
        pi = pj.pi_projector(p, m, s, variant)
        ref = _pi_expanded(p, m, s, variant)
        if np.ndim(m):
            scale = np.max(np.abs(ref), axis=(-2, -1))
            assert np.all(np.max(np.abs(pi - ref), axis=(-2, -1)) <= 1e-15 * scale)
        else:  # a power of two: the same bits as the expanded formula
            assert np.array_equal(pi, ref)
