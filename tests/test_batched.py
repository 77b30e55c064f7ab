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


def _points(seed, n, band):
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
    if band == "real":
        p0 = m * np.exp(rng.uniform(0.0, np.log(50.0), n)) * rng.choice((1.0, -1.0), n)
    else:
        p0 = m * rng.uniform(-1.0, 1.0, n)
    return m, p0, _unit_rows(rng, n)


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
    assert len(vf.registry()) == 27
    for check in vf.registry():
        points = vf.sample_points(check, seed, SAMPLES)
        batched = vf.residuals(check, points)
        assert batched.shape == ((1,) if check.sampler == "fixed" else (SAMPLES,))
        for i, point in enumerate(points):
            alone = np.max(np.abs(np.asarray(check.lhs(point)) - np.asarray(check.rhs(point))))
            assert batched[min(i, len(batched) - 1)] == alone, (check.name, i)


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
        assert result.samples == samples and result.worst_point == {}


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
        x = np.asarray(pt["nhat"])[..., :1]
        return np.full_like(x, np.nan) if every_sample else np.where(x > 0, np.nan, 0.0)
    return vf.IdentityCheck(
        name="nan-fixture", paper_ref="non-finite residual fixture", sampler="sphere",
        lhs=lhs, rhs=lambda pt: np.zeros(1), tolerance=1e-12, expected_status="holds")


@pytest.mark.parametrize("every_sample", [False, True])
def test_non_finite_residual_fails_closed(every_sample):
    with pytest.raises(vf.ConfigurationError, match="nan-fixture.*non-finite residual") as err:
        vf.run_check(_nan_fixture(every_sample), seed=1, samples=50)
    first = vf.sample_points(_nan_fixture(every_sample), 1, 50)
    i = 0 if every_sample else next(i for i, pt in enumerate(first) if pt["nhat"][0] > 0)
    assert f"sample {i}, point {first[i]}" in str(err.value)


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

def _reference_json(doc) -> str:
    """indent=2 JSON with floats as 17 significant digits, from json.dumps."""
    floats = []

    def mark(o):
        if isinstance(o, float):
            floats.append(format(o, ".17g"))
            return f"\0{len(floats) - 1}\0"
        if isinstance(o, dict):
            return {k: mark(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [mark(v) for v in o]
        return o

    text = json.dumps(mark(doc), indent=2)
    for i, f in enumerate(floats):
        text = text.replace(json.dumps(f"\0{i}\0"), f, 1)
    return text + "\n"


@pytest.mark.parametrize("seed,samples", [(0, 1), (7, 20), (42, 3)])
def test_report_json_matches_reference_encoding(seed, samples):
    report = vf.run_all(seed=seed, samples=samples)
    assert report.to_json() == _reference_json(report.to_dict())


def test_report_json_rejects_non_finite_floats():
    row = dataclasses.replace(vf.run_all(seed=0, samples=1).checks[0], max_residual=float("inf"))
    report = dataclasses.replace(vf.run_all(seed=0, samples=1), checks=(row,))
    with pytest.raises(ValueError, match="non-finite"):
        report.to_json()


# ---------------------------------------------------------------------------
# constructors: a batch of N equals the stack of N single-point calls
# ---------------------------------------------------------------------------

N = 40


def _same_as_stack(batch, single_calls):
    stack = np.stack([np.asarray(x) for x in single_calls])
    assert np.asarray(batch).shape == stack.shape
    assert np.array_equal(batch, stack)


def test_kinematic_point_batch():
    m, p0, n = _points(1, N, "real")
    k = sp.KinematicPoint(m, p0, n)
    assert k.nhat.shape == (N, 3) and not k.nhat.flags.writeable
    singles = [sp.KinematicPoint(*args) for args in zip(m, p0, n)]
    _same_as_stack(k.momentum(), [s.momentum() for s in singles])
    _same_as_stack(k.in_real_band, [s.in_real_band for s in singles])
    _same_as_stack(k.boost_factor(-1), [s.boost_factor(-1) for s in singles])
    _same_as_stack(k.sigma_n(), [s.sigma_n() for s in singles])
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
        _same_as_stack(sp.antisym_bispinor(k, tau, -1),
                       [sp.antisym_bispinor(s, tau, -1) for s in singles])
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
    _same_as_stack(cl.gamma_dot_spatial(a), [cl.gamma_dot_spatial(x) for x in a])
    _same_as_stack(cl.pauli_dot(a[:, 1:]), [cl.pauli_dot(x) for x in a[:, 1:]])
    _same_as_stack(cl.minkowski_dot(a, b), [cl.minkowski_dot(x, y) for x, y in zip(a, b)])
    mats = rng.normal(size=(3, N, 4, 4))
    _same_as_stack(cl.trace(mats), [cl.trace(mats[:, i]) for i in range(N)])
    assert cl.slash(a.reshape(4, 10, 4)).shape == (4, 10, 4, 4)
    assert cl.gamma_dot_spatial is pj.gamma_dot_spatial


def test_projectors_batch():
    m, p0, n = _points(6, N, "real")
    k = sp.KinematicPoint(m, p0, n)
    singles = [sp.KinematicPoint(*args) for args in zip(m, p0, n)]
    p = k.momentum()
    s = np.concatenate([np.zeros((N, 1)), n], axis=1)
    for sign in (+1, -1):
        _same_as_stack(pj.energy_projector(p, m, sign),
                       [pj.energy_projector(x, y, sign) for x, y in zip(p, m)])
    for variant in ("lambda", "neg-lambda"):
        _same_as_stack(pj.pi_projector(p, m, s, variant),
                       [pj.pi_projector(x, y, z, variant) for x, y, z in zip(p, m, s)])
    _same_as_stack(pj.spin_projector(s), [pj.spin_projector(x) for x in s])
    _same_as_stack(pj.spin_projector_rest(n), [pj.spin_projector_rest(x) for x in n])
    u = sp.dirac_u(k, -0.5, 0.5)
    for insert in ("gamma0", "gamma5"):
        _same_as_stack(pj.diad(u, insert), [pj.diad(x, insert) for x in u])
    for kind in ("spinor", "antispinor", "completeness"):
        lhs, rhs = pj.polsum(kind, k)
        _same_as_stack(lhs, [pj.polsum(kind, x)[0] for x in singles])
        _same_as_stack(rhs, [pj.polsum(kind, x)[1] for x in singles])
    mb, p0b, nb = _points(7, N, "breve")
    kb = sp.KinematicPoint(mb, p0b, nb)
    for kind in ("breve-plus", "breve-minus"):
        lhs, rhs = pj.polsum(kind, kb)
        _same_as_stack(lhs, [pj.polsum(kind, sp.KinematicPoint(*a))[0] for a in zip(mb, p0b, nb)])


def test_projector_validators_check_every_point():
    m, p0, n = _points(8, N, "real")
    p = sp.KinematicPoint(m, p0, n).momentum()
    s = np.concatenate([np.zeros((N, 1)), n], axis=1)
    off = p.copy()
    off[9, 0] *= 1.01
    _raises_like(lambda: pj.energy_projector(off[9], m[9], +1),
                 lambda: pj.energy_projector(off, m, +1))
    _raises_like(lambda: pj.pi_projector(off[9], m[9], s[9]),
                 lambda: pj.pi_projector(off, m, s))
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


def test_guard_refusal_is_the_same_in_a_batch_and_polsum_needs_no_guard():
    # the scale-blind on-shell guard refuses some valid caller momenta at large
    # p0/m; polsum builds its momentum from the validated point and accepts them
    rng = np.random.default_rng(9)
    m = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 400))
    p0 = m * np.exp(rng.uniform(np.log(1e2), np.log(1e3), 400))
    n = _unit_rows(rng, 400)
    refused = []
    for i in range(400):
        k = sp.KinematicPoint(m[i], p0[i], n[i])
        try:
            pj.energy_projector(k.momentum(), m[i], +1)
        except ValueError as exc:
            assert str(exc).startswith("momentum is off shell")
            refused.append(i)
        lhs, rhs = pj.polsum("spinor", k)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    assert refused
    i = refused[0]
    _raises_like(lambda: pj.energy_projector(sp.KinematicPoint(m[i], p0[i], n[i]).momentum(),
                                             m[i], +1),
                 lambda: pj.energy_projector(sp.KinematicPoint(m, p0, n).momentum(), m, +1))
