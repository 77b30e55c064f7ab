import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor import clifford as cl
from bispinor import verify as vf
from bispinor.spinors import KinematicPoint, boosted_spinor

SPEC_NAMES = {
    "norm-spinor", "helicity-sum-unity", "polsum-spinor", "polsum-antispinor",
    "unity-decomposition-gamma0", "kappa-boundary", "rest-eigenvalues",
    "breve-norm", "adjoint-dirac", "diad-half-unity", "tetrad-projector-sum",
    "polsum-breve-plus", "polsum-breve-minus", "completeness", "pi-annihilation",
    "spinor-breve-maps", "section4-projector-equivalence", "section4-two-valued",
    "anticommutator-minkowski", "anticommutator-literal-delta",
}

# statuses frozen from the development oracle runs; the shipped registry
# must reproduce them exactly
FROZEN_EXPECTATIONS = {
    "anticommutator-minkowski": "holds",
    "anticommutator-literal-delta": "expected-fail",
    "gamma-hermiticity": "holds",
    "gamma5-pseudoscalar": "holds",
    "trace-cyclicity": "holds",
    "boost-exponential": "holds",
    "norm-spinor": "holds",
    "helicity-sum-unity": "holds",
    "polsum-spinor": "holds",
    "polsum-antispinor": "holds",
    "unity-decomposition-gamma0": "expected-fail",
    "kappa-boundary": "holds",
    "rest-eigenvalues": "holds",
    "breve-norm": "holds",
    "breve-norm-cross": "informational",
    "adjoint-dirac": "expected-fail",
    "adjoint-dirac-paper-dagger": "expected-fail",
    "adjoint-dirac-standard-dagger": "informational",
    "diad-half-unity": "expected-fail",
    "tetrad-projector-sum": "holds",
    "polsum-breve-plus": "informational",
    "polsum-breve-minus": "informational",
    "completeness": "holds",
    "pi-annihilation": "informational",
    "breve-rest-relation": "informational",
    "spinor-breve-maps": "holds",
    "section4-projector-equivalence": "holds",
    "section4-two-valued": "informational",
}


def _by_name():
    return {c.name: c for c in vf.registry()}


def test_registry_size_and_uniqueness():
    checks = vf.registry()
    names = [c.name for c in checks]
    assert len(checks) >= 20
    assert len(names) == len(set(names))
    assert all(c.paper_ref for c in checks)


def test_registry_contains_required_checks():
    assert SPEC_NAMES <= set(_by_name())


def test_registry_expectations_are_frozen():
    got = {c.name: c.expected_status for c in vf.registry()}
    assert got == FROZEN_EXPECTATIONS


def test_run_check_pass_and_info_statuses():
    by = _by_name()
    res = vf.run_check(by["helicity-sum-unity"], seed=42, samples=10)
    assert res.status == "pass" and res.max_residual < 1e-14

    res = vf.run_check(by["polsum-spinor"], seed=42, samples=100)
    assert res.status == "pass" and res.max_residual < 1e-12

    res = vf.run_check(by["anticommutator-literal-delta"], seed=42, samples=100)
    assert res.status == "info"
    assert res.max_residual == pytest.approx(4.0)  # spatial diagonal: -2 vs +2

    # sample-count independent residuals, frozen from the oracle
    res = vf.run_check(by["diad-half-unity"], seed=0, samples=1)
    assert res.max_residual == pytest.approx(0.5)
    res = vf.run_check(by["unity-decomposition-gamma0"], seed=0, samples=3)
    assert res.max_residual == pytest.approx(1.0)


def test_run_check_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        vf.run_check(vf.registry()[0], seed=1, samples=0)
    with pytest.raises(ValueError):
        vf.run_all(samples=0)
    # non-integer run parameters, and bools, are refused by name before any draw
    for seed, samples, bad in ((42, 2.5, "samples"), (1.5, 3, "seed"), (True, 2, "seed"),
                               (0, False, "samples"), (float("nan"), 1, "seed")):
        with pytest.raises(ValueError, match=f"^{bad} must be an int, got "):
            vf.run_all(seed, samples)


def test_run_check_determinism_and_isolation():
    by = _by_name()
    a1 = vf.run_check(by["norm-spinor"], seed=7, samples=20)
    a2 = vf.run_check(by["norm-spinor"], seed=7, samples=20)
    assert a1 == a2
    # drawing another check in between must not perturb the stream
    vf.run_check(by["breve-norm"], seed=7, samples=50)
    a3 = vf.run_check(by["norm-spinor"], seed=7, samples=20)
    assert a1 == a3
    # different seeds draw different worst points
    b = vf.run_check(by["norm-spinor"], seed=8, samples=20)
    assert a1.worst_point != b.worst_point


def test_worst_point_reproduces_reported_residual():
    by = _by_name()
    check = by["polsum-spinor"]
    res = vf.run_check(check, seed=42, samples=50)
    worst = vf.Columns(res.worst_point)
    lhs, rhs = check.lhs(worst), check.rhs(worst)
    assert float(np.max(np.abs(lhs - rhs))) == pytest.approx(res.max_residual, rel=0,
                                                             abs=0)


def test_configuration_error_names_the_check():
    bogus = vf.IdentityCheck(
        name="bogus-real-band-on-breve-sampler",
        paper_ref="sampler/builder mismatch fixture",
        sampler="breve-band",
        lhs=lambda pt: boosted_spinor(
            KinematicPoint(pt["m"], pt["p0"], tuple(pt["nhat"])), 0.5),
        rhs=lambda pt: np.zeros(2),
        tolerance=1e-12,
        expected_status="holds",
    )
    with pytest.raises(vf.ConfigurationError, match="bogus-real-band-on-breve-sampler"):
        # the breve sampler will eventually draw |p0| < m, where lhs raises
        vf.run_check(bogus, seed=1, samples=20)


def test_identity_check_validation():
    with pytest.raises(ValueError):
        vf.IdentityCheck("x", "y", "no-such-sampler", lambda p: 0, lambda p: 0,
                         1e-10, "holds")
    with pytest.raises(ValueError):
        vf.IdentityCheck("x", "y", "fixed", lambda p: 0, lambda p: 0,
                         1e-10, "maybe")


def test_section4_two_valued_frozen_values():
    lhs, rhs = vf.section4_two_valued([0, 0, 0, 0])
    assert lhs == 0.0 and rhs == 0.0
    # frozen by the development oracle: the contraction vanishes on e1
    lhs, rhs = vf.section4_two_valued([1, 0, 0, 0])
    assert lhs == pytest.approx(0.0, abs=1e-15)
    assert rhs == pytest.approx(1.0)
    lhs, rhs = vf.section4_two_valued([1, 0, 1, 0])
    assert lhs == pytest.approx(16.0, abs=1e-12)
    assert rhs == pytest.approx(4.0)


@settings(max_examples=50, deadline=None)
@given(
    re=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    im=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    ar=st.floats(-3, 3), ai=st.floats(-3, 3),
)
def test_section4_quartic_homogeneity(re, im, ar, ai):
    xi = np.array(re) + 1j * np.array(im)
    alpha = complex(ar, ai)
    base, _ = vf.section4_two_valued(xi)
    scaled, _ = vf.section4_two_valued(alpha * xi)
    want = abs(alpha) ** 4 * base
    assert scaled == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_run_all_deterministic_reports():
    r1 = vf.run_all(seed=42, samples=30)
    r2 = vf.run_all(seed=42, samples=30)
    assert r1.to_json() == r2.to_json()
    assert r1.to_text() == r2.to_text()


def test_run_all_has_no_failures_at_registry_tolerances():
    report = vf.run_all(seed=42, samples=100)
    assert report.failed == ()
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["anticommutator-literal-delta"] == "info"


def test_tolerance_override_monotonicity():
    rank = {"pass": 0, "info": 0, "fail": 1}
    tight = vf.run_all(seed=42, samples=30)
    loose = vf.run_all(seed=42, samples=30, tolerance_override=1e-3)
    for a, b in zip(tight.checks, loose.checks):
        assert rank[b.status] <= rank[a.status]
    assert loose.tolerance == 1e-3
    with pytest.raises(ValueError):
        vf.run_all(seed=42, samples=5, tolerance_override=-1.0)


@pytest.mark.parametrize("bad", [True, "1e-3", float("nan")])
def test_tolerance_override_must_be_a_positive_finite_real(bad):
    with pytest.raises(ValueError, match="^tolerance must be a real number with 0 < "):
        vf.run_all(seed=1, samples=1, tolerance_override=bad)


def test_report_json_schema():
    report = vf.run_all(seed=1, samples=5)
    doc = json.loads(report.to_json())
    assert list(doc) == ["version", "seed", "samples", "tolerance", "conventions",
                         "checks"]
    assert list(doc) == [f.name for f in dataclasses.fields(vf.VerificationReport)]
    for row in doc["checks"]:
        assert list(row) == ["name", "paper_ref", "samples", "max_residual",
                             "worst_point", "status", "expected_status", "tolerance"]
        assert list(row) == [f.name for f in dataclasses.fields(vf.CheckResult)]
    for key in ("metric", "representation", "branch_rule", "gamma_dot_s_index",
                "epsilon_orientation"):
        assert key in doc["conventions"]


def test_package_version_is_tool_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert pyprojecttoml.read_configuration(path)["project"]["version"] == vf.TOOL_VERSION


def test_report_json_round_trips_doubles():
    report = vf.run_all(seed=int(3), samples=7)
    doc = json.loads(report.to_json())
    for row, res in zip(doc["checks"], report.checks):
        assert row["max_residual"] == res.max_residual  # shortest round-trip repr


# ---------------------------------------------------------------------------
# the sampler contract: columns of n rows in the sampler's domain, one stream
# per (seed, check name), rows readable as plain JSON values
# ---------------------------------------------------------------------------

SAMPLER_KEYS = {
    "real-band": ["m", "p0", "nhat"],
    "breve-band": ["m", "p0", "nhat"],
    "sphere": ["nhat"],
    "index-pair": ["mu", "nu"],
    "gamma-label": ["mu"],
    "matrices": ["a_re", "a_im"],
    "spinor4": ["xi_re", "xi_im"],
    "fixed": [],
}
ROW_SHAPES = {"m": (), "p0": (), "nhat": (3,), "mu": (), "nu": (), "a_re": (48,), "a_im": (48,),
              "xi_re": (4,), "xi_im": (4,)}


def _fixture(sampler: str, name: str = "sampler-contract"):
    return vf.IdentityCheck(name, "sampler fixture", sampler, lambda pt: 0, lambda pt: 0,
                            1e-12, "holds")


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_samplers_draw_columns_of_n_rows_in_their_domain(sampler, n):
    assert set(SAMPLER_KEYS) == set(vf._SAMPLERS)
    lists = vf.sample_points(_fixture(sampler), seed=5, samples=n)
    assert list(lists) == SAMPLER_KEYS[sampler]
    assert all(type(column) is list and len(column) == n for column in lists.values())
    columns = {key: np.asarray(column) for key, column in lists.items()}
    for key, column in columns.items():
        assert column.shape == (n,) + ROW_SHAPES[key], key
        assert np.isfinite(column).all(), key
    if "nhat" in columns:
        nhat = columns["nhat"]
        assert np.all(np.abs(np.sqrt(np.sum(nhat * nhat, axis=1)) - 1.0) <= 1e-12)
    if "m" in columns:
        assert np.all(columns["m"] == 1.0)
        low, high = (1.0, 10.0) if sampler == "real-band" else (-1.0, 1.0)
        assert np.all((columns["p0"] >= low) & (columns["p0"] <= high))
    for key in ("mu", "nu"):
        if key in columns:
            high = 4 if sampler == "gamma-label" else 3
            assert columns[key].dtype.kind == "i"
            assert np.all((columns[key] >= 0) & (columns[key] <= high))
            if n == 2000:
                assert set(columns[key].tolist()) == set(range(high + 1))
    for key in ("a_re", "a_im"):
        if key in columns:
            assert np.all((columns[key] >= -0.5) & (columns[key] < 0.5))


def _bits(columns: dict) -> dict:
    return {key: np.asarray(column).tobytes() for key, column in columns.items()}


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_sample_points_are_a_function_of_seed_samples_and_name(sampler):
    check = _fixture(sampler)
    first = _bits(vf.sample_points(check, seed=11, samples=300))
    assert _bits(vf.sample_points(check, seed=11, samples=300)) == first
    # drawing another check in between perturbs nothing
    vf.sample_points(_fixture("real-band", "another-check"), seed=11, samples=500)
    assert _bits(vf.sample_points(check, seed=11, samples=300)) == first
    if sampler != "fixed":
        assert _bits(vf.sample_points(check, seed=12, samples=300)) != first
        assert _bits(vf.sample_points(check, seed=11 + 2 ** 63, samples=300)) != first
        assert _bits(vf.sample_points(_fixture(sampler, "renamed"), 11, 300)) != first


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_point_rows_survive_a_json_round_trip_exactly(sampler):
    columns = vf.sample_points(_fixture(sampler), seed=3, samples=40)
    for i in range(40):
        pt = vf.point(columns, i)
        assert json.loads(json.dumps(pt)) == pt
        # cut from the arrays, the row equals the JSON view's row
        assert pt == {key: column[i] for key, column in dict(columns).items()}
        for key, value in pt.items():
            assert type(value) in (float, int, list), key
            assert np.array_equal(np.asarray(value), columns[key][i]), key
    report = vf.run_all(seed=3, samples=40)
    for row, result in zip(json.loads(report.to_json())["checks"], report.checks):
        assert row["worst_point"] == result.worst_point


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_columns_keep_the_samplers_arrays_read_only_beside_their_lists(sampler):
    check = _fixture(sampler)
    columns = vf.sample_points(check, seed=6, samples=50)
    rng = np.random.default_rng(np.random.SeedSequence([6, vf._per_check_seed(check.name)]))
    drawn = vf._SAMPLERS[sampler](rng, 50)
    assert list(columns.arrays) == list(columns) == list(drawn)
    for key, array in columns.arrays.items():
        assert not array.flags.writeable, key
        assert array.dtype == drawn[key].dtype, key
        assert array.tobytes() == drawn[key].tobytes(), key
        assert array.tolist() == columns[key], key
        assert np.array(columns[key]).tobytes() == array.tobytes(), key
        # the Columns of a plain dict (the lists, or one replayed row) holds the same bits
        for plain, want in ((dict(columns), array), (vf.point(columns, 3), array[3])):
            rebuilt = vf.Columns(plain)
            got = rebuilt.arrays[key]
            assert rebuilt[key] == plain[key] and not got.flags.writeable, key
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key


def test_columns_copy_a_writeable_array_and_keep_a_read_only_one(monkeypatch):
    a = np.array([1.0, 2.0])
    columns = vf.Columns({"p0": a})
    assert a.flags.writeable
    got = columns.arrays["p0"]
    assert not got.flags.writeable and got.tobytes() == a.tobytes()
    a[0] = 5.0  # the caller's array is its own
    assert columns.arrays["p0"][0] == 1.0 and columns["p0"] == [1.0, 2.0]
    # a read-only view of a writeable array is copied too: a write through the array it
    # views must not reach the columns, their lists or a replayed row
    a = np.array([1.0, 2.0])
    view = a.view()
    view.setflags(write=False)
    columns = vf.Columns({"p0": view})
    a[0] = 5.0
    assert columns.arrays["p0"].tolist() == columns["p0"] == [1.0, 2.0]
    assert vf.point(columns, 0) == {"p0": 1.0}
    # an array that owns its data, or views only read-only arrays, is kept as it is
    frozen = np.array([[1.0, 2.0], [3.0, 4.0]])
    frozen.setflags(write=False)
    for kept in (frozen, frozen[1]):
        assert vf.Columns({"p0": kept}).arrays["p0"] is kept
    # the sampler's fresh arrays are handed over read-only, without a copy, also when a
    # sampler splits one draw into two columns; the draw itself is made read-only
    for name in ("real-band", "matrices", "spinor4"):
        drawn, draw = {}, vf._SAMPLERS[name]

        def sampler(rng, n, draw=draw, drawn=drawn):
            drawn.update(draw(rng, n))
            return drawn

        monkeypatch.setitem(vf._SAMPLERS, name, sampler)
        columns = vf.sample_points(_fixture(name), seed=2, samples=5)
        assert all(columns.arrays[key] is array for key, array in drawn.items()), name
        for array in drawn.values():
            assert not array.flags.writeable, name
            assert array.base is None or not array.base.flags.writeable, name
        if name != "real-band":
            assert all(array.base is not None for array in drawn.values()), name


class _ScriptedNormals:
    """A generator stand-in whose normal() returns the scripted draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def normal(self, size):
        out = np.array(self.draws.pop(0), dtype=float)
        assert out.shape == size
        return out


def test_unit_rows_redraw_only_the_short_rows_in_order():
    rng = _ScriptedNormals([[0, 0, 0], [1, 2, 2], [0, 0, 1e-7]], [[0, 3, 4], [2, 0, 0]])
    rows = vf._unit_rows(rng, 3)
    assert rng.draws == []
    np.testing.assert_array_equal(rows, [[0, 0.6, 0.8], [1 / 3, 2 / 3, 2 / 3], [1, 0, 0]])


# ---------------------------------------------------------------------------
# shared evaluation: both sides of a check read one conversion, one
# KinematicPoint and the row's common evaluation from its Columns
# ---------------------------------------------------------------------------

def _side_bits(side, pt) -> tuple:
    out = np.asarray(side(pt))
    return out.shape, out.dtype, out.tobytes()


@pytest.mark.parametrize("samples", [1, 64])
@pytest.mark.parametrize("seed", [0, 3])
def test_shared_evaluation_changes_no_bit(seed, samples):
    for check in vf.registry():
        columns = vf.sample_points(check, seed, samples)
        assert type(columns) is vf.Columns and columns.derived == {}
        plain = vf.Columns(dict(columns))
        lhs, rhs = _side_bits(check.lhs, columns), _side_bits(check.rhs, columns)
        assert lhs == _side_bits(check.lhs, plain), check.name
        assert rhs == _side_bits(check.rhs, plain), check.name
        # the other order on fresh columns: whichever side runs first fills them
        fresh = vf.sample_points(check, seed, samples)
        assert _side_bits(check.rhs, fresh) == rhs, check.name
        assert _side_bits(check.lhs, fresh) == lhs, check.name


def _counting(monkeypatch, name: str) -> list:
    calls, original = [], getattr(vf, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(vf, name, counted)
    return calls


def test_each_check_computes_its_shared_values_once(monkeypatch):
    counts = {name: _counting(monkeypatch, name)
              for name in ("polsum", "KinematicPoint", "section4_two_valued")}
    for check in vf.registry():
        for calls in counts.values():
            calls.clear()
        vf.run_check(check, seed=9, samples=50)
        n = {name: len(calls) for name, calls in counts.items()}
        assert n["polsum"] == (1 if check.name.startswith("polsum-")
                               or check.name == "completeness" else 0), check.name
        assert n["section4_two_valued"] == (check.name == "section4-two-valued"), check.name
        if check.sampler in ("real-band", "breve-band"):
            assert n["KinematicPoint"] == 1, check.name


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_columns_encode_as_their_plain_dict_before_and_after_evaluation(sampler):
    check = next(c for c in vf.registry() if c.sampler == sampler)
    columns = vf.sample_points(check, seed=4, samples=16)
    encoded = json.dumps(dict(columns), sort_keys=True)
    assert json.dumps(columns, sort_keys=True) == encoded
    check.lhs(columns)
    check.rhs(columns)
    # builders read the sampler's arrays as they are; only a row that derives a value
    # (a KinematicPoint, a complex array) fills derived, which json never sees
    if sampler not in ("index-pair", "gamma-label", "sphere", "fixed"):
        assert columns.derived
    assert json.dumps(columns, sort_keys=True) == encoded
    assert json.dumps(dict(columns), sort_keys=True) == encoded


# ---------------------------------------------------------------------------
# sample-independent tables: the gamma-algebra rows gather both sides from
# tables built once at import; each gather keeps the per-sample product's bits
# ---------------------------------------------------------------------------

def test_gamma_tables_keep_the_per_sample_products():
    by = _by_name()
    mu, nu = np.repeat(np.arange(4), 4), np.tile(np.arange(4), 4)  # all 16 ordered pairs
    pairs = vf.Columns({"mu": mu, "nu": nu})
    for name, gamma, metric in (
            ("anticommutator-minkowski", cl.gamma, np.diag([1.0, -1, -1, -1])),
            ("anticommutator-literal-delta", cl.gamma_lower, np.eye(4))):
        stack = np.stack([gamma(i) for i in range(4)])
        a, b = stack[mu], stack[nu]
        assert by[name].lhs(pairs).tobytes() == (a @ b + b @ a).tobytes(), name
        want_rhs = (2.0 * metric[mu, nu])[:, None, None] * np.eye(4, dtype=complex)
        assert by[name].rhs(pairs).tobytes() == want_rhs.tobytes(), name
        for i in range(16):  # a replayed single pair gathers one matrix
            one = vf.Columns(vf.point(pairs, i))
            assert by[name].lhs(one).tobytes() == (a[i] @ b[i] + b[i] @ a[i]).tobytes(), name
    labels = np.arange(5)
    gammas = np.stack([*(cl.gamma(i) for i in range(4)), cl.gamma5()])[labels]
    check, pt = by["gamma-hermiticity"], vf.Columns({"mu": labels})
    assert check.lhs(pt).tobytes() == np.conj(np.swapaxes(gammas, -1, -2)).tobytes()
    signs = np.where(np.isin(labels, (0, 4)), 1.0, -1.0)[:, None, None]
    assert check.rhs(pt).tobytes() == (signs * gammas).tobytes()


def test_cycled_trace_keeps_the_bits_of_the_rolled_copy():
    check = _by_name()["trace-cyclicity"]
    columns = vf.sample_points(check, seed=5, samples=64)
    three = vf._three_matrices(columns)
    want = cl.trace(np.roll(three, 1, axis=0))[..., None]
    assert check.rhs(columns).tobytes() == want.tobytes()
