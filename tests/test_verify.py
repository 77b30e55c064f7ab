import dataclasses
import importlib
import itertools
import json
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor import clifford as cl
from bispinor import projectors as pj
from bispinor import spinors as sp
from bispinor import verify as vf
from bispinor.spinors import KinematicPoint, boosted_spinor

def _by_name():
    return {c.name: c for c in vf.registry()}


def test_registry_names_are_unique_and_cited():
    # ROWS fixes the set of names, but a repeated name would collapse in a dict, and
    # python -O strips the registry's own import-time assert
    checks = vf.registry()
    names = [c.name for c in checks]
    assert len(names) == len(set(names))
    assert all(c.paper_ref for c in checks)


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
                               (0, False, "samples"), (float("nan"), 1, "seed"),
                               (np.bool_(True), 2, "seed"), (0, np.float64(2.0), "samples")):
        with pytest.raises(ValueError, match=f"^{bad} must be an int, got "):
            vf.run_all(seed, samples)
    with pytest.raises(ValueError, match="^samples must be >= 1, got 0"):
        vf.run_all(np.int64(3), np.uint8(0))
    # any other integer (numbers.Integral, as NumPy ints are) is taken, and the report holds
    # it as a Python int, so it writes the bits of the int form
    report = vf.run_all(np.int64(3), np.uint16(5))
    assert type(report.seed) is int and type(report.samples) is int
    assert all(type(c.samples) is int for c in report.checks)
    assert report.to_json() == vf.run_all(3, 5).to_json()
    assert vf.run_check(vf.registry()[0], np.int32(3), np.int8(5)) == \
        vf.run_check(vf.registry()[0], 3, 5)


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


def test_a_scaled_spin_stack_fails_the_projector_equivalence_row(monkeypatch):
    # the row's sides share no stack: the block form is built from two-spinor projectors, so
    # scaling the covariant side's stack by 1 + 1e-3 shows as a failure
    check = _by_name()["section4-projector-equivalence"]
    assert vf.run_check(check, 42, 200).status == "pass"
    flat, shape = pj._SPIN
    monkeypatch.setattr(pj, "_SPIN", (flat * (1.0 + 1e-3), shape))
    result = vf.run_check(check, 42, 200)
    assert result.status == "fail" and result.max_residual > 1e-4


def test_configuration_error_names_the_check():
    bogus = vf.IdentityCheck(
        name="bogus-real-band-on-breve-sampler",
        paper_ref="sampler/builder mismatch fixture",
        sampler="breve-band",
        lhs=lambda pt: boosted_spinor(
            KinematicPoint(pt.arrays["m"], pt.arrays["p0"], pt.arrays["nhat"]), 0.5),
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


def _two_valued_by_lambda(xi) -> tuple:
    """section4_two_valued as a loop over lam, two bilinears at a time: the reference."""
    xi = np.asarray(xi, dtype=complex)
    bra = np.conj(xi)
    total = 0.0
    for low, up in vf._TWO_VALUED_FACTORS:
        x_low = cl.dot(cl.row_times(bra, low), xi)
        x_up = cl.dot(cl.row_times(bra, up), xi)
        total = total + (x_up.real * x_low.real - x_up.imag * x_low.imag)
    a = np.abs(xi)
    norm2 = np.sum(a * a, axis=-1)
    return total, norm2 * norm2


def test_section4_two_valued_keeps_the_bits_of_the_loop_over_lambda():
    check = _by_name()["section4-two-valued"]
    xis = vf._complex_of(vf.sample_points(check, seed=11, samples=1000), "xi")
    signed = [0.0, -0.0, 1.0, -1.0, 1j, -1j, complex(-0.0, -0.0)]
    grid = np.array(np.meshgrid(*[signed] * 4, indexing="ij")).reshape(4, -1).T
    singles = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0), (-0.0, 1j, 0, -1), *xis[:5], *grid[::97]]
    scaled = [scale * xi for scale in (1e-150, 1e150) for xi in (xis, xis[0])]
    # at 1e+-150 the quartic terms leave the float range: compared as inf, nan and 0 bits
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for xi in (xis, grid, *singles, *scaled):
            for got, want in zip(vf.section4_two_valued(xi), _two_valued_by_lambda(xi)):
                got, want = np.asarray(got), np.asarray(want)
                assert (got.shape, got.dtype, got.tobytes()) == \
                    (want.shape, want.dtype, want.tobytes())


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


# ---------------------------------------------------------------------------
# the sampler contract: columns of n rows in the sampler's domain, one stream
# per (seed, check name), or a finite sampler's grid; rows readable as plain JSON values
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
# each finite sampler's grid, every label tuple once in row-major order: its points
GRID_TUPLES = {"index-pair": list(itertools.product(range(4), range(4))),
               "gamma-label": [(mu,) for mu in range(5)], "fixed": [()]}


def test_building_the_registry_leaves_numpy_random_unloaded():
    # numpy.random loads on a sampler's first draw, and each sampler's keys are its table's,
    # known without a draw; a fresh interpreter that imports bispinor and builds the
    # registry has not loaded it, and one run_all draw then has
    code = ("import sys, bispinor; bispinor.registry(); loaded = 'numpy.random' in sys.modules; "
            "bispinor.run_all(0, 1); print(loaded, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


def _fixture(sampler: str, name: str = "sampler-contract"):
    return vf.IdentityCheck(name, "sampler fixture", sampler, lambda pt: 0, lambda pt: 0,
                            1e-12, "holds")


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_samplers_draw_columns_of_n_rows_in_their_domain(sampler, n):
    # a drawn sampler gives n rows, a finite one its grid whatever n is
    assert set(SAMPLER_KEYS) == set(vf._SAMPLERS) == set(vf._DRAWS) | set(GRID_TUPLES)
    assert set(GRID_TUPLES) == set(vf._GRIDS) and not set(vf._DRAWS) & set(vf._GRIDS)
    drawn = vf.sample_points(_fixture(sampler), seed=5, samples=n)
    assert list(drawn) == [] and drawn.derived == {}
    columns = drawn.arrays
    assert list(columns) == SAMPLER_KEYS[sampler] == list(vf._SAMPLERS[sampler])
    rows = len(GRID_TUPLES[sampler]) if sampler in GRID_TUPLES else n
    for key, column in columns.items():
        assert type(column) is np.ndarray and not column.flags.writeable, key
        assert column.shape == (rows,) + ROW_SHAPES[key], key
        assert ROW_SHAPES[key] == ((vf._WIDTHS[key],) if key in vf._WIDTHS else ()), key
        assert column.dtype.kind == ("i" if key in ("mu", "nu") else "f"), key
        assert np.isfinite(column).all(), key
    if "nhat" in columns:
        nhat = columns["nhat"]
        assert np.all(np.abs(np.sqrt(np.sum(nhat * nhat, axis=1)) - 1.0) <= 1e-12)
    if "m" in columns:
        assert np.all(columns["m"] == 1.0)
        low, high = (1.0, 10.0) if sampler == "real-band" else (-1.0, 1.0)
        assert np.all((columns["p0"] >= low) & (columns["p0"] <= high))
    if sampler in GRID_TUPLES and columns:
        assert list(zip(*(column.tolist() for column in columns.values()))) == \
            GRID_TUPLES[sampler]
    for key in ("a_re", "a_im"):
        if key in columns:
            assert np.all((columns[key] >= -0.5) & (columns[key] < 0.5))


def _bits(columns: vf.Columns) -> dict:
    return {key: array.tobytes() for key, array in columns.arrays.items()}


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_sample_points_are_a_function_of_seed_samples_and_name(sampler):
    check = _fixture(sampler)
    first = _bits(vf.sample_points(check, seed=11, samples=300))
    assert _bits(vf.sample_points(check, seed=11, samples=300)) == first
    # drawing another check in between perturbs nothing
    vf.sample_points(_fixture("real-band", "another-check"), seed=11, samples=500)
    assert _bits(vf.sample_points(check, seed=11, samples=300)) == first
    others = (vf.sample_points(check, seed=12, samples=300),
              vf.sample_points(check, seed=11 + 2 ** 63, samples=300),
              vf.sample_points(_fixture(sampler, "renamed"), 11, 300))
    # a finite sampler's grid depends on none of them
    assert all((_bits(other) != first) == (sampler in vf._DRAWS) for other in others)


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_point_rows_survive_a_json_round_trip_exactly(sampler):
    columns = vf.sample_points(_fixture(sampler), seed=3, samples=40)
    for i in range(columns.shape[0] if columns.shape else 1):
        pt = vf.point(columns, i)
        assert json.loads(json.dumps(pt)) == pt
        # cut from the arrays, the row equals the row of the whole columns' plain lists
        assert pt == {key: array.tolist()[i] for key, array in columns.arrays.items()}
        for key, value in pt.items():
            assert type(value) in (float, int, list), key
            assert np.array_equal(np.asarray(value), columns.arrays[key][i]), key
    report = vf.run_all(seed=3, samples=40)
    for row, result in zip(json.loads(report.to_json())["checks"], report.checks):
        assert row["worst_point"] == result.worst_point


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_columns_keep_the_samplers_arrays_read_only_beside_their_lists(sampler):
    check = _fixture(sampler)
    columns = vf.sample_points(check, seed=6, samples=50)
    rng = np.random.default_rng(np.random.SeedSequence([6, vf._per_check_seed(check.name)]))
    drawn = vf._GRIDS.get(sampler) or {key: draw(rng, 50)
                                       for key, draw in vf._DRAWS.get(sampler, {}).items()}
    assert list(columns.arrays) == list(drawn) and list(columns) == []
    lists = {key: array.tolist() for key, array in columns.arrays.items()}
    for key, array in columns.arrays.items():
        assert not array.flags.writeable, key
        assert array.dtype == drawn[key].dtype, key
        assert array.tobytes() == drawn[key].tobytes(), key
        assert np.array(lists[key]).tobytes() == array.tobytes(), key
        # the Columns of a plain dict (the lists, or one replayed row) holds the same bits
        for plain, want in ((lists, array), (vf.point(columns, 3), array[3])):
            rebuilt = vf.Columns(plain)
            got = rebuilt.arrays[key]
            assert got.tolist() == plain[key] and not got.flags.writeable, key
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key


def test_columns_copy_every_caller_array_and_keep_the_samplers_draw(monkeypatch):
    # every array a caller passes is copied, writeable, read-only or a read-only view of a
    # writeable array: no write to the caller's arrays reaches the columns or a replayed row
    a = np.array([1.0, 2.0])
    frozen = np.array([1.0, 2.0])
    frozen.setflags(write=False)
    view = a.view()
    view.setflags(write=False)
    for given in (a, frozen, view):
        columns = vf.Columns({"p0": given})
        got = columns.arrays["p0"]
        assert got is not given and not np.shares_memory(got, given)
        assert not got.flags.writeable and got.base is None
        assert got.tobytes() == given.tobytes()
    assert a.flags.writeable  # the caller's array stays its own
    columns = vf.Columns({"p0": view})
    a[0] = 5.0
    assert columns.arrays["p0"].tolist() == [1.0, 2.0]
    assert vf.point(columns, 0) == {"p0": 1.0}
    # a Columns of another Columns copies its arrays as well
    again = vf.Columns(columns)
    assert not np.shares_memory(again.arrays["p0"], columns.arrays["p0"])
    # sample_points hands over the sampler's own draw, one array per key, uncopied and
    # read-only: no column views another array
    for name in ("real-band", "matrices", "spinor4"):
        drawn = {}
        for key, draw in vf._DRAWS[name].items():
            def recorded(rng, n, key=key, draw=draw, drawn=drawn):
                drawn[key] = draw(rng, n)
                return drawn[key]

            monkeypatch.setitem(vf._DRAWS[name], key, recorded)
        columns = vf.sample_points(_fixture(name), seed=2, samples=5)
        assert list(drawn) == list(columns.arrays), name
        assert all(columns.arrays[key] is array for key, array in drawn.items()), name
        for array in drawn.values():
            assert not array.flags.writeable and array.base is None, name


def test_what_the_builders_keep_in_a_columns_is_read_only():
    # a builder may hand on a derived array (a polarization sum's side, say), so a write to
    # what check.lhs returns must not reach the value the Columns keeps for the next call
    for check in vf.registry():
        columns = vf.sample_points(check, seed=2, samples=3)
        check.lhs(columns), check.rhs(columns)
        for value in columns.derived.values():
            for a in value if isinstance(value, (tuple, list)) else (value,):
                assert not isinstance(a, np.ndarray) or not a.flags.writeable, check.name


def test_no_side_hands_out_a_writeable_array_that_another_call_shares():
    # a side that depends on no sample returns its one value read-only, a table row or
    # any other result is fresh: no caller can write into what the next call returns
    for check in vf.registry():
        first, second = (vf.sample_points(check, seed, 3) for seed in (2, 3))
        for side in (check.lhs, check.rhs):
            a, b = side(first), side(second)
            assert not (a.flags.writeable and np.shares_memory(a, b)), check.name


def test_writing_into_what_the_sides_return_changes_no_report():
    before = vf.run_all(1, 5).to_json()
    for check in vf.registry():
        columns = vf.sample_points(check, seed=1, samples=5)
        for side in (check.lhs, check.rhs):
            out = side(columns)
            if out.flags.writeable:
                out[...] = 7.0
    assert vf.run_all(1, 5).to_json() == before


def _arrays_in(value):
    """Every ndarray in value, searched through tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)


def test_every_array_the_modules_keep_is_read_only():
    # the search reaches every table: six, the four of dirac_u and breve_u read by a _bar
    # name as well
    tables = list(_arrays_in(sp._TABLES))
    assert len(sp._TABLES) == 6 and len(tables) == 10 and len(set(map(id, tables))) == 6
    for module in (cl, sp, pj, vf):
        for name, value in vars(module).items():
            for a in _arrays_in(value):
                assert not a.flags.writeable, f"{module.__name__}.{name}"


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
# KinematicPoint (built by spinors._point) and the row's common evaluation from its Columns
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
        plain = vf.Columns(columns.arrays)
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


# the functions whose calls ROWS (below) counts per evaluation; no row calls breve_u, whose
# values breve-rest-relation takes at import
COUNTED = ("_point", "_state", "_kappa", "polsum", "_trace", "_section4_two_valued", "breve_u")


def test_each_check_computes_its_shared_values_once(monkeypatch):
    counts = {name: _counting(monkeypatch, name) for name in COUNTED}

    def made() -> dict:
        return {name: len(calls) for name, calls in counts.items()}

    for check in vf.registry():
        want = {name: ROWS[check.name][2].get(name, 0) for name in COUNTED}
        # either side may run first: it makes every counted call, and the other side none
        for first, second in ((check.lhs, check.rhs), (check.rhs, check.lhs)):
            columns = vf.sample_points(check, seed=9, samples=50)
            for calls in counts.values():
                calls.clear()
            first(columns)
            before = made()
            second(columns)
            assert made() == before == want, check.name


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_columns_encode_as_their_plain_dict_before_and_after_evaluation(sampler):
    # a builder argument must stay JSON-encodable: a traced benchmark run encodes each
    # one; a Columns has no dict items, so it encodes as {}
    check = next(c for c in vf.registry() if c.sampler == sampler)
    columns = vf.sample_points(check, seed=4, samples=16)
    assert json.dumps(columns, sort_keys=True) == "{}"
    check.lhs(columns)
    check.rhs(columns)
    # builders read the sampler's arrays as they are; the row's one (lhs, rhs) fills derived,
    # which json never sees
    (kept,) = columns.derived.values()
    assert kept[0] is check.lhs(columns) and kept[1] is check.rhs(columns)
    assert json.dumps(columns, sort_keys=True) == "{}"
    assert dict(columns) == {}


@pytest.mark.parametrize("sampler", sorted(SAMPLER_KEYS))
def test_columns_of_a_columns_keep_its_arrays(sampler):
    check = next(c for c in vf.registry() if c.sampler == sampler)
    columns = vf.sample_points(check, seed=4, samples=16)
    check.lhs(columns)
    rebuilt = vf.Columns(columns)
    assert rebuilt.derived == {}
    assert list(rebuilt.arrays) == list(columns.arrays)
    for key, array in columns.arrays.items():
        assert rebuilt.arrays[key].tobytes() == array.tobytes(), key
    assert _side_bits(check.lhs, rebuilt) == _side_bits(check.lhs, columns)


def test_sampling_builds_no_per_sample_python_objects():
    check, n = _fixture("matrices"), 20_000
    tracemalloc.start()
    try:
        columns = vf.sample_points(check, seed=1, samples=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(array.nbytes for array in columns.arrays.values())
    assert nbytes == 2 * n * 48 * 8
    assert peak < 1.5 * nbytes


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


# ---------------------------------------------------------------------------
# the registry's rows: ROWS is the one table of them, one entry per row.  A sampled row's
# reference is its loop (for a stacked row, the per-label loop it replaced), or the name of
# the object test that pins the one public call its sides make; a label or "fixed" row's is
# its grid size, the points the finite-row tests enumerate (FINITE_ROWS)
# ---------------------------------------------------------------------------

def _kin_of(pt) -> KinematicPoint:
    return KinematicPoint(pt.arrays["m"], pt.arrays["p0"], pt.arrays["nhat"])


def _loop_trace_cycle(pt) -> tuple:
    """tr(a0 a1 a2) and the trace of the rolled copy (a2, a0, a1), of a = a_re + i a_im filled
    part by part, so that a zero keeps its sign."""
    a = np.empty(pt.arrays["a_re"].shape, dtype=complex)
    a.real, a.imag = pt.arrays["a_re"], pt.arrays["a_im"]
    three = np.moveaxis(a.reshape(a.shape[:-1] + (3, 4, 4)), -3, 0)
    return cl.trace(three)[..., None], cl.trace(np.roll(three, 1, axis=0))[..., None]


def _loop_boost_exponential(pt) -> tuple:
    k = _kin_of(pt)
    r = k.p0 / k.m
    up = np.sqrt(r + np.sqrt(r - 1.0) * np.sqrt(r + 1.0))[..., None]
    down = 1.0 / up
    along, against = pj.spin_projector_rest(k.nhat), pj.spin_projector_rest(-k.nhat)
    rows, boosted = [], []
    for lam in sp.HELICITIES:
        phi = np.eye(2, dtype=complex)[:, sp.HELICITIES.index(lam)]
        pa, pb = cl.times_column(along, phi), cl.times_column(against, phi)
        rows += [up * pa + down * pb, down * pa + up * pb]
        boosted += [boosted_spinor(k, lam, dotted) for dotted in (False, True)]
    return np.stack(rows, axis=-2), np.stack(boosted, axis=-2)


def _loop_norm_gram(pt):
    us = [sp.dirac_u(_kin_of(pt), lam, lam) for lam in sp.HELICITIES]
    return np.stack([np.stack([cl.dot(sp.dirac_adjoint(u), v) for v in us], axis=-1)
                     for u in us], axis=-2)


def _loop_kappa_boundary(pt) -> tuple:
    k = _kin_of(pt)
    even, odd = sp.parity_components(boosted_spinor(k, 0.5, dotted=False),
                                     boosted_spinor(k, 0.5, dotted=True))
    ratio = vf._norm(odd) / vf._norm(even)
    return (np.stack([sp.kappa(k.p0, k.m), sp.kappa(k.m, k.m)], axis=-1),
            np.stack([ratio, np.zeros_like(ratio)], axis=-1))


def _loop_breve_norms(pairs):
    def norms(pt):
        k = _kin_of(pt)
        return np.stack([cl.dot(sp.breve_u_bar(k, lp, lm), sp.breve_u(k, lp, lm))
                         for lp, lm in pairs], axis=-1)
    return norms


def _loop_adjoint_dirac(pt):
    k = _kin_of(pt)
    op = cl.slash(k.momentum()) + np.asarray(k.m)[..., None, None] * cl._I4
    return np.stack([cl.row_times(sp.breve_u_bar(k, lam, lam), op) for lam in sp.HELICITIES],
                    axis=-2)


def _loop_adjoint_dagger(paper_sign: bool):
    def rows(pt):
        k = _kin_of(pt)
        p = k.momentum()
        if paper_sign:
            dag = -(p[..., :1, None] * cl.gamma(0) + cl._contract(p, cl._GAMMA_DOT_S_DOT))
        else:
            dag = np.conj(np.swapaxes(cl.slash(p), -1, -2))
        op = dag - np.asarray(k.m)[..., None, None] * cl._I4
        return np.stack([cl.row_times(np.conj(sp.breve_u(k, lam, lam)), op)
                         for lam in sp.HELICITIES], axis=-2)
    return rows


def _loop_pi_annihilation(pt):
    k = _kin_of(pt)
    pi = pj.pi_projector(k.momentum(), k.m, sp._spatial(pt.arrays["nhat"]), "lambda")
    return np.stack([cl.times_column(pi, sp.breve_u(k, lam, lam)) for lam in sp.HELICITIES],
                    axis=-2)


def _loop_map_roundtrip(pt) -> tuple:
    us = [sp.breve_u(_kin_of(pt), lam, lam) for lam in sp.HELICITIES]
    s = sp._spatial(pt.arrays["nhat"])
    return (np.stack([sp.spinor_from_breve(sp.spinor_from_breve(u, s, "u"), s, "v") for u in us],
                     axis=-2), np.stack([-u for u in us], axis=-2))


def _helicity_sum(pt):
    n = pt.arrays["nhat"]
    return pj.spin_projector_rest(n) + pj.spin_projector_rest(-n)


def _tetrad_projector_sum(pt):
    """sum_tau P(s_tau)/2 over the tetrad (n, -n, n, -n)."""
    along, against = (pj.spin_projector(sp._spatial(n)) for n in (pt.arrays["nhat"],
                                                                    -pt.arrays["nhat"]))
    return sum((along, against, along, against)) * 0.5


def _spin_block_form(pt) -> tuple:
    """diag((1 + sigma.n)/2, (1 - sigma.n)/2), zeros off the blocks, against P(s), s = (0, n)."""
    n = pt.arrays["nhat"]
    zero = np.zeros(n.shape[:-1] + (2, 2))
    rows = ((pj.spin_projector_rest(n), zero), (zero, pj.spin_projector_rest(-n)))
    return (np.concatenate([np.concatenate(row, axis=-1) for row in rows], axis=-2),
            pj.spin_projector(sp._spatial(n)))


_POLSUM = "test_projectors::test_projectors_keep_the_bytes_of_their_written_out_forms"
_TWO_VALUED = "test_verify::test_section4_two_valued_keeps_the_bits_of_the_loop_over_lambda"
# a kinematic row's calls: one point per evaluation, and the states or the polarization sum
_STATES, _POLSUM_CALLS = {"_point": 1, "_state": 1}, {"_point": 1, "polsum": 1}

# row name -> (status frozen from the development oracle runs, reference, the calls one
# evaluation makes of each counted function, none where unnamed).  A loop gives (lhs, rhs)
# where the row computes both sides, else its lhs (the rhs a constant); "module::test" names
# the object test of the row's one public call; an int is a label or "fixed" row's grid size
ROWS = {
    "anticommutator-minkowski": ("holds", 16, {}),
    "anticommutator-literal-delta": ("expected-fail", 16, {}),
    "gamma-hermiticity": ("holds", 5, {}),
    "gamma5-pseudoscalar": ("holds", 1, {}),
    "trace-cyclicity": ("holds", _loop_trace_cycle, {"_trace": 2}),
    "boost-exponential": ("holds", _loop_boost_exponential, _STATES),
    "norm-spinor": ("holds", _loop_norm_gram, _STATES),
    "helicity-sum-unity": ("holds", _helicity_sum, {}),
    "polsum-spinor": ("holds", _POLSUM, _POLSUM_CALLS),
    "polsum-antispinor": ("holds", _POLSUM, _POLSUM_CALLS),
    "unity-decomposition-gamma0": ("expected-fail", 1, {}),
    "kappa-boundary": ("holds", _loop_kappa_boundary, {**_STATES, "_kappa": 2}),
    "rest-eigenvalues": ("holds", 1, {}),
    "breve-norm": ("holds", _loop_breve_norms(((0.5, 0.5), (-0.5, -0.5))), _STATES),
    "breve-norm-cross": ("informational", _loop_breve_norms(((0.5, -0.5), (-0.5, 0.5))),
                         _STATES),
    "adjoint-dirac": ("expected-fail", _loop_adjoint_dirac, _STATES),
    "adjoint-dirac-paper-dagger": ("expected-fail", _loop_adjoint_dagger(paper_sign=True),
                                   _STATES),
    "adjoint-dirac-standard-dagger": ("informational", _loop_adjoint_dagger(paper_sign=False),
                                      _STATES),
    "diad-half-unity": ("expected-fail", 1, {}),
    "tetrad-projector-sum": ("holds", _tetrad_projector_sum, {}),
    "polsum-breve-plus": ("informational", _POLSUM, _POLSUM_CALLS),
    "polsum-breve-minus": ("informational", _POLSUM, _POLSUM_CALLS),
    "completeness": ("holds", _POLSUM, _POLSUM_CALLS),
    "pi-annihilation": ("informational", _loop_pi_annihilation, _STATES),
    "breve-rest-relation": ("informational", 1, {}),
    "spinor-breve-maps": ("holds", _loop_map_roundtrip, _STATES),
    "section4-projector-equivalence": ("holds", _spin_block_form, {}),
    "section4-two-valued": ("informational", _TWO_VALUED, {"_section4_two_valued": 1}),
}
# the rows on a finite domain: each label row and "fixed" row
FINITE_ROWS = sorted(name for name, (_, ref, _) in ROWS.items() if isinstance(ref, int))


def test_registry_expectations_are_frozen():
    # every row has one entry in ROWS, and no entry is not a row: its frozen status, one
    # reference (a loop or an object test that exists for a sampled row, its grid size for a
    # label or "fixed" row) and calls of counted functions only; and its sides are the two
    # readings of its one evaluation.  A new row fails here until it brings its entry
    checks = _by_name()
    assert {name: c.expected_status for name, c in checks.items()} == \
        {name: status for name, (status, _, _) in ROWS.items()}
    sides = tuple(side.__code__ for side in vf._sides(print))
    for name, (_, ref, calls) in ROWS.items():
        check = checks[name]
        if check.sampler in GRID_TUPLES:
            assert type(ref) is int and ref == len(GRID_TUPLES[check.sampler]), name
        elif isinstance(ref, str):
            module, test = ref.split("::")
            assert callable(getattr(importlib.import_module(module), test)), ref
        else:
            assert callable(ref), name
        assert set(calls) <= set(COUNTED), name
        assert (check.lhs.__code__, check.rhs.__code__) == sides, name


AXES = [(0.0, 0.0, 1.0), (-0.0, -0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, -0.0)]
# each sampler's edges, as a caller's columns: signed-zero axes; at masses other than the
# sampler's 1, threshold p0 = m on the real band, p0 = +-m and 0 on the breve band; zero and
# unit entries of the matrices, each zero of either sign
EDGES = {
    "real-band": {"m": [0.5, 3.0, 1.0, 2.0], "p0": [0.5, 3.0, 2.5, 2.0], "nhat": AXES},
    "breve-band": {"m": [0.5, 3.0, 2.0, 1.0], "p0": [0.5, -3.0, 0.0, -1.0], "nhat": AXES},
    "sphere": {"nhat": AXES},
    "matrices": {"a_re": [[-0.0] * 48, [1.0, -0.0] * 24], "a_im": [[0.0] * 48, [-0.0, -1.0] * 24]},
}


@pytest.mark.parametrize("samples", [1, 7, 1000, "edges"])
@pytest.mark.parametrize("name", sorted(name for name, (_, ref, _) in ROWS.items()
                                         if callable(ref)))
def test_each_sampled_row_keeps_the_bits_of_its_reference(name, samples):
    check = _by_name()[name]
    columns = (vf.Columns(EDGES[check.sampler]) if samples == "edges"
               else vf.sample_points(check, seed=8, samples=samples))
    want = ROWS[name][1](vf.Columns(columns))
    sides = (check.lhs, check.rhs) if isinstance(want, tuple) else (check.lhs,)
    for side, w in zip(sides, want if isinstance(want, tuple) else (want,)):
        assert _side_bits(side, columns) == (w.shape, w.dtype, w.tobytes()), name


@pytest.mark.parametrize("samples", [1, 7, 1000])
def test_residuals_are_each_samples_largest_entry(samples):
    for check in vf.registry():
        columns = vf.sample_points(check, seed=3, samples=samples)
        diff = np.abs(np.asarray(check.lhs(columns)) - np.asarray(check.rhs(columns)))
        want = diff.reshape(columns.shape[0] if columns.shape else 1, -1).max(axis=1)
        assert vf.residuals(check, columns).tobytes() == want.tobytes(), check.name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, samples", [(0, 100), (42, 100), (37, 3), (42, 1000)])
def test_every_worst_point_replays_to_its_max_residual(seed, samples):
    # read back from the JSON report, through the input boundary a caller's columns take:
    # Columns(worst_point) checks each column, residuals checks they are the row's; every
    # row's replay gives its reported residual bit for bit
    rows = json.loads(vf.run_all(seed=seed, samples=samples).to_json())["checks"]
    checks = _by_name()
    assert [row["name"] for row in rows] == list(checks)
    for row in rows:
        got = vf.residuals(checks[row["name"]], vf.Columns(row["worst_point"]))
        assert got.tobytes() == np.array([row["max_residual"]]).tobytes(), row["name"]


@pytest.mark.parametrize("samples", [1, 7])
def test_columns_shape_is_the_sample_shape_of_their_columns(samples):
    # (n,) for a draw and for the Columns of its arrays or lists, () for one replayed
    # worst point, a label grid's size for a label row, and () for a "fixed" check, which
    # has no columns
    shapes = {"index-pair": (16,), "gamma-label": (5,), "fixed": ()}
    for check in vf.registry():
        draw = vf.sample_points(check, seed=5, samples=samples)
        assert draw.shape == shapes.get(check.sampler, (samples,)), check.name
        lists = {key: array.tolist() for key, array in draw.arrays.items()}
        assert vf.Columns(draw).shape == vf.Columns(lists).shape == draw.shape, check.name
        worst = vf.run_check(check, seed=5, samples=samples).worst_point
        assert vf.Columns(worst).shape == (), check.name


# ---------------------------------------------------------------------------
# the input boundary: Columns(mapping) checks every column a caller hands over,
# residuals checks the columns are the check's; the sampler's draw is not checked
# again on its way through the builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, columns", [
    ("gamma-hermiticity", {"mu": -1}),  # read gamma5 through a negative index
    ("gamma-hermiticity", {"mu": 5}),
    ("gamma-hermiticity", {"mu": [0, True]}),
    ("anticommutator-minkowski", {"mu": 7}),
    ("anticommutator-minkowski", {"mu": 1.5}),
    ("anticommutator-minkowski", {"mu": 7, "nu": 0}),
    ("anticommutator-minkowski", {"mu": 1.5, "nu": 0}),
    ("anticommutator-minkowski", {"mu": 4, "nu": 0}),  # gamma5 is no index of a pair
    ("anticommutator-literal-delta", {"mu": 0, "nu": -2}),
])
def test_a_replayed_label_outside_its_table_is_refused_where_it_enters(name, columns):
    check = _by_name()[name]
    with pytest.raises(ValueError, match=r"(mu|nu) must be") as err:
        vf.residuals(check, vf.Columns(columns))
    assert type(err.value) is ValueError  # not an IndexError, and not wrapped


@pytest.mark.parametrize("name, columns", [
    ("anticommutator-minkowski", {"mu": 1}),
    ("polsum-spinor", {"m": 1.0, "nhat": [0.0, 0.0, 1.0]}),
    ("tetrad-projector-sum", {"m": 1.0, "p0": 2.0, "nhat": [0.0, 0.0, 1.0]}),
    ("trace-cyclicity", {}),
])
def test_columns_other_than_the_samplers_are_refused(name, columns):
    check = _by_name()[name]
    with pytest.raises(ValueError, match=f"check '{name}' reads the columns") as err:
        vf.residuals(check, vf.Columns(columns))
    assert type(err.value) is ValueError  # not a KeyError, and not wrapped


def test_columns_refuse_an_unknown_key_mixed_sample_shapes_and_p0_out_of_scale():
    with pytest.raises(ValueError, match="no sampler draws a column 'mass'"):
        vf.Columns({"mass": 1.0})
    with pytest.raises(ValueError, match="one sample shape"):
        vf.Columns({"m": [1.0, 1.0], "p0": 2.0, "nhat": [[0.0, 0.0, 1.0]] * 2})
    with pytest.raises(OverflowError, match=r"\|p0\|, m and \|p0\|/m must lie below 2\^1023"):
        vf.Columns({"m": 1e-300, "p0": 1e8, "nhat": [0.0, 0.0, 1.0]})
    assert vf.Columns({"m": 1e-300, "p0": 1e7, "nhat": [0.0, 0.0, 1.0]}).shape == ()
    with pytest.raises(OverflowError, match=r"got \|p0\|=0\.0, m=8\.98846567431158e\+307"):
        vf.Columns({"m": 2.0 ** 1023, "p0": 0.0, "nhat": [0.0, 0.0, 1.0]})
    with pytest.raises(ValueError, match="nhat must be a unit vector"):
        vf.Columns({"nhat": [0.0, 0.0, 2.0]})
    with pytest.raises(ValueError, match="mass must satisfy"):
        vf.Columns({"m": 0.0})
    with pytest.raises(ValueError, match="xi_re must have shape"):
        vf.Columns({"xi_re": [1.0, 2.0, 3.0]})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, key, where", [
    ("trace-cyclicity", "a_re", 5), ("trace-cyclicity", "a_im", 47),
    ("section4-two-valued", "xi_re", 0), ("section4-two-valued", "xi_im", 3),
    ("polsum-spinor", "p0", None), ("polsum-spinor", "nhat", 1),
])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_replayed_column_is_refused_before_any_arithmetic(name, key, where, bad):
    check = _by_name()[name]
    worst = vf.run_check(check, seed=42, samples=20).worst_point
    if where is None:
        worst[key] = bad
    else:
        worst[key][where] = bad
    with pytest.raises(ValueError, match=f"{key} must be") as err:
        vf.residuals(check, vf.Columns(worst))
    assert type(err.value) is ValueError


@pytest.mark.parametrize("samples", [1, 100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_the_samplers_draw_passes_the_columns_checks_unchanged(seed, samples):
    for check in vf.registry():
        draw = vf.sample_points(check, seed, samples)
        checked = vf.Columns(draw.arrays)  # the validating path accepts the draw
        assert list(checked.arrays) == list(draw.arrays), check.name
        for key, array in draw.arrays.items():
            got = checked.arrays[key]
            assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), check.name
        want = vf.residuals(check, draw)
        assert vf.residuals(check, checked).tobytes() == want.tobytes(), check.name


def _refuse(*args, **kwargs):
    raise AssertionError("a validator ran on the sampler's draw")


def test_the_draw_path_runs_no_validator_again(monkeypatch):
    before = vf.run_all(42, 50)
    for module in (sp, pj, vf):
        for name in ("check_unit_vector", "check_spin_vector", "check_bispinor",
                     "_check_on_shell"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    monkeypatch.setattr(sp.KinematicPoint, "__post_init__", _refuse)
    # nor does the column validator: the draw and the label rows' grids are handed over;
    # nor trace's factor check: trace-cyclicity calls its core
    monkeypatch.setattr(vf, "_checked_column", _refuse)
    monkeypatch.setattr(cl, "_check_factor", _refuse)
    # the patches hold: public entry points and the caller's path through Columns refuse
    with pytest.raises(AssertionError):
        sp.KinematicPoint(1.0, 2.0, (0.0, 0.0, 1.0))
    with pytest.raises(AssertionError):
        cl.trace([cl.gamma(0)])
    with pytest.raises(AssertionError):
        vf.Columns({"nhat": [0.0, 0.0, 1.0]})
    after = vf.run_all(42, 50)
    assert after.to_json() == before.to_json() and after.to_text() == before.to_text()


# ---------------------------------------------------------------------------
# a finite domain is enumerated, not sampled: a label row evaluates every label
# tuple once, a "fixed" row its one point, neither builds a generator; and the
# uniform draws keep rng.uniform's bits
# ---------------------------------------------------------------------------

# each uniform draw as rng.uniform gave it
UNIFORM_DRAWS = {
    ("real-band", "p0"): lambda rng, n: np.exp(rng.uniform(0.0, np.log(10.0), n)),
    ("breve-band", "p0"): lambda rng, n: rng.uniform(-1.0, 1.0, n),
    ("matrices", "a_re"): lambda rng, n: rng.uniform(-0.5, 0.5, (n, 48)),
    ("matrices", "a_im"): lambda rng, n: rng.uniform(-0.5, 0.5, (n, 48)),
}


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("sampler, key", sorted(UNIFORM_DRAWS))
def test_each_uniform_draw_keeps_the_bits_of_rng_uniform(sampler, key, n):
    for seed in range(50):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = vf._DRAWS[sampler][key](got_rng, n)
        want = UNIFORM_DRAWS[sampler, key](want_rng, n)
        assert got.dtype == want.dtype and got.shape == want.shape, seed
        assert got.tobytes() == want.tobytes(), seed
        # and it reads as many doubles from the stream: the next draw is the same
        assert got_rng.random() == want_rng.random(), seed


@pytest.mark.parametrize("name", FINITE_ROWS)
def test_a_finite_rows_residuals_are_its_per_tuple_maxima_in_grid_order(name):
    # the per-tuple evaluation, written out: each label tuple's max |lhs - rhs| over its
    # entries, one tuple at a time through the validating path, in row-major order
    check = _by_name()[name]
    keys = vf._SAMPLERS[check.sampler]
    want = []
    for labels in GRID_TUPLES[check.sampler]:
        one = vf.Columns(dict(zip(keys, labels)))
        want.append(np.max(np.abs(check.lhs(one) - check.rhs(one))))
        assert vf.residuals(check, one).tolist() == [want[-1]], (name, labels)
    want = np.array(want)
    for seed, samples in ((0, 1), (42, 1000)):
        got = vf.residuals(check, vf.sample_points(check, seed, samples))
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", FINITE_ROWS)
def test_a_finite_rows_report_row_depends_on_no_seed_and_no_sample_count(name):
    check = _by_name()[name]
    rows = {json.dumps(vars(vf.run_check(check, seed, samples)))
            for seed in (0, 7, 42) for samples in (1, 100, 1000)}
    assert len(rows) == 1, name
    row = json.loads(rows.pop())
    assert row["samples"] == ROWS[name][1], name
    assert list(row["worst_point"]) == list(vf._SAMPLERS[check.sampler]), name


def test_the_literal_delta_row_reports_its_spatial_diagonal_in_every_cell():
    # {gamma_mu, gamma_nu} for lowered gammas is -2 at mu = nu = 1 against the displayed +2:
    # the first worst tuple of the grid, also at n = 1, where one drawn pair could miss it
    check = _by_name()["anticommutator-literal-delta"]
    for seed, samples in itertools.product((0, 1, 7, 42), (1, 10, 100, 1000)):
        result = vf.run_check(check, seed, samples)
        assert (result.max_residual, result.worst_point, result.samples) == \
            (4.0, {"mu": 1, "nu": 1}, 16), (seed, samples)


@pytest.mark.parametrize("name", [name for name in FINITE_ROWS if ROWS[name][1] > 1])
def test_a_label_row_evaluates_its_sides_once_on_the_columns_it_is_given(name):
    seen = []

    def recorded(side):
        def on(pt):
            seen.append(pt)
            return side(pt)
        return on

    check = _by_name()[name]
    check = dataclasses.replace(check, lhs=recorded(check.lhs), rhs=recorded(check.rhs))
    for columns in (vf.sample_points(check, seed=2, samples=1000),
                    vf.Columns(vf.run_check(check, seed=2, samples=30).worst_point)):
        seen.clear()
        vf.residuals(check, columns)
        assert len(seen) == 2 and all(pt is columns for pt in seen), name


def test_a_non_finite_label_residual_names_the_first_failing_sample_and_its_point():
    table = np.zeros((5, 4, 4))
    table[2:4, 1, 3] = np.nan
    check = vf.IdentityCheck("label-fixture", "label fixture", "gamma-label",
                             *vf._sides(vf._fixed(table, np.zeros((5, 4, 4)), "mu")), 1e-12,
                             "holds")
    for seed, samples in ((4, 1), (4, 50)):
        with pytest.raises(vf.ConfigurationError,
                           match=r"non-finite residual at sample 2, point \{'mu': 2\}$"):
            vf.residuals(check, vf.sample_points(check, seed, samples))
    with pytest.raises(vf.ConfigurationError, match=r"at sample 0, point \{'mu': 3\}$"):
        vf.residuals(check, vf.Columns({"mu": 3}))


def test_only_a_check_that_draws_builds_a_generator(monkeypatch):
    calls, default_rng = [], np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    samplers = set()
    for check in vf.registry():
        calls.clear()
        vf.sample_points(check, seed=1, samples=10)
        assert len(calls) == (0 if check.sampler in vf._GRIDS else 1), check.name
        samplers.add(check.sampler)
    assert samplers == set(vf._SAMPLERS)


def _unity_gamma0_at(nhat):
    """The sum over tau of the gamma0 diads of the antisymmetric basis (the tetrad at the
    negated point) at p0 = -m along nhat, added in tau order from the first diad, as the row
    adds them: sum() would start from 0, and 0 + (-0.0) turns a -0 entry of the first diad
    into +0."""
    k = KinematicPoint(1.0, -1.0, nhat)
    return reduce(np.add, (pj.diad(sp.tetrad_bispinor(k.negated(), tau), "gamma0")
                           for tau in (1, 2, 3, 4)))


# directions for the threshold tetrad: the six +-axes, then random ones
_TETRAD_DIRECTIONS = np.concatenate([np.concatenate([np.eye(3), -np.eye(3)]),
                                     vf._unit_rows(np.random.default_rng(37), 2000)])


def test_the_threshold_tetrad_sum_depends_on_no_direction():
    # at p0 = m the half-boost amplitude b is 0, so no nhat enters the tetrad: the row's one
    # constant, built at nhat = z, is the per-direction sum of the former sphere row at
    # every direction, bit for bit, one point at a time and as one batch
    check = _by_name()["unity-decomposition-gamma0"]
    constant = check.lhs(vf.sample_points(check, seed=0, samples=1))
    assert check.sampler == "fixed" and constant.shape == (4, 4) and constant.dtype == complex
    batch = _unity_gamma0_at(_TETRAD_DIRECTIONS)
    assert batch.shape == (len(_TETRAD_DIRECTIONS), 4, 4)
    for i, nhat in enumerate(_TETRAD_DIRECTIONS):
        assert batch[i].tobytes() == constant.tobytes(), nhat
        if i < 50:
            assert _unity_gamma0_at(nhat).tobytes() == constant.tobytes(), nhat
