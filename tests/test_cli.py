import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bispinor.cli import main


def test_show_basis_rest(capsys):
    assert main(["show", "basis", "--tau", "1", "--p0", "1", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "(1+0j, 0+0j, 0+0j, 0+0j)"


def test_show_basis_missing_params(capsys):
    assert main(["show", "basis", "--p0", "1", "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert "--tau" in err


def test_show_breve(capsys):
    assert main(["show", "breve", "--p0", "0", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "1.41421356237" in out


def test_show_breve_outside_band(capsys):
    assert main(["show", "breve", "--p0", "2", "--m", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_show_projector_spin(capsys):
    assert main(["show", "projector", "--kind", "spin", "--sz", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].strip() == "[1+0j, 0+0j, 0+0j, 0+0j]"
    assert rows[3].strip() == "[0+0j, 0+0j, 0+0j, 1+0j]"


def test_show_projector_requires_kind_and_spin_vector(capsys):
    assert main(["show", "projector"]) == 2
    assert main(["show", "projector", "--kind", "spin"]) == 2
    assert main(["show", "projector", "--kind", "pi", "--p0", "0.5", "--m", "1"]) == 2
    capsys.readouterr()


def test_show_polsum(capsys):
    code = main(["show", "polsum", "--kind", "spinor", "--p0", "1.25", "--m", "1",
                 "--nz", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lhs:" in out and "rhs:" in out and "max residual:" in out


def test_verify_text_default(capsys):
    assert main(["verify", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out and "0 fail" in out


def test_verify_rejects_bad_config(capsys):
    assert main(["verify", "--samples", "0"]) == 2
    assert main(["verify", "--tolerance", "-1"]) == 2
    capsys.readouterr()


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_verify_unknown_flag_exits_2(capsys):
    assert main(["verify", "--bogus"]) == 2
    capsys.readouterr()


def test_verify_json_schema_and_exit_code(capsys):
    assert main(["verify", "--seed", "42", "--samples", "10", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["version", "seed", "samples", "tolerance", "conventions",
                         "checks"]
    assert doc["seed"] == 42 and doc["samples"] == 10
    assert len(doc["checks"]) >= 20
    by_name = {row["name"]: row for row in doc["checks"]}
    delta = by_name["anticommutator-literal-delta"]
    assert delta["status"] == "info" and delta["max_residual"] > 0


def test_verify_json_byte_identical(capsys):
    assert main(["verify", "--seed", "42", "--samples", "25", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "42", "--samples", "25", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_exit_one_when_a_holds_check_fails(capsys):
    # an absurdly tight override forces every residual above tolerance
    assert main(["verify", "--samples", "5", "--tolerance", "1e-300"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_verify_output_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--samples", "5", "--format", "json",
                 "--output", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["samples"] == 5


def test_verify_unwritable_output(capsys):
    code = main(["verify", "--samples", "5", "--output", "/nonexistent/dir/report"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bispinor", "verify", "--samples", "5",
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["samples"] == 5


def test_show_direction_is_normalized(capsys):
    # --nx 1 --nz 1 is normalized before use
    assert main(["show", "breve", "--p0", "0.5", "--m", "1", "--nx", "1",
                 "--nz", "1"]) == 0
    out = capsys.readouterr().out
    vals = np.array([complex(tok.replace("j", "j")) for tok in
                     out.strip("()\n").split(", ")])
    assert vals.shape == (4,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nz", ["1e200", "1e-170", "1.7e308"])
def test_show_direction_normalizes_without_overflow_or_underflow(nz, capsys):
    assert main(["show", "breve", "--p0", "0", "--m", "1", "--nz", "1"]) == 0
    unit = capsys.readouterr().out
    assert main(["show", "breve", "--p0", "0", "--m", "1", "--nz", nz]) == 0
    assert capsys.readouterr().out == unit
    assert main(["show", "breve", "--p0", "0", "--m", "1", "--nx", nz, "--nz", nz]) == 0
    assert main(["show", "breve", "--p0", "0", "--m", "1", "--nx", "1", "--nz", "1"]) == 0
    tilted = capsys.readouterr().out.splitlines()
    assert tilted[0] == tilted[1]


@pytest.mark.parametrize("flag", ["--nx", "--sz"])
def test_show_direction_rejects_a_non_finite_component(flag, capsys):
    argv = ["show", "projector", "--kind", "pi", "--p0", "2", "--m", "1", "--sz", "1"]
    assert main(argv + [flag, "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[:3]}x/{flag[:3]}y/{flag[:3]}z must be finite")


def test_show_polsum_far_above_threshold(capsys):
    assert main(["show", "polsum", "--kind", "spinor", "--p0", "1e3", "--m", "1"]) == 0
    assert "max residual:" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["energy-plus", "energy-minus", "pi", "pi-neg"])
def test_show_projector_far_above_threshold(kind, capsys):
    argv = ["show", "projector", "--kind", kind, "--p0", "1e3", "--m", "1"]
    assert main(argv + (["--sz", "1"] if kind.startswith("pi") else [])) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["show", "polsum", "--kind", "spinor", "--p0", "1e200", "--m", "1"],
    ["show", "projector", "--kind", "pi", "--p0", "2", "--m", "1", "--sx", "nan"],
    ["show", "basis", "--tau", "1", "--p0", "inf", "--m", "1"],
    ["show", "breve", "--p0", "0", "--m", "inf"],
    ["verify", "--samples", "2", "--tolerance", "nan"],
    ["show", "basis", "--tau", "1", "--p0", "1e200", "--m", "1.2697076285132332e-146"],
    ["show", "polsum", "--kind", "completeness", "--p0", "0", "--m", "5e-324"],
])
def test_rejected_input_exits_2_with_a_message(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


SHOW_FLAGS = ("p0", "m", "nx", "ny", "nz", "sx", "sy", "sz", "lp", "lm")
FLOATS = st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -0.0]),
                   st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(obj=st.sampled_from(["basis", "breve", "projector", "polsum"]),
       kind=st.sampled_from(["spin", "energy-plus", "energy-minus", "pi", "pi-neg", "spinor",
                             "antispinor", "breve-plus", "breve-minus", "completeness"]),
       values=st.lists(FLOATS, min_size=len(SHOW_FLAGS), max_size=len(SHOW_FLAGS)))
@example(obj="polsum", kind="spinor", values=[1e200, 1.0] + [None] * 8)
@example(obj="basis", kind="spin", values=[1e200, 2.4123403520774395e-288] + [None] * 8)
@example(obj="projector", kind="energy-minus", values=[3.0, 5e-324] + [None] * 8)
def test_show_exits_0_or_2_on_any_float_input(obj, kind, values):
    argv = ["show", obj, "--kind", kind, "--tau", "1"]
    argv += [f"--{flag}={value!r}" for flag, value in zip(SHOW_FLAGS, values)
             if value is not None]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)
