"""The base comparison: this checkout against itself, as CI runs it on a pull request, and the
rule on heads crafted in memory, one edit each, as a change to the source would make them."""
import json

import numpy as np
import pytest

import base_compare as bc
import conftest

JSON = [f"json, seed {seed}, samples {samples}" for seed, samples in bc.GRID]
ARRAYS = ["2658 projector arrays"]


def test_the_checkout_against_itself_is_byte_identical(tmp_path, capsys):
    # a tree whose src/ is the bispinor that tier-1 imports, collected by two -W error children
    (tmp_path / "src").symlink_to(conftest._HOME.parent, target_is_directory=True)
    assert bc.main([str(tmp_path), str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 18 + 12 + 1 and lines[-1] == "2658 projector arrays: byte-identical"
    assert all(line.endswith(": byte-identical") for line in lines[1:])


@pytest.fixture(scope="module")
def base():
    return bc.outputs()


def _each_report(edit):
    def apply(head):
        docs = {label: json.loads(report) for label, report in head["json"].items()}
        for doc in docs.values():
            edit(doc)
        head["json"] = {label: json.dumps(doc, indent=2).encode() for label, doc in docs.items()}
    return apply


def _flip(kind, label):
    def apply(head):
        head[kind][label] = bytes([head[kind][label][0] ^ 1]) + head[kind][label][1:]
    return apply


def _first_array(change):
    def apply(head):
        head["arrays"][0] = change(head["arrays"][0].copy())
    return apply


def _flip_a_bit(array):
    array.view(np.uint8).flat[0] ^= 1
    return array


CASES = {  # name: (bumped, edit, the outputs that must fail)
    "bump, added row": (True, _each_report(
        lambda doc: doc["checks"].insert(1, dict(doc["checks"][0], name="added-row"))), []),
    "bump, changed max_residual": (True, _each_report(
        lambda doc: doc["checks"][0].update(max_residual=1.0)), []),
    "bump, flipped status": (True, _each_report(lambda doc: doc["checks"][0].update(status="fail")), JSON),
    "bump, dropped row": (True, _each_report(lambda doc: doc["checks"].pop(3)), JSON),
    "bump, moved row": (True, _each_report(lambda doc: doc["checks"].insert(0, doc["checks"].pop(5))), JSON),
    "bump, changed header field": (True, _each_report(
        lambda doc: doc["conventions"].update(plane_wave_phase="fixed to one")), JSON),
    "bump, changed show byte": (True, _flip("show", bc.SHOWS[3]), [f"show {bc.SHOWS[3]}"]),
    "bump, array count": (True, lambda head: head["arrays"].pop(), ARRAYS),
    "bump, array dtype": (True, _first_array(lambda a: a.astype(np.complex64)), ARRAYS),
    "bump, array shape": (True, _first_array(lambda a: a[None]), ARRAYS),
    "text byte": (False, _flip("text", "seed 7, samples 100"), ["text, seed 7, samples 100"]),
    "show byte": (False, _flip("show", bc.SHOWS[0]), [f"show {bc.SHOWS[0]}"]),
    "array byte": (False, _first_array(_flip_a_bit), ARRAYS),
}


@pytest.mark.parametrize("case", CASES)
def test_a_crafted_head_gets_the_rules_verdict(base, case):
    bumped, edit, changed = CASES[case]
    head = {**base, **{kind: dict(base[kind]) for kind in ("json", "text", "show")},
            "arrays": list(base["arrays"]), "version": base["version"] + (".1" if bumped else "")}
    edit(head)
    lines, failures = bc.compare(base, head)
    assert failures == changed
    assert all(line.endswith(": CHANGED") == (line.split(":")[0] in changed)
               for line in lines[1:] if not line.startswith("  "))
    if case == "bump, added row":
        assert all(f"{label}: kept" in lines for label in JSON)
        assert lines.count("  rows added ['added-row'], dropped [], with other values []") == 9
