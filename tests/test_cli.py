import json
import os
import subprocess
import sys

import pytest

import trophodge
from trophodge.cli import main
from trophodge.polyhedral import complex_from_json, complex_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fixtures_round_trip(tmp_path, capsys):
    code, _ = run(capsys, "fixtures", "--out", str(tmp_path))
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert files == ["fixA.json", "fixB.json", "fixC.json",
                     "fixD.json", "fixE.json", "fixF.json"]
    for name in files:
        path = tmp_path / name
        raw = path.read_text()
        data = json.loads(raw)
        cx = complex_from_json(data)
        # emit -> parse -> emit is byte-identical
        again = json.dumps(complex_to_json(cx), sort_keys=True, indent=2) + "\n"
        assert again == raw


def test_cohomology_fix_a(capsys, tmp_path):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out = run(capsys, "cohomology", str(tmp_path / "fixA.json"))
    assert code == 0
    data = json.loads(out)
    assert data["hodge_numbers"] == {"h^0,0": 1, "h^0,1": 0, "h^1,0": 0, "h^1,1": 1}
    assert data["conventions"]["differential_sign"] == "sign-on-both"
    # report round-trip: emit -> parse -> emit is byte-identical
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out


def test_chow_table(capsys):
    code, out = run(capsys, "chow", "fixC")
    assert code == 0
    assert json.loads(out)["chow_dims"] == {"0": 1, "1": 4, "2": 1}


def test_mw_output_serializes_rationals(capsys):
    code, out = run(capsys, "mw", "fixA", "-k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    weights = list(data["basis"]["0"].values())
    assert all(w == weights[0] for w in weights)


def test_steenbrink_report(capsys):
    code, out = run(capsys, "steenbrink", "fixD")
    assert code == 0
    data = json.loads(out)
    assert data["hard_lefschetz"] is True
    assert data["blocks"] == {"(0,0,0)": 1, "(0,2,0)": 1}
    assert data["surviving"] == {"(0,0)": 1, "(1,1)": 1}


def test_cs_check_exit_code(capsys):
    code, out = run(capsys, "cs-check", "fixE")
    assert code == 0
    assert json.loads(out)["all_exact"] is True


def test_hodge_cycle_fix_d(capsys):
    code, out = run(capsys, "hodge-cycle", "fixD", "--p", "1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    cycle = data["cycles"]["0"]["cycle"]["weights"]
    assert list(cycle.values()) == ["1"]
    assert data["cycles"]["0"]["verification"]["class_matches"] is True
    assert data["cycles"]["0"]["verification"]["balanced"] is True


def test_hodge_cycle_reports_computed_balancing(capsys, monkeypatch):
    # The balanced field is computed and counts in the exit code.
    monkeypatch.setattr("trophodge.cli.is_balanced", lambda y, w: False)
    code, out = run(capsys, "hodge-cycle", "fixD", "--p", "1")
    assert code == 1
    verification = json.loads(out)["cycles"]["0"]["verification"]
    assert verification == {"balanced": False, "class_matches": True}


def test_hodge_cycle_accepts_class_file(capsys, tmp_path):
    code, out = run(capsys, "hodge-cycle", "fixD", "--p", "1")
    data = json.loads(out)
    cls = data["cycles"]["0"]["class"]
    payload = {"p": 1, "vertices": cls}
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "hodge-cycle", "fixD", "--p", "1", "--class", str(path))
    assert code == 0
    assert json.loads(out)["cycles"]["0"]["verification"]["class_matches"] is True


def test_check_all_fix_f(capsys):
    code, out = run(capsys, "check-all", "fixF", "--seed", "3")
    assert code == 0
    assert json.loads(out)["all"] is True


def test_determinism_same_seed_same_report(capsys):
    _, out1 = run(capsys, "check-all", "fixD", "--seed", "11")
    _, out2 = run(capsys, "check-all", "fixD", "--seed", "11")
    assert out1 == out2


def test_malformed_input_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for faces in ('[{"vertices": [0, 1], "rays": []}]',  # a missing vertex
                  '[[0]]',  # a face that is not an object
                  '[{"vertices": ["0"], "rays": []}]',  # an index that is a string
                  '[{"vertices": [0], "rays": [true]}]'):  # an index that is a bool
        bad.write_text('{"lattice_rank": 1, "vertices": [["0"]], "rays": [], "faces": %s}' % faces)
        code, out = run(capsys, "cohomology", str(bad))
        assert code == 2, faces
        assert json.loads(out)["error"] == "malformed-input"


def test_missing_file_exit_two(capsys):
    code, out = run(capsys, "cohomology", "/nonexistent/path.json")
    assert code == 2


LINE = {"lattice_rank": 1, "vertices": [["0"]], "rays": [[1], [-1]],
        "faces": [{"vertices": [0], "rays": []}, {"vertices": [0], "rays": [0]},
                  {"vertices": [0], "rays": [1]}]}
PAYLOADS = {
    "zero_ray": {**LINE, "rays": [[1], [0]]},
    "zero_denominator": {**LINE, "vertices": [["1/0"]]},
    "bad_label": {"p": 1, "vertices": {"0": {"a,b": "1"}}},
    "bad_coefficient": {"p": 1, "vertices": {"0": {"": "1/0"}}},
    # fixD: the p = 1 class x_4 at vertex 0, and face 3, an unbounded edge
    "p_mismatch": {"p": 1, "vertices": {"0": {"4": "1"}}},
    "not_a_vertex": {"p": 0, "vertices": {"0": {"": "1"}, "3": {"": "5"}}},
}


@pytest.mark.parametrize("argv", [
    ["chow", "fixA", "--degrees", "foo"],
    ["cohomology", "{zero_ray}"],
    ["cohomology", "{zero_denominator}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{bad_label}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{bad_coefficient}"],
    ["hodge-cycle", "fixD", "--p", "0", "--class", "{p_mismatch}"],
    ["hodge-cycle", "fixD", "--p", "0", "--class", "{not_a_vertex}"],
], ids=["degrees", "zero-ray", "zero-denominator", "class-label", "class-coefficient",
        "class-p-mismatch", "class-not-a-vertex"])
def test_malformed_argument_or_field_exit_two(argv, capsys, tmp_path):
    paths = {}
    for name, payload in PAYLOADS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    code, out = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 2
    assert json.loads(out)["error"] == "malformed-input"


CORRUPT_ONE_SIGN = """
import sys
from trophodge.cli import main
from trophodge.polyhedral import FaceComplex

sign = FaceComplex.incidence_sign
flipped = []

def first_sign_flipped(self, gamma, delta):
    s = sign(self, gamma, delta)
    if not flipped:
        flipped.append((gamma, delta))
        return -s
    return s

FaceComplex.incidence_sign = first_sign_flipped
sys.exit(main(["check-all", "fixF", "--seed", "1"]))
"""


def test_corrupted_incidence_sign_fails_under_optimize():
    # python -O strips asserts; the d o d check must still run and fail.
    src = os.path.dirname(os.path.dirname(trophodge.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", CORRUPT_ONE_SIGN],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "verification-failed"
    assert "does not square to zero" in out["detail"]
