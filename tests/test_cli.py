import json
import os
import random
import subprocess
import sys

import pytest

import trophodge
from conftest import grid_plane, plane_curve, staircase_product
from test_polyhedral import NOT_COMPACTIFIABLE
from test_steenbrink import UNSMOOTH
from trophodge import cli, steenbrink
from trophodge.chow import ChowRing
from trophodge.cli import main
from trophodge.fixtures import fix_e, named_fixture
from trophodge.linalg import RationalMatrix
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import build_complex, compactify, complex_from_json, complex_to_json
from trophodge.steenbrink import SteenbrinkPage, build_steenbrink, random_homogeneous


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


def test_page_commands_do_not_compactify(capsys, monkeypatch, tmp_path):
    # steenbrink and cs-check build the page on the open complex; hodge-cycle
    # prints face indices of the compactification and check-all needs it for
    # cellular cohomology, so each of them compactifies once.
    calls = []
    real_compactify = cli.compactify
    monkeypatch.setattr(cli, "compactify", lambda y: calls.append(y) or real_compactify(y))
    for name, fan in (("u35", bergman_fan(uniform_matroid(5, 3))), ("b4", bergman_fan(boolean_matroid(4)))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(complex_to_json(fan)))
        for argv, compactified in ((["steenbrink"], 0), (["cs-check"], 0),
                                   (["hodge-cycle", "--p", "1"], 1), (["check-all"], 1)):
            calls.clear()
            code, _ = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, len(calls)) == (0, compactified), (name, argv)


@pytest.mark.parametrize("name", sorted(NOT_COMPACTIFIABLE))
def test_page_commands_reject_what_compactify_rejects(name, capsys, tmp_path):
    path = tmp_path / "y.json"
    path.write_text(json.dumps(complex_to_json(NOT_COMPACTIFIABLE[name][0]())))
    want = run(capsys, "cohomology", str(path))
    assert want[0] in (1, 2)
    for command in ("steenbrink", "cs-check"):
        assert run(capsys, command, str(path)) == want


@pytest.mark.parametrize("name", sorted(UNSMOOTH))
def test_commands_name_a_face_of_a_failed_page_alike(name, capsys, tmp_path):
    # The page of steenbrink and cs-check is built on the open complex, that of
    # hodge-cycle on its compactification; the failing face is named alike.
    vertices, specs, problem = UNSMOOTH[name]
    path = tmp_path / "y.json"
    path.write_text(json.dumps(complex_to_json(build_complex(2, vertices, [], specs))))
    detail = f"star fan of the bounded face with vertices {problem}"
    for argv in (["steenbrink"], ["cs-check"], ["hodge-cycle", "--p", "0"]):
        code, out = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, json.loads(out)) == (1, {"error": "verification-failed", "detail": detail})


def test_an_undefined_sign_names_both_faces_by_their_vertices(capsys, tmp_path):
    # The triangle of lattice volume 3 has no unimodular pair, so cohomology
    # and check-all stop at the first sign, and name its faces.
    vertices, specs, _ = UNSMOOTH["index three"]
    path = tmp_path / "y.json"
    path.write_text(json.dumps(complex_to_json(build_complex(2, vertices, [], specs))))
    detail = ("sign undefined: pair is not unimodular, between the face with vertices"
              " (0, 0), (1, 2) and the face with vertices (0, 0), (1, 2), (2, 1)")
    for command in ("cohomology", "check-all"):
        code, out = run(capsys, command, str(path))
        assert (code, json.loads(out)) == (1, {"error": "verification-failed", "detail": detail})


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


def test_one_parser_serves_alternating_calls(capsys, monkeypatch):
    built, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    outs = [run(capsys, "chow", "fixC", "--format", fmt) for fmt in ("table", "json") * 3]
    assert built == [1]
    assert all(code == 0 for code, _ in outs)
    tables, jsons = {out for _, out in outs[::2]}, {out for _, out in outs[1::2]}
    assert len(tables) == len(jsons) == 1
    assert "tool: trophodge" in tables.pop()
    assert json.loads(jsons.pop())["chow_dims"] == {"0": 1, "1": 4, "2": 1}
    # a default is not carried over from the call before
    _, seeded = run(capsys, "check-all", "fixD", "--seed", "5")
    _, default = run(capsys, "check-all", "fixD")
    assert (json.loads(seeded)["seed"], json.loads(default)["seed"]) == (5, 0)


def _random_psi_identities(st, rng):
    """The psi check that check-all made before it checked matrix identities:
    symmetry and the adjointness of N and d on 100 random pairs."""
    d, ok = st.dim, True
    for _ in range(100):
        ex, ey = random_homogeneous(st, rng), random_homogeneous(st, rng)
        ok = ok and st.psi(ex, ey) == (-1) ** d * st.psi(ey, ex)
        ok = ok and st.psi(st.apply_n(ex), ey) + st.psi(ex, st.apply_n(ey)) == 0
        ok = ok and st.psi(st.apply_d(ex), ey) + st.psi(ex, st.apply_d(ey)) == 0
    return ok


def _flip_epsilon(where):
    def mutate(monkeypatch):
        epsilon = SteenbrinkPage.epsilon
        monkeypatch.setattr(SteenbrinkPage, "epsilon",
                            lambda self, a, b: -epsilon(self, a, b) if where(a, b) else epsilon(self, a, b))
    return mutate


def _double_gysin(monkeypatch):
    # d = i* + 2 Gys still squares to zero (i* i*, Gys Gys and i* Gys + Gys i*
    # vanish apart), but it is no longer anti-self-adjoint for psi.
    gysin_matrix = SteenbrinkPage.gysin_matrix

    def doubled(self, *args):
        m = gysin_matrix(self, *args)
        out = RationalMatrix(m.rows, m.cols)
        out.entries = {k: 2 * v for k, v in m.entries.items()}
        return out
    monkeypatch.setattr(SteenbrinkPage, "gysin_matrix", doubled)


def _double_pairings_above_degree_zero(monkeypatch):
    # A scale that depends on the Chow degree: psi pairs degree k against
    # top - k, and the Gysin part of d raises the degree by one.
    pairing_matrix = ChowRing.pairing_matrix

    def doubled(self, k):
        m = pairing_matrix(self, k)
        out = RationalMatrix(m.rows, m.cols)
        out.entries = {key: (2 if k else 1) * v for key, v in m.entries.items()}
        return out
    monkeypatch.setattr(ChowRing, "pairing_matrix", doubled)


MUTATIONS = {"epsilon-a=1": _flip_epsilon(lambda a, b: a == 1),
             "epsilon-(a,b)=(0,2)": _flip_epsilon(lambda a, b: (a, b) == (0, 2)),
             "epsilon-b=0": _flip_epsilon(lambda a, b: b == 0),
             # psi stays symmetric and d stays anti-self-adjoint; N does not (d = 2 here)
             "epsilon-b!=d": _flip_epsilon(lambda a, b: b != 2),
             "gysin-doubled": _double_gysin,
             "pairings-doubled-above-degree-0": _double_pairings_above_degree_zero}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ["grid1", "fixE"])
def test_broken_psi_identity_fails_check_all(name, mutation, capsys, monkeypatch, tmp_path):
    # The exact check fails on every input where the random check it replaced fails.
    y = grid_plane(1) if name == "grid1" else named_fixture(name)
    arg = str(tmp_path / "input.json")
    with open(arg, "w", encoding="utf-8") as fh:
        json.dump(complex_to_json(y), fh)
    MUTATIONS[mutation](monkeypatch)
    code, out = run(capsys, "check-all", arg, "--seed", "3")
    checks = json.loads(out)["checks"]
    assert code == 1
    assert checks["psi-identities"] == "FAIL"
    if mutation == "gysin-doubled":
        assert all(v == "pass" for k, v in checks.items() if k.startswith("steenbrink-d2-zero"))
    assert not _random_psi_identities(build_steenbrink(compactify(y)), random.Random(3))


def test_n_that_does_not_commute_with_d_fails_check_all(capsys, monkeypatch, tmp_path):
    # On curve(3) x fixE, whose bounded 2-cells give ST^{.,0} a degree 2, N maps
    # H^{-1}(ST^{.,2}) = H^{1,0} onto H^1(ST^{.,0}) = H^{0,1}, below the top
    # degree.  The broken N adds e_j, with d e_j != 0, to every nonzero image
    # of ST^{-1,2}: N d != d N there, and N maps cocycles outside the
    # cocycles, whose images would still count as independent classes.
    arg = str(tmp_path / "input.json")
    with open(arg, "w", encoding="utf-8") as fh:
        json.dump(complex_to_json(staircase_product(plane_curve(3), fix_e())), fh)
    n_power_vec = steenbrink._n_power_vec

    def broken(st, a, b, vec, k):
        out = n_power_vec(st, a, b, vec, k)
        if (a, b, k) == (-1, 2, 1) and any(vec):
            out[min(j for _, j in st.row_complex(0).differential(1).entries)] += 1
        return out

    monkeypatch.setattr(steenbrink, "_n_power_vec", broken)
    code, out = run(capsys, "check-all", arg, "--seed", "3")
    assert code == 1
    detail = json.loads(out)["detail"]
    assert "N^1 maps a cocycle of H^-1" in detail and "does not commute with d" in detail


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
    # numbers that a truncating int() or a bool-accepting parse would take
    "fractional_ray": {**LINE, "rays": [[1.5], [-1]]},
    "fractional_rank": {**LINE, "lattice_rank": 1.9},
    "bool_ray": {**LINE, "rays": [[True], [-1]]},
    "bool_vertex": {**LINE, "vertices": [[True]]},
    "bad_label": {"p": 1, "vertices": {"0": {"a,b": "1"}}},
    "bad_coefficient": {"p": 1, "vertices": {"0": {"": "1/0"}}},
    # fixD: the p = 1 class x_4 at vertex 0, and face 3, an unbounded edge
    "p_mismatch": {"p": 1, "vertices": {"0": {"4": "1"}}},
    # the same class with p or a coefficient that is a bool or a float
    "bool_coefficient": {"p": 1, "vertices": {"0": {"4": True}}},
    "float_coefficient": {"p": 1, "vertices": {"0": {"4": 1.0}}},
    "float_p": {"p": 1.7, "vertices": {"0": {"4": "1"}}},
    "bool_p": {"p": True, "vertices": {"0": {"4": "1"}}},
    "repeated_ray": {"p": 1, "vertices": {"0": {"4,4": "1"}}},  # x_4^2 is no cone monomial
    "not_a_vertex": {"p": 0, "vertices": {"0": {"": "1"}, "3": {"": "5"}}},
}


@pytest.mark.parametrize("argv", [
    ["chow", "fixA", "--degrees", "foo"],
    ["cohomology", "{zero_ray}"],
    ["cohomology", "{zero_denominator}"],
    ["cohomology", "{fractional_ray}"],
    ["cohomology", "{fractional_rank}"],
    ["cohomology", "{bool_ray}"],
    ["cohomology", "{bool_vertex}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{bad_label}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{bad_coefficient}"],
    ["hodge-cycle", "fixD", "--p", "0", "--class", "{p_mismatch}"],
    ["hodge-cycle", "fixD", "--p", "0", "--class", "{not_a_vertex}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{bool_coefficient}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{float_coefficient}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{float_p}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{bool_p}"],
    ["hodge-cycle", "fixD", "--p", "1", "--class", "{repeated_ray}"],
], ids=["degrees", "zero-ray", "zero-denominator", "fractional-ray", "fractional-rank",
        "bool-ray", "bool-vertex", "class-label", "class-coefficient",
        "class-p-mismatch", "class-not-a-vertex", "class-bool-coefficient",
        "class-float-coefficient", "class-float-p", "class-bool-p", "class-repeated-ray"])
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
