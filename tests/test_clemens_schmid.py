import json
import random
from fractions import Fraction

import pytest

from conftest import grid_plane
from triples import d0_boundary_compositions_zero, d0_lift_independent, random_lefschetz_triple

from trophodge import ChaseFailureError, HLFailureError
from trophodge.cli import main
from trophodge.clemens_schmid import (
    LefschetzTriple,
    _chase_d0,
    _kernel_and_cokernel,
    check_hl,
    clemens_schmid_sequences,
    mapping_cone_check,
    steenbrink_triple,
    tropical_clemens_schmid,
)
from trophodge.cohomology import GradedComplex, induced_map
from trophodge.linalg import RationalMatrix, column_echelon
from trophodge.polyhedral import compactify, complex_to_json
from trophodge.steenbrink import SteenbrinkPage, build_steenbrink


def test_zero_triple():
    t = LefschetzTriple(GradedComplex({}, {}), GradedComplex({}, {}), {})
    rep = clemens_schmid_sequences(t)
    assert rep.all_exact
    assert rep.junctions == []


def test_identity_collapse():
    t = LefschetzTriple(GradedComplex({0: 1}, {}), GradedComplex({2: 1}, {}),
                        {0: RationalMatrix.from_rows([[1]])})
    rep = clemens_schmid_sequences(t)
    assert rep.all_exact
    nodes = {j.node: j for j in rep.junctions}
    assert nodes["H^2(D)"].incoming_rank == 1
    assert nodes["H^2(D)"].kernel_dim == 1
    assert nodes["H^0(K)"].kernel_dim == 0  # K vanishes



def test_induced_map_of_degree_two_chain_map():
    # L: C^0 -> D^2 induces H^0(C) -> H^2(D), over the bases of those degrees.
    t = LefschetzTriple(GradedComplex({0: 1}, {}), GradedComplex({2: 1}, {}),
                        {0: RationalMatrix.from_rows([[3]])})
    m = induced_map(t.C, t.D, t.L[0].mul_vec, 0, shift=2)
    assert (m.rows, m.cols, m[0, 0]) == (1, 1, 3)

def test_hl_precondition_fails_loudly():
    # L = 0 from a nonzero degree -1 cannot be injective.
    t = LefschetzTriple(GradedComplex({-1: 1}, {}), GradedComplex({1: 1}, {}),
                        {-1: RationalMatrix(1, 1)})
    with pytest.raises(HLFailureError):
        clemens_schmid_sequences(t)


def test_random_triples_exact():
    rng = random.Random(4242)
    for _ in range(60):
        t = random_lefschetz_triple(rng)
        check_hl(t)
        rep = clemens_schmid_sequences(t)
        assert rep.all_exact, [j for j in rep.junctions if not (j.exact and j.composition_zero)]


def test_kernel_vanishes_negative_cokernel_positive():
    rng = random.Random(17)
    for _ in range(20):
        t = random_lefschetz_triple(rng)
        kc, rc = _kernel_and_cokernel(t)
        assert all(k >= 0 for k in kc.gc.terms)
        assert all(k <= 0 for k in rc.gc.terms)


def test_subquotient_coordinates_reject_a_vector_outside_the_space():
    # K = ker L in degree -1 is spanned by e_0 + e_1 (L = [1, -1] onto D^1).
    t = LefschetzTriple(GradedComplex({-1: 2}, {}), GradedComplex({1: 1}, {}),
                        {-1: RationalMatrix.from_rows([[1, -1]])})
    kc, rc = _kernel_and_cokernel(t)
    assert kc.gc.terms == {-1: 1} and kc.coordinates(-1, [3, 3]) == [3]
    assert kc.inclusion(-1).to_lists() == [[1], [1]]
    assert rc.gc.terms == {} and rc.coordinates(1, [5]) == []
    with pytest.raises(ChaseFailureError, match="degree -1"):
        kc.coordinates(-1, [1, 0])
    with pytest.raises(ChaseFailureError, match="degree 5"):
        kc.coordinates(5, [1])


def test_d0_lift_independence_and_compositions():
    rng = random.Random(777)
    for _ in range(30):
        t = random_lefschetz_triple(rng)
        assert d0_lift_independent(t)
        assert d0_boundary_compositions_zero(t)


def test_mapping_cone_fix_d(st_d):
    for p in (0, 2):
        assert mapping_cone_check(st_d, p)["all"]


def test_mapping_cone_fix_e(st_e):
    for p in (0, 2):
        assert mapping_cone_check(st_e, p)["all"]


def test_mapping_cone_zero_page(comp_d):
    st = SteenbrinkPage(comp_d, [])
    report = mapping_cone_check(st, 0)
    assert report["all"]
    assert report["degrees"] == {}


def _without_labels(gc: GradedComplex) -> GradedComplex:
    return GradedComplex(gc.terms, gc.diffs)


def _doubled(gc: GradedComplex) -> GradedComplex:
    diffs = {}
    for a, m in gc.diffs.items():
        diffs[a] = RationalMatrix(m.rows, m.cols)
        diffs[a].entries = {key: 2 * v for key, v in m.entries.items()}
    return GradedComplex(gc.terms, diffs, gc.labels)


def test_mapping_cone_fails_without_the_kernel_embedding(monkeypatch, st_d, st_e, st_f):
    # With no labels on K, the iota block of the total differential is 0:
    # the total complex splits off K and the projection onto R is no
    # quasi-isomorphism.
    reports = {}
    for name, st in (("D", st_d), ("E", st_e), ("F", st_f)):
        monkeypatch.setattr(st, "k_complex", lambda p, k=st.k_complex: _without_labels(k(p)))
        reports[name] = mapping_cone_check(st, 0)
    assert not any(report["all"] for report in reports.values())
    assert reports["D"]["degrees"] == {
        0: {"h_total": 2, "h_coker": 1, "iso": False},
        1: {"h_total": 1, "h_coker": 0, "iso": False}}


def test_mapping_cone_rejects_a_projection_that_is_no_chain_map(monkeypatch, st_e):
    monkeypatch.setattr(st_e, "r_complex", lambda p, r=st_e.r_complex: _doubled(r(p)))
    with pytest.raises(ChaseFailureError, match="not a chain map"):
        mapping_cone_check(st_e, 2)


def test_mapping_cone_builds_no_cohomology_basis(monkeypatch, st_f):
    def no_basis(gc, k):
        raise AssertionError(f"h_basis({k}) built")

    monkeypatch.setattr(GradedComplex, "h_basis", no_basis)
    for p in (0, 2, 4):
        assert mapping_cone_check(st_f, p)["all"]


def test_tropical_cs_fix_d_junction_values(st_d):
    result = tropical_clemens_schmid(st_d)
    assert result["all"]
    # Around k = 2: H_s^{1,1} = 1 -> H^{1,1} = 1 -N-> H^{0,2} = 0, exact;
    # these groups live in the triple (C, D) = (ST^{.,2}, ST^{.,0}).
    rep = result["per_p"][0]
    nodes = {j.node: j for j in rep.junctions}
    assert nodes["H^0(K)"].incoming_rank == 0
    assert nodes["H^0(K)"].kernel_dim == 0  # H_s^{1,1} injects into H^{1,1}
    t = steenbrink_triple(st_d, 0)
    assert t.C.h_basis(0).dim == 1  # H^{1,1}
    assert t.D.h_basis(2).dim == 0  # H^{0,2}


def test_tropical_cs_row_beyond_dimension_is_trivial(st_d):
    t = steenbrink_triple(st_d, st_d.dim + 1)
    assert not any(t.C.terms.values()) and not any(t.D.terms.values())


def test_tropical_cs_fix_e_fix_f(st_e, st_f):
    for st in (st_e, st_f):
        result = tropical_clemens_schmid(st)
        assert result["all"]
        assert set(result["per_p"]) == set(range(st.dim + 1))


def _chase_d0_dense(t, kc, rc, h_r0, h_k0, lift_shift=None):
    """The chase with every coordinate of every representative summed and
    every matrix looked up inside the loop, as before it was made sparse."""
    out = RationalMatrix(h_k0.dim, h_r0.dim)
    if h_r0.dim == 0:
        return out
    lift = column_echelon(t.l_matrix(-1))
    for j, rep in enumerate(h_r0.representatives):
        c = [Fraction(0)] * t.D.dim(0)
        for coeff, dvec in zip(rep, rc.quot[0].representatives):
            for i, v in enumerate(dvec):
                c[i] += coeff * v
        if lift_shift is not None:
            c = [a + b for a, b in zip(c, t.l_matrix(-2).mul_vec(lift_shift))]
        b_prime = lift.coordinates(t.D.differential(0).mul_vec(c), range(t.C.dim(-1)))
        b_second = t.C.differential(-1).mul_vec(b_prime)
        for i, v in enumerate(h_k0.coordinates(kc.coordinates(0, b_second))):
            out[i, j] = v
    return out


def test_chase_d0_equals_dense_chase():
    rng = random.Random(41)
    for _ in range(15):
        t = random_lefschetz_triple(rng)
        kc, rc = _kernel_and_cokernel(t)
        h_r0, h_k0 = rc.gc.h_basis(0), kc.gc.h_basis(0)
        shifts = [None]
        if t.C.dim(-2):
            shifts.append([Fraction(rng.randint(-2, 2)) for _ in range(t.C.dim(-2))])
        for shift in shifts:
            got = _chase_d0(t, kc, rc, lift_shift=shift)
            assert got == _chase_d0_dense(t, kc, rc, h_r0, h_k0, lift_shift=shift)


def _same_complex(got: GradedComplex, want: GradedComplex) -> None:
    terms = {k: n for k, n in got.terms.items() if n}
    assert terms == {k: n for k, n in want.terms.items() if n}
    for k in terms:
        assert got.differential(k) == want.differential(k), k


@pytest.mark.parametrize("name", ["fixa", "fixb", "fixc", "fixd", "fixe", "fixf", "grid1", "grid2"])
def test_kernel_and_cokernel_equal_the_s_parts_of_the_page(name, request):
    # K = ker N on row 2p+2 and R = coker N on row 2p, built as subquotients,
    # against the s = a and s = -a parts of those rows that the page cuts out.
    y = grid_plane(int(name[-1])) if name.startswith("grid") else request.getfixturevalue(name)
    st = build_steenbrink(compactify(y))
    for p in range(st.dim + 1):
        kc, rc = _kernel_and_cokernel(steenbrink_triple(st, p))
        _same_complex(kc.gc, st.k_complex(p + 1))
        _same_complex(rc.gc, st.r_complex(p))


def test_cs_check_ranks_each_matrix_once(tmp_path, capsys, monkeypatch):
    from trophodge import clemens_schmid

    seen = []  # keeps each matrix alive, so its id() stays unique
    original = clemens_schmid.rank

    def recording_rank(m):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(clemens_schmid, "rank", recording_rank)
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["cs-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["all_exact"]
    assert seen and len({id(m) for m in seen}) == len(seen)


def test_check_all_eliminates_each_matrix_once(tmp_path, capsys, monkeypatch):
    import sys

    from trophodge import linalg

    seen = []  # keeps each matrix alive, so its id() stays unique
    original = linalg.column_echelon

    def recording_column_echelon(m, keyed=True):
        seen.append(m)
        return original(m, keyed)

    # rank, kernel_basis and solve look column_echelon up in linalg; the
    # modules that import it by name hold their own reference.
    for name, module in list(sys.modules.items()):
        if name.startswith("trophodge") and getattr(module, "column_echelon", None) is original:
            monkeypatch.setattr(module, "column_echelon", recording_column_echelon)
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["check-all", str(path), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all"]
    twice = len(seen) - len({id(m) for m in seen})
    assert seen and twice == 0, f"{twice} of {len(seen)} eliminations repeat a matrix"
