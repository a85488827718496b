import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import grid_plane, plane_curve
from triples import (
    RowQuotientBasis,
    chase_d0,
    d0_boundary_compositions_zero,
    d0_lift_independent,
    h_rows,
    k_rows,
    kernel_and_cokernel,
    oracle_sequences,
    r_rows,
    random_lefschetz_triple,
    row_h_basis,
)

from trophodge import ChaseFailureError, HLFailureError, cached, cohomology
from trophodge import fixtures as fx
from trophodge.cli import main
from trophodge.clemens_schmid import (
    LefschetzTriple,
    _chase,
    check_hl,
    clemens_schmid_sequences,
    mapping_cone_check,
    steenbrink_triple,
    tropical_clemens_schmid,
)
from trophodge.cohomology import GradedComplex, QuotientBasis, induced_map
from trophodge.linalg import RationalMatrix, column_echelon
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import compactify, complex_to_json, product_complex
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
    # On the oracle's complexes and on the groups of the sequences, so that
    # d_k, which the sequences take as 0 for k != 0, maps into or out of 0.
    rng = random.Random(17)
    for i in range(20):
        t = random_lefschetz_triple(rng, crossing=i % 2)
        kc, rc = kernel_and_cokernel(t)
        assert all(k >= 0 for k in kc.gc.terms)
        assert all(k <= 0 for k in rc.gc.terms)
        degrees = range(min(t.degrees()) - 2, max(t.degrees()) + 5)
        assert not any(t.group("K", k).dim for k in degrees if k < 0)
        assert not any(t.group("R", k).dim for k in degrees if k > 0)


def test_subquotient_coordinates_reject_a_vector_outside_the_space():
    # The oracle's subquotients.  K = ker L in degree -1 is spanned by
    # e_0 + e_1 (L = [1, -1] onto D^1).
    t = LefschetzTriple(GradedComplex({-1: 2}, {}), GradedComplex({1: 1}, {}),
                        {-1: RationalMatrix.from_rows([[1, -1]])})
    kc, rc = kernel_and_cokernel(t)
    assert kc.gc.terms == {-1: 1} and kc.coordinates(-1, [3, 3]) == [3]
    inclusion = kc.inclusion(-1)
    assert [inclusion.row(i) for i in range(inclusion.rows)] == [[1], [1]]
    assert rc.gc.terms == {} and rc.coordinates(1, [5]) == []
    with pytest.raises(ChaseFailureError, match="degree -1"):
        kc.coordinates(-1, [1, 0])
    with pytest.raises(ChaseFailureError, match="degree 5"):
        kc.coordinates(5, [1])


PAGE_INPUTS = {**{f"fix{c}": getattr(fx, f"fix_{c}") for c in "abcdef"},
               **{f"grid{n}": (lambda n=n: grid_plane(n)) for n in (1, 2, 3)},
               "u35": lambda: bergman_fan(uniform_matroid(5, 3)),
               "b4": lambda: bergman_fan(boolean_matroid(4)),
               "prod": lambda: product_complex(product_complex(fx.fix_e(), fx.fix_d()), fx.fix_d()),
               **{f"curve{d}": (lambda d=d: plane_curve(d)) for d in (3, 4, 5)}}


def _page(name: str, request) -> SteenbrinkPage:
    if name == "genus1":
        return build_steenbrink(request.getfixturevalue("comp_genus1"))
    return build_steenbrink(compactify(PAGE_INPUTS[name]()))


def _same_report(t: LefschetzTriple) -> None:
    # The oracle gets a triple of its own, so that it reads no echelon or rank
    # that the sequences cached.
    want = oracle_sequences(LefschetzTriple(t.C, t.D, t.L)).junctions
    assert clemens_schmid_sequences(t).junctions == want


@pytest.mark.parametrize("name", [*PAGE_INPUTS, "genus1"])
def test_sequences_equal_the_oracle_on_page_inputs(name, request):
    st = _page(name, request)
    for p in range(st.dim + 2):
        _same_report(steenbrink_triple(st, p))


def test_sequences_equal_the_oracle_on_random_triples():
    rng = random.Random(20260808)
    nonzero = 0
    for i in range(600):
        t = random_lefschetz_triple(rng, crossing=int(i % 3 == 0))
        _same_report(t)
        nonzero += _d0_rank(t) > 0
    assert nonzero >= 200


def test_sequences_need_no_coordinates(monkeypatch, st_e, st_f, st_grid1, comp_genus1):
    # The reports come out the same when no class coordinates and no matrix
    # of a map on cohomology can be made.
    rng = random.Random(613)
    triples = [random_lefschetz_triple(rng, crossing=i % 2) for i in range(40)]
    pages = [st_e, st_f, st_grid1, build_steenbrink(comp_genus1)]
    triples += [steenbrink_triple(st, p) for st in pages for p in range(st.dim + 2)]
    want = [oracle_sequences(t).junctions for t in triples]

    def refuse(*args, **kwargs):
        raise AssertionError("coordinates taken")

    monkeypatch.setattr(QuotientBasis, "coordinates", refuse)
    monkeypatch.setattr(cohomology, "induced_map", refuse)
    got = [clemens_schmid_sequences(LefschetzTriple(t.C, t.D, t.L)).junctions for t in triples]
    assert got == want and any(_d0_rank(t) for t in triples)


def _d0_rank(t: LefschetzTriple) -> int:
    return t.map_rank("conn", 0)


def test_d0_lift_independence_and_compositions():
    rng = random.Random(777)
    nonzero = 0
    for i in range(30):
        t = random_lefschetz_triple(rng, crossing=i % 2)
        assert d0_lift_independent(t)
        assert d0_boundary_compositions_zero(t)
        nonzero += _d0_rank(t) > 0
    assert nonzero >= 15


def _triple(c: dict, d: dict, lmaps: dict, c_diffs=None, d_diffs=None) -> LefschetzTriple:
    """A triple from term dimensions and matrices given by rows."""
    def mats(rows):
        return {k: RationalMatrix.from_rows(r) for k, r in (rows or {}).items()}
    return LefschetzTriple(GradedComplex(c, mats(c_diffs)), GradedComplex(d, mats(d_diffs)),
                           mats(lmaps))


def test_chase_certifies_each_step():
    # L^{-1} = [1, 1] has a kernel: the preimage is not unique.
    t = _triple({-1: 2}, {0: 1, 1: 1}, {-1: [[1, 1]]}, d_diffs={0: [[1]]})
    with pytest.raises(ChaseFailureError, match="not unique"):
        _chase(t, [1])
    # d_D e = e' in D^1, and C^{-1} = 0: nothing maps onto e'.
    t = _triple({}, {0: 1, 1: 1}, {}, d_diffs={0: [[1]]})
    with pytest.raises(ChaseFailureError, match="no L-preimage"):
        _chase(t, [1])
    # d_C and L^0 are the identity, so L^0 d_C does not commute with
    # d_D L^{-1} = 0, and the chase output is not in ker L.
    t = _triple({-1: 1, 0: 1}, {0: 1, 1: 1, 2: 1}, {-1: [[1]], 0: [[1]]},
                c_diffs={-1: [[1]]}, d_diffs={0: [[1]]})
    with pytest.raises(ChaseFailureError, match="not in ker L"):
        _chase(t, [1])
    # With L^0 = 0 the same chase goes through.
    t = _triple({-1: 1, 0: 1}, {0: 1, 1: 1}, {-1: [[1]]}, c_diffs={-1: [[1]]}, d_diffs={0: [[1]]})
    assert _chase(t, [1]) == [1] and clemens_schmid_sequences(t).all_exact


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


def test_mapping_cone_derives_h_total_where_the_kernel_is_acyclic(monkeypatch, st_d, st_e, st_f,
                                                                   st_grid1, comp_genus1):
    # Where the projection's kernel is acyclic, h_total is read off R; it
    # must equal dim H^a of the total complex, whose h_dim is not taken.
    totals, queried = [], []
    check, h_dim = GradedComplex.check, GradedComplex.h_dim

    def recording_check(gc):
        totals.append(gc)  # only the total complex is checked for d^2 = 0
        return check(gc)

    def recording_h_dim(gc, k):
        queried.append(gc)
        return h_dim(gc, k)

    monkeypatch.setattr(GradedComplex, "check", recording_check)
    monkeypatch.setattr(GradedComplex, "h_dim", recording_h_dim)
    for st in (st_d, st_e, st_f, st_grid1, build_steenbrink(comp_genus1)):
        for p in range(0, 2 * st.dim + 1, 2):
            report = mapping_cone_check(st, p)
            total = totals[-1]
            assert report["all"] and not any(gc is total for gc in queried)
            for a in range(-st.dim - 3, st.dim + 4):
                assert report["degrees"].get(a, {"h_total": 0})["h_total"] == total.h_dim(a)


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
    # The chase of the sequences, on the oracle's representatives of H^0(R)
    # moved by L^{-2} of a shift, read in the oracle's coordinates of H^0(K).
    rng = random.Random(41)
    nonzero = 0
    for i in range(15):
        t = random_lefschetz_triple(rng, crossing=i % 2)
        kc, rc = kernel_and_cokernel(t)
        h_r0, h_k0 = row_h_basis(rc.gc, 0), row_h_basis(kc.gc, 0)
        shifts = [None]
        if t.C.dim(-2):
            shifts.append([Fraction(rng.randint(-2, 2)) for _ in range(t.C.dim(-2))])
        for shift in shifts:
            moved = t.l_matrix(-2).mul_vec(shift) if shift else [0] * t.D.dim(0)
            got = RationalMatrix.from_columns(h_k0.dim, [
                h_k0.coordinates(kc.coordinates(0, _chase(t, [x + y for x, y in zip(
                    rc.inclusion(0).mul_vec(rep), moved)])))
                for rep in h_r0.representatives])
            want = _chase_d0_dense(t, kc, rc, h_r0, h_k0, lift_shift=shift)
            assert got == want == chase_d0(t, kc, rc, lift_shift=shift)
            nonzero += not want.is_zero()
    assert nonzero >= 7


def _same_complex(got: GradedComplex, want: GradedComplex) -> None:
    terms = {k: n for k, n in got.terms.items() if n}
    assert terms == {k: n for k, n in want.terms.items() if n}
    for k in terms:
        assert got.differential(k) == want.differential(k), k


@pytest.mark.parametrize("name", ["fixa", "fixb", "fixc", "fixd", "fixe", "fixf", "grid1", "grid2"])
def test_kernel_and_cokernel_equal_the_s_parts_of_the_page(name, request):
    # K = ker N on row 2p+2 and R = coker N on row 2p, built as the oracle's
    # subquotients, against the s = a and s = -a parts of those rows that the
    # page cuts out; the groups of the sequences have their dimensions.
    y = grid_plane(int(name[-1])) if name.startswith("grid") else request.getfixturevalue(name)
    st = build_steenbrink(compactify(y))
    for p in range(st.dim + 1):
        t = steenbrink_triple(st, p)
        kc, rc = kernel_and_cokernel(t)
        _same_complex(kc.gc, st.k_complex(p + 1))
        _same_complex(rc.gc, st.r_complex(p))
        for a in range(-st.dim - 2, st.dim + 3):
            assert t.group("K", a).dim == st.k_complex(p + 1).h_dim(a)
            assert t.group("R", a).dim == st.r_complex(p).h_dim(a)


def test_cs_check_computes_each_group_and_map_rank_once(tmp_path, capsys, monkeypatch):
    # The junctions read each group and each map's rank from the triple's
    # cache: one computation per (triple, name or kind, degree).
    calls, triples = Counter(), []
    for method in ("group", "map_rank"):
        raw = getattr(LefschetzTriple, method).__wrapped__

        def counting(t, *args, raw=raw, method=method):
            triples.append(t)  # keeps each triple alive, so its id() stays unique
            calls[id(t), method, args] += 1
            return raw(t, *args)

        monkeypatch.setattr(LefschetzTriple, method, cached(counting))
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["cs-check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["all_exact"]
    assert {"group", "map_rank"} == {method for _, method, _ in calls}
    assert max(calls.values()) == 1


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


def _dense(row, n: int) -> list:
    return [row.get(j, 0) for j in range(n)] if isinstance(row, dict) else list(row)


def _same_group(got: QuotientBasis, zrows: list, brows: list, rng: random.Random) -> None:
    """got against the oracle's RowQuotientBasis of the same rows: the same
    representatives, and the same coordinates of seeded cocycles plus
    random coboundaries."""
    want = RowQuotientBasis(got.ambient_dim, zrows, brows)
    assert got.representatives == want.representatives
    n = got.ambient_dim
    for _ in range(3):
        vec = [0] * n
        for row in zrows + brows:
            c = rng.randint(-2, 2)
            for j, x in enumerate(_dense(row, n)):
                vec[j] += c * x
        assert got.coordinates(vec) == want.coordinates(vec)


@pytest.mark.parametrize("name", ["fixa", "fixb", "fixc", "fixd", "fixe", "fixf",
                                  "grid1", "grid2", "comp_genus1"])
def test_groups_equal_the_row_quotient_oracle(name, request):
    # Every cohomology group that the package reads, H^k of each cochain and
    # row complex and of K and R of each triple of the page, against the
    # quotient class that takes its boundaries as rows and eliminates them.
    if name.startswith("grid"):
        x = compactify(grid_plane(int(name[-1])))
    else:
        x = request.getfixturevalue(name)
        x = x if name.startswith("comp") else compactify(x)
    st = build_steenbrink(x)
    rng = random.Random(name)
    complexes = [cohomology.cochain_complex(x, p) for p in range(x.dim + 1)]
    complexes += [st.row_complex(b) for b in range(0, 2 * st.dim + 1, 2)]
    for gc in complexes:
        for k in range(min(gc.terms, default=0) - 1, max(gc.terms, default=0) + 2):
            _same_group(gc.h_basis(k), *h_rows(gc, k), rng)
    groups = 0
    for p in range(st.dim + 1):
        t = steenbrink_triple(st, p)
        check_hl(t)  # the precondition of the zero K^k (k < 0) and R^k (k > 0)
        for k in range(min(t.degrees(), default=0) - 2, max(t.degrees(), default=0) + 5):
            _same_group(t.group("K", k), *k_rows(t, k), rng)
            _same_group(t.group("R", k), *r_rows(t, k), rng)
            groups += t.group("K", k).dim + t.group("R", k).dim
    assert groups


def test_groups_read_the_cached_echelon_of_the_differential(tmp_path, capsys, monkeypatch):
    # check-all on grid_plane(1): every H^k it builds holds the cached
    # echelon of d_{k-1} as its boundaries, and the C and D groups of every
    # triple are the row complexes' h_basis(k) themselves.
    bases, groups = [], []
    h_basis, group = GradedComplex.h_basis, LefschetzTriple.group

    def recording_h_basis(gc, k):
        bases.append((gc, k, h_basis(gc, k)))
        return bases[-1][2]

    def recording_group(t, name, k):
        groups.append((t, name, k, group(t, name, k)))
        return groups[-1][3]

    monkeypatch.setattr(GradedComplex, "h_basis", recording_h_basis)
    monkeypatch.setattr(LefschetzTriple, "group", recording_group)
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["check-all", str(path), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all"]
    assert bases and all(qb.boundaries is gc.echelon(k - 1) for gc, k, qb in bases)
    own = [(t, name, k, g) for t, name, k, g in groups if name in ("C", "D")]
    assert own and all(g is getattr(t, name).h_basis(k) for t, name, k, g in own)
    x = compactify(grid_plane(1))
    st = build_steenbrink(x)
    for gc in [cohomology.cochain_complex(x, p) for p in range(x.dim + 1)] + \
            [st.row_complex(b) for b in range(0, 2 * st.dim + 1, 2)]:
        assert all(gc.h_basis(k).boundaries is gc.echelon(k - 1) for k in gc.terms)
