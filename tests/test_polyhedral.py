import itertools
import json
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from conftest import grid_plane
from trophodge import InputFormatError, NotAFanError, NotCodimOneError, NotUnimodularError, fixtures
from trophodge.cli import main
from trophodge.lattice import (
    apply_rows,
    det_int,
    hnf_basis,
    primitive,
    quotient_presentation,
    saturate,
    spans_unimodularly,
)
from trophodge.linalg import Echelon, RationalMatrix, column_echelon, kernel_vectors, normal, solve
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import (
    FaceComplex,
    _apart,
    _box,
    _check_pair_intersection,
    _compose,
    _lifted_rows,
    _make_face,
    build_complex,
    check_compactifiable,
    compactify,
    complex_from_json,
    complex_to_json,
    fm_feasible,
    make_fan,
    product_complex,
    recession_fan,
)

F = Fraction


def faces_by_dim(cx):
    return {k: len(cx.faces_of_dim(k)) for k in range(cx.dim + 1)}


def test_recession_fan_of_fixe(fixe):
    rec = recession_fan(fixe)
    rays = sorted(f.rays[0] for f in rec.faces if f.dim == 1)
    assert rays == [(-1,), (1,)]


def test_recession_fan_of_bounded_complex():
    seg = build_complex(1, [[0], [1]], [], [([0], []), ([1], []), ([0, 1], [])])
    rec = recession_fan(seg)
    assert faces_by_dim(rec) == {0: 1}


def test_recession_fan_of_product(fixf):
    rec = recession_fan(fixf)
    assert faces_by_dim(rec) == {0: 1, 1: 4, 2: 4}


def _improper_overlap():
    """Two disjoint unbounded 2-faces in parallel planes whose recession
    cones overlap without a common face."""
    return build_complex(
        3,
        [[0, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [1, 2, 0], [1, 1, 0], [-1, 1, 0]],
        [([0], []), ([1], []),
         ([0], [0]), ([0], [1]), ([0], [0, 1]),
         ([1], [2]), ([1], [3]), ([1], [2, 3])])


def test_recession_fan_rejects_improper_overlap():
    with pytest.raises(NotAFanError):
        recession_fan(_improper_overlap())


def test_star_fan_at_origin_is_fan_itself(fixa):
    origin = next(f.index for f in fixa.faces if f.dim == 0)
    sf = fixa.star_fan(origin)
    assert sorted(sf.ray_vectors) == [(-1, -1), (0, 1), (1, 0)]
    assert len([c for c in sf.cones if len(c[1]) == 1]) == 3


def test_star_fan_at_interior_vertex(fixe):
    v1 = next(f.index for f in fixe.faces if f.dim == 0 and f.vertices[0][0] == 1)
    sf = fixe.star_fan(v1)
    assert sorted(sf.ray_vectors) == [(-1,), (1,)]


def test_star_fan_at_infinity_point(comp_b):
    # The point at infinity of the compactified line has no coface of its
    # own sedentarity, so its star fan is the trivial fan in rank zero.
    vp = next(f.index for f in comp_b.faces if f.dim == 0 and f.sedentarity == ((1,),))
    sf = comp_b.star_fan(vp)
    assert sf.rank == 0
    assert sf.ray_vectors == ()


def test_compactify_fixd(comp_d):
    assert len(comp_d.faces) == 5
    seds = sorted(f.sedentarity for f in comp_d.faces)
    assert seds == [(), (), (), ((-1,),), ((1,),)]
    # Euler characteristic of a closed segment
    assert len(comp_d.faces_of_dim(0)) - len(comp_d.faces_of_dim(1)) == 1


def test_compactify_fixa(comp_a):
    finite_v = [f for f in comp_a.faces if f.dim == 0 and not f.sedentarity]
    inf_v = [f for f in comp_a.faces if f.dim == 0 and f.sedentarity]
    edges = comp_a.faces_of_dim(1)
    assert (len(finite_v), len(inf_v), len(edges)) == (1, 3, 3)


def test_compactify_bounded_complex_is_itself():
    seg = build_complex(1, [[0], [1]], [], [([0], []), ([1], []), ([0, 1], [])])
    comp = compactify(seg)
    assert faces_by_dim(comp) == faces_by_dim(seg)
    assert all(f.sedentarity == () for f in comp.faces)


def test_sedentarity_zero_subcomplex_matches_input(fixe, comp_e):
    open_faces = [f for f in comp_e.faces if f.sedentarity == ()]
    assert len(open_faces) == len(fixe.faces)
    by_dim_open = {}
    for f in open_faces:
        by_dim_open[f.dim] = by_dim_open.get(f.dim, 0) + 1
    assert by_dim_open == faces_by_dim(fixe)


def test_product_poset_counts(fixd, fixf, comp_d, comp_f):
    # Convolution square of the line complex counts.
    assert faces_by_dim(fixf) == {0: 1, 1: 4, 2: 4}
    assert faces_by_dim(comp_f) == {0: 9, 1: 12, 2: 4}
    d_counts = [len(comp_d.faces_of_dim(k)) for k in (0, 1)]
    conv = {
        0: d_counts[0] ** 2,
        1: 2 * d_counts[0] * d_counts[1],
        2: d_counts[1] ** 2,
    }
    assert faces_by_dim(comp_f) == conv


def test_sign_of_segment_endpoints():
    seg = build_complex(1, [[0], [1]], [], [([0], []), ([1], []), ([0, 1], [])])
    v0 = next(f.index for f in seg.faces if f.dim == 0 and f.vertices[0][0] == 0)
    v1 = next(f.index for f in seg.faces if f.dim == 0 and f.vertices[0][0] == 1)
    e = next(f.index for f in seg.faces if f.dim == 1)
    s0, s1 = seg.sign(v0, e), seg.sign(v1, e)
    assert {s0, s1} == {1, -1}
    assert s0 * s0 == 1


def test_sign_squares_to_one(comp_f):
    pairs = [(a, b) for a in range(len(comp_f.faces)) for b in comp_f.covers_of(a)
             if comp_f.faces[a].sedentarity == comp_f.faces[b].sedentarity]
    assert pairs
    for a, b in pairs:
        assert comp_f.sign(a, b) in (1, -1)


def test_boundary_of_boundary_signs_vanish(comp_f):
    # Cellular d^2 = 0 sign identity through every (vertex, 2-face) interval.
    for q in comp_f.faces_of_dim(2):
        for v in comp_f.faces_of_dim(0):
            if (v.index, q.index) not in comp_f.order:
                continue
            total = 0
            for e in comp_f.covers_of(v.index):
                if (e, q.index) in comp_f.order:
                    total += comp_f.incidence_sign(v.index, e) * comp_f.incidence_sign(e, q.index)
            assert total == 0


def test_primitive_normal_examples(fixa, fixe):
    origin = next(f.index for f in fixa.faces if f.dim == 0)
    ray10 = next(f.index for f in fixa.faces if f.dim == 1 and f.rays[0] == (1, 0))
    assert fixa.primitive_normal(origin, ray10) == (1, 0)
    v0 = next(f.index for f in fixe.faces if f.dim == 0 and f.vertices[0][0] == 0)
    e01 = next(f.index for f in fixe.faces if f.dim == 1 and not f.rays)
    assert fixe.primitive_normal(v0, e01) == (1,)


def test_primitive_normal_quotient_case():
    # Unimodular triangle over a segment: the normal is the image of the
    # third vertex direction in the rank-one quotient.
    tri = build_complex(2, [[0, 0], [1, 0], [0, 1]], [],
                        [([0], []), ([1], []), ([2], []),
                         ([0, 1], []), ([0, 2], []), ([1, 2], []),
                         ([0, 1, 2], [])])
    seg = next(f.index for f in tri.faces
               if f.dim == 1 and all(v[1] == 0 for v in f.vertices))
    top = next(f.index for f in tri.faces if f.dim == 2)
    normal = tri.primitive_normal(seg, top)
    assert normal in ((1,), (-1,))


def test_primitive_normal_requires_codim_one(fixa):
    origin = next(f.index for f in fixa.faces if f.dim == 0)
    with pytest.raises(NotCodimOneError):
        fixa.primitive_normal(origin, origin)


def test_closure_validation_rejects_missing_face():
    with pytest.raises(InputFormatError):
        build_complex(1, [[0], [1]], [], [([0, 1], []), ([0], [])])


# (lattice rank, vertices, rays, faces); each is closed under faces and has
# one face whose generators are dependent.
NOT_SIMPLICIAL = {
    "collinear-vertices": (2, [[0, 0], [1, 1], [2, 2]], [],
                           [([0], []), ([1], []), ([2], []), ([0, 1], []), ([0, 2], []),
                            ([1, 2], []), ([0, 1, 2], [])]),
    "repeated-vertex": (2, [[0, 0], [0, 0]], [], [([0], []), ([1], []), ([0, 1], [])]),
    "parallel-rays": (2, [[0, 0]], [[1, 0], [2, 0]],
                      [([0], []), ([0], [0]), ([0], [1]), ([0], [0, 1])]),
}


@pytest.mark.parametrize("name", sorted(NOT_SIMPLICIAL))
def test_build_rejects_non_simplicial_face(name, tmp_path, capsys):
    rank, vertices, rays, faces = NOT_SIMPLICIAL[name]
    with pytest.raises(InputFormatError, match="not simplicial"):
        build_complex(rank, vertices, rays, faces)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "lattice_rank": rank, "vertices": [[str(x) for x in v] for v in vertices], "rays": rays,
        "faces": [{"vertices": vs, "rays": rs} for vs, rs in faces]}))
    assert main(["cohomology", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "malformed-input" and "not simplicial" in out["detail"]


def test_intersection_validation_rejects_overlap():
    # Two segments crossing in their interiors.
    with pytest.raises(InputFormatError):
        build_complex(2, [[0, 0], [2, 2], [0, 2], [2, 0]], [],
                      [([0], []), ([1], []), ([2], []), ([3], []),
                       ([0, 1], []), ([2, 3], [])])


def test_json_round_trip(fixe):
    data = complex_to_json(fixe)
    back = complex_from_json(data)
    assert faces_by_dim(back) == faces_by_dim(fixe)
    assert complex_to_json(back) == data


def test_fan_json_uses_implicit_origin(fixa):
    data = complex_to_json(fixa)
    assert data["vertices"] == [["0", "0"]]
    back = complex_from_json(data)
    assert faces_by_dim(back) == faces_by_dim(fixa)


# ---------------------------------------------------------------------------
# The face order against its all-pairs definitions

def open_order_oracle(cx):
    """(a, b) for every face a whose vertices and rays are among b's."""
    return {(a.index, b.index) for a in cx.faces for b in cx.faces
            if a.index != b.index and set(a.vertices) <= set(b.vertices)
            and set(a.rays) <= set(b.rays)}


def compact_order_oracle(cx):
    """(a, b) when some pair (ga, sa) of a and (gb, sb) of b has ga a face of
    gb (or equal) and sb contained in sa."""
    y = cx.open_complex
    return {(a.index, b.index) for a in cx.faces for b in cx.faces
            if a.index != b.index and any(
                set(sb) <= set(sa) and (ga == gb or (ga, gb) in y.order)
                for ga, sa in a.pairs for gb, sb in b.pairs)}


@pytest.mark.parametrize("name", ["fixa", "fixb", "fixc", "fixd", "fixe", "fixf", "u34"])
def test_order_matches_all_pairs_oracle(name, request):
    y = request.getfixturevalue(name)
    assert y.order == open_order_oracle(y)
    x = compactify(y)
    assert x.order == compact_order_oracle(x)


def test_order_of_unclosed_unvalidated_input_is_full():
    # Without validation the missing edges are not an error, and the order
    # still holds every containment among the given faces.
    tri = build_complex(2, [[0, 0], [1, 0], [0, 1]], [],
                        [([0], []), ([2], []), ([0, 1, 2], [])], validate=False)
    assert tri.order == open_order_oracle(tri)
    assert len(tri.order) == 2


def test_intersection_validation_rejects_overlap_of_non_maximal_faces():
    # Two triangles, each closed under faces, where the vertex (1, 1) of one
    # lies inside an edge of the other.
    specs = [([0], []), ([1], []), ([2], []), ([0, 1], []), ([0, 2], []), ([1, 2], []),
             ([0, 1, 2], [])]
    specs += [([v + 3 for v in vs], rs) for vs, rs in specs]
    with pytest.raises(InputFormatError):
        build_complex(2, [[0, 0], [2, 0], [0, 2], [1, 1], [3, 1], [1, 3]], [], specs)


def test_intersections_checked_on_maximal_cells_only(monkeypatch):
    # The Bergman fan of B4 has 24 maximal cones among 75 faces.
    import trophodge.polyhedral as polyhedral

    data = complex_to_json(bergman_fan(boolean_matroid(4)))
    calls = []
    check = polyhedral._check_pair_intersection
    monkeypatch.setattr(polyhedral, "_check_pair_intersection",
                        lambda *args, **kw: calls.append(1) or check(*args, **kw))
    fan = complex_from_json(data)
    assert len(fan.faces) == 75
    assert len(calls) == 24 * 23 // 2


def _count_pair_checks(monkeypatch):
    import trophodge.polyhedral as polyhedral

    calls = []
    check = polyhedral._check_pair_intersection
    monkeypatch.setattr(polyhedral, "_check_pair_intersection",
                        lambda *args, **kw: calls.append(1) or check(*args, **kw))
    return calls


def test_compactify_does_not_check_a_validated_fan_again(monkeypatch):
    # The recession fan of a validated fan is the fan itself.
    data = complex_to_json(bergman_fan(boolean_matroid(4)))
    calls = _count_pair_checks(monkeypatch)
    fan = complex_from_json(data)
    assert fan.validated and len(calls) == 276
    compactify(fan)
    assert len(calls) == 276


def test_compactify_checks_the_cones_of_an_unvalidated_fan(monkeypatch):
    fan = bergman_fan(boolean_matroid(4))
    calls = _count_pair_checks(monkeypatch)
    assert not fan.validated
    compactify(fan)
    assert len(calls) == 276


def _one_apex_overlap():
    """Two unimodular cones sharing the ray (1, 1): (2, 1) = (1, 0) + (1, 1)
    lies inside the first, so the second overlaps it beyond their common ray."""
    return make_fan(2, [[(1, 0), (1, 1)], [(2, 1), (1, 1)]], validate=False)


def test_compactify_rejects_unvalidated_one_apex_overlap():
    fan = _one_apex_overlap()
    assert len({v for f in fan.faces for v in f.vertices}) == 1
    with pytest.raises(NotAFanError):
        compactify(fan)


def _quadrant_without_boundary():
    """A quadrant given without its boundary rays, accepted only unvalidated."""
    return build_complex(2, [[0, 0]], [[1, 0], [0, 1]], [([0], []), ([0], [0, 1])],
                         validate=False)


def test_recession_fan_rejects_cones_not_closed_under_faces():
    with pytest.raises(NotAFanError):
        recession_fan(_quadrant_without_boundary())


# Inputs without a canonical compactification, and the error each raises.  The
# cone on (1, 0) and (1, 2) has index 2: as a validated fan its face flags say
# so, and with a second vertex its recession fan is built and says so.
NOT_COMPACTIFIABLE = {
    "improper overlap": (_improper_overlap, NotAFanError),
    "not closed under faces": (_quadrant_without_boundary, NotAFanError),
    "unvalidated one-apex overlap": (_one_apex_overlap, NotAFanError),
    "non-unimodular validated fan": (lambda: make_fan(2, [[(1, 0), (1, 2)]]), NotUnimodularError),
    "non-unimodular recession cone": (lambda: build_complex(
        2, [[0, 0], [-1, 0]], [[1, 0], [1, 2]],
        [([0], []), ([1], []), ([0, 1], []), ([0], [0]), ([0], [1]), ([0], [0, 1])]),
        NotUnimodularError),
}


@pytest.mark.parametrize("name", sorted(NOT_COMPACTIFIABLE))
def test_check_compactifiable_raises_as_compactify(name):
    build, error = NOT_COMPACTIFIABLE[name]
    with pytest.raises(error) as checked:
        check_compactifiable(build())
    with pytest.raises(error) as compactified:
        compactify(build())
    assert type(checked.value) is type(compactified.value)
    assert str(checked.value) == str(compactified.value)


def test_intersections_take_one_fourier_motzkin_run_per_pair(monkeypatch):
    # The 24 maximal cones of the Bergman fan of B4 make 276 pairs, the 20 of
    # U(3,5) 190; each pair is answered by at most one run, not one run per
    # non-shared generator, and all but 24 of B4's pairs and every pair of
    # U(3,5) by a fixed certificate of one of the two cells' frames.
    import trophodge.polyhedral as polyhedral

    calls = []
    run = polyhedral.fm_feasible
    monkeypatch.setattr(polyhedral, "fm_feasible",
                        lambda *args, **kw: calls.append(1) or run(*args, **kw))
    for matroid, runs in ((boolean_matroid(4), 24), (uniform_matroid(5, 3), 0)):
        data = complex_to_json(bergman_fan(matroid))
        calls.clear()
        complex_from_json(data)
        assert len(calls) == runs


def test_each_cell_builds_its_frame_once(monkeypatch):
    # The 276 pair checks of B4's 24 maximal cones share one frame per cell.
    import trophodge.polyhedral as polyhedral

    data = complex_to_json(bergman_fan(boolean_matroid(4)))
    checks = _count_pair_checks(monkeypatch)
    frames = []
    frame = polyhedral._frame
    monkeypatch.setattr(polyhedral, "_frame", lambda *args: frames.append(args[2]) or frame(*args))
    complex_from_json(data)
    assert len(checks) == 276
    assert len(frames) <= 24 and len(set(map(repr, frames))) == len(frames)


def test_face_tangent_matches_saturation_oracle():
    # One Hermite form per face gives the tangent and unimodular flag that
    # saturate and spans_unimodularly give, on dependent and non-saturated
    # generator sets too.
    def check(rank, gens):
        want_tangent = tuple(saturate(gens, rank)) if gens else ()
        want_uni = len(want_tangent) == len(gens) and spans_unimodularly(gens)
        for face in (_make_face(0, [(0,) * rank], gens, (), (), {}),
                     _make_face(0, [(0,) * rank] + gens, [], (), (), {})):
            assert (face.tangent, face.unimodular) == (want_tangent, want_uni), gens
        return want_uni, want_tangent == tuple(hnf_basis(gens))

    assert check(2, [(2, 0)]) == (False, False)
    assert check(2, [(1, 1), (1, -1)]) == (False, False)
    assert check(2, [(2, 3)]) == (True, True)  # pivot 2, but minors of gcd 1
    assert check(2, [(1, 0), (2, 0)]) == (False, True)
    rng = random.Random(613)
    seen = set()
    for _ in range(600):
        rank = rng.randint(1, 4)
        gens = list({tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, rank + 1))}
                    - {(0,) * rank})
        seen.add(check(rank, gens))
    assert seen == {(True, True), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# Integer Fourier-Motzkin, and the pair check against the Fraction
# parametrisation it replaced

def test_fm_equality_with_nonzero_constant_is_infeasible():
    # x - y = 0 and x - y + 1 = 0 leave 1 = 0 after substitution.
    assert not fm_feasible([(1, -1, 0), (1, -1, 1)], [])
    assert not fm_feasible([(0, 0, 3)], [])
    assert fm_feasible([(0, 0, 0), (1, -1, 1)], [])


def test_fm_strict_inequality_on_a_point():
    both = [((1, 0), False), ((-1, 0), False)]  # x >= 0 and -x >= 0
    assert fm_feasible([], both)
    assert not fm_feasible([], both + [((1, 0), True)])  # and x > 0
    assert fm_feasible([], [((1, 0), True), ((-1, 1), False)])  # 0 < x <= 1


def test_fm_non_primitive_rows_give_the_reduced_answer():
    reduced_eqs = [(1, 1, -1, 0)]  # x + y = z
    reduced_ineqs = [((1, 0, 0, 0), False), ((0, 1, 0, 0), False),
                     ((0, 0, -1, 2), False), ((1, -1, 0, -1), True)]
    scaled_eqs = [tuple(6 * x for x in r) for r in reduced_eqs]
    scaled_ineqs = [(tuple(k * x for x in r), st) for k, (r, st) in zip((2, 3, 4, 10), reduced_ineqs)]
    for extra in ((), (((0, 0, 1, -3), False),)):  # z <= 2, then also z >= 3
        want = fm_feasible(reduced_eqs, reduced_ineqs + list(extra))
        got = fm_feasible(scaled_eqs, scaled_ineqs + [(tuple(5 * x for x in r), st) for r, st in extra])
        assert got == want
    assert fm_feasible(reduced_eqs, reduced_ineqs)
    assert not fm_feasible(reduced_eqs, reduced_ineqs + [((0, 0, 1, -3), False)])


def _fm_feasible_fraction(constraints, nvars):
    """The Fourier-Motzkin run over Fractions that the integer one replaced."""
    cons = [(tuple(Fraction(c) for c in coeffs), Fraction(const), strict)
            for coeffs, const, strict in constraints]
    for var in range(nvars):
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for cp, kp, sp in pos:
            for cn, kn, sn in neg:
                a, b = cp[var], -cn[var]
                new.append((tuple(b * cp[j] + a * cn[j] for j in range(nvars)),
                            b * kp + a * kn, sp or sn))
        cons = new
    return all(const > 0 if strict else const >= 0 for _, const, strict in cons)


def _pair_oracle(rank, v1, r1, v2, r2, shared_v, shared_r):
    """The Fraction parametrisation check the integer kernel replaced: solve
    the equalities, then run Fourier-Motzkin once per non-shared generator."""
    g1 = [("v", v) for v in v1] + [("r", tuple(map(Fraction, r))) for r in r1]
    g2 = [("v", v) for v in v2] + [("r", tuple(map(Fraction, r))) for r in r2]
    nv = len(g1) + len(g2)
    eqs = [([g[1][c] for g in g1] + [-g[1][c] for g in g2], Fraction(0)) for c in range(rank)]
    eqs.append(([Fraction(g[0] == "v") for g in g1] + [Fraction(0)] * len(g2), Fraction(-1)))
    eqs.append(([Fraction(0)] * len(g1) + [Fraction(g[0] == "v") for g in g2], Fraction(-1)))
    system = column_echelon(RationalMatrix.from_rows([e[0] for e in eqs]))
    part = system.coordinates([-e[1] for e in eqs], range(nv))
    if part is None:
        return None
    kern = kernel_vectors(system, nv)
    base = [(tuple(Fraction(k[i]) for k in kern), part[i], False) for i in range(nv)]
    shared_vset = {tuple(v) for v in shared_v}
    shared_rset = {tuple(map(Fraction, r)) for r in shared_r}
    if not shared_vset:
        if _fm_feasible_fraction(base, len(kern)):
            return "intersection axiom violated: disjoint faces overlap"
        return None
    for pos, (kind, vec) in enumerate(g1 + g2):
        if vec in (shared_vset if kind == "v" else shared_rset):
            continue
        if _fm_feasible_fraction(base + [(base[pos][0], base[pos][1], True)], len(kern)):
            return "intersection axiom violated: overlap beyond common face"
    return None


def _simplicial(cell) -> bool:
    """Whether build_complex accepts a cell (vertices, rays) as simplicial:
    its vertices lifted to (v, 1) and its rays to (r, 0) are independent."""
    vs, rs = cell
    rows = [tuple(v) + (1,) for v in vs] + [tuple(r) + (0,) for r in rs]
    return Echelon(rows).rank == len(rows)


def _random_cell_pair(rng):
    """Two simplicial cells in R^1..R^3 on small pools of half-integral
    vertices and integer rays, sharing a random part of their generators;
    each cell is drawn again until build_complex would accept it."""
    rank = rng.randint(1, 3)
    verts = list({tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(rank)) for _ in range(5)})
    rays = list({r for r in (tuple(rng.randint(-1, 1) for _ in range(rank)) for _ in range(5)) if any(r)})
    cells = []
    while len(cells) < 2:
        nv = rng.randint(1, min(len(verts), rank + 1))
        nr = rng.randint(0, min(len(rays), rank + 1 - nv))
        cell = (rng.sample(verts, nv), rng.sample(rays, nr))
        if _simplicial(cell):
            cells.append(cell)
    (v1, r1), (v2, r2) = cells
    return (rank, v1, r1, v2, r2,
            [v for v in v1 if v in v2], [r for r in r1 if r in r2])


def _pools_and_cells(v1, r1, v2, r2):
    """Pools holding each generator of two cells once, and the two cells as
    (vertex, ray) index lists into them."""
    vpool = sorted(set(v1) | set(v2))
    rpool = sorted(set(r1) | set(r2))
    cells = [([vpool.index(v) for v in vs], [rpool.index(r) for r in rs])
             for vs, rs in ((v1, r1), (v2, r2))]
    return vpool, rpool, cells


def _check_pair_by_vectors(rank, v1, r1, v2, r2, shared_v, shared_r):
    """_check_pair_intersection on two cells given by their generators."""
    vpool, rpool, cells = _pools_and_cells(v1, r1, v2, r2)
    _check_pair_intersection(*_lifted_rows(vpool, rpool), *cells)


def _certificate_kinds(frame, own, other):
    """Which fixed functionals of the frame are < 0 on every generator in
    other, from the plain values Q g and Z g."""
    q_own = [[frame.at(g)[0][i] for g in other] for i in own]
    z_rows = [[frame.at(g)[1][r] for g in other] for r in range(len(frame.z))]
    kinds = set()
    if any(all(x < 0 for x in row) for row in q_own):
        kinds.add("own row of Q")
    if q_own and all(sum(col) < 0 for col in zip(*q_own)):
        kinds.add("sum of own rows of Q")
    if any(all(x < 0 for x in row) or all(x > 0 for x in row) for row in z_rows):
        kinds.add("row of Z")
    return frozenset(kinds)


def test_pair_check_agrees_with_fraction_parametrisation(monkeypatch):
    # Every verdict equals the oracle's, whether a certificate settles the
    # pair or Fourier-Motzkin does; each kind of certificate is the only one
    # that holds on some pair, and the second cell's frame settles some pairs.
    import trophodge.polyhedral as polyhedral

    certified, tries = polyhedral._certified, []

    def recording(frame, own, other):
        tries.append(_certificate_kinds(frame, own, other))
        assert certified(frame, own, other) == bool(tries[-1])
        return bool(tries[-1])

    monkeypatch.setattr(polyhedral, "_certified", recording)
    settled = set()  # (kinds that hold, which certificate call settled the pair)
    for seed, pairs in ((20201, 400), (7, 2000)):
        rng = random.Random(seed)
        outcomes = {}
        for _ in range(pairs):
            args = _random_cell_pair(rng)
            want = _pair_oracle(*args)
            tries.clear()
            try:
                _check_pair_by_vectors(*args)
                got = None
            except InputFormatError as exc:
                got = str(exc)
            assert got == want, (seed, args)
            outcomes[want] = outcomes.get(want, 0) + 1
            if tries and tries[-1]:
                settled.add((tries[-1], len(tries)))
        assert set(outcomes) == {None, "intersection axiom violated: disjoint faces overlap",
                                 "intersection axiom violated: overlap beyond common face"}
    alone = {next(iter(kinds)) for kinds, _ in settled if len(kinds) == 1}
    assert alone == {"own row of Q", "sum of own rows of Q", "row of Z"}
    assert any(position == 2 for _, position in settled)


PAIRS_WITH_DEPENDENT_CELLS = [
    # (rank, cell 1, cell 2, whether cell 2's lifted generators are
    # independent, the oracle's verdict on the pair); a cell is (vertices,
    # rays), and cell 1's lifted generators are dependent.
    (1, ([(0,)], [(1,), (-1,)]), ([(1,)], []), True, "disjoint faces overlap"),
    (2, ([(0, 0)], [(1, 0), (-1, 0)]), ([(0, 0)], [(0, 1)]), True, "overlap beyond common face"),
    (2, ([(0, 0), (1, 0), (2, 0)], []), ([(1, 0), (1, 1)], []), True, "overlap beyond common face"),
    (2, ([(0, 0), (1, 0), (2, 0)], []), ([(5, 5), (6, 5)], []), True, None),
    (2, ([(0, 0), (2, 0), (1, 0)], []), ([(0, 1), (1, 1), (2, 1)], []), False, None),
    (2, ([(0, 0), (1, 0), (2, 0)], []), ([(1, -1), (1, 1), (1, 3)], []), False,
     "disjoint faces overlap"),
    (2, ([(0, 0), (1, 0), (2, 0)], []), ([(2, 0), (3, 0), (4, 0)], []), False, None),
    (2, ([(0, 0), (1, 0), (2, 0)], []), ([(1, 0), (2, 0), (3, 0)], []), False,
     "overlap beyond common face"),
    (2, ([(0, 0)], [(1, 0), (-1, 0)]), ([(0, 1)], [(1, 0), (-1, 0)]), False, None),
]


@pytest.mark.parametrize("rank, cell1, cell2, independent2, outcome", PAIRS_WITH_DEPENDENT_CELLS)
def test_pair_check_with_dependent_cells_agrees_with_oracle(monkeypatch, rank, cell1, cell2,
                                                            independent2, outcome):
    # Whatever the oracle says of the pair, build_complex rejects the two
    # cells with their faces as not simplicial before it checks any pair: so
    # the pair check only ever sees cells with independent lifted generators,
    # each of which has a frame.
    import trophodge.polyhedral as polyhedral

    v1, r1 = [tuple(map(F, v)) for v in cell1[0]], cell1[1]
    v2, r2 = [tuple(map(F, v)) for v in cell2[0]], cell2[1]
    args = (rank, v1, r1, v2, r2, [v for v in v1 if v in v2], [r for r in r1 if r in r2])
    assert _pair_oracle(*args) == (outcome and f"intersection axiom violated: {outcome}")
    assert not _simplicial((v1, r1)) and _simplicial((v2, r2)) == independent2
    vpool, rpool, cells = _pools_and_cells(v1, r1, v2, r2)
    specs = {(sub_v, sub_r) for vs, rs in cells for kv in range(1, len(vs) + 1)
             for sub_v in itertools.combinations(vs, kv) for kr in range(len(rs) + 1)
             for sub_r in itertools.combinations(rs, kr)}

    def refuse(*args):
        raise AssertionError("a pair was checked")

    monkeypatch.setattr(polyhedral, "_check_pair_intersection", refuse)
    with pytest.raises(InputFormatError, match="not simplicial"):
        build_complex(rank, vpool, rpool, sorted(specs))


def test_cells_with_disjoint_boxes_never_meet():
    rng = random.Random(613)
    apart = 0
    for _ in range(2000):
        args = _random_cell_pair(rng)
        rank, v1, r1, v2, r2, _, _ = args
        vpool, rpool, cells = _pools_and_cells(v1, r1, v2, r2)
        if _apart(*(_box(vpool, rpool, cell, rank) for cell in cells)):
            apart += 1
            assert _pair_oracle(*args) is None, args
    assert apart > 100


def _line_of_segments_and(far_vertices, far_rays):
    """Ten segments end to end on the x-axis from (0, 0) to (20, 0), and one
    more cell, listed last, on the given vertices and rays."""
    vertices = [[2 * i, 0] for i in range(11)] + far_vertices
    far = (list(range(11, len(vertices))), list(range(len(far_rays))))
    specs = [([k], []) for k in range(len(vertices))] + [([i, i + 1], []) for i in range(10)]
    specs += [([v], far[1]) for v in far[0]] + [far]
    return build_complex(2, vertices, far_rays, specs)


@pytest.mark.parametrize("far", [([[1, -1], [1, 1]], []), ([[1, 5]], [[0, -1]])],
                         ids=["segment", "ray"])
def test_intersection_validation_rejects_far_apart_overlap(far):
    # The last cell crosses the first segment at (1, 0) and shares no vertex
    # with it; the ray's box is open downward, so it reaches the x-axis.
    # With a far vertex off the line instead, the same layout loads.
    assert len(_line_of_segments_and([[30, 1]], []).faces) == 11 + 10 + 1
    with pytest.raises(InputFormatError, match="disjoint faces overlap"):
        _line_of_segments_and(*far)


def test_box_filter_spares_far_pairs_of_grid_plane(monkeypatch):
    # 34 maximal cells make 561 pairs; the boxes of 173 of them overlap.
    data = complex_to_json(grid_plane(3))
    calls = _count_pair_checks(monkeypatch)
    complex_from_json(data)
    assert len(calls) == 173


@pytest.mark.parametrize("name", ["fixa", "fixb", "fixc", "fixd", "fixe", "fixf", "grid3", "u35"])
def test_integral_vertices_are_ints(name, request):
    if name == "grid3":
        y = grid_plane(3)
    elif name == "u35":
        y = bergman_fan(uniform_matroid(5, 3))
    else:
        y = request.getfixturevalue(name)
    for cx in (y, complex_from_json(complex_to_json(y))):
        for x in (cx, compactify(cx)):
            assert all(type(c) is int for f in x.faces for v in f.vertices for c in v)


def test_half_integral_vertices_stay_fractions(fixe, tmp_path, capsys):
    # fixE moved by 1/2 is the same complex to every command.
    data = complex_to_json(fixe)
    data["vertices"] = [[str(Fraction(x) + Fraction(1, 2)) for x in v] for v in data["vertices"]]
    half = complex_from_json(data)
    assert all(type(c) is Fraction for x in (half, compactify(half))
               for f in x.faces for v in f.vertices for c in v)
    assert complex_to_json(half) == data and data["vertices"][0] == ["1/2"]
    for name, payload in (("whole", complex_to_json(fixe)), ("half", data)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    for argv in (["check-all", "--seed", "3"], ["hodge-cycle", "--p", "1"]):
        outs = [(main([argv[0], str(tmp_path / f"{name}.json"), *argv[1:]]), capsys.readouterr().out)
                for name in ("whole", "half")]
        assert outs[0] == outs[1] and outs[0][0] == 0


def test_each_sign_is_built_once(tmp_path, capsys, monkeypatch):
    # A sign is built once per complex and geometry: gamma's tangent, the
    # direction into delta and delta's tangent for a same-sedentarity pair,
    # both sedentarities and both tangents for one that raises sedentarity.
    # Pairs of the same geometry share it, so there are fewer builds than pairs.
    import trophodge.polyhedral as polyhedral

    built, pairs, keys, owners = [], set(), set(), []
    unit_sign = polyhedral._unit_sign
    monkeypatch.setattr(polyhedral, "_unit_sign", lambda *args: built.append(1) or unit_sign(*args))
    for name in ("sign", "infinity_sign"):
        def recording(x, gamma, delta, method=getattr(FaceComplex, name), name=name):
            owners.append(x)  # keeps each complex alive, so its id() stays unique
            out = method(x, gamma, delta)
            g, d = x.faces[gamma], x.faces[delta]
            pairs.add((name, id(x), gamma, delta))
            keys.add((name, id(x), g.tangent, x.direction_into(g, d), d.tangent) if name == "sign"
                     else (name, id(x), g.sedentarity, d.sedentarity, g.tangent, d.tangent))
            return out
        monkeypatch.setattr(FaceComplex, name, recording)
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["check-all", str(path), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all"]
    assert {name for name, *_ in keys} == {"sign", "infinity_sign"}
    assert len(built) == len(keys) < len(pairs)


# ---------------------------------------------------------------------------
# compactify and its tangent memo against the enumeration they replaced

def _compactify_oracle(y):
    """The faces and order of compactify(y) by the record-and-order
    enumeration over sorted ray tuples and sets, one tangent per face."""
    images = {}

    def image(sed, gen, is_ray):
        key = (sed, gen, is_ray)
        if key not in images:
            img = apply_rows(y.stratum(sed)[1], gen)
            images[key] = (primitive(img) if any(img) else None) if is_ray else \
                tuple(normal(x) for x in img)
        return images[key]

    records = {}
    for f in y.faces:
        for k in range(len(f.rays) + 1):
            for sed in itertools.combinations(sorted(f.rays), k):
                pverts = frozenset(image(sed, v, False) for v in f.vertices)
                prays = frozenset(img for r in f.rays if (img := image(sed, r, True)) is not None)
                entry = records.get((sed, pverts, prays))
                if entry is None:
                    vs, rs = tuple(sorted(pverts)), tuple(sorted(prays))
                    entry = records[sed, pverts, prays] = {
                        "pairs": set(), "sort": (len(vs) - 1 + len(rs), sed, vs, rs)}
                entry["pairs"].add((f.index, sed))

    faces, pair_index = [], {}
    for i, entry in enumerate(sorted(records.values(), key=lambda e: e["sort"])):
        _, sed, vs, rs = entry["sort"]
        faces.append(_make_face(i, vs, rs, sed, sorted(entry["pairs"]), {}))
        for pair in entry["pairs"]:
            pair_index[pair] = i

    order = set()
    for j, face in enumerate(faces):
        for gb, sb in face.pairs:
            for ga in {gb} | y.subfaces(gb):
                rays = y.faces[ga].rays
                if not set(sb) <= set(rays):
                    continue
                rest = [r for r in rays if r not in sb]
                for k in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, k):
                        i = pair_index[(ga, tuple(sorted(sb + extra)))]
                        if i != j:
                            order.add((i, j))
    return faces, order


def _product_e_d_d():
    return product_complex(product_complex(fixtures.fix_e(), fixtures.fix_d()), fixtures.fix_d())


def _sheared(y):
    """y moved by the unimodular shear (x, y, z) -> (x + y, y, z)."""
    data = complex_to_json(y)
    move = lambda v: [v[0] + v[1], v[1], v[2]]  # noqa: E731
    data["vertices"] = [[str(x) for x in move([Fraction(x) for x in v])] for v in data["vertices"]]
    data["rays"] = [move(r) for r in data["rays"]]
    return complex_from_json(data)


COMPACTIFY_INPUTS = {
    **{f"fix{c}": getattr(fixtures, f"fix_{c.lower()}") for c in "ABCDEF"},
    **{f"grid{n}": (lambda n=n: grid_plane(n)) for n in (1, 2, 3)},
    "u35": lambda: bergman_fan(uniform_matroid(5, 3)),
    "b4": lambda: complex_from_json(complex_to_json(bergman_fan(boolean_matroid(4)))),
    "u45": lambda: bergman_fan(uniform_matroid(5, 4)),
    "prod": _product_e_d_d,
    "shear": lambda: _sheared(_product_e_d_d()),
    "p2-unvalidated": lambda: make_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]],
                                       validate=False),
}


@pytest.mark.parametrize("name", sorted(COMPACTIFY_INPUTS))
def test_compactify_matches_record_and_order_oracle(name):
    y = COMPACTIFY_INPUTS[name]()
    x = compactify(y)
    faces, order = _compactify_oracle(y)
    assert x.faces == faces and x.order == order


@pytest.mark.parametrize("name", sorted(COMPACTIFY_INPUTS))
def test_tangent_memo_gives_the_faces_built_without_it(name):
    tangents = {}
    for face in compactify(COMPACTIFY_INPUTS[name]()).faces:
        args = (face.index, face.vertices, face.rays, face.sedentarity, face.pairs)
        assert _make_face(*args, tangents) == _make_face(*args, {})


def test_tangent_memo_keeps_each_face_its_own_integrality():
    # The segment to (1/2, 0) has the generator of the one to (1, 0) once
    # scaled, but only the latter is unimodular, whichever fills the memo
    # first; dependent and non-saturated generator sets share one memo.
    rng = random.Random(613)
    for first, second in (((F(1, 2), 0), (1, 0)), ((1, 0), (F(1, 2), 0))):
        tangents = {}
        faces = [_make_face(0, [(0, 0), v], [], (), (), tangents) for v in (first, second)]
        assert faces == [_make_face(0, [(0, 0), v], [], (), (), {}) for v in (first, second)]
        assert [face.unimodular for face in faces] == [type(v[0]) is int for v in (first, second)]
    for _ in range(600):
        rank = rng.randint(1, 4)
        gens = list({tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, rank + 1))}
                    - {(0,) * rank})
        for args in ((0, [(0,) * rank], gens, (), ()), (0, [(0,) * rank] + gens, [], (), ())):
            assert _make_face(*args, tangents) == _make_face(*args, {})


@pytest.mark.parametrize("name, distinct", [("b4", 91), ("u35", 43), ("grid3", 17)])
def test_compactify_takes_one_tangent_per_distinct_generator_tuple(name, distinct, monkeypatch):
    # B4's compactification has 365 faces, U(3,5)'s 111 and grid_plane(3)'s
    # 139; the recession fan that compactify builds first has a memo of its own.
    import trophodge.polyhedral as polyhedral

    y, calls = COMPACTIFY_INPUTS[name](), []
    tangent_of, fan_of = polyhedral._tangent_of, polyhedral.recession_fan

    def outside_recession_fan(y):
        start = len(calls)
        fan = fan_of(y)
        del calls[start:]
        return fan

    monkeypatch.setattr(polyhedral, "_tangent_of", lambda gens, rank: calls.append(gens) or tangent_of(gens, rank))
    monkeypatch.setattr(polyhedral, "recession_fan", outside_recession_fan)
    x = compactify(y)
    assert len(calls) == len(set(calls)) == distinct < len(x.faces)


# ---------------------------------------------------------------------------
# Orientation signs against the rational computation they replaced

def _lift_through(q_rows, delta_tangent, target):
    """Some w in span(delta_tangent) with Q.w = target (rational)."""
    m = RationalMatrix(len(q_rows), len(delta_tangent))
    for j, t in enumerate(delta_tangent):
        for i, v in enumerate(apply_rows(q_rows, t)):
            m[i, j] = v
    c = solve(m, list(target))
    return [sum(c[j] * delta_tangent[j][i] for j in range(len(delta_tangent)))
            for i in range(len(delta_tangent[0]))]


def _det_in_basis(rows, basis):
    """Determinant of the coordinate matrix of rows over the given basis."""
    span = Echelon(basis, keyed=True)
    coords = [span.coordinates(r, range(len(basis))) for r in rows]
    scales = [lcm(*(c.denominator for c in row)) for row in coords]
    return Fraction(det_int([[int(c * s) for c in row] for row, s in zip(coords, scales)]), prod(scales))


def _sign_oracle(x, g, d):
    """The Fraction determinant of a codimension-one pair: gamma's tangent
    (lifted to delta's stratum) and the inward direction, over delta's tangent."""
    gamma, delta = x.faces[g], x.faces[d]
    if gamma.sedentarity == delta.sedentarity:
        rows = [list(map(Fraction, b)) for b in gamma.tangent + (x.direction_into(gamma, delta),)]
    else:
        ray = next(iter(set(gamma.sedentarity) - set(delta.sedentarity)))
        _, p_delta, s_delta = x.stratum(delta.sedentarity)
        _, p_gamma, _ = x.stratum(gamma.sedentarity)
        q_rows = _compose(p_gamma, s_delta)
        rows = [_lift_through(q_rows, delta.tangent, b) for b in gamma.tangent]
        rows.append([-Fraction(v) for v in primitive(apply_rows(p_delta, ray))])
    return _det_in_basis(rows, delta.tangent)


def _primitive_normal_oracle(x, g, d):
    """The direction into delta in a quotient presentation of gamma's tangent."""
    gamma = x.faces[g]
    srank, _, _ = x.stratum(gamma.sedentarity)
    proj, _ = quotient_presentation([list(b) for b in gamma.tangent], srank)
    return primitive(apply_rows(proj, x.direction_into(gamma, x.faces[d])))


SIGN_INPUTS = ["comp_a", "comp_b", "comp_c", "comp_d", "comp_e", "comp_f", "comp_grid1", "comp_u34"]


def _cover_pairs(x):
    return [(g.index, d) for g in x.faces for d in x.covers_of(g.index)]


@pytest.mark.parametrize("name", SIGN_INPUTS)
def test_incidence_signs_match_rational_oracle(name, request):
    x = request.getfixturevalue(name)
    pairs = _cover_pairs(x)
    assert any(x.faces[g].sedentarity != x.faces[d].sedentarity for g, d in pairs)
    for g, d in pairs:
        s = x.incidence_sign(g, d)
        assert type(s) is int and s == _sign_oracle(x, g, d), (g, d)


def _wide_triangle():
    """The triangle (0,0), (1,0), (0,2), of lattice area 2."""
    return build_complex(2, [[0, 0], [1, 0], [0, 2]], [],
                         [([0], []), ([1], []), ([2], []),
                          ([0, 1], []), ([0, 2], []), ([1, 2], []), ([0, 1, 2], [])])


def test_sign_of_non_unimodular_pair_raises():
    tri = _wide_triangle()
    top = next(f.index for f in tri.faces if f.dim == 2)

    def edge(a, b):
        ends = {tuple(map(Fraction, a)), tuple(map(Fraction, b))}
        return next(f.index for f in tri.faces if f.dim == 1 and set(f.vertices) == ends)

    # The opposite vertex lies at lattice distance 2 from these two edges.
    for a, b in (((0, 0), (1, 0)), ((0, 2), (1, 0))):
        with pytest.raises(NotUnimodularError, match="sign undefined: pair is not unimodular"):
            tri.sign(edge(a, b), top)
    assert tri.sign(edge((0, 0), (0, 2)), top) == -1


@pytest.mark.parametrize("name", SIGN_INPUTS + ["wide_triangle"])
def test_primitive_normal_matches_quotient_oracle(name, request):
    x = _wide_triangle() if name == "wide_triangle" else request.getfixturevalue(name)
    pairs = [(g, d) for g, d in _cover_pairs(x) if x.faces[g].sedentarity == x.faces[d].sedentarity]
    assert pairs
    for g, d in pairs:
        assert x.primitive_normal(g, d) == _primitive_normal_oracle(x, g, d), (g, d)
