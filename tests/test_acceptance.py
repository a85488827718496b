"""Acceptance gate: every criterion below is exact (no tolerances anywhere;
all arithmetic is over the rationals).  Each test prints one PASS line."""

import random
from fractions import Fraction

from chow_duality import chow_mw_duality
from cochains import cochain_is_cocycle, cochain_vector, pair_class_with_weight, pair_cochain_with_weight
from conftest import grid_plane
from triples import d0_lift_independent, random_lefschetz_triple

from trophodge.chow import fan_ring, minkowski_weights
from trophodge.clemens_schmid import clemens_schmid_sequences, mapping_cone_check, tropical_clemens_schmid
from trophodge.cohomology import hodge_diamond
from trophodge.hodge_cycles import (
    hodge_locus_basis,
    hodge_to_cycle,
    numerical_vs_homological,
    verify_class,
    zigzag_representative,
)
from trophodge.linalg import RationalMatrix, rank
from trophodge.polyhedral import compactify
from trophodge.steenbrink import (
    random_homogeneous,
    build_steenbrink,
    steenbrink_cohomology,
    verify_hl,
)

F = Fraction


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_local_hodge_isomorphism(fixa, fixc, u34, comp_a, comp_c, comp_u34):
    expected = {"U(2,3)": [1, 1], "B3": [1, 4, 1], "U(3,4)": [1, 7, 1]}
    ok = True
    for name, fan, comp in (("U(2,3)", fixa, comp_a), ("B3", fixc, comp_c),
                            ("U(3,4)", u34, comp_u34)):
        chow_dims = fan_ring(fan).dims()
        diamond = hodge_diamond(comp)
        ok = ok and chow_dims == expected[name]
        ok = ok and all(diamond[p][p] == chow_dims[p] for p in range(len(chow_dims)))
        ok = ok and all(diamond[p][q] == 0
                        for p in range(len(diamond)) for q in range(len(diamond))
                        if p != q)
    report("criterion 1: local Hodge isomorphism dims (1,1), (1,4,1), (1,7,1)", ok)


def test_criterion_2_chow_minkowski_duality(fixa, fixb, fixc, u34, fixf):
    ok = True
    fans = [fixa, fixb, fixc, u34]
    for fan in fans:
        d = fan.dim
        for p in range(d + 1):
            matrix = chow_mw_duality(fan, p)  # raises when not square/invertible
            ok = ok and len(matrix) == fan_ring(fan).dim(p)
    report("criterion 2: Chow/Minkowski evaluation pairing invertible, all fans, all p", ok)


def test_criterion_3_steenbrink_comparison(st_d, st_e, st_f, st_a, st_c,
                                           comp_d, comp_e, comp_f, comp_a, comp_c):
    ok = True
    for st, comp in ((st_d, comp_d), (st_e, comp_e), (st_f, comp_f),
                     (st_a, comp_a), (st_c, comp_c)):
        diamond = hodge_diamond(comp)
        d = st.dim
        for p in range(d + 1):
            coh = steenbrink_cohomology(st, 2 * p)
            for q in range(d + 1):
                ok = ok and coh.get(q - p, 0) == diamond[p][q]
    # Triangulation independence: intrinsic ranks agree across FIX-D / FIX-E.
    ok = ok and hodge_diamond(comp_d) == hodge_diamond(comp_e)

    def surviving_image_rank(st, p, q):
        kc = st.k_complex(p)
        row = st.row_complex(2 * p)
        h_k = kc.h_basis(q - p)
        h_row = row.h_basis(q - p)
        rows = []
        for rep in h_k.representatives:
            vec = [F(0)] * row.dim(q - p)
            # kernel complex terms embed at the row positions they are labelled by
            for at, v in zip(kc.labels.get(q - p, []), rep):
                vec[at] = v
            rows.append(h_row.coordinates(vec))
        return rank(RationalMatrix.from_rows(rows)) if rows else 0

    for p in range(2):
        for q in range(2):
            ok = ok and surviving_image_rank(st_d, p, q) == surviving_image_rank(st_e, p, q)
    report("criterion 3: Steenbrink rank comparison + triangulation independence", ok)


def test_criterion_4_structural_identities(st_d, st_e, st_f, st_a, st_c):
    ok = True
    for st in (st_d, st_e, st_f, st_a, st_c):
        d = st.dim
        for b in range(0, 2 * d + 1, 2):
            ok = ok and st.row_complex(b).check()
        rng = random.Random(20260808)
        for _ in range(100):
            x, y = random_homogeneous(st, rng), random_homogeneous(st, rng)
            ok = ok and st.psi(x, y) == (-1) ** d * st.psi(y, x)
            ok = ok and st.psi(st.apply_n(x), y) + st.psi(x, st.apply_n(y)) == 0
            ok = ok and st.psi(st.apply_d(x), y) + st.psi(x, st.apply_d(y)) == 0
            ok = ok and st.apply_d(st.apply_n(x)) == st.apply_n(st.apply_d(x))
    report("criterion 4: d^2 = 0, [N,d] = 0, psi identities on 100 seeded pairs/fixture", ok)


def test_criterion_5_hard_lefschetz(st_d, st_e, st_f, st_a, st_c):
    ok = True
    for st in (st_d, st_e, st_f, st_a, st_c):
        rep = verify_hl(st)
        ok = ok and rep["all"]
    report("criterion 5: Hard Lefschetz around 0, page and cohomology, all fixtures", ok)


def test_criterion_6_abstract_clemens_schmid():
    # The last 100 triples have a crossing summand, on which d0 is nonzero.
    rng = random.Random(20260808)
    triples = [random_lefschetz_triple(rng) for _ in range(200)]
    triples += [random_lefschetz_triple(rng, crossing=1) for _ in range(100)]
    ok = True
    for t in triples:
        rep = clemens_schmid_sequences(t)
        ok = ok and rep.all_exact
        ok = ok and d0_lift_independent(t)
    ok = ok and sum(t.map_rank("conn", 0) > 0 for t in triples) >= 100
    report("criterion 6: 300 random Lefschetz triples exact, d0 lift-independent, "
           "d0 nonzero on 100", ok)


def _pages(st_d, st_e, st_f, comp_genus1):
    grids = [build_steenbrink(compactify(grid_plane(n))) for n in (1, 2)]
    return [st_d, st_e, st_f, *grids, build_steenbrink(comp_genus1)]


def test_criterion_7_tropical_clemens_schmid(st_d, st_e, st_f, comp_genus1):
    ok = True
    for st in _pages(st_d, st_e, st_f, comp_genus1):
        ok = ok and tropical_clemens_schmid(st)["all"]
    report("criterion 7: tropical Clemens-Schmid junction exactness on D, E, F, "
           "grid_plane(1..2) and a genus-one curve", ok)


def test_criterion_8_mapping_cone(st_d, st_e, st_f, comp_genus1):
    ok = True
    for st in _pages(st_d, st_e, st_f, comp_genus1):
        for p in range(0, 2 * st.dim + 1, 2):
            ok = ok and mapping_cone_check(st, p)["all"]
    report("criterion 8: mapping-cone projection quasi-isomorphism on D, E, F, "
           "grid_plane(1..2) and a genus-one curve, every even row", ok)


def test_criterion_9_hodge_round_trip(st_d, st_f, st_c):
    from trophodge.chow import is_balanced

    ok = True
    for st in (st_d, st_f, st_c):
        for alpha in hodge_locus_basis(st, 1):
            cyc = hodge_to_cycle(st, alpha)
            ok = ok and is_balanced(st.x, cyc.weight)
            ok = ok and verify_class(st, alpha, cyc)
    # FIX-F cycles are the two factor lines with weight one.
    lines = set()
    for alpha in hodge_locus_basis(st_f, 1):
        cyc = hodge_to_cycle(st_f, alpha)
        ok = ok and set(cyc.weight.as_dict().values()) == {F(1)}
        rays = tuple(sorted(st_f.x.faces[f].rays[0] for f in cyc.weight.as_dict()))
        lines.add(rays)
    ok = ok and lines == {((-1, 0), (1, 0)), ((0, -1), (0, 1))}
    report("criterion 9: Hodge class -> balanced cycle -> verified class (D, F, comp C)", ok)


def test_criterion_10_numerical_equals_homological(st_d, st_e, st_f, st_a, st_c):
    ok = True
    for st in (st_d, st_e, st_f, st_a, st_c):
        for p in range(st.dim + 1):
            rep = numerical_vs_homological(st, p)
            ok = ok and rep["square"] and rep["nondegenerate"]
            ok = ok and rep["splitting"] and rep["orthogonal"]
    report("criterion 10: kernel-kernel pairing nondegenerate + ker N orthogonal to Im N", ok)


def test_criterion_11_zigzag_pairings(st_d, st_f):
    ok = True
    for st in (st_d, st_f):
        mws = minkowski_weights(st.x, 1)
        for alpha in hodge_locus_basis(st, 1):
            cochain = zigzag_representative(st, alpha)
            ok = ok and cochain_is_cocycle(st.x, 1, cochain_vector(st.x, 1, cochain))
            for w in mws:
                ok = ok and pair_cochain_with_weight(st.x, 1, cochain, w) == \
                    pair_class_with_weight(st, alpha, w)
    report("criterion 11: zigzag representative pairs with Minkowski weights "
           "identically to the Steenbrink side (D, F)", ok)
