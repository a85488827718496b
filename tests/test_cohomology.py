import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from trophodge import DegeneratePairingError
from trophodge.chow import fan_ring
from trophodge.cohomology import (
    cochain_complex,
    coefficient_space,
    hodge_diamond,
    poincare_pairing,
    tropical_cohomology,
)
from trophodge.hodge_cycles import hodge_locus_basis, hodge_to_cycle, numerical_vs_homological
from trophodge.linalg import RationalMatrix, rank
from trophodge.matroids import bergman_fan, uniform_matroid
from trophodge.polyhedral import compactify
from trophodge.steenbrink import build_steenbrink, random_homogeneous

F = Fraction


def naive_rank(m: RationalMatrix) -> int:
    rows = [list(map(F, m.row(i))) for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_coefficient_space_dim_p0(comp_d):
    for f in comp_d.faces:
        assert coefficient_space(comp_d, f.index, 0).dim == 1


def test_coefficient_space_finite_vertex_comp_a(comp_a):
    fv = next(f.index for f in comp_a.faces if f.dim == 0 and not f.sedentarity)
    assert coefficient_space(comp_a, fv, 1).dim == 2


def test_coefficient_space_infinity_vertex_tp1(comp_d):
    # Same-sedentarity cofaces only: the vertex at infinity has none besides
    # itself, so its multi-tangent space vanishes in degree one.
    vp = next(f.index for f in comp_d.faces if f.dim == 0 and f.sedentarity == ((1,),))
    assert coefficient_space(comp_d, vp, 1).dim == 0


def fraction_det(rows) -> Fraction:
    a = [[F(x) for x in r] for r in rows]
    det = F(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv], det = a[piv], a[c], -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def gauss_jordan(rows, n: int) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form, all in Fractions."""
    rows = [[F(x) for x in r] for r in rows]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


@pytest.fixture(scope="module")
def comp_u35():
    """U(3,5)'s Bergman fan, compactified: 2-dimensional in a rank-4 lattice."""
    return compactify(bergman_fan(uniform_matroid(5, 3)))


@pytest.mark.parametrize("name", ["comp_u35", "comp_f"])
def test_coefficient_space_matches_gauss_jordan_oracle(name, request):
    # The oracle spans F_p by the wedge rows of every same-sedentarity coface
    # and the face itself, not only the maximal ones.
    x = request.getfixturevalue(name)
    rng = random.Random(f"coefficient-space:{name}")
    partial = set()
    for p in range(x.dim + 1):
        for f in x.faces:
            space = coefficient_space(x, f.index, p)
            m = x.stratum(f.sedentarity)[0]
            n = comb(m, p)
            same = [f.index] + [j for j in x.cofaces(f.index)
                                if x.faces[j].sedentarity == f.sedentarity]
            rows = [[fraction_det([[v[i] for i in idx] for v in sub])
                     for idx in itertools.combinations(range(m), p)]
                    for j in same for sub in itertools.combinations(x.faces[j].tangent, p)]
            expect = gauss_jordan(rows, n)
            assert space.ambient_dim == n and space.basis == expect
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in expect]
            vec = [sum(c * b[i] for c, b in zip(coeffs, expect)) for i in range(n)]
            assert space.coordinates(vec) == coeffs
            pivots = {next(i for i, v in enumerate(b) if v) for b in expect}
            for j in set(range(n)) - pivots:
                partial.add((p, bool(f.sedentarity)))
                with pytest.raises(DegeneratePairingError):  # e_j is outside F_p
                    space.coordinates([a + (i == j) for i, a in enumerate(vec)])
    if name == "comp_u35":  # proper subspaces of Lambda^p, finite and at infinity
        assert {(1, False), (1, True)} <= partial


def test_tp1_by_hand_oracle(comp_d):
    # Frozen oracle for the five-face complex: term dimensions and the
    # independently computed ranks of both differentials per p.
    gc0 = cochain_complex(comp_d, 0)
    assert (gc0.dim(0), gc0.dim(1)) == (3, 2)
    assert naive_rank(gc0.differential(0)) == 2
    gc1 = cochain_complex(comp_d, 1)
    assert (gc1.dim(0), gc1.dim(1)) == (1, 2)
    assert naive_rank(gc1.differential(0)) == 1
    assert tropical_cohomology(comp_d, 0) == [1, 0]
    assert tropical_cohomology(comp_d, 1) == [0, 1]


def test_diamond_comp_a_matches_chow(comp_a, fixa):
    from trophodge.chow import fan_ring

    assert hodge_diamond(comp_a) == [[1, 0], [0, 1]]
    assert [hodge_diamond(comp_a)[p][p] for p in (0, 1)] == fan_ring(fixa).dims()


def test_diamond_comp_c_matches_chow(comp_c, fixc):
    from trophodge.chow import fan_ring

    d = hodge_diamond(comp_c)
    assert d == [[1, 0, 0], [0, 4, 0], [0, 0, 1]]
    assert [d[p][p] for p in range(3)] == fan_ring(fixc).dims()


def test_diamond_comp_f_kunneth(comp_f):
    # Kunneth oracle: the square of the TP1 diamond.
    tp1 = [[1, 0], [0, 1]]
    expected = [[0] * 3 for _ in range(3)]
    for p1 in range(2):
        for q1 in range(2):
            for p2 in range(2):
                for q2 in range(2):
                    expected[p1 + p2][q1 + q2] += tp1[p1][q1] * tp1[p2][q2]
    assert hodge_diamond(comp_f) == expected


def test_differentials_square_to_zero(comp_c, comp_f):
    for x in (comp_c, comp_f):
        for p in range(x.dim + 1):
            assert cochain_complex(x, p).check()


def test_h_dim_from_ranks_matches_quotient_basis(comp_a, comp_b, comp_c, comp_d, comp_e,
                                                 comp_f):
    from trophodge.steenbrink import build_steenbrink

    for x in (comp_a, comp_b, comp_c, comp_d, comp_e, comp_f):
        st = build_steenbrink(x)
        complexes = [cochain_complex(x, p) for p in range(x.dim + 1)]
        complexes += [st.row_complex(b) for b in range(0, 2 * x.dim + 1, 2)]
        complexes += [c(p) for p in range(x.dim + 1) for c in (st.k_complex, st.r_complex)]
        for gc in complexes:
            for k in range(min(gc.terms, default=0) - 1, max(gc.terms, default=0) + 2):
                assert gc.h_dim(k) == gc.h_basis(k).dim


def euler_characteristics_match(x, p: int) -> bool:
    gc = cochain_complex(x, p)
    chain_side = sum((-1) ** q * gc.dim(q) for q in range(x.dim + 1))
    h_side = sum((-1) ** q * gc.h_dim(q) for q in range(x.dim + 1))
    return chain_side == h_side


def test_euler_characteristic_identity(comp_c, comp_e, comp_f):
    for x in (comp_c, comp_e, comp_f):
        for p in range(x.dim + 1):
            assert euler_characteristics_match(x, p)


def test_poincare_pairing_tp1(comp_d):
    blocks = poincare_pairing(comp_d, 0)
    assert [[abs(x) for x in row] for row in blocks[0]] == [[1]]
    assert blocks[1] == []


def test_poincare_pairing_comp_c(comp_c):
    blocks = poincare_pairing(comp_c, 1)
    assert len(blocks[1]) == 4
    assert rank(RationalMatrix.from_rows(blocks[1])) == 4


def test_poincare_pairing_nondegenerate_all_fixtures(comp_d, comp_e, comp_f, comp_a):
    for x in (comp_d, comp_e, comp_f, comp_a):
        for p in range(x.dim + 1):
            poincare_pairing(x, p)  # raises DegeneratePairingError on failure


def test_triangulation_independence_d_vs_e(comp_d, comp_e):
    assert hodge_diamond(comp_d) == hodge_diamond(comp_e)


def test_hodge_diamond_symmetries(comp_a, comp_b, comp_c, comp_d, comp_e, comp_f, comp_grid1):
    # h^{p,q} = h^{q,p} = h^{d-p,d-q} on each compactification
    for comp in (comp_a, comp_b, comp_c, comp_d, comp_e, comp_f, comp_grid1):
        h, d = hodge_diamond(comp), comp.dim
        for p in range(d + 1):
            for q in range(d + 1):
                assert h[p][q] == h[q][p] == h[d - p][d - q]


COMPACTIFIED = ["comp_a", "comp_b", "comp_c", "comp_d", "comp_e", "comp_f", "comp_grid1"]


def exact(values) -> bool:
    """Every value is an int, or a Fraction that is not integral (never a float)."""
    return all(type(v) is int or (type(v) is F and v.denominator != 1) for v in values)


@pytest.mark.parametrize("name", COMPACTIFIED)
def test_integral_data_stays_int(name, request):
    # The coefficient spaces are lattices and every sign is +-1, so every
    # differential, and the cohomology representatives read off them, is integral.
    x = request.getfixturevalue(name)
    st = build_steenbrink(x)
    complexes = [cochain_complex(x, p) for p in range(x.dim + 1)]
    complexes += [st.row_complex(b) for b in range(0, 2 * x.dim + 1, 2)]
    for gc in complexes:
        for d in gc.diffs.values():
            assert all(type(v) is int for v in d.entries.values())
        for k in gc.terms:
            assert all(type(v) is int for rep in gc.h_basis(k).representatives for v in rep)


@pytest.mark.parametrize("name", COMPACTIFIED)
def test_no_float_anywhere(name, request):
    x = request.getfixturevalue(name)
    st = build_steenbrink(x)
    rng = random.Random(5)
    psis = [st.psi(random_homogeneous(st, rng), random_homogeneous(st, rng)) for _ in range(30)]
    assert exact(psis)
    for p in range(x.dim + 1):
        assert exact(v for row in numerical_vs_homological(st, p)["pairing"] for v in row)
        for alpha in hodge_locus_basis(st, p):
            assert exact(v for _, v in hodge_to_cycle(st, alpha).weight.weights)
        for blocks in poincare_pairing(x, p).values():
            assert exact(v for row in blocks for v in row)


@pytest.mark.parametrize("fan", ["fixA", "fixB", "fixC", "fixD", "fixF", "u34"])
def test_chow_degree_is_never_a_float(fan, request):
    ring = fan_ring(request.getfixturevalue(fan.lower()))
    top = [ring.class_from_monomial(m) for m in ring.monomials(ring.top)]
    assert exact(ring.degree(c) for c in top)
    halves = [ring.degree(c.scale(F(1, 2))) for c in top]
    assert exact(halves) and [2 * h for h in halves] == [ring.degree(c) for c in top]
    for p in range(ring.top + 1):
        classes = [ring.class_from_monomial(m) for m in ring.basis(p)]
        duals = [ring.class_from_monomial(m) for m in ring.basis(ring.top - p)]
        assert exact(ring.pairing(a, b) for a in classes for b in duals)
