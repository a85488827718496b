from fractions import Fraction

from trophodge.cohomology import (
    cochain_complex,
    coefficient_space,
    euler_characteristics_match,
    hodge_diamond,
    poincare_pairing,
    tropical_cohomology,
)
from trophodge.linalg import RationalMatrix, rank

F = Fraction


def naive_rank(m: RationalMatrix) -> int:
    rows = m.to_lists()
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
