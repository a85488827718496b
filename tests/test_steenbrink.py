import random
from fractions import Fraction

from trophodge.cohomology import hodge_diamond
from trophodge.linalg import RationalMatrix, rank
from trophodge.steenbrink import (
    SteenbrinkPage,
    cohomology_pairing_matrix,
    primitive_parts,
    random_homogeneous,
    steenbrink_cohomology,
    surviving_relative,
    verify_hl,
)

F = Fraction


def test_fix_d_blocks(st_d):
    nonzero = {(a, b, s): st_d.block_dim(a, b, s)
               for a in range(-2, 3) for b in range(0, 4) for s in range(0, 2)
               if st_d.block_dim(a, b, s)}
    assert nonzero == {(0, 0, 0): 1, (0, 2, 0): 1}


def test_fix_e_blocks(st_e):
    assert st_e.block_dim(0, 2, 0) == 2
    assert st_e.block_dim(-1, 2, 1) == 1
    assert st_e.block_dim(1, 0, 1) == 1


def test_empty_finite_part_is_zero_page(comp_d):
    st = SteenbrinkPage(comp_d, [])
    assert st.term_dim(0, 0) == 0
    assert steenbrink_cohomology(st, 0) == {}
    assert verify_hl(st)["all"]


def test_row_cohomology_fix_d(st_d):
    assert steenbrink_cohomology(st_d, 2) == {0: 1}
    assert steenbrink_cohomology(st_d, 1) == {}
    assert steenbrink_cohomology(st_d, 3) == {}


def test_row_cohomology_fix_f_kunneth(st_f):
    assert steenbrink_cohomology(st_f, 2)[0] == 2


def test_differential_squares_to_zero(st_d, st_e, st_f, st_c):
    for st in (st_d, st_e, st_f, st_c):
        for b in range(0, 2 * st.dim + 1, 2):
            assert st.row_complex(b).check()


def test_monodromy_commutes_with_differential(st_e, st_f):
    rng = random.Random(31)
    for st in (st_e, st_f):
        for _ in range(50):
            key, vec = random_homogeneous(st, rng)
            x = {key: vec}
            nd = st.apply_d(st.apply_n(x))
            dn = st.apply_n(st.apply_d(x))
            keys = set(nd) | set(dn)
            for k in keys:
                va = nd.get(k, [F(0)] * len(dn.get(k, [])))
                vb = dn.get(k, [F(0)] * len(nd.get(k, [])))
                assert va == vb


def test_psi_tridegree_selection(st_e):
    x = {(0, 0, 0): [F(1), F(0)]}
    y = {(0, 0, 0): [F(1), F(0)]}
    assert st_e.psi(x, y) == 0  # b + b' != 2d


def test_psi_fix_d_unit_against_ray_class(st_d):
    x = {(0, 0, 0): [F(1)]}
    y = {(0, 2, 0): [F(1)]}
    assert st_d.psi(x, y) == 1


def test_psi_identities_on_random_pairs(st_d, st_e, st_f):
    for st in (st_d, st_e, st_f):
        rng = random.Random(99)
        d = st.dim
        for _ in range(100):
            k1, v1 = random_homogeneous(st, rng)
            k2, v2 = random_homogeneous(st, rng)
            x, y = {k1: v1}, {k2: v2}
            assert st.psi(x, y) == (-1) ** d * st.psi(y, x)
            assert st.psi(st.apply_n(x), y) + st.psi(x, st.apply_n(y)) == 0
            assert st.psi(st.apply_d(x), y) + st.psi(x, st.apply_d(y)) == 0


def test_comparison_with_tropical_cohomology(st_d, st_e, st_f, st_a, st_c,
                                             comp_d, comp_e, comp_f, comp_a, comp_c):
    for st, comp in ((st_d, comp_d), (st_e, comp_e), (st_f, comp_f),
                     (st_a, comp_a), (st_c, comp_c)):
        diamond = hodge_diamond(comp)
        d = st.dim
        for p in range(d + 1):
            coh = steenbrink_cohomology(st, 2 * p)
            for q in range(d + 1):
                assert coh.get(q - p, 0) == diamond[p][q]


def test_kernel_cokernel_fix_d(st_d):
    k, r = st_d.k_complex(1), st_d.r_complex(1)
    assert k.dim(0) == 1 and all(k.dim(a) == 0 for a in k.terms if a != 0)
    assert r.dim(0) == 1 and all(r.dim(a) == 0 for a in r.terms if a != 0)


def test_kernel_cokernel_degree_ranges(st_e, st_f):
    for st in (st_e, st_f):
        for p in range(st.dim + 1):
            k, r = st.k_complex(p), st.r_complex(p)
            assert all(a >= 0 for a in k.terms)
            assert all(a <= 0 for a in r.terms)


def test_kernel_complex_fix_e(st_e):
    k = st_e.k_complex(1)
    assert k.dim(0) == 2
    assert k.dim(1) == 0  # the edge star has no degree-one Chow group


def test_surviving_relative_fix_d(st_d):
    assert surviving_relative(st_d, 1, 1) == (1, 1)
    assert surviving_relative(st_d, 1, 0) == (0, 0)  # q < p vanishes


def test_surviving_fix_e_counts_components(st_e):
    # Two finite vertices contribute to the virtual special fiber; the
    # surviving group is triangulation-dependent, its image in H is not.
    assert surviving_relative(st_e, 1, 1)[0] == 2


def test_hard_lefschetz_all_fixtures(st_d, st_e, st_f, st_a, st_c):
    for st in (st_d, st_e, st_f, st_a, st_c):
        report = verify_hl(st)
        assert report["all"], report


def test_primitive_parts_fix_d(st_d):
    report = primitive_parts(st_d)
    assert report["dims"][(0, 2)] == 1
    assert report["all"]


def test_primitive_parts_fix_f(st_f):
    report = primitive_parts(st_f)
    assert report["dims"][(0, 2)] == 2
    assert report["all"]


def test_psi_nondegenerate_on_cohomology(st_e, st_f):
    # psi(. , N^a .) pairs H^{-a}(b) with H^{-a}(2d - b + 2a) perfectly.
    for st in (st_e, st_f):
        d = st.dim
        for a in range(0, d + 1):
            for b in range(0, 2 * d + 1, 2):
                h1 = st.h_basis(b, -a)
                if h1.dim == 0:
                    continue
                bdual = 2 * d - b + 2 * a
                h2 = st.h_basis(bdual, -a)
                assert h2.dim == h1.dim
                mat = []
                for r1 in h1.representatives:
                    row = []
                    for r2 in h2.representatives:
                        v = list(r2)
                        aa, bb = -a, bdual
                        for _ in range(a):
                            v = st.n_matrix(aa, bb).mul_vec(v)
                            aa, bb = aa + 2, bb - 2
                        row.append(st.psi_term(-a, b, r1, v))
                    mat.append(row)
                assert rank(RationalMatrix.from_rows(mat)) == h1.dim


def test_cohomology_pairing_matrix_shape(st_c):
    mat = cohomology_pairing_matrix(st_c, 1, 1)
    assert len(mat) == 4 and rank(RationalMatrix.from_rows(mat)) == 4
