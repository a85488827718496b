import random
from fractions import Fraction

from trophodge.cohomology import hodge_diamond
from trophodge.linalg import RationalMatrix, rank
from trophodge.polyhedral import FaceComplex
from trophodge.steenbrink import (
    SteenbrinkPage,
    _n_power_vec,
    build_steenbrink,
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


# -- the one stitch of d, checked against the per-column stitching it replaced

def _oracle_d(st, a, b):
    """d: ST^{a,b} -> ST^{a+1,b}, one source column at a time."""
    src = st.term_labels(a, b)
    dst_pos = {lab: i for i, lab in enumerate(st.term_labels(a + 1, b))}
    out = RationalMatrix(len(dst_pos), len(src))
    for j, (s, f, i) in enumerate(src):
        k = (a + b - s) // 2
        if st.block_exists(a + 1, b, s + 1):
            for delta in st.x.covers_of(f):
                if st.x.faces[delta].sedentarity or st.x.faces[delta].rays:
                    continue
                sign = st.x.sign(f, delta)
                for (r, c), v in st.restriction_matrix(f, delta, k).entries.items():
                    if c == i:
                        out[dst_pos[(s + 1, delta, r)], j] = out[dst_pos[(s + 1, delta, r)], j] + sign * v
        if st.block_exists(a + 1, b, s - 1):
            for gamma in st.x.covered_by(f):
                if st.x.faces[gamma].sedentarity or st.x.faces[gamma].rays:
                    continue
                sign = st.x.sign(gamma, f)
                for (r, c), v in st.gysin_matrix(gamma, f, k).entries.items():
                    if c == i:
                        out[dst_pos[(s - 1, gamma, r)], j] = out[dst_pos[(s - 1, gamma, r)], j] + sign * v
    return out


def _oracle_kr(st, p, kernel):
    """K^{.,2p} (s = a, restriction) or R^{.,2p} (s = -a, Gysin), block by block."""
    b = 2 * p
    degrees = range(0, st.dim + 1) if kernel else range(-st.dim, 1)
    sof = (lambda a: a) if kernel else (lambda a: -a)
    labels = {a: st.block_labels(a, b, sof(a)) for a in degrees}
    diffs = {}
    for a in degrees:
        if not labels[a] or not labels.get(a + 1):
            continue
        dst_pos = {lab: i for i, lab in enumerate(labels[a + 1])}
        out = RationalMatrix(len(labels[a + 1]), len(labels[a]))
        for j, (f, i) in enumerate(labels[a]):
            if kernel:
                pairs = [(f, delta, delta) for delta in st.x.covers_of(f)]
                get, k = st.restriction_matrix, p
            else:
                pairs = [(gamma, f, gamma) for gamma in st.x.covered_by(f)]
                get, k = st.gysin_matrix, a + p
            for lo, hi, tgt in pairs:
                if st.x.faces[tgt].sedentarity or st.x.faces[tgt].rays:
                    continue
                sign = st.x.sign(lo, hi)
                for (r, c), v in get(lo, hi, k).entries.items():
                    if c == i:
                        out[dst_pos[(tgt, r)], j] = out[dst_pos[(tgt, r)], j] + sign * v
        diffs[a] = out
    labels = {a: lab for a, lab in labels.items() if lab}
    return {a: len(lab) for a, lab in labels.items()}, diffs, labels


def test_stitch_matches_per_column_oracle(st_a, st_c, st_d, st_e, st_f, st_grid1):
    for st in (st_a, st_c, st_d, st_e, st_f, st_grid1):
        for b in range(0, 2 * st.dim + 1):
            row = st.row_complex(b)
            assert row.diffs == {a: _oracle_d(st, a, b) for a in row.terms if row.terms.get(a + 1)}
        for p in range(st.dim + 1):
            for got, kernel in ((st.k_complex(p), True), (st.r_complex(p), False)):
                terms, diffs, labels = _oracle_kr(st, p, kernel)
                assert (got.terms, got.diffs, got.labels) == (terms, diffs, labels)


def test_grid_plane_has_two_cell_blocks(st_grid1):
    st = st_grid1
    assert st.block_dim(0, 2, 2) == 2  # one copy of A^0 per bounded triangle
    # d on ST^{0,2} maps the s = 2 blocks into s = 1 by Gysin.
    two_cells = {j for (s, _, _), j in st.term_index(0, 2).items() if s == 2}
    assert any(c in two_cells for _, c in st.row_complex(2).differential(0).entries)


def test_sign_computed_once_per_bounded_cover_pair(comp_grid1, monkeypatch):
    calls = []
    original = FaceComplex.sign

    def counting(self, gamma, delta):
        calls.append((gamma, delta))
        return original(self, gamma, delta)

    monkeypatch.setattr(FaceComplex, "sign", counting)
    st = build_steenbrink(comp_grid1)
    for b in range(0, 2 * st.dim + 1):
        st.row_complex(b)
    for p in range(st.dim + 1):
        st.k_complex(p)
        st.r_complex(p)
    # 4 sides and 1 diagonal, each over 2 vertices; 2 triangles over 3 edges.
    assert len(calls) == len(set(calls)) == 16


def test_apply_d_equals_d_matrix_on_full_term(st_e, st_f, st_grid1):
    rng = random.Random(7)
    for st in (st_e, st_f, st_grid1):
        for _ in range(40):
            (a, b, s), vec = random_homogeneous(st, rng)
            block = dict(zip(st.block_labels(a, b, s), vec))
            full = [block.get((f, i), F(0)) if ss == s else F(0)
                    for ss, f, i in st.term_labels(a, b)]
            image = st.d_matrix(a, b).mul_vec(full)
            expected = {}
            for (s2, _, _), v in zip(st.term_labels(a + 1, b), image):
                expected.setdefault((a + 1, b, s2), []).append(v)
            expected = {k: v for k, v in expected.items() if any(v)}
            assert st.apply_d({(a, b, s): vec}) == expected


def test_n_power_vec_equals_n_matrix_powers(st_a, comp_b, st_c, st_d, st_e, st_f, st_grid1):
    rng = random.Random(11)
    for st in (st_a, build_steenbrink(comp_b), st_c, st_d, st_e, st_f, st_grid1):
        for b in range(0, 2 * st.dim + 1, 2):
            for a in range(-st.dim - 1, st.dim + 2):
                vec = [F(rng.randint(-3, 3)) for _ in range(st.term_dim(a, b))]
                for k in range(st.dim + 1):
                    v, aa, bb = list(vec), a, b
                    for _ in range(k):
                        v = st.n_matrix(aa, bb).mul_vec(v)
                        aa, bb = aa + 2, bb - 2
                    assert _n_power_vec(st, a, b, vec, k) == v


def _random_homogeneous_oracle(st, rng):
    """The draw with the block list rebuilt on every call."""
    blocks = []
    d = st.dim
    for b in range(0, 2 * d + 1, 2):
        for a in range(-d, d + 1):
            for s in range(0, d + 1):
                n = st.block_dim(a, b, s)
                if n:
                    blocks.append((a, b, s, n))
    if not blocks:
        return (0, 0, 0), []
    a, b, s, n = blocks[rng.randrange(len(blocks))]
    vec = [F(rng.randint(-3, 3)) for _ in range(n)]
    if all(v == 0 for v in vec):
        vec[rng.randrange(n)] = F(1)
    return (a, b, s), vec


def test_random_homogeneous_lists_blocks_once(comp_grid1, comp_d, monkeypatch):
    for comp in (comp_grid1, comp_d):
        st, oracle_st = build_steenbrink(comp), build_steenbrink(comp)
        rng, oracle_rng = random.Random(3), random.Random(3)
        calls = []
        original = SteenbrinkPage.block_labels
        monkeypatch.setattr(SteenbrinkPage, "block_labels",
                            lambda self, *args: calls.append(self is st) or original(self, *args))
        for _ in range(50):
            assert random_homogeneous(st, rng) == _random_homogeneous_oracle(oracle_st, oracle_rng)
        d = st.dim
        assert calls.count(True) == (d + 1) * (2 * d + 1) * (d + 1)  # one listing of (a, b, s)
        monkeypatch.undo()
