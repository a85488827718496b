import random
import re
from fractions import Fraction

import pytest

from conftest import grid_plane, plane_curve

from trophodge import NotUnimodularError
from trophodge.chow import ChowClass
from trophodge.cohomology import hodge_diamond
from trophodge.linalg import RationalMatrix, rank
from trophodge.polyhedral import FaceComplex, build_complex, compactify
from trophodge.steenbrink import (
    SteenbrinkPage,
    _n_power_vec,
    build_steenbrink,
    cohomology_pairing_matrix,
    n_power_h_matrix,
    n_power_image,
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
            x = random_homogeneous(st, rng)
            assert st.apply_d(st.apply_n(x)) == st.apply_n(st.apply_d(x))


def test_psi_tridegree_selection(st_e):
    x = (0, 0, [F(1), F(0)])
    y = (0, 0, [F(1), F(0)])
    assert st_e.psi(x, y) == 0  # b + b' != 2d


def test_psi_fix_d_unit_against_ray_class(st_d):
    x = (0, 0, [F(1)])
    y = (0, 2, [F(1)])
    assert st_d.psi(x, y) == 1


def test_psi_identities_on_random_pairs(st_d, st_e, st_f):
    for st in (st_d, st_e, st_f):
        rng = random.Random(99)
        d = st.dim
        for _ in range(100):
            x, y = random_homogeneous(st, rng), random_homogeneous(st, rng)
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
                        row.append(st.psi((-a, b, r1), (a, 2 * d - b, v)))
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
                # K and R label each coordinate by its position in ST^{a,2p}
                got_labels = {a: [st.term_labels(a, 2 * p)[at][1:] for at in ats]
                              for a, ats in got.labels.items()}
                assert (got.terms, got.diffs, got_labels) == (terms, diffs, labels)


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
            a, b, full = random_homogeneous(st, rng)
            assert st.apply_d((a, b, full)) == (a + 1, b, st.d_matrix(a, b).mul_vec(full))


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


@pytest.mark.parametrize("name", ["comp_a", "comp_b", "comp_c", "comp_d", "comp_e", "comp_f",
                                  "grid1", "grid2", "comp_genus1"])
def test_n_power_h_matrix_matches_n_applied_k_times(name, request):
    # Oracle: apply N k times to each representative of H^a(row b), one step
    # at a time, and take the class coordinates in H^{a+2k}(row b-2k).
    x = compactify(grid_plane(int(name[-1]))) if name.startswith("grid") \
        else request.getfixturevalue(name)
    st = build_steenbrink(x)
    nonzero = 0
    for b in range(0, 2 * st.dim + 1, 2):
        for a in range(-st.dim, st.dim + 1):
            reps = st.h_basis(b, a).representatives
            for k in range(b // 2 + 1 if reps else 0):
                target = st.h_basis(b - 2 * k, a + 2 * k)
                columns = []
                for rep in reps:
                    element = (a, b, rep)
                    for _ in range(k):
                        element = st.apply_n(element)
                    columns.append(target.coordinates(element[2]))
                got = n_power_h_matrix(st, k, b, a)
                assert got == RationalMatrix.from_columns(target.dim, columns), (k, b, a)
                assert len(n_power_image(st, k, b, a)) == rank(got), (k, b, a)
                nonzero += k > 0 and not got.is_zero()
    # Every diamond here but the genus-one curve's is diagonal, so N^k with
    # k > 0 maps into a zero group; the curve's N: H^{1,0} -> H^{0,1} is onto.
    assert nonzero == (1 if name == "comp_genus1" else 0)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_plane_curve_has_hard_lefschetz_with_n_of_rank_g(d):
    # Inputs where N is not zero on cohomology: a plane curve of
    # genus g has diamond [[1, g], [g, 1]], and N: H^{1,0} -> H^{0,1}, that is
    # H^{-1}(ST^{.,2}) -> H^1(ST^{.,0}), is onto.
    g = (d - 1) * (d - 2) // 2
    x = compactify(plane_curve(d))
    assert hodge_diamond(x) == [[1, g], [g, 1]]
    st = build_steenbrink(x)
    assert verify_hl(st)["all"]
    assert len(n_power_image(st, 1, 2, -1)) == rank(n_power_h_matrix(st, 1, 2, -1)) == g


def _random_homogeneous_oracle(st, rng):
    """The draw with the block list rebuilt on every call, placed in its term."""
    blocks = []
    d = st.dim
    for b in range(0, 2 * d + 1, 2):
        for a in range(-d, d + 1):
            for s in range(0, d + 1):
                n = st.block_dim(a, b, s)
                if n:
                    blocks.append((a, b, s, n))
    if not blocks:
        return 0, 0, []
    a, b, s, n = blocks[rng.randrange(len(blocks))]
    vec = [F(rng.randint(-3, 3)) for _ in range(n)]
    if all(v == 0 for v in vec):
        vec[rng.randrange(n)] = F(1)
    block = dict(zip(st.block_labels(a, b, s), vec))
    return a, b, [block.get((f, i), F(0)) if ss == s else F(0) for ss, f, i in st.term_labels(a, b)]


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


# -- psi on full-term vectors, checked against the blockwise psi that full-term
# vectors replaced and the elementwise psi (one Chow product and degree per
# (s, face) group) that the cached block matrix replaced

def _psi_homogeneous_oracle(st, a, b, s, xv, a2, b2, s2, yv):
    if a + a2 != 0 or b + b2 != 2 * st.dim or s != s2:
        return F(0)
    labels_x = st.block_labels(a, b, s)
    labels_y = st.block_labels(a2, b2, s2)
    kx = (a + b - s) // 2
    ky = (a2 + b2 - s) // 2
    total = F(0)
    for f in st.finite_by_dim.get(s, []):
        ring = st.rings[f]
        cx = ChowClass(kx, tuple(v for (ff, _), v in zip(labels_x, xv) if ff == f))
        cy = ChowClass(ky, tuple(v for (ff, _), v in zip(labels_y, yv) if ff == f))
        if cx.coeffs and cy.coeffs:
            total += ring.pairing(cx, cy)
    return st.epsilon(a, b) * total


def _blocks(st, x):
    """{(a, b, s): block vector} of an element (a, b, vec)."""
    a, b, vec = x
    out = {}
    for (s, _, _), v in zip(st.term_labels(a, b), vec):
        out.setdefault((a, b, s), []).append(v)
    return out


def _psi_blocks_oracle(st, x, y):
    total = F(0)
    for (a, b, s), xv in _blocks(st, x).items():
        for (a2, b2, s2), yv in _blocks(st, y).items():
            total += _psi_homogeneous_oracle(st, a, b, s, xv, a2, b2, s2, yv)
    return total


def _face_groups(st, a, b, vec):
    """The coordinates of a vector of ST^{a,b}, grouped by (s, face) in basis order."""
    out = {}
    for (s, f, _), v in zip(st.term_index(a, b), vec):
        out.setdefault((s, f), []).append(v)
    return out


def _psi_elementwise_oracle(st, x, y):
    """psi with one Chow product and one degree per (s, face) group of both terms."""
    (a, b, xv), (a2, b2, yv) = x, y
    if a + a2 != 0 or b + b2 != 2 * st.dim:
        return 0
    gy = _face_groups(st, a2, b2, yv)
    total = 0
    for (s, f), cx in _face_groups(st, a, b, xv).items():
        if (s, f) in gy:
            ring = st.rings[f]
            total += ring.degree(ring.multiply(ChowClass((a + b - s) // 2, tuple(cx)),
                                               ChowClass((a2 + b2 - s) // 2, tuple(gy[s, f]))))
    return st.epsilon(a, b) * total


def test_psi_equals_blockwise_oracle(st_a, comp_b, st_c, st_d, st_e, st_f, st_grid1):
    rng = random.Random(2024)
    for st in (st_a, build_steenbrink(comp_b), st_c, st_d, st_e, st_f, st_grid1):
        d = st.dim
        matched = mismatched = nonzero = 0
        for _ in range(30):
            x, y = random_homogeneous(st, rng), random_homogeneous(st, rng)
            a, b, _ = x
            # an element of the psi-dual term, spread over all of its blocks
            dual = (-a, 2 * d - b, [F(rng.randint(-3, 3)) for _ in range(st.term_dim(-a, 2 * d - b))])
            for u, v in ((x, y), (x, dual), (dual, x), (st.apply_d(x), y), (x, st.apply_d(y)),
                         (st.apply_n(x), y), (x, st.apply_n(y)), (st.apply_d(x), st.apply_n(dual))):
                got = st.psi(u, v)
                assert got == _psi_blocks_oracle(st, u, v) == _psi_elementwise_oracle(st, u, v)
                nonzero += got != 0
                if u[0] + v[0] == 0 and u[1] + v[1] == 2 * d:
                    matched += 1
                else:
                    mismatched += 1
                    assert got == 0
        assert matched and mismatched and nonzero


# Bounded complexes that fail the page's smoothness screening at one face.  The
# bowtie's origin is face 0 of the complex and face 2 of its compactification,
# whose faces are sorted by dimension and coordinates.
_TRIANGLE = [([0], []), ([1], []), ([2], []), ([0, 1], []), ([0, 2], []), ([1, 2], []),
             ([0, 1, 2], [])]
UNSMOOTH = {
    # two unit triangles meeting only at the origin
    "bowtie": ([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]],
               _TRIANGLE + [([3], []), ([4], []), ([0, 3], []), ([0, 4], []), ([3, 4], []),
                            ([0, 3, 4], [])],
               "(0, 0) is disconnected in codim 1"),
    # a unit triangle with an edge hanging off the origin
    "pendant": ([[0, 0], [1, 0], [0, 1], [-1, -1]], [([3], [])] + _TRIANGLE + [([0, 3], [])],
                "(-1, -1) is not pure of dim 2"),
    # a triangle of lattice volume 3, so no vertex star is unimodular
    "index three": ([[0, 0], [2, 1], [1, 2]], _TRIANGLE, "(0, 0) is not unimodular"),
}


@pytest.mark.parametrize("name", sorted(UNSMOOTH))
def test_screening_names_the_face_by_its_vertices(name):
    vertices, specs, problem = UNSMOOTH[name]
    y = build_complex(2, vertices, [], specs)
    message = re.escape(f"star fan of the bounded face with vertices {problem}")
    for cx in (y, compactify(y)):
        with pytest.raises(NotUnimodularError, match=f"^{message}$"):
            build_steenbrink(cx)
