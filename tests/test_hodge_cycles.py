from fractions import Fraction

import pytest

from cochains import (
    cochain_is_cocycle,
    cochain_vector,
    is_cochain_coboundary,
    pair_class_with_weight,
    pair_cochain_with_weight,
)

from trophodge import IncompatibleClassError
from trophodge.chow import ChowClass, is_balanced, minkowski_weights
from trophodge.hodge_cycles import (
    HodgeClass,
    hodge_locus_basis,
    hodge_to_cycle,
    k_cocycle_vectors,
    numerical_vs_homological,
    verify_class,
    zigzag_representative,
)

F = Fraction


def test_locus_basis_fix_d(st_d):
    basis = hodge_locus_basis(st_d, 1)
    assert len(basis) == 1
    (v, cls), = basis[0].classes.items()
    assert cls.coeffs == (F(1),)  # the ray class in A^1 of the complete line fan


def test_locus_basis_p0_is_all_ones(st_d, st_e):
    for st in (st_d, st_e):
        basis = hodge_locus_basis(st, 0)
        assert len(basis) == 1
        vals = {cls.coeffs for cls in basis[0].classes.values()}
        assert vals == {(F(1),)}


def test_locus_basis_fix_f_two_dim(st_f):
    assert len(hodge_locus_basis(st_f, 1)) == 2


def test_cycle_fix_d_weight_one_on_vertex(st_d):
    alpha = hodge_locus_basis(st_d, 1)[0]
    cyc = hodge_to_cycle(st_d, alpha)
    assert cyc.k == 0
    assert len(cyc.weight.weights) == 1
    face, val = cyc.weight.weights[0]
    assert val == 1
    assert st_d.x.faces[face].dim == 0 and not st_d.x.faces[face].sedentarity


def test_cycle_of_zero_class(st_d):
    zero = HodgeClass(1, {v: st_d.rings[v].zero(1) for v in st_d.finite_by_dim[0]})
    cyc = hodge_to_cycle(st_d, zero)
    assert cyc.weight.weights == ()


def test_cycles_fix_f_are_factor_lines(st_f):
    lines = []
    for alpha in hodge_locus_basis(st_f, 1):
        cyc = hodge_to_cycle(st_f, alpha)
        faces = sorted(cyc.weight.as_dict())
        rays = sorted(st_f.x.faces[f].rays[0] for f in faces)
        assert all(v == 1 for v in cyc.weight.as_dict().values())
        lines.append(tuple(rays))
    assert sorted(lines) == [(((-1, 0)), ((1, 0))), (((0, -1)), ((0, 1)))]


def test_incompatible_class_rejected(st_e):
    # Degree-zero components that differ along the bounded edge violate the
    # compatibility condition.
    v0, v1 = st_e.finite_by_dim[0]
    bad = HodgeClass(0, {v0: st_e.rings[v0].unit(), v1: st_e.rings[v1].zero(0)})
    with pytest.raises(IncompatibleClassError):
        hodge_to_cycle(st_e, bad)


def test_glued_cycles_balanced(st_f, st_c):
    for st in (st_f, st_c):
        for alpha in hodge_locus_basis(st, 1):
            cyc = hodge_to_cycle(st, alpha)
            assert is_balanced(st.x, cyc.weight)


def test_cycle_linearity(st_f):
    a, b = hodge_locus_basis(st_f, 1)
    summed = HodgeClass(1, {v: a.classes[v].add(b.classes[v]) for v in a.classes})
    cyc = hodge_to_cycle(st_f, summed)
    wa = hodge_to_cycle(st_f, a).weight.as_dict()
    wb = hodge_to_cycle(st_f, b).weight.as_dict()
    expect = {f: wa.get(f, F(0)) + wb.get(f, F(0)) for f in set(wa) | set(wb)}
    assert {f: v for f, v in expect.items() if v} == cyc.weight.as_dict()


def test_verify_class_round_trip(st_d, st_f, st_c):
    for st in (st_d, st_f, st_c):
        for alpha in hodge_locus_basis(st, 1):
            cyc = hodge_to_cycle(st, alpha)
            assert verify_class(st, alpha, cyc)


def test_verify_class_zero_cases(st_d):
    zero = HodgeClass(1, {v: st_d.rings[v].zero(1) for v in st_d.finite_by_dim[0]})
    zero_cycle = hodge_to_cycle(st_d, zero)
    assert verify_class(st_d, zero, zero_cycle)
    nonzero_cycle = hodge_to_cycle(st_d, hodge_locus_basis(st_d, 1)[0])
    assert not verify_class(st_d, zero, nonzero_cycle)


def test_numerical_vs_homological(st_d, st_f, st_c):
    for st in (st_d, st_f, st_c):
        for p in range(st.dim + 1):
            report = numerical_vs_homological(st, p)
            assert report["square"] and report["nondegenerate"]
            assert report["splitting"] and report["orthogonal"]


def test_numerical_vs_homological_empty_kernel_is_vacuous(st_d):
    report = numerical_vs_homological(st_d, st_d.dim + 1)
    assert report["pairing"] == []
    assert report["nondegenerate"]


def test_zigzag_tp1(st_d):
    alpha = hodge_locus_basis(st_d, 1)[0]
    cochain = zigzag_representative(st_d, alpha)
    vec = cochain_vector(st_d.x, 1, cochain)
    assert cochain_is_cocycle(st_d.x, 1, vec)
    w = minkowski_weights(st_d.x, 1)[0]
    scale = sum(dict(w.weights).values()) / len(w.weights)
    assert pair_cochain_with_weight(st_d.x, 1, cochain, w) == \
        pair_class_with_weight(st_d, alpha, w)
    # The fundamental weight (all ones) pairs to one.
    ones = type(w)(1, tuple((f, F(1)) for f, _ in w.weights))
    assert pair_cochain_with_weight(st_d.x, 1, cochain, ones) == 1


def test_zigzag_zero_class_is_coboundary(st_d):
    zero = HodgeClass(1, {v: st_d.rings[v].zero(1) for v in st_d.finite_by_dim[0]})
    cochain = zigzag_representative(st_d, zero)
    vec = cochain_vector(st_d.x, 1, cochain)
    assert cochain_is_cocycle(st_d.x, 1, vec)
    assert is_cochain_coboundary(st_d.x, 1, vec)


def test_zigzag_fix_f_supported_on_matching_line(st_f):
    x = st_f.x
    for alpha in hodge_locus_basis(st_f, 1):
        cyc = hodge_to_cycle(st_f, alpha)
        cochain = zigzag_representative(st_f, alpha)
        vec = cochain_vector(x, 1, cochain)
        assert cochain_is_cocycle(x, 1, vec)
        for w in minkowski_weights(x, 1):
            assert pair_cochain_with_weight(x, 1, cochain, w) == \
                pair_class_with_weight(st_f, alpha, w)


def test_zigzag_class_independent_of_pivots(st_d, st_f):
    for st in (st_d, st_f):
        for alpha in hodge_locus_basis(st, 1):
            base = cochain_vector(st.x, 1, zigzag_representative(st, alpha))
            for tweak in (1, 5):
                other = cochain_vector(st.x, 1, zigzag_representative(st, alpha, pivot_tweak=tweak))
                diff = [a - b for a, b in zip(base, other)]
                assert is_cochain_coboundary(st.x, 1, diff)


def test_k_cocycles_match_compat_condition(st_e):
    # Cocycles of K^{0,2} are exactly the families agreeing along edges.
    from trophodge.chow import restriction

    vecs = k_cocycle_vectors(st_e, 1)
    labels = st_e.block_labels(0, 2, 0)
    v0, v1 = st_e.finite_by_dim[0]
    edge = st_e.finite_by_dim[1][0]
    for vec in vecs:
        comp = {}
        for v in (v0, v1):
            ring = st_e.rings[v]
            coeffs = [F(0)] * ring.dim(1)
            for (f, i), val in zip(labels, vec):
                if f == v:
                    coeffs[i] = val
            comp[v] = ChowClass(1, tuple(coeffs))
        r0 = restriction(st_e.x, v0, edge, comp[v0])
        r1 = restriction(st_e.x, v1, edge, comp[v1])
        assert r0 == r1
