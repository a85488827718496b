import random
from fractions import Fraction

import pytest

from trophodge import HLFailureError
from trophodge.clemens_schmid import (
    LefschetzTriple,
    _CokernelComplex,
    _KernelComplex,
    _chase_d0,
    check_hl,
    clemens_schmid_sequences,
    d0_boundary_compositions_zero,
    d0_lift_independent,
    mapping_cone_check,
    random_lefschetz_triple,
    steenbrink_triple,
    tropical_clemens_schmid,
)
from trophodge.cohomology import GradedComplex, induced_map
from trophodge.linalg import RationalMatrix, column_echelon
from trophodge.steenbrink import SteenbrinkPage


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
    # L: C^0 -> D^2 induces H^0(C) -> H^2(D); the bases default to those degrees.
    t = LefschetzTriple(GradedComplex({0: 1}, {}), GradedComplex({2: 1}, {}),
                        {0: RationalMatrix.from_rows([[3]])})
    m = induced_map(t.C, t.D, t.L, 0, shift=2)
    assert (m.rows, m.cols, m[0, 0]) == (1, 1, 3)
    assert induced_map(t.C, t.D, t.L, 0, t.C.h_basis(0), t.D.h_basis(2), shift=2) == m

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
    from trophodge.clemens_schmid import _CokernelComplex, _KernelComplex

    for _ in range(20):
        t = random_lefschetz_triple(rng)
        kc = _KernelComplex(t)
        rc = _CokernelComplex(t)
        assert all(k >= 0 for k in kc.gc.terms)
        assert all(k <= 0 for k in rc.gc.terms)


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
        for i, v in enumerate(h_k0.coordinates(kc._coords(0, b_second))):
            out[i, j] = v
    return out


def test_chase_d0_equals_dense_chase():
    rng = random.Random(41)
    for _ in range(15):
        t = random_lefschetz_triple(rng)
        kc, rc = _KernelComplex(t), _CokernelComplex(t)
        h_r0, h_k0 = rc.gc.h_basis(0), kc.gc.h_basis(0)
        shifts = [None]
        if t.C.dim(-2):
            shifts.append([Fraction(rng.randint(-2, 2)) for _ in range(t.C.dim(-2))])
        for shift in shifts:
            got = _chase_d0(t, kc, rc, h_r0, h_k0, lift_shift=shift)
            assert got == _chase_d0_dense(t, kc, rc, h_r0, h_k0, lift_shift=shift)
