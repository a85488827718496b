import random
from fractions import Fraction

import pytest

from trophodge import DegreeMismatchError
from chow_duality import chow_mw_duality

from trophodge.chow import (
    ChowClass,
    fan_ring,
    gysin,
    is_balanced,
    minkowski_weights,
    restriction,
    ring_of,
    weight_from_class,
)
from trophodge import fixtures as fx
from trophodge.linalg import Echelon, RationalMatrix, rank
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import compactify, product_complex, recession_fan

F = Fraction


def eulerian_numbers(n):
    """Independent oracle: A(n, k) by the standard recurrence."""
    row = [1]
    for m in range(2, n + 1):
        new = [0] * m
        for k in range(m):
            left = row[k] if k < len(row) else 0
            up = row[k - 1] if k - 1 >= 0 else 0
            new[k] = (k + 1) * left + (m - k) * up
        row = new
    return row


def test_chow_dims_fix_a(fixa):
    assert fan_ring(fixa).dims() == [1, 1]


def test_chow_dims_fix_c_match_eulerian(fixc):
    assert fan_ring(fixc).dims() == eulerian_numbers(3) == [1, 4, 1]


def test_chow_dims_u34(u34):
    assert fan_ring(u34).dims() == [1, 7, 1]


def test_relations_reduce_to_zero_b4():
    # B4's degree-2 relations are not found in the order of their leading
    # monomials; the normal form must still send every one of them to zero.
    from trophodge.matroids import bergman_fan, boolean_matroid

    ring = fan_ring(bergman_fan(boolean_matroid(4)))
    assert ring.dims() == [1, 11, 11, 1]
    for p in range(1, ring.top + 1):
        for row in ring._relation_rows(p):
            assert ring.reduce_class(p, row).is_zero()


def test_degree_of_ray_classes_fix_a(fixa):
    ring = fan_ring(fixa)
    for mono in ring.monomials(1):
        assert ring.degree(ring.class_from_monomial(mono)) == 1


def test_degree_zero_class(fixa):
    ring = fan_ring(fixa)
    assert ring.degree(ring.zero(1)) == 0


def test_degree_constant_on_maximal_cones(fixc):
    ring = fan_ring(fixc)
    vals = {ring.degree(ring.class_from_monomial(m)) for m in ring.monomials(2)}
    assert vals == {F(1)}


def test_pairing_examples(fixa):
    ring = fan_ring(fixa)
    one = ring.unit()
    xr = ring.class_from_monomial(ring.monomials(1)[0])
    assert ring.pairing(one, xr) == 1
    assert ring.pairing(ring.zero(0), xr) == 0
    with pytest.raises(DegreeMismatchError):
        ring.pairing(xr, xr)


def test_pairing_gram_rank_fix_c(fixc):
    ring = fan_ring(fixc)
    basis = [ring.reduce_class(1, {m: F(1)}) for m in ring.basis(1)]
    gram = [[ring.pairing(a, b) for b in basis] for a in basis]
    assert rank(RationalMatrix.from_rows(gram)) == 4


def test_pairing_matrix_equals_degrees_of_products():
    from conftest import grid_plane

    x = compactify(grid_plane(3))
    rings = [ring_of(x.star_fan(f.index)) for f in x.faces]
    rings += [fan_ring(bergman_fan(m)) for m in (uniform_matroid(5, 3), boolean_matroid(4))]
    entries = 0
    for ring in rings:
        top = ring.top
        for k in range(top + 1):
            g = ring.pairing_matrix(k)
            assert (g.rows, g.cols) == (ring.dim(k), ring.dim(top - k))
            for i, mi in enumerate(ring.basis(k)):
                for j, mj in enumerate(ring.basis(top - k)):
                    ei, ej = ring.reduce_class(k, {mi: 1}), ring.reduce_class(top - k, {mj: 1})
                    assert g[i, j] == ring.degree(ring.multiply(ei, ej))
                    entries += g[i, j] != 0
    assert entries > 100


def test_restriction_identity_in_degree_zero(fixe):
    v0 = next(f.index for f in fixe.faces if f.dim == 0 and f.vertices[0][0] == 0)
    e01 = next(f.index for f in fixe.faces if f.dim == 1 and not f.rays)
    rg = ring_of(fixe.star_fan(v0))
    rd = ring_of(fixe.star_fan(e01))
    img = restriction(fixe, v0, e01, rg.unit())
    assert img == rd.unit()


def test_restriction_into_vanishing_target(fixe):
    v0 = next(f.index for f in fixe.faces if f.dim == 0 and f.vertices[0][0] == 0)
    e01 = next(f.index for f in fixe.faces if f.dim == 1 and not f.rays)
    rg = ring_of(fixe.star_fan(v0))
    rho = rg.star.ray_position(e01)
    a = rg.reduce_class(1, {frozenset({rho}): F(1)})
    img = restriction(fixe, v0, e01, a)
    assert img.coeffs == ()  # A^1 of a point fan is zero


def test_restriction_independent_of_functional(fixf):
    from trophodge.polyhedral import compactify

    x = compactify(fixf)
    v0 = next(f.index for f in x.faces
              if f.dim == 0 and not f.sedentarity and not f.rays)
    edge = next(f.index for f in x.faces
                if f.dim == 1 and not f.sedentarity and (v0, f.index) in x.order)
    rg = ring_of(x.star_fan(v0))
    for mono in rg.basis(1):
        a = rg.reduce_class(1, {mono: F(1)})
        assert restriction(x, v0, edge, a, tweak=0) == restriction(x, v0, edge, a, tweak=1)


def test_gysin_unit_gives_ray_class(fixa):
    origin = next(f.index for f in fixa.faces if f.dim == 0)
    ray10 = next(f.index for f in fixa.faces if f.dim == 1 and f.rays[0] == (1, 0))
    rg = fan_ring(fixa)
    rd = ring_of(fixa.star_fan(ray10))
    img = gysin(fixa, origin, ray10, rd.unit())
    rho = rg.star.ray_position(ray10)
    assert img == rg.reduce_class(1, {frozenset({rho}): F(1)})
    assert rg.degree(img) == 1


def test_projection_formula_on_fix_c_stars(fixc):
    origin = next(f.index for f in fixc.faces if f.dim == 0)
    rg = fan_ring(fixc)
    for ray in [f.index for f in fixc.faces if f.dim == 1][:3]:
        rd = ring_of(fixc.star_fan(ray))
        for am in rd.basis(0):
            a = rd.reduce_class(0, {am: F(1)})
            for bm in rg.basis(1):
                b = rg.reduce_class(1, {bm: F(1)})
                lhs = rg.degree(rg.multiply(gysin(fixc, origin, ray, a), b))
                rhs = rd.degree(rd.multiply(a, restriction(fixc, origin, ray, b)))
                assert lhs == rhs


def test_restriction_is_ring_map_on_products(fixc):
    origin = next(f.index for f in fixc.faces if f.dim == 0)
    rg = fan_ring(fixc)
    ray = next(f.index for f in fixc.faces if f.dim == 1)
    rd = ring_of(fixc.star_fan(ray))
    basis1 = [rg.reduce_class(1, {m: F(1)}) for m in rg.basis(1)]
    for a in basis1:
        for b in basis1:
            prod_then_restrict = restriction(fixc, origin, ray, rg.multiply(a, b))
            restrict_then_prod = rd.multiply(restriction(fixc, origin, ray, a),
                                             restriction(fixc, origin, ray, b))
            assert prod_then_restrict == restrict_then_prod


def test_minkowski_weights_fix_a(fixa):
    basis = minkowski_weights(fixa, 1)
    assert len(basis) == 1
    vals = set(dict(basis[0].weights).values())
    assert len(vals) == 1  # all-ones up to scale
    assert is_balanced(fixa, basis[0])


def test_minkowski_weights_dim_zero(fixa):
    assert len(minkowski_weights(fixa, 0)) == 1


def test_minkowski_weights_fix_c_rank_matches_chow(fixc):
    assert len(minkowski_weights(fixc, 1)) == fan_ring(fixc).dim(1) == 4


def test_duality_fix_a(fixa):
    m1 = chow_mw_duality(fixa, 1)
    assert len(m1) == 1 and abs(m1[0][0]) == 1
    m0 = chow_mw_duality(fixa, 0)
    assert len(m0) == 1 and m0[0][0] != 0


def test_duality_all_fixture_fans(fixa, fixb, fixc, u34):
    for fan in (fixa, fixb, fixc, u34):
        top = fan.dim
        for p in range(top + 1):
            matrix = chow_mw_duality(fan, p)  # raises when degenerate
            assert len(matrix) == fan_ring(fan).dim(p)


def test_mw_evaluation_invariant_under_relation_shift(fixc):
    # The evaluation pairing must kill every linear relation multiplied into
    # degree one, so its value is independent of the chosen representative.
    ring = fan_ring(fixc)
    weights = minkowski_weights(fixc, 1)
    rel_rows = ring._relation_rows(1)
    assert rel_rows
    for w in weights:
        wd = w.as_dict()
        for row in rel_rows:
            total = F(0)
            for mono, coeff in row.items():
                total += coeff * wd.get(ring.star.cone_label(mono), F(0))
            assert total == 0


def test_weight_from_class_is_balanced(fixc):
    ring = fan_ring(fixc)
    for mono in ring.basis(1):
        w = weight_from_class(ring, ring.reduce_class(1, {mono: F(1)}))
        assert is_balanced(fixc, w)


def _direct_reduce(ring, p, combo):
    """The class of a combination by one reduction of the whole of it modulo
    the relations: its remainder is the expansion over the basis."""
    relations, basis = ring._presentation(p)[:2]
    index = {mono: i for i, mono in enumerate(ring.monomials(p))}
    vec = {}
    for mono, c in combo.items():
        vec[index[mono]] = vec.get(index[mono], 0) + c
    rem, _ = relations.reduce(vec)
    return tuple(rem.get(index[m], 0) for m in basis)


def _direct_multiply(ring, a, b):
    acc = {}
    for ma, ca in zip(ring.basis(a.degree), a.coeffs):
        for mb, cb in zip(ring.basis(b.degree), b.coeffs):
            for mono, c in ring.reduce_monomial(tuple(sorted(ma)) + tuple(sorted(mb))).items():
                acc[mono] = acc.get(mono, 0) + ca * cb * c
    return _direct_reduce(ring, a.degree + b.degree, acc)


@pytest.mark.parametrize("matroid", ["u35", "b4"])
def test_normal_forms_match_direct_reduction(matroid):
    # The ring of the fan and the rings of the star fans at its rays.
    fan = bergman_fan(uniform_matroid(5, 3) if matroid == "u35" else boolean_matroid(4))
    rings = [fan_ring(fan)] + [ring_of(fan.star_fan(f.index)) for f in fan.faces_of_dim(1)[:3]]
    rng = random.Random(f"normal-forms:{matroid}")

    def coeff():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    for ring in rings:
        top = ring.top
        eta = ring.monomials(top)[0]
        norm = _direct_reduce(ring, top, {eta: 1})[0]
        for p in range(top + 1):
            for _ in range(4):
                combo = {rng.choice(ring.monomials(p)): coeff() for _ in range(3)}
                assert ring.reduce_class(p, combo).coeffs == _direct_reduce(ring, p, combo)
        for pa in range(top + 1):
            for pb in range(top + 1 - pa):
                a = ChowClass(pa, tuple(coeff() for _ in ring.basis(pa)))
                b = ChowClass(pb, tuple(coeff() for _ in ring.basis(pb)))
                assert ring.multiply(a, b).coeffs == _direct_multiply(ring, a, b)
                if pa + pb == top:
                    assert ring.pairing(a, b) == _direct_multiply(ring, a, b)[0] / norm


def _relation_rows_oracle(ring, p):
    """The relations as they were built before: x_tau times each unit
    functional sum_rho v_rho[i] x_rho, with the squares rewritten."""
    rows = []
    for tau in ring.monomials(p - 1):
        base = tuple(sorted(tau))
        for i in range(ring.rank):
            row = {}
            for pos in range(ring.nrays):
                c = ring.star.ray_vectors[pos][i]
                if c == 0:
                    continue
                for mono, coeff in ring.reduce_monomial(base + (pos,)).items():
                    row[mono] = row.get(mono, 0) + c * coeff
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def _oracle_rings():
    from conftest import grid_plane

    fans = [bergman_fan(m) for m in (boolean_matroid(4), uniform_matroid(5, 3),
                                     uniform_matroid(5, 4))]
    fixtures = [fx.fix_a(), fx.fix_b(), fx.fix_c(), fx.fix_d(), fx.fix_e(), fx.fix_f()]
    rings = [fan_ring(f) for f in fans] + [fan_ring(recession_fan(f)) for f in fixtures]
    product = product_complex(product_complex(fx.fix_e(), fx.fix_d()), fx.fix_d())
    for y in fixtures + [grid_plane(2), product]:
        x = compactify(y)
        rings += [ring_of(x.star_fan(f.index)) for f in x.faces]
    return rings


def test_relations_from_annihilators_match_rewritten_unit_functionals():
    # The two relation sets span one row space, so the echelon's pivots, the
    # basis and every monomial's normal form are the same.
    cases = 0
    for ring in _oracle_rings():
        for p in range(1, ring.top + 1):
            monos = ring.monomials(p)
            index = {mono: i for i, mono in enumerate(monos)}
            oracle = Echelon({index[m]: c for m, c in row.items()}
                             for row in _relation_rows_oracle(ring, p))
            relations, basis, _ = ring._presentation(p)
            assert set(relations.pivots) == set(oracle.pivots)
            assert basis == [m for i, m in enumerate(monos) if i not in oracle.pivots]
            for mono in monos:
                rem, _ = oracle.reduce({index[mono]: 1})
                assert ring._normal_form(p, mono) == {monos[j]: c for j, c in rem.items()}
            cases += 1
    assert cases > 200
