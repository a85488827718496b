"""The cache discipline: results cached on the object they come from are
built once per object and die with it."""

import gc
import json
import weakref
from collections import Counter

import pytest

from conftest import grid_plane
from trophodge import cached, chow, clemens_schmid, cohomology, fixtures, lattice, polyhedral, steenbrink
from trophodge.chow import ChowRing, ring_of
from trophodge.cli import main
from trophodge.cohomology import CoefficientSpace, _fp_spaces, cochain_complex
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import FaceComplex, compactify, complex_to_json, make_fan, product_complex
from trophodge.steenbrink import build_steenbrink, primitive_parts


def test_cached_results_are_the_same_object(comp_grid1, st_grid1):
    x, st = comp_grid1, st_grid1
    v = st.finite_by_dim[0][0]
    assert x.star_fan(v) is x.star_fan(v)
    assert ring_of(x.star_fan(v)) is ring_of(x.star_fan(v))
    assert cochain_complex(x, 1) is cochain_complex(x, 1)
    assert st.row_complex(2).h_basis(0) is st.row_complex(2).h_basis(0)
    assert st.h_basis(2, 0) is st.row_complex(2).h_basis(0)
    assert st.k_complex(1) is st.k_complex(1)


def _check_all_grid1(tmp_path, capsys):
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["check-all", str(path), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all"]


def test_each_cohomology_basis_is_built_once(tmp_path, capsys, monkeypatch):
    builds, pairs, owners = [], set(), []

    class CountingQuotientBasis(cohomology.QuotientBasis):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    h_basis = cohomology.GradedComplex.h_basis

    def recording_h_basis(complex_, k):
        owners.append(complex_)  # keeps each complex alive, so its id() stays unique
        pairs.add((id(complex_), k))
        return h_basis(complex_, k)

    # Only GradedComplex.h_basis builds a QuotientBasis inside `cohomology`.
    monkeypatch.setattr(cohomology, "QuotientBasis", CountingQuotientBasis)
    monkeypatch.setattr(cohomology.GradedComplex, "h_basis", recording_h_basis)
    _check_all_grid1(tmp_path, capsys)
    assert pairs and len(builds) == len(pairs)


def test_each_monomial_normal_form_is_built_once_per_ring(tmp_path, capsys, monkeypatch):
    # The relations of a degree are the only echelon form `chow` builds; a
    # normal form is one reduction of a single monomial's position.
    reductions, owners = Counter(), []

    class CountingEchelon(chow.Echelon):
        def reduce(self, row):
            owners.append(self)  # keeps each echelon alive, so its id() stays unique
            reductions[id(self), tuple(sorted(row.items()))] += 1
            return super().reduce(row)

    monkeypatch.setattr(chow, "Echelon", CountingEchelon)
    _check_all_grid1(tmp_path, capsys)
    assert reductions and max(reductions.values()) == 1
    assert all(len(row) == 1 for _, row in reductions)


def test_each_balancing_matrix_is_built_once_per_complex_and_dimension(tmp_path, capsys,
                                                                        monkeypatch):
    # Only the balancing matrix reads primitive normals, one per face pair,
    # and each pair (gamma, delta) belongs to the matrix of dimension dim delta.
    reads, owners = Counter(), []
    primitive_normal = FaceComplex.primitive_normal

    def counting(y, gamma, delta):
        owners.append(y)
        reads[id(y), gamma, delta] += 1
        return primitive_normal(y, gamma, delta)

    monkeypatch.setattr(FaceComplex, "primitive_normal", counting)
    _check_all_grid1(tmp_path, capsys)
    assert reads and max(reads.values()) == 1


STAR_FAN_INPUTS = {
    **{f"fix{c}": getattr(fixtures, f"fix_{c.lower()}") for c in "ABCDEF"},
    **{f"grid{n}": (lambda n=n: grid_plane(n)) for n in (1, 2, 3)},
    "u35": lambda: bergman_fan(uniform_matroid(5, 3)),
    "b4": lambda: bergman_fan(boolean_matroid(4)),
    "prod": lambda: product_complex(product_complex(fixtures.fix_e(), fixtures.fix_d()), fixtures.fix_d()),
}


@pytest.mark.parametrize("name", sorted(STAR_FAN_INPUTS))
def test_star_fan_unimodularity_matches_cone_by_cone_oracle(name, monkeypatch):
    # Every face of these compactifications is unimodular, so the flag is
    # read off the face flags without checking a cone; the oracle checks
    # every cone of every star fan.
    checks = []
    monkeypatch.setattr(polyhedral, "spans_unimodularly", lambda rows: checks.append(rows) or True)
    x = compactify(STAR_FAN_INPUTS[name]())
    for face in x.faces:
        star = x.star_fan(face.index)
        want = all(lattice.spans_unimodularly([star.ray_vectors[i] for i in sorted(rays)])
                   for _, rays in star.cones)
        assert star.unimodular == want
    assert not checks


def test_star_fan_unimodularity_is_computed_once_per_star_fan(monkeypatch):
    # The cone on (1, 0) and (1, 2) has index 2.  The star fan of the origin
    # has it as a cone, so the flag falls back to checking each cone once,
    # and finds it; in the star fan of the ray (1, 0) it projects to a
    # unimodular cone, which the fallback confirms.  A second read is cached.
    checks = []
    spans_unimodularly = polyhedral.spans_unimodularly
    monkeypatch.setattr(polyhedral, "spans_unimodularly",
                        lambda rows: checks.append(rows) or spans_unimodularly(rows))
    fan = make_fan(2, [[(1, 0), (1, 2)]])
    cone = next(f for f in fan.faces if f.dim == 2)
    assert not cone.unimodular
    for base, want in (((), False), (((1, 0),), True)):
        star = fan.star_fan(next(f.index for f in fan.faces if f.rays == base))
        checks.clear()
        assert star.unimodular is want and star.unimodular is want
        assert len(checks) == len(star.cones) == (4 if base == () else 2)
        assert sorted(map(tuple, checks)) == sorted(tuple(star.ray_vectors[i] for i in sorted(rays))
                                                    for _, rays in star.cones)


def test_hard_lefschetz_is_verified_once_per_page(tmp_path, capsys, monkeypatch):
    # check-all reads verify_hl, and so does tropical_clemens_schmid; only
    # verify_hl reads the rank of N^k: H^{-k} -> H^k on row cohomology, once
    # per (k, b).
    reads, pages = Counter(), []
    n_power_image = steenbrink.n_power_image

    def counting(st, k, b, a):
        pages.append(st)  # keeps each page alive, so its id() stays unique
        if a == -k:
            reads[id(st), k, b] += 1
        return n_power_image(st, k, b, a)

    monkeypatch.setattr(steenbrink, "n_power_image", counting)
    _check_all_grid1(tmp_path, capsys)
    assert reads and max(reads.values()) == 1


def test_check_hl_and_the_sequences_share_the_rank_of_l(monkeypatch):
    # check_hl and the exact sequences both read the rank of the map that L
    # induces on cohomology; check_hl computes it, once per (triple, degree),
    # and the sequences read that same rank again.
    builds, reads, triples = Counter(), Counter(), []
    raw = clemens_schmid.LefschetzTriple.map_rank.__wrapped__

    @cached
    def computing(t, kind, k):
        builds[id(t), kind, k] += 1
        return raw(t, kind, k)

    def reading(t, kind, k):
        triples.append(t)  # keeps each triple alive, so its id() stays unique
        reads[id(t), kind, k] += 1
        return computing(t, kind, k)

    monkeypatch.setattr(clemens_schmid.LefschetzTriple, "map_rank", reading)
    st = build_steenbrink(compactify(grid_plane(2)))
    for p in range(st.dim + 1):
        t = clemens_schmid.steenbrink_triple(st, p)
        clemens_schmid.check_hl(t)
        keys = [(id(t), "lmap", k) for k in t.degrees()]
        assert all(builds[key] == reads[key] == 1 for key in keys)
        assert clemens_schmid.clemens_schmid_sequences(t).all_exact
        assert all(builds[key] == 1 for key in keys)
        assert sum(reads[key] for key in keys) > 2 * len(keys)


def test_caches_die_with_their_complex():
    # The rings and coefficient spaces shared by the faces of one geometry
    # are kept on the complex, so they go with it: a table outside it would
    # keep them, or it, alive.
    x = compactify(fixtures.fix_f())
    for p in range(x.dim + 1):
        cochain_complex(x, p).h_basis(1)
    st = build_steenbrink(x)
    st.k_complex(1).h_basis(0)
    assert primitive_parts(st)["all"]
    refs = [weakref.ref(x)]
    refs += [weakref.ref(ring) for ring in st.rings.values()]
    refs += [weakref.ref(space) for p in range(x.dim + 1) for space in _fp_spaces(x, p).values()]
    del x, st
    gc.collect()
    assert len(refs) > 1 and all(ref() is None for ref in refs)


@pytest.mark.parametrize("name, rings, spaces", [("grid3", 10, 9), ("prod", 2, 27), ("u35", 1, 71)])
def test_shared_rings_and_spaces_equal_those_built_for_each_face(name, rings, spaces):
    # A ring is a function of its star's rank, ray vectors and cones, and a
    # space of its stratum and span: so the one shared by the faces of a
    # geometry equals the one built for each face from its own star, and from
    # the tangents of all its same-sedentarity cofaces (which span the same
    # wedge powers as the maximal ones).  Every space of grid3 and prod is
    # all of its wedge power; those of u35 are not.
    x = compactify(STAR_FAN_INPUTS[name]())
    st = build_steenbrink(x)
    assert len(set(map(id, st.rings.values()))) == rings
    for f in x.faces:
        star = x.star_fan(f.index)
        shared, own = ring_of(star), ChowRing(star.rank, star.ray_vectors,
                                              frozenset(rays for _, rays in star.cones))
        for p in range(own.top + 1):
            assert shared.basis(p) == own.basis(p)
            mine, theirs = shared.pairing_matrix(p), own.pairing_matrix(p)
            assert (mine.rows, mine.cols, mine.entries) == (theirs.rows, theirs.cols, theirs.entries)
    for p in range(x.dim + 1):
        table = _fp_spaces(x, p)
        assert len(set(map(id, table.values()))) == spaces < len(table)
        for f in x.faces:
            same = [f.index] + [j for j in x.cofaces(f.index)
                                if x.faces[j].sedentarity == f.sedentarity]
            own = CoefficientSpace(x.stratum(f.sedentarity)[0], p,
                                   frozenset(x.faces[j].tangent for j in same))
            assert (table[f.index].pivots, table[f.index].basis) == (own.pivots, own.basis)
