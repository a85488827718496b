"""The cache discipline: results cached on the object they come from are
built once per object and die with it."""

import gc
import json
import weakref
from collections import Counter

from conftest import grid_plane
from trophodge import chow, clemens_schmid, cohomology, fixtures, polyhedral, steenbrink
from trophodge.chow import ring_of
from trophodge.cli import main
from trophodge.cohomology import cochain_complex
from trophodge.polyhedral import FaceComplex, compactify, complex_to_json
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


def test_star_fan_unimodularity_is_computed_once_per_star_fan(tmp_path, capsys, monkeypatch):
    # Computing the flag of a unimodular star fan checks each of its cones once.
    checks, stars = [0], []
    spans_unimodularly, build = polyhedral.spans_unimodularly, polyhedral._build_star_fan

    def counting(rows):
        checks[0] += 1
        return spans_unimodularly(rows)

    def recording(cx, idx):
        stars.append(build(cx, idx))
        return stars[-1]

    monkeypatch.setattr(polyhedral, "spans_unimodularly", counting)
    monkeypatch.setattr(polyhedral, "_build_star_fan", recording)
    _check_all_grid1(tmp_path, capsys)
    assert stars and all(star.unimodular for star in stars)
    assert checks[0] == sum(len(star.cones) for star in stars)


def test_hard_lefschetz_is_verified_once_per_page(tmp_path, capsys, monkeypatch):
    # check-all reads verify_hl, and so does tropical_clemens_schmid; only
    # verify_hl builds N^k: H^{-k} -> H^k on row cohomology, one per (k, b).
    builds, pages = Counter(), []
    n_power_h_matrix = steenbrink.n_power_h_matrix

    def counting(st, k, b, a):
        pages.append(st)  # keeps each page alive, so its id() stays unique
        if a == -k:
            builds[id(st), k, b] += 1
        return n_power_h_matrix(st, k, b, a)

    monkeypatch.setattr(steenbrink, "n_power_h_matrix", counting)
    _check_all_grid1(tmp_path, capsys)
    assert builds and max(builds.values()) == 1


def test_each_induced_map_of_l_is_built_once_per_triple(monkeypatch):
    # check_hl and the exact sequences both read the map that L induces on
    # cohomology; it is built once per (triple, degree).
    builds, owners = Counter(), []
    induced_map = clemens_schmid.induced_map

    def counting(source, target, chain_map, k, shift=0):
        owners.append((source, target))  # keeps each complex alive, so its id() stays unique
        builds[id(source), id(target), k, shift] += 1
        return induced_map(source, target, chain_map, k, shift)

    monkeypatch.setattr(clemens_schmid, "induced_map", counting)
    st = build_steenbrink(compactify(grid_plane(2)))
    assert clemens_schmid.tropical_clemens_schmid(st)["all"]
    assert any(shift == 2 for *_, shift in builds) and max(builds.values()) == 1


def test_caches_die_with_their_complex():
    x = compactify(fixtures.fix_f())
    for p in range(x.dim + 1):
        cochain_complex(x, p).h_basis(1)
    st = build_steenbrink(x)
    st.k_complex(1).h_basis(0)
    assert primitive_parts(st)["all"]
    ref = weakref.ref(x)
    del x, st
    gc.collect()
    assert ref() is None
