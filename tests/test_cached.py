"""The cache discipline: results cached on the object they come from are
built once per object and die with it."""

import gc
import json
import weakref

from conftest import grid_plane
from trophodge import cohomology, fixtures
from trophodge.chow import ring_of
from trophodge.cli import main
from trophodge.cohomology import cochain_complex
from trophodge.polyhedral import compactify, complex_to_json
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
    path = tmp_path / "grid1.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(1))))
    assert main(["check-all", str(path), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["all"]
    assert pairs and len(builds) == len(pairs)


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
