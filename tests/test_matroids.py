import itertools

import pytest

from trophodge import NotSimpleError
from trophodge.matroids import Matroid, bergman_fan, boolean_matroid, flats, uniform_matroid


def graphic_matroid(edges) -> Matroid:
    """The cycle matroid of a graph: the rank of a set of edges is the number
    of vertices they touch minus the number of components they form."""
    def rk(s: frozenset) -> int:
        parent = {v: v for i in s for v in edges[i]}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        merges = 0
        for i in s:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a != b:
                parent[a] = b
                merges += 1
        return merges

    return Matroid(tuple(range(len(edges))), rk, name=f"graphic({len(edges)} edges)")


def bases_matroid(ground_size: int, bases) -> Matroid:
    bsets = [frozenset(b) for b in bases]
    return Matroid(tuple(range(ground_size)), lambda s: max(len(s & b) for b in bsets), name="bases")


def check_rank_axioms(m: Matroid) -> bool:
    """The rank axioms on every subset of the ground set: r(empty) = 0, unit
    increase r(S) <= r(S + e) <= r(S) + 1, and submodularity in its local
    form r(S + e) + r(S + f) >= r(S + e + f) + r(S).  With unit increase the
    local form gives r(S) + r(T) >= r(S | T) + r(S & T) for all S and T, by
    induction on the size of T - S."""
    ground = m.ground
    ranks = {frozenset(c): m.rank(c) for k in range(len(ground) + 1)
             for c in itertools.combinations(ground, k)}
    if ranks[frozenset()] != 0:
        return False
    for s, r in ranks.items():
        rest = [e for e in ground if e not in s]
        if not all(r <= ranks[s | {e}] <= r + 1 for e in rest):
            return False
        if any(ranks[s | {e}] + ranks[s | {f}] < ranks[s | {e, f}] + r
               for e, f in itertools.combinations(rest, 2)):
            return False
    return True


def test_rank_axioms_spot_checked():
    for m in (uniform_matroid(4, 2), boolean_matroid(3),
              graphic_matroid([(0, 1), (1, 2), (0, 2)])):
        assert check_rank_axioms(m)
    assert uniform_matroid(3, 2).full_rank == 2 and boolean_matroid(4).full_rank == 4
    # Not a matroid: {0, 1} and {0, 2} have rank 1, but {0, 1, 2} has rank 2.
    assert not check_rank_axioms(Matroid((0, 1, 2), lambda s: min(len(s), 1 + (s >= {1, 2}))))
    assert not check_rank_axioms(Matroid((0, 1), lambda s: len(s) + 1))


def test_rank_axioms_are_checked_on_thirteen_elements():
    # U(3,13) except that one 7-set drops to rank 2: a 13-element rank
    # function is checked on every subset, not passed unchecked.
    seven = frozenset(range(7))
    broken = Matroid(tuple(range(13)), lambda s: 2 if s == seven else min(len(s), 3))
    assert check_rank_axioms(uniform_matroid(13, 3))
    assert not check_rank_axioms(broken)


def test_flats_u23():
    lat = flats(uniform_matroid(3, 2))
    assert sorted(sorted(f) for f in lat.proper_flats) == [[0], [1], [2]]


def test_flats_boolean3():
    lat = flats(boolean_matroid(3))
    proper = sorted(sorted(f) for f in lat.proper_flats)
    assert proper == [[0], [0, 1], [0, 2], [1], [1, 2], [2]]


def test_flats_u11_no_proper():
    assert flats(uniform_matroid(1, 1)).proper_flats == []


def test_not_simple_rejected():
    with pytest.raises(NotSimpleError):
        flats(uniform_matroid(2, 1))  # parallel elements
    loops = bases_matroid(2, [[0]])  # element 1 is a loop
    with pytest.raises(NotSimpleError):
        flats(loops)


def test_bergman_u23_is_fix_a(fixa):
    rays = sorted(f.rays[0] for f in fixa.faces if f.dim == 1)
    assert rays == [(-1, -1), (0, 1), (1, 0)]
    assert len(fixa.faces_of_dim(2)) == 0


def test_bergman_boolean3_is_permutohedral(fixc):
    assert len(fixc.faces_of_dim(1)) == 6
    assert len(fixc.faces_of_dim(2)) == 6
    rays = sorted(f.rays[0] for f in fixc.faces if f.dim == 1)
    assert rays == [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]


def test_bergman_rank_one_is_zero_fan():
    fan = bergman_fan(uniform_matroid(1, 1))
    assert {f.dim for f in fan.faces} == {0}


def test_bergman_pure_dimension(fixa, fixc, u34):
    for fan, r in ((fixa, 1), (fixc, 2), (u34, 2)):
        assert fan.dim == r
        tops = {f.index for f in fan.faces_of_dim(r)}
        assert all(f.index in tops or fan.cofaces(f.index) & tops for f in fan.faces)


def test_cone_counts_equal_flag_counts(u34):
    lat = flats(uniform_matroid(4, 3))
    proper = lat.proper_flats
    flags1 = len(proper)
    flags2 = sum(1 for a, b in itertools.permutations(proper, 2) if a < b)
    assert len(u34.faces_of_dim(1)) == flags1 == 10
    assert len(u34.faces_of_dim(2)) == flags2 == 12


def test_bergman_cones_unimodular(fixa, fixc, u34):
    for fan in (fixa, fixc, u34):
        assert all(f.unimodular for f in fan.faces)
