"""Matroids given by a rank function, with the uniform and Boolean matroids
built in; their lattices of flats, and their Bergman fans.

The ambient lattice of a Bergman fan is Z^E / Z e_E, realized by dropping
the last coordinate (so e_last maps to minus the sum of the others); this
gives deterministic coordinates for golden tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, FrozenSet

from . import NotSimpleError
from .polyhedral import FaceComplex, make_fan

MAX_GROUND = 20


@dataclass(frozen=True)
class Matroid:
    ground: tuple[int, ...]
    rank_fn: Callable[[FrozenSet[int]], int]
    name: str = "matroid"

    def rank(self, subset) -> int:
        return self.rank_fn(frozenset(subset))

    @property
    def full_rank(self) -> int:
        return self.rank(self.ground)

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        r = self.rank(s)
        return frozenset(e for e in self.ground if self.rank(s | {e}) == r)

    def is_simple(self) -> bool:
        if any(self.rank({e}) == 0 for e in self.ground):
            return False
        for a, b in itertools.combinations(self.ground, 2):
            if self.rank({a, b}) < 2:
                return False
        return True


def uniform_matroid(n: int, r: int) -> Matroid:
    ground = tuple(range(n))
    return Matroid(ground, lambda s: min(len(s), r), name=f"U({r},{n})")


def boolean_matroid(n: int) -> Matroid:
    return Matroid(tuple(range(n)), lambda s: len(s), name=f"B{n}")


@dataclass(frozen=True)
class FlatLattice:
    """All flats of a matroid, graded by rank, with cover relations."""

    by_rank: tuple[tuple[frozenset, ...], ...]
    covers: frozenset

    @property
    def proper_flats(self) -> list[frozenset]:
        out = []
        for r, level in enumerate(self.by_rank):
            if 0 < r < len(self.by_rank) - 1:
                out.extend(level)
        return out


def flats(m: Matroid) -> FlatLattice:
    """Enumerate all flats by repeated closure, graded by rank."""
    if len(m.ground) > MAX_GROUND:
        raise NotSimpleError(f"ground set larger than {MAX_GROUND}")
    if not m.is_simple():
        raise NotSimpleError("matroid has loops or parallel elements")
    bottom = m.closure(())
    found = {bottom}
    frontier = [bottom]
    covers = set()
    while frontier:
        new = []
        for f in frontier:
            for e in sorted(set(m.ground) - f):
                g = m.closure(f | {e})
                if g not in found:
                    found.add(g)
                    new.append(g)
        frontier = new
    top_rank = m.full_rank
    by_rank: list[list[frozenset]] = [[] for _ in range(top_rank + 1)]
    for f in found:
        by_rank[m.rank(f)].append(f)
    for level in by_rank:
        level.sort(key=sorted)
    flat_list = [f for level in by_rank for f in level]
    for a in flat_list:
        for b in flat_list:
            if a < b and m.rank(b) == m.rank(a) + 1:
                covers.add((tuple(sorted(a)), tuple(sorted(b))))
    return FlatLattice(tuple(tuple(level) for level in by_rank), frozenset(covers))


def _flat_vector(flat: frozenset, n: int) -> tuple[int, ...]:
    """e_F in Z^E / Z e_E with the last coordinate dropped."""
    v = [1 if i in flat else 0 for i in range(n - 1)]
    if (n - 1) in flat:
        v = [x - 1 for x in v]
    return tuple(v)


def bergman_fan(m: Matroid) -> FaceComplex:
    """The fan of flag cones of proper flats, in Z^E / Z e_E coordinates."""
    lat = flats(m)
    n = len(m.ground)
    proper = lat.proper_flats
    chains: list[list[frozenset]] = [[]]
    # Flags of proper flats = chains in the (proper part of the) flat lattice.
    def extend(chain: list[frozenset]):
        last = chain[-1] if chain else frozenset()
        for f in proper:
            if last < f:
                nxt = chain + [f]
                chains.append(nxt)
                extend(nxt)

    extend([])
    cones = []
    for chain in chains:
        cones.append([_flat_vector(f, n) for f in chain])
    fan = make_fan(n - 1, cones, validate=False)
    return fan
