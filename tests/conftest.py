import itertools

import pytest

from trophodge import fixtures as fx
from trophodge.matroids import bergman_fan, uniform_matroid
from trophodge.polyhedral import build_complex, compactify
from trophodge.steenbrink import build_steenbrink


@pytest.fixture(scope="session")
def fixa():
    return fx.fix_a()


@pytest.fixture(scope="session")
def fixb():
    return fx.fix_b()


@pytest.fixture(scope="session")
def fixc():
    return fx.fix_c()


@pytest.fixture(scope="session")
def fixd():
    return fx.fix_d()


@pytest.fixture(scope="session")
def fixe():
    return fx.fix_e()


@pytest.fixture(scope="session")
def fixf():
    return fx.fix_f()


@pytest.fixture(scope="session")
def u34():
    """Bergman fan of U(3,4); Chow dimensions (1, 7, 1)."""
    return bergman_fan(uniform_matroid(4, 3))


def grid_plane(n: int):
    """An n x n grid of unit squares, each split on its diagonal (i,j)-(i+1,j+1),
    with unbounded strips on each side and a corner cone at each corner; its
    compactification is P^1 x P^1.  Built without validation, like the
    benchmark input of the same name."""
    vid = {(i, j): k for k, (i, j) in enumerate((i, j) for i in range(n + 1) for j in range(n + 1))}
    rays = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    specs = [([k], []) for k in vid.values()]
    for (i, j), k in vid.items():
        if i < n:
            specs.append(([k, vid[i + 1, j]], []))
        if j < n:
            specs.append(([k, vid[i, j + 1]], []))
        if i < n and j < n:
            a, b, c, d = k, vid[i + 1, j], vid[i, j + 1], vid[i + 1, j + 1]
            specs += [([a, d], []), ([a, b, d], []), ([a, c, d], [])]
    sides = [(0, [vid[n, j] for j in range(n + 1)]), (1, [vid[0, j] for j in range(n + 1)]),
             (2, [vid[i, n] for i in range(n + 1)]), (3, [vid[i, 0] for i in range(n + 1)])]
    for r, side in sides:
        specs += [([v], [r]) for v in side]
        specs += [([a, b], [r]) for a, b in zip(side, side[1:])]
    for corner, rs in ((vid[n, n], [0, 2]), (vid[0, n], [1, 2]), (vid[0, 0], [1, 3]), (vid[n, 0], [0, 3])):
        specs.append(([corner], rs))
    return build_complex(2, [list(v) for v in vid], rays, specs, validate=False)


def plane_curve(d: int):
    """The tropical plane curve of degree d (max convention) dual to the unit
    triangulation of d times the standard triangle, induced by the lift
    h(i, j) = i^2 + ij + j^2.  The up-triangle on (i,j), (i+1,j), (i,j+1)
    gives the vertex (2i+j+1, i+2j+1), the down-triangle on (i+1,j), (i,j+1),
    (i+1,j+1) the vertex (2i+j+2, i+2j+2); each interior edge is a segment
    and each boundary edge a ray (0,-1), (-1,0) or (1,1).  Its genus is
    (d-1)(d-2)/2."""
    up = {(i, j): k for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(d - i))}
    down = {(i, j): len(up) + k
            for k, (i, j) in enumerate((i, j) for i in range(d - 1) for j in range(d - 1 - i))}
    vertices = [[2 * i + j + 1, i + 2 * j + 1] for i, j in up]
    vertices += [[2 * i + j + 2, i + 2 * j + 2] for i, j in down]
    specs = [([v], []) for v in range(len(vertices))]
    for (i, j), v in up.items():
        for other in (down.get((i, j - 1)), down.get((i - 1, j)), down.get((i, j))):
            if other is not None:  # across the bottom, left and diagonal edges
                specs.append(([v, other], []))
        for ray, on_boundary in ((0, j == 0), (1, i == 0), (2, i + j == d - 1)):
            if on_boundary:
                specs.append(([v], [ray]))
    return build_complex(2, vertices, [[0, -1], [-1, 0], [1, 1]], specs)


def staircase_product(a, b):
    """The product of two complexes with simplicial faces, each product of
    simplices split into the staircase simplices of its vertex pairs (the
    chains of pairs in the product of the two vertex orders), with both
    factors' rays appended.  Sound when the rays are transverse to the
    bounded part, as for a curve times fixE."""
    order_a = sorted({v for f in a.faces for v in f.vertices})
    order_b = sorted({v for f in b.faces for v in f.vertices})
    vid, rid, specs = {}, {}, set()
    for fa in a.faces:
        for fb in b.faces:
            pairs = [(u, v) for u in sorted(fa.vertices, key=order_a.index)
                     for v in sorted(fb.vertices, key=order_b.index)]
            rays = frozenset(rid.setdefault(r + (0,) * b.rank, len(rid)) for r in fa.rays) | \
                frozenset(rid.setdefault((0,) * a.rank + r, len(rid)) for r in fb.rays)
            for n in range(1, len(pairs) + 1):
                for chain in itertools.combinations(pairs, n):  # pairs are listed in lex order
                    if {u for u, _ in chain} == set(fa.vertices) and \
                            {v for _, v in chain} == set(fb.vertices) and \
                            all(order_b.index(v) <= order_b.index(w)
                                for (_, v), (_, w) in zip(chain, chain[1:])):
                        specs.add((frozenset(vid.setdefault(u + v, len(vid)) for u, v in chain),
                                   rays))
    return build_complex(a.rank + b.rank, list(vid), list(rid),
                         sorted((sorted(vs), sorted(rs)) for vs, rs in specs))


@pytest.fixture(scope="session")
def comp_grid1():
    """grid_plane(1) compactified: two bounded triangles, so blocks with s = 2."""
    return compactify(grid_plane(1))


@pytest.fixture(scope="session")
def st_grid1(comp_grid1):
    return build_steenbrink(comp_grid1)


@pytest.fixture(scope="session")
def comp_genus1():
    """A tropical curve of genus one: the unit triangle with one ray at each
    corner.  Its diamond is [[1, 1], [1, 1]], so N: H^{1,0} -> H^{0,1} is
    not a zero map, as it is on every fixture with a diagonal diamond."""
    return compactify(build_complex(
        2, [[0, 0], [1, 0], [0, 1]], [[-1, -1], [2, -1], [-1, 2]],
        [([0], []), ([1], []), ([2], []), ([0, 1], []), ([0, 2], []), ([1, 2], []),
         ([0], [0]), ([1], [1]), ([2], [2])]))


@pytest.fixture(scope="session")
def comp_a(fixa):
    return compactify(fixa)


@pytest.fixture(scope="session")
def comp_b(fixb):
    return compactify(fixb)


@pytest.fixture(scope="session")
def comp_c(fixc):
    return compactify(fixc)


@pytest.fixture(scope="session")
def comp_d(fixd):
    return compactify(fixd)


@pytest.fixture(scope="session")
def comp_e(fixe):
    return compactify(fixe)


@pytest.fixture(scope="session")
def comp_f(fixf):
    return compactify(fixf)


@pytest.fixture(scope="session")
def comp_u34(u34):
    return compactify(u34)


@pytest.fixture(scope="session")
def st_d(comp_d):
    return build_steenbrink(comp_d)


@pytest.fixture(scope="session")
def st_e(comp_e):
    return build_steenbrink(comp_e)


@pytest.fixture(scope="session")
def st_f(comp_f):
    return build_steenbrink(comp_f)


@pytest.fixture(scope="session")
def st_a(comp_a):
    return build_steenbrink(comp_a)


@pytest.fixture(scope="session")
def st_c(comp_c):
    return build_steenbrink(comp_c)
