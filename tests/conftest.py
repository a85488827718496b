import pytest

from trophodge import fixtures as fx
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
    return fx.u34_fan()


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


@pytest.fixture(scope="session")
def comp_grid1():
    """grid_plane(1) compactified: two bounded triangles, so blocks with s = 2."""
    return compactify(grid_plane(1))


@pytest.fixture(scope="session")
def st_grid1(comp_grid1):
    return build_steenbrink(comp_grid1)


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
