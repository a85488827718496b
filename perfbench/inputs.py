"""Benchmark inputs, generated with trophodge's public API.

Each input is a polyhedral complex with its face counts before and after
compactification and its Hodge diagonal from an oracle that shares no
code with trophodge. Every Hodge number off the diagonal is 0 on all of
them. The seed only relabels vertices, rays and faces in the JSON; the
coordinates are fixed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from trophodge.fixtures import fix_d, fix_e
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import FaceComplex, build_complex, complex_to_json, product_complex


@dataclass(frozen=True)
class Input:
    name: str
    data: dict
    faces_open: int
    faces_closed: int
    diagonal: tuple[int, ...]  # h^{p,p}; every h^{p,q} with p != q is 0

    @property
    def dim(self) -> int:
        return len(self.diagonal) - 1


def eulerian(n: int) -> tuple[int, ...]:
    """Eulerian numbers A(n, 0..n-1): the Chow dimensions of the Bergman fan of B_n."""
    return tuple(sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))
                 for k in range(n))


def uniform_rank3_diagonal(n: int) -> tuple[int, ...]:
    """Chow dimensions of the Bergman fan of U(3,n), counted from flats.

    Degree 1 has one generator per nonempty proper flat (the n points and
    the C(n,2) lines) modulo n-1 linear relations; degree 2 is the top
    degree, of dimension 1.
    """
    return (1, n + comb(n, 2) - (n - 1), 1)


def grid_plane(n: int) -> FaceComplex:
    """An n x n grid of unit squares, each split on its diagonal (i,j)-(i+1,j+1).

    Unbounded strips leave each side of the grid and a corner cone leaves
    each corner, so the recession fan is the quadrant fan and the
    compactification is P^1 x P^1. The loader validates the complex, so it
    is built here without validation.
    """
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


def shear(data: dict) -> dict:
    """The fixed unimodular shear (x, y, z) -> (x + y, y, z) of a rank-3 complex JSON."""
    def move(v):
        return [v[0] + v[1], v[1], v[2]]
    return {
        "lattice_rank": data["lattice_rank"],
        "vertices": [[str(x) for x in move([Fraction(x) for x in v])] for v in data["vertices"]],
        "rays": [move(r) for r in data["rays"]],
        "faces": data["faces"],
    }


def relabel(data: dict, rng: random.Random) -> dict:
    """The same complex with vertices, rays and faces listed in a random order."""
    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p
    vp, rp, fp = perm(len(data["vertices"])), perm(len(data["rays"])), perm(len(data["faces"]))
    vnew = {old: new for new, old in enumerate(vp)}
    rnew = {old: new for new, old in enumerate(rp)}
    faces = [data["faces"][i] for i in fp]
    return {
        "lattice_rank": data["lattice_rank"],
        "vertices": [data["vertices"][i] for i in vp],
        "rays": [data["rays"][i] for i in rp],
        "faces": [{"vertices": sorted(vnew[v] for v in f["vertices"]),
                   "rays": sorted(rnew[r] for r in f["rays"])} for f in faces],
    }


def _product_e_d_d() -> FaceComplex:
    return product_complex(product_complex(fix_e(), fix_d()), fix_d())


def build_input(name: str) -> Input:
    """Generate one named input; asserts its open face count."""
    if name == "u35":
        inp = Input(name, complex_to_json(bergman_fan(uniform_matroid(5, 3))), 36, 111,
                    uniform_rank3_diagonal(5))
    elif name == "b4":
        inp = Input(name, complex_to_json(bergman_fan(boolean_matroid(4))), 75, 365, eulerian(4))
    elif name.startswith("grid"):
        inp = Input(name, complex_to_json(grid_plane(int(name[4:]))), *GRID_FACES[int(name[4:])],
                    (1, 2, 1))
    elif name == "prod":
        inp = Input(name, complex_to_json(_product_e_d_d()), 45, 175, (1, 3, 3, 1))
    elif name == "shear":
        inp = Input(name, shear(complex_to_json(_product_e_d_d())), 45, 175, (1, 3, 3, 1))
    else:
        raise KeyError(name)
    faces = len(inp.data["faces"])
    if faces != inp.faces_open:
        raise RuntimeError(f"{name}: generated {faces} faces, expected {inp.faces_open}")
    return inp


# Face counts of grid_plane(n), open and compactified.
GRID_FACES = {1: (27, 51), 3: (99, 139)}


def write_inputs(names, seed: int, out_dir: str) -> dict[str, tuple[Input, str]]:
    """Generate, relabel by seed and write each input; returns name -> (input, path)."""
    written = {}
    for name in names:
        inp = build_input(name)
        data = relabel(inp.data, random.Random(f"{seed}:{name}"))
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        written[name] = (inp, path)
    return written
