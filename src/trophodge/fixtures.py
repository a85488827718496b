"""Built-in desk fixtures: small fans and complexes used across the suite."""

from __future__ import annotations

import json
import os

from .matroids import bergman_fan, boolean_matroid, uniform_matroid
from .polyhedral import FaceComplex, build_complex, complex_to_json, make_fan, product_complex


def fix_a() -> FaceComplex:
    """Bergman fan of U(2,3): rays (1,0), (0,1), (-1,-1)."""
    return bergman_fan(uniform_matroid(3, 2))


def fix_b() -> FaceComplex:
    """The complete fan on the line (rays +1 and -1)."""
    return make_fan(1, [[(1,)], [(-1,)]])


def fix_c() -> FaceComplex:
    """Bergman fan of the Boolean matroid on three elements (permutohedral)."""
    return bergman_fan(boolean_matroid(3))


def fix_d() -> FaceComplex:
    """The line with one vertex at the origin and two unbounded edges."""
    return build_complex(1, [[0]], [[1], [-1]],
                         [([0], []), ([0], [0]), ([0], [1])])


def fix_e() -> FaceComplex:
    """The line subdivided at 0 and 1: a bounded edge plus two rays."""
    return build_complex(1, [[0], [1]], [[1], [-1]],
                         [([0], []), ([1], []), ([0, 1], []), ([1], [0]), ([0], [1])])


def fix_f() -> FaceComplex:
    """The plane as the square of the one-vertex line complex."""
    return product_complex(fix_d(), fix_d())


FIXTURES = {
    "fixA": fix_a,
    "fixB": fix_b,
    "fixC": fix_c,
    "fixD": fix_d,
    "fixE": fix_e,
    "fixF": fix_f,
}


def named_fixture(name: str) -> FaceComplex:
    key = name if name in FIXTURES else name.replace("FIX-", "fix").replace("fix-", "fix")
    if key not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return FIXTURES[key]()


def write_fixture_files(out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, builder in FIXTURES.items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(complex_to_json(builder()), fh, sort_keys=True, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths
