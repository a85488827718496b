"""Test-side oracles for cellular cochains: a face-indexed cochain (as the
zigzag representative returns it) as a vector of C^{p,p}, whether it is a
cocycle or a coboundary, and its pairing with a Minkowski weight, against
the Steenbrink-side pairing of a kernel cocycle with the same weight.
Acceptance criterion 11 compares the two pairings."""

from typing import Sequence

from trophodge.chow import MinkowskiWeight, mw_evaluate
from trophodge.cohomology import cochain_complex, coefficient_space, wedge_vector
from trophodge.hodge_cycles import HodgeClass, local_weight
from trophodge.linalg import Rational, solve
from trophodge.steenbrink import SteenbrinkPage


def cochain_vector(x, p: int, cochain: dict[int, list[Rational]]) -> list[Rational]:
    """Embed a face-indexed cochain into the C^{p,p} term coordinates."""
    gc = cochain_complex(x, p)
    labels = gc.labels[p]
    out = [0] * gc.dim(p)
    for idx, (face, t) in enumerate(labels):
        vals = cochain.get(face)
        if vals:
            out[idx] = vals[t]
    return out


def is_cochain_coboundary(x, p: int, vec: Sequence[Rational]) -> bool:
    gc = cochain_complex(x, p)
    d_prev = gc.differential(p - 1)
    return solve(d_prev, list(vec)) is not None


def cochain_is_cocycle(x, p: int, vec: Sequence[Rational]) -> bool:
    gc = cochain_complex(x, p)
    return all(v == 0 for v in gc.differential(p).mul_vec(list(vec)))


def pair_cochain_with_weight(x, p: int, cochain: dict[int, list[Rational]],
                             w: MinkowskiWeight) -> Rational:
    """<c, w> = sum over p-faces of w(eta) . c_eta(orientation multivector)."""
    total = 0
    wd = w.as_dict()
    for f in x.faces_of_dim(p):
        val = wd.get(f.index, 0)
        if val == 0:
            continue
        vals = cochain.get(f.index)
        if not vals:
            continue
        space = coefficient_space(x, f.index, p)
        coords = space.coordinates(wedge_vector(f.tangent, space.stratum_rank))
        total += val * sum(a * b for a, b in zip(vals, coords))
    return total


def pair_class_with_weight(st: SteenbrinkPage, alpha: HodgeClass,
                           w: MinkowskiWeight) -> Rational:
    """Steenbrink-side pairing of a kernel cocycle with a Minkowski weight."""
    total = 0
    for v in st.finite_by_dim.get(0, []):
        ring = st.rings[v]
        av = alpha.component(st, v)
        total += mw_evaluate(ring, av, local_weight(st, w, v))
    return total
