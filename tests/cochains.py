"""Test-side oracles for cellular cochains: a face-indexed cochain (as the
zigzag representative returns it) as a vector of C^{p,p}, whether it is a
cocycle or a coboundary, and its pairing with a Minkowski weight, against
the Steenbrink-side pairing of a kernel cocycle with the same weight.
Acceptance criterion 11 compares the two pairings.

`oracle_differentials` is the cellular differential assembled as
`cochain_complex` did before it wrote its blocks straight into the
entries: every incidence, a same-sedentarity pair of full spaces too,
builds a block matrix (an identity there) and adds it in entry by entry."""

from typing import Sequence

from trophodge.chow import MinkowskiWeight, mw_evaluate
from trophodge.cohomology import _fp_spaces, _stratum_wedge_map, cochain_complex, coefficient_space, wedge_vector
from trophodge.hodge_cycles import HodgeClass, local_weight
from trophodge.linalg import Rational, RationalMatrix, solve
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
        av = alpha.component(st, v)
        total += mw_evaluate(st.x.star_fan(v), av, local_weight(st, w, v))
    return total


# ---------------------------------------------------------------------------
# The cellular assembly oracle

def identity(n: int) -> RationalMatrix:
    m = RationalMatrix(n, n)
    for i in range(n):
        m[i, i] = 1
    return m


def oracle_chain_map_block(x, spaces, gamma: int, delta: int) -> RationalMatrix:
    """Matrix of F_p(delta) -> F_p(gamma) for a codimension-one incidence."""
    fg, fd = x.faces[gamma], x.faces[delta]
    sg, sd = spaces[gamma], spaces[delta]
    wm = None
    if fg.sedentarity != fd.sedentarity:
        wm = _stratum_wedge_map(x, fg.sedentarity, fd.sedentarity, sd.p)
    if sd.full and sg.full:  # both all of Lambda^p: the block is the map itself
        return identity(sd.dim) if wm is None else wm
    imgs = sd.basis if wm is None else [wm.mul_vec(b) for b in sd.basis]
    return RationalMatrix.from_columns(sg.dim, [sg.coordinates(img) for img in imgs])


def oracle_differentials(x, p: int) -> dict[int, RationalMatrix]:
    """The differentials of C^{p,*}, each block added in entry by entry."""
    spaces = _fp_spaces(x, p)
    by_dim: dict[int, list[int]] = {}
    for f in x.faces:
        by_dim.setdefault(f.dim, []).append(f.index)
    offsets, terms = {}, {}
    for q, idxs in by_dim.items():
        offsets[q], pos = {}, 0
        for i in sorted(idxs):
            offsets[q][i] = pos
            pos += spaces[i].dim
        terms[q] = pos
    diffs = {}
    for q in sorted(terms):
        if q + 1 not in terms:
            continue
        d = RationalMatrix(terms[q + 1], terms[q])
        for delta in sorted(by_dim[q + 1]):
            for gamma in x.covered_by(delta):
                sign = x.incidence_sign(gamma, delta)
                block = oracle_chain_map_block(x, spaces, gamma, delta)
                for (i, j), v in block.entries.items():
                    key = offsets[q + 1][delta] + j, offsets[q][gamma] + i
                    d[key] = d[key] + sign * v
        diffs[q] = d
    return diffs
