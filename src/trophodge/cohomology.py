"""Multi-tangent coefficient spaces, cellular cochain complexes, and tropical
cohomology of compactified complexes.

The coefficient space at a face sums the p-th wedge powers of the tangent
spaces of its cofaces of equal sedentarity, inside the wedge power of the
face's stratum.  The cochain differential runs over all codimension-one
incidences of the face order: same-sedentarity incidences contribute duals
of inclusions, sedentarity-raising incidences contribute duals of the wedge
power of the stratum projection, each multiplied by the orientation sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Sequence

from . import DegeneratePairingError, NotAComplexError, cached
from .lattice import det_int
from .linalg import Echelon, RationalMatrix, kernel_basis, rank
from .polyhedral import FaceComplex, _compose

Vec = list[Fraction]


# ---------------------------------------------------------------------------
# Small quotient-space helper (cohomology = cocycles / coboundaries)

class QuotientBasis:
    """Basis handling for a quotient (span Z)/(span B) of row vectors.

    The representatives are the rows of Z that are independent modulo B
    and the rows of Z before them.  One echelon form holds B unkeyed and Z
    keyed by position, so a vector's class coordinates are its tracked
    coefficients on the representatives.  Rows of Z are dense sequences or
    sparse {column: value} dicts; only the kept ones are made dense.
    """

    def __init__(self, ambient_dim: int, zrows: Sequence, brows: Sequence[Sequence[Fraction]]):
        self.ambient_dim = ambient_dim
        self._span = Echelon(keyed=True)
        for r in brows:
            self._span.add(r)
        self._keys: list[int] = []
        self.representatives: list[list[Fraction]] = []
        for i, r in enumerate(zrows):
            if self._span.add(r, i):
                self._keys.append(i)
                rep = [r.get(j, 0) for j in range(ambient_dim)] if isinstance(r, dict) else r
                self.representatives.append([Fraction(x) for x in rep])

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, vec) -> list[Fraction]:
        """Coordinates of a vector's class (dense, or a sparse dict) over the
        representative basis."""
        coords = self._span.coordinates(vec, self._keys)
        if coords is None:
            raise DegeneratePairingError("vector is not a cocycle of this space")
        return coords


# ---------------------------------------------------------------------------
# Graded complexes

@dataclass
class GradedComplex:
    """A bounded cochain complex of finite-dimensional Q vector spaces.

    diffs[k] maps degree k to degree k+1 and has shape (dim_{k+1}, dim_k).
    """

    terms: dict[int, int]
    diffs: dict[int, RationalMatrix]
    labels: dict[int, list] = field(default_factory=dict)

    def dim(self, k: int) -> int:
        return self.terms.get(k, 0)

    @property
    def support(self) -> list[int]:
        return sorted(k for k, d in self.terms.items() if d > 0)

    def differential(self, k: int) -> RationalMatrix:
        if k in self.diffs:
            return self.diffs[k]
        return RationalMatrix(self.dim(k + 1), self.dim(k))

    def check(self) -> bool:
        """d o d = 0, verified exactly."""
        for k in list(self.terms):
            m = self.differential(k + 1).matmul(self.differential(k))
            if not m.is_zero():
                return False
        return True

    def cocycle_rows(self, k: int) -> list[list[Fraction]]:
        n = self.dim(k)
        if n == 0:
            return []
        d = self.differential(k)
        if d.is_zero():
            return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return [list(v) for v in kernel_basis(d).basis]

    def coboundary_rows(self, k: int) -> list[list[Fraction]]:
        d = self.differential(k - 1)
        return [d.column(j) for j in range(d.cols)] if self.dim(k) else []

    @cached
    def h_basis(self, k: int) -> QuotientBasis:
        return QuotientBasis(self.dim(k), self.cocycle_rows(k), self.coboundary_rows(k))

    @cached
    def d_rank(self, k: int) -> int:
        return rank(self.differential(k))

    def h_dim(self, k: int) -> int:
        """dim C^k - rank d_k - rank d_{k-1}; builds no basis."""
        return self.dim(k) - self.d_rank(k) - self.d_rank(k - 1)


def induced_map(src: GradedComplex, dst: GradedComplex,
                chain_maps: dict[int, RationalMatrix], k: int, shift: int = 0) -> RationalMatrix:
    """Matrix of the induced map H^k(src) -> H^(k+shift)(dst) of a chain map
    of degree shift; chain_maps[k] maps src^k to dst^(k+shift)."""
    src_h, dst_h = src.h_basis(k), dst.h_basis(k + shift)
    cm = chain_maps.get(k)
    out = RationalMatrix(dst_h.dim, src_h.dim)
    for j, rep in enumerate(src_h.representatives):
        img = cm.mul_vec(rep) if cm is not None else [Fraction(0)] * dst.dim(k + shift)
        for i, c in enumerate(dst_h.coordinates(img)):
            out[i, j] = c
    return out


# ---------------------------------------------------------------------------
# Wedge coordinates

def wedge_vector(vectors: Sequence[Sequence], m: int) -> Vec:
    """Coordinates of v_1 ^ ... ^ v_p in the lex basis of Lambda^p(Q^m)."""
    p = len(vectors)
    coords = []
    for idx in itertools.combinations(range(m), p):
        coords.append(Fraction(det_int([[v[i] for i in idx] for v in vectors])))
    return coords


def wedge_map_matrix(q_rows: Sequence[Sequence[int]], m_src: int, p: int) -> RationalMatrix:
    """Matrix of Lambda^p(Q) in lex wedge bases, for Q given by rows."""
    m_dst = len(q_rows)
    src_idx = list(itertools.combinations(range(m_src), p))
    dst_idx = list(itertools.combinations(range(m_dst), p))
    out = RationalMatrix(len(dst_idx), len(src_idx))
    for j, I in enumerate(src_idx):
        for i, J in enumerate(dst_idx):
            out[i, j] = det_int([[q_rows[r][c] for c in I] for r in J])
    return out


class CoefficientSpace:
    """F_p at a face: the sum of wedge powers of same-sedentarity coface
    tangents, with a canonical reduced basis."""

    def __init__(self, complex_: FaceComplex, face_idx: int, p: int):
        self.face = face_idx
        self.p = p
        face = complex_.faces[face_idx]
        m, _, _ = complex_.stratum(face.sedentarity)
        self.stratum_rank = m
        self.ambient_dim = comb(m, p)
        rows = []
        for eta in sorted({face_idx} | {
                j for j in complex_.cofaces(face_idx)
                if complex_.faces[j].sedentarity == face.sedentarity}):
            tangent = complex_.faces[eta].tangent
            if len(tangent) < p:
                continue
            for sub in itertools.combinations(tangent, p):
                rows.append(wedge_vector(sub, m))
        self._span = Echelon(rows)
        self._leads = sorted(self._span.pivots)
        self.basis: list[list[Fraction]] = [
            [Fraction(self._span.pivots[k].get(j, 0)) for j in range(self.ambient_dim)]
            for k in self._leads]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, vec: Sequence[Fraction]) -> list[Fraction]:
        rem, mult = self._span.reduce(vec)
        if rem:
            raise DegeneratePairingError("vector outside coefficient space")
        return [Fraction(mult.get(k, 0)) for k in self._leads]


def coefficient_space(x: FaceComplex, delta_idx: int, p: int) -> CoefficientSpace:
    return _fp_spaces(x, p)[delta_idx]


@cached
def _fp_spaces(x: FaceComplex, p: int) -> dict[int, CoefficientSpace]:
    return {f.index: CoefficientSpace(x, f.index, p) for f in x.faces}


def _chain_map_block(x: FaceComplex, spaces, gamma: int, delta: int) -> RationalMatrix:
    """Matrix of F_p(delta) -> F_p(gamma) for a codimension-one incidence."""
    fg, fd = x.faces[gamma], x.faces[delta]
    sg, sd = spaces[gamma], spaces[delta]
    out = RationalMatrix(sg.dim, sd.dim)
    if sd.dim == 0:
        return out
    if fg.sedentarity == fd.sedentarity:
        for j, b in enumerate(sd.basis):
            for i, c in enumerate(sg.coordinates(b)):
                out[i, j] = c
        return out
    _, p_gamma, _ = x.stratum(fg.sedentarity)
    _, _, s_delta = x.stratum(fd.sedentarity)
    q_rows = _compose(p_gamma, s_delta)
    wm = wedge_map_matrix(q_rows, sd.stratum_rank, sd.p)
    for j, b in enumerate(sd.basis):
        img = wm.mul_vec(b)
        if all(v == 0 for v in img):
            continue
        for i, c in enumerate(sg.coordinates(img)):
            out[i, j] = c
    return out


@cached
def cochain_complex(x: FaceComplex, p: int) -> GradedComplex:
    """The cellular cochain complex C^{p,*} with signed dual differentials."""
    spaces = _fp_spaces(x, p)
    by_dim: dict[int, list[int]] = {}
    for f in x.faces:
        by_dim.setdefault(f.dim, []).append(f.index)
    for v in by_dim.values():
        v.sort()
    offsets: dict[int, dict[int, int]] = {}
    terms = {}
    labels = {}
    for q, idxs in by_dim.items():
        off = {}
        pos = 0
        lab = []
        for i in idxs:
            off[i] = pos
            pos += spaces[i].dim
            lab.extend((i, t) for t in range(spaces[i].dim))
        offsets[q] = off
        terms[q] = pos
        labels[q] = lab
    diffs = {}
    for q in sorted(terms):
        if q + 1 not in terms:
            continue
        d = RationalMatrix(terms[q + 1], terms[q])
        for delta in by_dim.get(q + 1, []):
            for gamma in x.covered_by(delta):
                sign = x.incidence_sign(gamma, delta)
                block = _chain_map_block(x, spaces, gamma, delta)
                # Cochain differential: transpose of the chain-level block.
                for (i, j), v in block.entries.items():
                    d[offsets[q + 1][delta] + j, offsets[q][gamma] + i] = \
                        d[offsets[q + 1][delta] + j, offsets[q][gamma] + i] + sign * v
        diffs[q] = d
    gc = GradedComplex(terms, diffs, labels)
    if not gc.check():
        raise NotAComplexError(f"cellular differential of C^{{{p},*}} does not square to zero")
    return gc


def tropical_cohomology(x: FaceComplex, p: int) -> list[int]:
    """Dimensions h^{p,q} for q = 0..dim(x)."""
    gc = cochain_complex(x, p)
    return [gc.h_dim(q) for q in range(x.dim + 1)]


def hodge_diamond(x: FaceComplex) -> list[list[int]]:
    return [tropical_cohomology(x, p) for p in range(x.dim + 1)]


def euler_characteristics_match(x: FaceComplex, p: int) -> bool:
    gc = cochain_complex(x, p)
    chain_side = sum((-1) ** q * gc.dim(q) for q in range(x.dim + 1))
    h_side = sum((-1) ** q * gc.h_dim(q) for q in range(x.dim + 1))
    return chain_side == h_side


def poincare_pairing(x: FaceComplex, p: int) -> dict[int, list[list[Fraction]]]:
    """Poincare pairing matrices H^{p,q} x H^{d-p,d-q} for all q.

    Realized through the Steenbrink polarization, which restricts to the
    Poincare duality pairing on tropical cohomology; each returned matrix
    must be square and nondegenerate, else DegeneratePairingError.
    """
    from .steenbrink import build_steenbrink, cohomology_pairing_matrix

    st = build_steenbrink(x)
    d = st.dim
    out = {}
    for q in range(d + 1):
        mat = cohomology_pairing_matrix(st, p, q)
        out[q] = mat
        n = len(mat)
        m = len(mat[0]) if mat else 0
        if n != m:
            raise DegeneratePairingError(f"pairing block (p={p},q={q}) is not square")
        if n and rank(RationalMatrix.from_rows(mat)) != n:
            raise DegeneratePairingError(f"pairing block (p={p},q={q}) degenerate")
    return out
