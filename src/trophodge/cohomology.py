"""Multi-tangent coefficient spaces, cellular cochain complexes, and tropical
cohomology of compactified complexes.

The coefficient space at a face sums the p-th wedge powers of the tangent
spaces of its cofaces of equal sedentarity, inside the wedge power of the
face's stratum.  The maximal such cofaces span it, since Lambda^p T(eta)
lies in Lambda^p T(eta') for eta in eta'; it is all of Lambda^p, with the
standard basis, when one of them spans the stratum, and otherwise held by
its reduced row echelon basis.  A vector's coordinates are then its entries
at the pivot columns.  The cochain differential runs over all codimension-one
incidences of the face order: same-sedentarity incidences contribute duals
of inclusions, sedentarity-raising incidences contribute duals of the wedge
power of the stratum projection (built once per stratum pair and p), each
multiplied by the orientation sign.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Sequence

from . import DegeneratePairingError, NotAComplexError, cached
from .lattice import det_int
from .linalg import Echelon, Rational, RationalMatrix, column_echelon, normal, rank
from .linalg import kernel_basis  # noqa: F401  (perfbench/test_bench.py reads it here)
from .polyhedral import FaceComplex

Vec = list[Rational]


# ---------------------------------------------------------------------------
# Small quotient-space helper (cohomology = cocycles / coboundaries)

class QuotientBasis:
    """Basis handling for a quotient (span Z)/(span B) of row vectors.

    The representatives are the rows of Z that are independent modulo B
    and the rows of Z before them.  One echelon form holds B unkeyed and Z
    keyed by position, so a vector's class coordinates are its tracked
    coefficients on the representatives.  Rows of Z and B are dense
    sequences or sparse {column: value} dicts; only the kept rows of Z are
    made dense.
    """

    def __init__(self, ambient_dim: int, zrows: Sequence, brows: Sequence):
        self.ambient_dim = ambient_dim
        self._span = Echelon(keyed=True)
        for r in brows:
            self._span.add(r)
        self._keys: list[int] = []
        self.representatives: list[Vec] = []
        for i, r in enumerate(zrows):
            if self._span.add(r, i):
                self._keys.append(i)
                rep = [r.get(j, 0) for j in range(ambient_dim)] if isinstance(r, dict) else r
                self.representatives.append([normal(x) for x in rep])

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, vec) -> Vec:
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

    @cached
    def echelon(self, k: int) -> Echelon:
        """The keyed column echelon of d_k, the one elimination of it that
        its rank and its cocycles are read from."""
        return column_echelon(self.differential(k))

    def cocycle_rows(self, k: int) -> list[dict[int, Rational]]:
        """The canonical kernel of d_k as sparse rows: the relations of its
        column echelon ({i: 1} for each column of a zero differential)."""
        return [combo for _, combo in self.echelon(k).relations]

    def coboundary_rows(self, k: int) -> list[dict[int, Rational]]:
        return self.differential(k - 1).columns() if self.dim(k) else []

    @cached
    def h_basis(self, k: int) -> QuotientBasis:
        return QuotientBasis(self.dim(k), self.cocycle_rows(k), self.coboundary_rows(k))

    def d_rank(self, k: int) -> int:
        return self.echelon(k).rank

    def h_dim(self, k: int) -> int:
        """dim C^k - rank d_k - rank d_{k-1}; builds no basis."""
        return self.dim(k) - self.d_rank(k) - self.d_rank(k - 1)


def induced_map(src: GradedComplex, dst: GradedComplex, f: Callable[[Vec], Vec],
                k: int, shift: int = 0) -> RationalMatrix:
    """Matrix of the induced map H^k(src) -> H^(k+shift)(dst) of a chain map
    of degree shift, given in degree k as the function f: src^k -> dst^(k+shift)."""
    src_h, dst_h = src.h_basis(k), dst.h_basis(k + shift)
    return RationalMatrix.from_columns(dst_h.dim, [dst_h.coordinates(f(rep))
                                                   for rep in src_h.representatives])


# ---------------------------------------------------------------------------
# Wedge coordinates

def wedge_vector(vectors: Sequence[Sequence], m: int) -> Vec:
    """Coordinates of v_1 ^ ... ^ v_p in the lex basis of Lambda^p(Q^m)."""
    return [det_int([[v[i] for i in idx] for v in vectors])
            for idx in itertools.combinations(range(m), len(vectors))]


def wedge_map_matrix(q_rows: Sequence[Sequence[int]], m_src: int, p: int) -> RationalMatrix:
    """Matrix of Lambda^p(Q) in lex wedge bases, for Q given by rows."""
    m_dst = len(q_rows)
    src_idx = list(itertools.combinations(range(m_src), p))
    dst_idx = list(itertools.combinations(range(m_dst), p))
    return RationalMatrix.from_columns(len(dst_idx), [
        [det_int([[q_rows[r][c] for c in I] for r in J]) for J in dst_idx] for I in src_idx])


class CoefficientSpace:
    """F_p at a face: the sum of wedge powers of same-sedentarity coface
    tangents, held by its reduced row echelon basis (see the module note)."""

    def __init__(self, complex_: FaceComplex, face_idx: int, p: int):
        self.face = face_idx
        self.p = p
        face = complex_.faces[face_idx]
        m, _, _ = complex_.stratum(face.sedentarity)
        self.stratum_rank = m
        self.ambient_dim = n = comb(m, p)
        same = {face_idx} | {j for j in complex_.cofaces(face_idx)
                             if complex_.faces[j].sedentarity == face.sedentarity}
        tops = sorted(j for j in same if not complex_.cofaces(j) & same)
        self.full = any(complex_.faces[j].dim == m for j in tops)
        if self.full:
            self.pivots = list(range(n))
            self.basis: list[Vec] = [[int(i == j) for j in range(n)] for i in range(n)]
            return
        span = Echelon(wedge_vector(sub, m) for j in tops
                       for sub in itertools.combinations(complex_.faces[j].tangent, p))
        self.pivots = sorted(span.pivots)
        for lead in reversed(self.pivots):  # back-substitution to reduced form
            row = span.pivots[lead]
            for c in sorted(c for c in row if c != lead and c in span.pivots):
                coef = row[c]
                for j, v in span.pivots[c].items():
                    row[j] = row.get(j, 0) - coef * v
        self.basis = [[normal(span.pivots[lead].get(j, 0)) for j in range(n)]
                      for lead in self.pivots]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, vec: Sequence[Rational]) -> Vec:
        coords = [normal(vec[c]) for c in self.pivots]
        if not self.full and any(x != sum(c * b[j] for c, b in zip(coords, self.basis) if c)
                                 for j, x in enumerate(vec)):
            raise DegeneratePairingError("vector outside coefficient space")
        return coords


def coefficient_space(x: FaceComplex, delta_idx: int, p: int) -> CoefficientSpace:
    return _fp_spaces(x, p)[delta_idx]


@cached
def _fp_spaces(x: FaceComplex, p: int) -> dict[int, CoefficientSpace]:
    return {f.index: CoefficientSpace(x, f.index, p) for f in x.faces}


@cached
def _stratum_wedge_map(x: FaceComplex, sed_to, sed_from, p: int) -> RationalMatrix:
    return wedge_map_matrix(x.stratum_map(sed_to, sed_from), x.stratum(sed_from)[0], p)


def _chain_map_block(x: FaceComplex, spaces, gamma: int, delta: int) -> RationalMatrix:
    """Matrix of F_p(delta) -> F_p(gamma) for a codimension-one incidence."""
    fg, fd = x.faces[gamma], x.faces[delta]
    sg, sd = spaces[gamma], spaces[delta]
    wm = None
    if fg.sedentarity != fd.sedentarity:
        wm = _stratum_wedge_map(x, fg.sedentarity, fd.sedentarity, sd.p)
    if sd.full and sg.full:  # both all of Lambda^p: the block is the map itself
        return RationalMatrix.identity(sd.dim) if wm is None else wm
    imgs = sd.basis if wm is None else [wm.mul_vec(b) for b in sd.basis]
    return RationalMatrix.from_columns(sg.dim, [sg.coordinates(img) for img in imgs])


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


def poincare_pairing(x: FaceComplex, p: int) -> dict[int, list[Vec]]:
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
