"""The first page of the tropical Steenbrink sequence, its differential
d = Gys + i*, the monodromy N, the bilinear form psi, row cohomology,
Hard Lefschetz checks, primitive parts, and the kernel/cokernel complexes.

Block (a, b, s) holds one copy of the Chow group A^((a+b-s)/2) of the star
fan of each bounded s-face; blocks exist only when s >= |a|, s = a mod 2,
b is even, and the Chow degree fits the star dimension.  The basis of a
block is the list of (face, Chow basis monomial) pairs.  One cached term
index maps each (s, face, monomial) label of the term ST^{a,b}, the sum of
its blocks, to its position; it alone knows the layout of the blocks.  An
element of the page is (a, b, vec) with vec one full-term vector of ST^{a,b},
and psi, d (`apply_d`) and N (`apply_n`) act on such elements directly; psi
reads each pairing off one cached matrix per pair of terms (`psi_matrix`).

The differential is stitched in one place, `d_matrix`, once per bounded
cover pair f < g: a restriction block from f into g and a Gysin block from
g into f, each multiplied by the orientation sign of the pair, which is
computed once when the page is built.  Every other reader of d takes it
from the cached row complex.  K = ker N and R = coker N of a row are those
of its Lefschetz triple (`clemens_schmid.steenbrink_triple`), labelled by
row position: the s = a part of the row and the s = -a part.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import HLFailureError, NotUnimodularError, cached
from .chow import ChowRing, gysin, restriction, ring_of
from .clemens_schmid import steenbrink_triple
from .cohomology import GradedComplex, QuotientBasis, induced_map
from .linalg import Rational, RationalMatrix, kernel_basis, normal, rank
from .polyhedral import FaceComplex, vertex_text


class SteenbrinkPage:
    """The page of a complex x: a compactification X, or the open complex Y
    that X compactifies.  It reads only the bounded faces of x and their
    same-sedentarity cofaces and stars, which X and Y share, so the two pages
    differ only in face labels.  `hodge_cycles.zigzag_representative` also
    reads the faces at infinity, so it needs the page of X."""

    def __init__(self, x: FaceComplex, finite: list[int]):
        self.x = x
        self.dim = x.dim
        self.finite = sorted(finite)
        self.finite_by_dim: dict[int, list[int]] = {}
        for i in self.finite:
            self.finite_by_dim.setdefault(x.faces[i].dim, []).append(i)
        self.rings: dict[int, ChowRing] = {i: self.rings_for(i) for i in self.finite}
        finite_set = set(self.finite)
        # (f, g, sign of the pair, dim f) for each bounded g covering a bounded f.
        self._cover_pairs = [(f, g, x.sign(f, g), x.faces[f].dim)
                             for f in self.finite for g in x.covers_of(f) if g in finite_set]

    # -- blocks -------------------------------------------------------------

    def block_exists(self, a: int, b: int, s: int) -> bool:
        if b % 2 or s < abs(a) or (s - a) % 2:
            return False
        k2 = a + b - s
        if k2 < 0 or k2 % 2:
            return False
        return k2 // 2 <= self.dim - s

    def block_labels(self, a: int, b: int, s: int) -> list[tuple[int, int]]:
        """(face, basis position) pairs of the block's coordinates, in term order."""
        return [(f, i) for ss, f, i in self.term_index(a, b) if ss == s]

    def block_dim(self, a: int, b: int, s: int) -> int:
        return len(self.block_labels(a, b, s))

    @cached
    def nonempty_blocks(self) -> list[tuple[int, int, int, int]]:
        """(a, b, s, block_dim) of every nonempty block, by b, then a, then s."""
        d = self.dim
        return [(a, b, s, n) for b in range(0, 2 * d + 1, 2) for a in range(-d, d + 1)
                for s in range(d + 1) if (n := self.block_dim(a, b, s))]

    @cached
    def term_index(self, a: int, b: int) -> dict[tuple[int, int, int], int]:
        """Position of each (s, face, basis position) label of the full ST^{a,b}
        term; the blocks follow each other by s, each face's block is contiguous."""
        labels = [(s, f, i) for s in sorted(self.finite_by_dim) if self.block_exists(a, b, s)
                  for f in self.finite_by_dim[s] for i in range(self.rings[f].dim((a + b - s) // 2))]
        return {lab: n for n, lab in enumerate(labels)}

    def term_labels(self, a: int, b: int) -> list[tuple[int, int, int]]:
        """(s, face, basis position) triples for the full ST^{a,b} term."""
        return list(self.term_index(a, b))

    def term_dim(self, a: int, b: int) -> int:
        return len(self.term_index(a, b))

    def a_range(self, b: int) -> list[int]:
        return [a for a in range(-self.dim - 1, self.dim + 2) if self.term_dim(a, b) > 0]

    # -- component maps -------------------------------------------------------

    @cached
    def restriction_matrix(self, gamma: int, delta: int, k: int) -> RationalMatrix:
        rg, rd = self.rings_for(gamma), self.rings_for(delta)
        return RationalMatrix.from_columns(rd.dim(k), [
            restriction(self.x, gamma, delta, rg.reduce_class(k, {mono: 1})).coeffs
            for mono in rg.basis(k)])

    @cached
    def gysin_matrix(self, gamma: int, delta: int, k: int) -> RationalMatrix:
        rg, rd = self.rings_for(gamma), self.rings_for(delta)
        return RationalMatrix.from_columns(rg.dim(k + 1), [
            gysin(self.x, gamma, delta, rd.reduce_class(k, {mono: 1})).coeffs
            for mono in rd.basis(k)])

    def rings_for(self, face: int) -> ChowRing:
        return ring_of(self.x.star_fan(face))

    # -- the differential and monodromy --------------------------------------

    def d_matrix(self, a: int, b: int) -> RationalMatrix:
        """d = i* + Gys: ST^{a,b} -> ST^{a+1,b}, one block per bounded cover pair.

        For f < g with dim f = s, i* maps f's s-block into g's (s+1)-block
        when a+b-s is even (Chow degree (a+b-s)/2), and Gys maps g's
        (s+1)-block into f's s-block when it is odd (degree (a+b-s-1)/2).
        Each block starts at the index of its first label; no two overlap.
        """
        src, dst = self.term_index(a, b), self.term_index(a + 1, b)
        out = RationalMatrix(len(dst), len(src))
        for f, g, sign, s in self._cover_pairs:
            if (a + b - s) % 2 == 0:
                col0, row0 = src.get((s, f, 0)), dst.get((s + 1, g, 0))
                block = self.restriction_matrix
            else:
                col0, row0 = src.get((s + 1, g, 0)), dst.get((s, f, 0))
                block = self.gysin_matrix
            if col0 is None or row0 is None:
                continue
            for (r, c), v in block(f, g, (a + b - s) // 2).entries.items():
                out.entries[row0 + r, col0 + c] = sign * v
        return out

    def n_matrix(self, a: int, b: int) -> RationalMatrix:
        """N: ST^{a,b} -> ST^{a+2,b-2}, the identity on surviving blocks."""
        src, dst = self.term_index(a, b), self.term_index(a + 2, b - 2)
        out = RationalMatrix(len(dst), len(src))
        for lab, j in src.items():
            if lab in dst:
                out[dst[lab], j] = 1
        return out

    # -- complexes ------------------------------------------------------------

    @cached
    def row_complex(self, b: int) -> GradedComplex:
        terms = {a: self.term_dim(a, b) for a in self.a_range(b)}
        diffs = {a: self.d_matrix(a, b) for a in terms if terms.get(a + 1)}
        labels = {a: self.term_labels(a, b) for a in terms}
        return GradedComplex(terms, diffs, labels)

    def h_basis(self, b: int, a: int) -> QuotientBasis:
        """H^a of row b, cached on the row complex."""
        return self.row_complex(b).h_basis(a)

    @cached
    def k_complex(self, p: int) -> GradedComplex:
        """K^{.,2p}: ker N on row 2p, the s = a blocks, from the triple."""
        return steenbrink_triple(self, p - 1).complex("K")

    @cached
    def r_complex(self, p: int) -> GradedComplex:
        """R^{.,2p}: coker N on row 2p, the s = -a blocks, from the triple."""
        return steenbrink_triple(self, p).complex("R")

    # -- psi, d and N on elements ---------------------------------------------

    def epsilon(self, a: int, b: int) -> int:
        if b % 2:
            return 1
        return -1 if (a + b // 2) % 2 else 1

    @cached
    def psi_matrix(self, a: int, b: int) -> RationalMatrix:
        """The matrix of psi on ST^{a,b} x ST^{-a,2d-b}: block diagonal, with
        epsilon(a, b) times the face's Chow pairing matrix in degree (a+b-s)/2
        on each (s, face) group of both terms."""
        src, dst = self.term_index(a, b), self.term_index(-a, 2 * self.dim - b)
        out, eps = RationalMatrix(len(src), len(dst)), self.epsilon(a, b)
        for (s, f, i), row0 in src.items():
            if i == 0 and (col0 := dst.get((s, f, 0))) is not None:
                for (r, c), v in self.rings[f].pairing_matrix((a + b - s) // 2).entries.items():
                    out.entries[row0 + r, col0 + c] = eps * v
        return out

    def psi(self, x: tuple[int, int, list[Rational]], y: tuple[int, int, list[Rational]]) -> Rational:
        """psi of x in ST^{a,b} and y in ST^{a',b'}: zero unless a + a' = 0 and
        b + b' = 2d, else x^T Psi y on the cached `psi_matrix(a, b)`."""
        (a, b, xv), (a2, b2, yv) = x, y
        if a + a2 != 0 or b + b2 != 2 * self.dim:
            return 0
        return normal(sum(u * v for u, v in zip(xv, self.psi_matrix(a, b).mul_vec(yv)) if u))

    def apply_d(self, x: tuple[int, int, list[Rational]]) -> tuple[int, int, list[Rational]]:
        a, b, vec = x
        return a + 1, b, self.row_complex(b).differential(a).mul_vec(vec)

    def apply_n(self, x: tuple[int, int, list[Rational]]) -> tuple[int, int, list[Rational]]:
        a, b, vec = x
        return a + 2, b - 2, _n_power_vec(self, a, b, vec, 1)


def build_steenbrink(x: FaceComplex) -> SteenbrinkPage:
    """Assemble the page of a unimodular triangulation.  The page reads only
    bounded faces and their same-sedentarity stars, so the compactification X
    or the open complex Y (after `polyhedral.check_compactifiable(Y)`) will
    do; `hodge_cycles.zigzag_representative` needs the page of X.

    Best-effort smoothness screening: each bounded face's star fan must be
    unimodular, pure of complementary dimension, and connected in
    codimension one.  A failure names the face by its vertices (a bounded
    face has no rays), which do not depend on the face order of x.
    """
    finite = x.bounded_face_indices()
    d = x.dim
    for i in finite:
        sf = x.star_fan(i)
        top = d - x.faces[i].dim
        dims = [len(r) for _, r in sf.cones]
        if not sf.unimodular:
            problem = "is not unimodular"
        elif dims and max(dims) != top:
            problem = f"is not pure of dim {top}"
        elif not _connected_codim_one(sf, top):
            problem = "is disconnected in codim 1"
        else:
            continue
        raise NotUnimodularError(
            f"star fan of the bounded face with vertices {vertex_text(x.faces[i])} {problem}")
    return SteenbrinkPage(x, finite)


def _connected_codim_one(sf, top: int) -> bool:
    tops = [rays for _, rays in sf.cones if len(rays) == top]
    if len(tops) <= 1:
        return True
    adj = {i: set() for i in range(len(tops))}
    for i, j in itertools.combinations(range(len(tops)), 2):
        if len(tops[i] & tops[j]) == top - 1:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(tops)


def steenbrink_cohomology(st: SteenbrinkPage, b: int) -> dict[int, int]:
    """Dimensions of H^a(ST^{.,b}, d) for all a; zero map for odd b."""
    if b % 2:
        return {}
    gc = st.row_complex(b)
    return {a: gc.h_dim(a) for a in gc.support}


def surviving_relative(st: SteenbrinkPage, p: int, q: int) -> tuple[int, int]:
    hk = st.k_complex(p).h_dim(q - p)
    hr = st.r_complex(p).h_dim(q - p)
    return hk, hr


# ---------------------------------------------------------------------------
# Monodromy on cohomology, Hard Lefschetz, primitive parts

def n_power_h_matrix(st: SteenbrinkPage, k: int, b: int, a: int) -> RationalMatrix:
    """Matrix of N^k: H^a(ST^{.,b}) -> H^{a+2k}(ST^{.,b-2k})."""
    return induced_map(st.row_complex(b), st.row_complex(b - 2 * k),
                       lambda v: _n_power_vec(st, a, b, v, k), a, shift=2 * k)


def n_power_image(st: SteenbrinkPage, k: int, b: int, a: int) -> list[list[Rational]]:
    """The images under N^k of the representatives of H^a(ST^{.,b}) whose
    classes are independent in H^{a+2k}(ST^{.,b-2k}), as many as the rank of
    N^k there.  Raises HLFailureError when an image is not a cocycle."""
    target = st.row_complex(b - 2 * k)
    images = [_n_power_vec(st, a, b, rep, k) for rep in st.h_basis(b, a).representatives]
    d = target.differential(a + 2 * k)
    if any(any(d.mul_vec(v)) for v in images):
        raise HLFailureError(f"N^{k} maps a cocycle of H^{a}(ST^{{.,{b}}}) outside the cocycles "
                             f"of ST^{{.,{b - 2 * k}}}: N does not commute with d")
    return target.h_basis(a + 2 * k).independent(images)


@cached
def verify_hl(st: SteenbrinkPage) -> dict:
    """Page-level and cohomology-level Hard Lefschetz around zero, once per page.

    Keys are (k, source row b); N^k must map ST^{-k, b} isomorphically onto
    ST^{k, b-2k}, and likewise on row cohomology.
    """
    d, page, coh = st.dim, {}, {}
    for k in range(0, d + 1):
        for bs in range(0, 2 * d + 1, 2):
            bt = bs - 2 * k
            if st.term_dim(-k, bs) or st.term_dim(k, bt):
                page[(k, bs)] = (st.term_labels(-k, bs) == st.term_labels(k, bt))
            hs = st.h_basis(bs, -k).dim
            ht = st.h_basis(bt, k).dim if bt >= 0 else 0
            if hs or ht:
                coh[(k, bs)] = hs == ht and len(n_power_image(st, k, bs, -k)) == hs
    return {"page": page, "cohomology": coh,
            "all": all(page.values()) and all(coh.values())}


@cached
def primitive_basis(st: SteenbrinkPage, a: int, b: int) -> list[list[Rational]]:
    """Cocycle representatives spanning P^{-a,b} = ker N^{a+1} on H^{-a}(ST^{.,b})."""
    if a < 0:
        return []
    h = st.h_basis(b, -a)
    if h.dim == 0:
        return []
    kern = kernel_basis(n_power_h_matrix(st, a + 1, b, -a)).basis
    reps = RationalMatrix.from_columns(st.term_dim(-a, b), h.representatives)
    return [reps.mul_vec(coeffs) for coeffs in kern]


def _n_power_vec(st: SteenbrinkPage, a: int, b: int, vec, k: int):
    """N^k of a full-term vector of ST^{a,b}: N is the identity on surviving labels, and
    a label of ST^{a,b} and ST^{a+2k,b-2k} survives each step (s >= |a+2i|, 0 <= i <= k)."""
    src, dst = st.term_index(a, b), st.term_index(a + 2 * k, b - 2 * k)
    out = [0] * len(dst)
    for lab, j in src.items():
        if lab in dst:
            out[dst[lab]] = vec[j]
    return out


def primitive_parts(st: SteenbrinkPage) -> dict:
    """Primitive dimensions, the Lefschetz decomposition at rank level, and
    psi-orthogonality of distinct primitive summands."""
    hl = verify_hl(st)
    if not hl["all"]:
        raise HLFailureError("Hard Lefschetz fails; no primitive decomposition")
    d = st.dim

    def summands(b0: int, a: int, extra: int) -> list:
        """(s, N^(s+extra) of a basis of P^{-(a+2s), b0+2s}) for each s with one."""
        return [(s, vecs) for s in range(d + 1)
                if (vecs := [_n_power_vec(st, -(a + 2 * s), b0 + 2 * s, v, s + extra)
                             for v in primitive_basis(st, a + 2 * s, b0 + 2 * s)])]

    dims: dict[tuple[int, int], int] = {}
    decomposition_ok: dict[tuple[int, int], bool] = {}
    orthogonal_ok: dict[tuple[int, int], bool] = {}
    for a in range(0, d + 1):
        for b in range(0, 2 * d + 1, 2):
            p_dim = len(primitive_basis(st, a, b))
            if p_dim or st.h_basis(b, -a).dim:
                dims[(-a, b)] = p_dim
    for a in range(0, d + 1):
        for b in range(0, 2 * d + 1, 2):
            h = st.h_basis(b, -a)
            if h.dim == 0:
                continue
            mine = summands(b, a, 0)
            rows = [h.coordinates(v) for _, vecs in mine for v in vecs]
            got = rank(RationalMatrix.from_rows(rows)) if rows else 0
            decomposition_ok[(-a, b)] = (got == h.dim == len(rows))
            # Orthogonality: N^s P (in row b) against N^s' P' (in the psi-dual
            # row) pair to zero under psi(., N^a .) whenever s != s'.  The
            # dual summands are N^(s'+a) P', the N^a already applied.
            dual = summands(2 * d - b + 2 * a, a, a)
            orthogonal_ok[(-a, b)] = all(st.psi((-a, b, vx), (a, 2 * d - b, ny)) == 0
                                         for s, vecs in mine for s2, nvecs in dual if s != s2
                                         for vx in vecs for ny in nvecs)
    return {"dims": dims, "decomposition": decomposition_ok,
            "orthogonality": orthogonal_ok,
            "all": all(decomposition_ok.values()) and all(orthogonal_ok.values())}


def cohomology_pairing_matrix(st: SteenbrinkPage, p: int, q: int) -> list[list[Rational]]:
    """psi on H^{q-p}(ST^{.,2p}) x H^{p-q}(ST^{.,2(d-p)}), i.e. the
    Poincare pairing H^{p,q} x H^{d-p,d-q}."""
    d, a = st.dim, q - p
    return [[st.psi((a, 2 * p, rx), (-a, 2 * (d - p), ry))
             for ry in st.h_basis(2 * (d - p), -a).representatives]
            for rx in st.h_basis(2 * p, a).representatives]


def random_homogeneous(st: SteenbrinkPage, rng: random.Random) -> tuple[int, int, list[Rational]]:
    """A random nonzero element (a, b, vec) of ST^{a,b}, supported in one random
    nonempty block ST^{a,b,s}."""
    blocks = st.nonempty_blocks()
    if not blocks:
        return 0, 0, []
    a, b, s, n = blocks[rng.randrange(len(blocks))]
    vec = [rng.randint(-3, 3) for _ in range(n)]
    if all(v == 0 for v in vec):
        vec[rng.randrange(n)] = 1
    index = st.term_index(a, b)
    start = next(j for (ss, _, _), j in index.items() if ss == s)
    out = [0] * len(index)
    out[start:start + n] = vec
    return a, b, out
