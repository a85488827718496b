"""The first page of the tropical Steenbrink sequence, its differential
d = Gys + i*, the monodromy N, the bilinear form psi, row cohomology,
Hard Lefschetz checks, primitive parts, and the kernel/cokernel complexes.

Block (a, b, s) holds one copy of the Chow group A^((a+b-s)/2) of the star
fan of each bounded s-face; blocks exist only when s >= |a|, s = a mod 2,
b is even, and the Chow degree fits the star dimension.  The basis of a
block is the list of (face, Chow basis monomial) pairs, which makes the
differential a block-sparse stitch of restriction and Gysin matrices,
each multiplied by the orientation sign of its face pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import HLFailureError, NotUnimodularError
from .chow import ChowClass, ChowRing, gysin, restriction, ring_of
from .cohomology import GradedComplex, QuotientBasis
from .linalg import RationalMatrix, rank
from .polyhedral import FaceComplex

Element = dict[tuple[int, int, int], list[Fraction]]


class SteenbrinkPage:
    def __init__(self, x: FaceComplex, finite: list[int]):
        self.x = x
        self.dim = x.dim
        self.finite = sorted(finite)
        self.finite_by_dim: dict[int, list[int]] = {}
        for i in self.finite:
            self.finite_by_dim.setdefault(x.faces[i].dim, []).append(i)
        self.rings: dict[int, ChowRing] = {}
        for i in self.finite:
            self.rings[i] = ring_of(x.star_fan(i))
        self._restr_cache: dict = {}
        self._gys_cache: dict = {}
        self._row_cache: dict[int, GradedComplex] = {}
        self._h_cache: dict[tuple[int, int], QuotientBasis] = {}

    # -- blocks -------------------------------------------------------------

    def block_exists(self, a: int, b: int, s: int) -> bool:
        if b % 2 or s < abs(a) or (s - a) % 2:
            return False
        k2 = a + b - s
        if k2 < 0 or k2 % 2:
            return False
        return k2 // 2 <= self.dim - s

    def block_labels(self, a: int, b: int, s: int) -> list[tuple[int, int]]:
        """(face, basis position) pairs indexing the block's coordinates."""
        if not self.block_exists(a, b, s):
            return []
        k = (a + b - s) // 2
        out = []
        for f in self.finite_by_dim.get(s, []):
            out.extend((f, i) for i in range(self.rings[f].dim(k)))
        return out

    def block_dim(self, a: int, b: int, s: int) -> int:
        return len(self.block_labels(a, b, s))

    def s_values(self, a: int, b: int) -> list[int]:
        return [s for s in sorted(self.finite_by_dim)
                if self.block_dim(a, b, s) > 0]

    def term_labels(self, a: int, b: int) -> list[tuple[int, int, int]]:
        """(s, face, basis position) triples for the full ST^{a,b} term."""
        out = []
        for s in self.s_values(a, b):
            out.extend((s, f, i) for f, i in self.block_labels(a, b, s))
        return out

    def term_dim(self, a: int, b: int) -> int:
        return len(self.term_labels(a, b))

    def a_range(self, b: int) -> list[int]:
        return [a for a in range(-self.dim - 1, self.dim + 2) if self.term_dim(a, b) > 0]

    # -- component maps -------------------------------------------------------

    def restriction_matrix(self, gamma: int, delta: int, k: int) -> RationalMatrix:
        key = (gamma, delta, k)
        if key not in self._restr_cache:
            rg, rd = self.rings_for(gamma), self.rings_for(delta)
            m = RationalMatrix(rd.dim(k), rg.dim(k))
            for j, mono in enumerate(rg.basis(k)):
                img = restriction(self.x, gamma, delta,
                                  rg.reduce_class(k, {mono: Fraction(1)}))
                for i, c in enumerate(img.coeffs):
                    m[i, j] = c
            self._restr_cache[key] = m
        return self._restr_cache[key]

    def gysin_matrix(self, gamma: int, delta: int, k: int) -> RationalMatrix:
        key = (gamma, delta, k)
        if key not in self._gys_cache:
            rg, rd = self.rings_for(gamma), self.rings_for(delta)
            m = RationalMatrix(rg.dim(k + 1), rd.dim(k))
            for j, mono in enumerate(rd.basis(k)):
                img = gysin(self.x, gamma, delta,
                            rd.reduce_class(k, {mono: Fraction(1)}))
                for i, c in enumerate(img.coeffs):
                    m[i, j] = c
            self._gys_cache[key] = m
        return self._gys_cache[key]

    def rings_for(self, face: int) -> ChowRing:
        if face not in self.rings:
            self.rings[face] = ring_of(self.x.star_fan(face))
        return self.rings[face]

    # -- the differential and monodromy --------------------------------------

    def d_matrix(self, a: int, b: int) -> RationalMatrix:
        src = self.term_labels(a, b)
        dst = self.term_labels(a + 1, b)
        dst_pos = {lab: i for i, lab in enumerate(dst)}
        out = RationalMatrix(len(dst), len(src))
        for j, (s, f, i) in enumerate(src):
            k = (a + b - s) // 2
            # i*-part into (a+1, b, s+1); only bounded cofaces are in the page
            if self.block_exists(a + 1, b, s + 1):
                for delta in self.x.covers_of(f):
                    if self.x.faces[delta].sedentarity or self.x.faces[delta].rays:
                        continue
                    sign = self.x.sign(f, delta)
                    m = self.restriction_matrix(f, delta, k)
                    for (r, c), v in m.entries.items():
                        if c == i:
                            out[dst_pos[(s + 1, delta, r)], j] = \
                                out[dst_pos[(s + 1, delta, r)], j] + sign * v
            # Gys-part into (a+1, b, s-1)
            if self.block_exists(a + 1, b, s - 1):
                for gamma in self.x.covered_by(f):
                    if self.x.faces[gamma].sedentarity or self.x.faces[gamma].rays:
                        continue
                    sign = self.x.sign(gamma, f)
                    m = self.gysin_matrix(gamma, f, k)
                    for (r, c), v in m.entries.items():
                        if c == i:
                            out[dst_pos[(s - 1, gamma, r)], j] = \
                                out[dst_pos[(s - 1, gamma, r)], j] + sign * v
        return out

    def n_matrix(self, a: int, b: int) -> RationalMatrix:
        """N: ST^{a,b} -> ST^{a+2,b-2}, the identity on surviving blocks."""
        src = self.term_labels(a, b)
        dst = self.term_labels(a + 2, b - 2)
        dst_pos = {lab: i for i, lab in enumerate(dst)}
        out = RationalMatrix(len(dst), len(src))
        for j, lab in enumerate(src):
            if lab in dst_pos:
                out[dst_pos[lab], j] = Fraction(1)
        return out

    # -- complexes ------------------------------------------------------------

    def row_complex(self, b: int) -> GradedComplex:
        if b not in self._row_cache:
            terms = {a: self.term_dim(a, b) for a in self.a_range(b)}
            diffs = {}
            for a in list(terms):
                if terms.get(a + 1):
                    diffs[a] = self.d_matrix(a, b)
            labels = {a: self.term_labels(a, b) for a in terms}
            self._row_cache[b] = GradedComplex(terms, diffs, labels)
        return self._row_cache[b]

    def h_basis(self, b: int, a: int) -> QuotientBasis:
        key = (b, a)
        if key not in self._h_cache:
            self._h_cache[key] = self.row_complex(b).h_basis(a)
        return self._h_cache[key]

    def k_complex(self, p: int) -> GradedComplex:
        """K^{a,2p} = ST^{a,2p,a} with the restriction differential."""
        b = 2 * p
        terms = {}
        diffs = {}
        labels = {}
        amax = self.dim
        for a in range(0, amax + 1):
            terms[a] = self.block_dim(a, b, a)
            labels[a] = self.block_labels(a, b, a)
        for a in range(0, amax):
            if not terms.get(a) or not terms.get(a + 1):
                continue
            src = labels[a]
            dst_pos = {lab: i for i, lab in enumerate(labels[a + 1])}
            out = RationalMatrix(len(labels[a + 1]), len(src))
            k = (a + b - a) // 2
            for j, (f, i) in enumerate(src):
                for delta in self.x.covers_of(f):
                    fd = self.x.faces[delta]
                    if fd.sedentarity or fd.rays:
                        continue
                    sign = self.x.sign(f, delta)
                    m = self.restriction_matrix(f, delta, k)
                    for (r, c), v in m.entries.items():
                        if c == i:
                            out[dst_pos[(delta, r)], j] = out[dst_pos[(delta, r)], j] + sign * v
            diffs[a] = out
        return GradedComplex({a: d for a, d in terms.items() if d}, diffs,
                             {a: l for a, l in labels.items() if l})

    def r_complex(self, p: int) -> GradedComplex:
        """R^{a,2p} = ST^{a,2p,-a} with the Gysin differential."""
        b = 2 * p
        terms = {}
        diffs = {}
        labels = {}
        for a in range(-self.dim, 1):
            terms[a] = self.block_dim(a, b, -a)
            labels[a] = self.block_labels(a, b, -a)
        for a in range(-self.dim, 0):
            if not terms.get(a) or not terms.get(a + 1):
                continue
            src = labels[a]
            dst_pos = {lab: i for i, lab in enumerate(labels[a + 1])}
            out = RationalMatrix(len(labels[a + 1]), len(src))
            k = (a + b - (-a)) // 2
            for j, (f, i) in enumerate(src):
                for gamma in self.x.covered_by(f):
                    fg = self.x.faces[gamma]
                    if fg.sedentarity or fg.rays:
                        continue
                    sign = self.x.sign(gamma, f)
                    m = self.gysin_matrix(gamma, f, k)
                    for (r, c), v in m.entries.items():
                        if c == i:
                            out[dst_pos[(gamma, r)], j] = out[dst_pos[(gamma, r)], j] + sign * v
            diffs[a] = out
        return GradedComplex({a: d for a, d in terms.items() if d}, diffs,
                             {a: l for a, l in labels.items() if l})

    # -- psi --------------------------------------------------------------

    def epsilon(self, a: int, b: int) -> int:
        if b % 2:
            return 1
        return -1 if (a + b // 2) % 2 else 1

    def psi_homogeneous(self, a: int, b: int, s: int, xv: Sequence[Fraction],
                        a2: int, b2: int, s2: int, yv: Sequence[Fraction]) -> Fraction:
        if a + a2 != 0 or b + b2 != 2 * self.dim or s != s2:
            return Fraction(0)
        labels_x = self.block_labels(a, b, s)
        labels_y = self.block_labels(a2, b2, s2)
        kx = (a + b - s) // 2
        ky = (a2 + b2 - s) // 2
        total = Fraction(0)
        for f in self.finite_by_dim.get(s, []):
            ring = self.rings[f]
            cx = ChowClass(kx, tuple(v for (ff, _), v in zip(labels_x, xv) if ff == f))
            cy = ChowClass(ky, tuple(v for (ff, _), v in zip(labels_y, yv) if ff == f))
            if cx.coeffs and cy.coeffs:
                total += ring.pairing(cx, cy)
        return self.epsilon(a, b) * total

    def psi(self, x: Element, y: Element) -> Fraction:
        total = Fraction(0)
        for (a, b, s), xv in x.items():
            for (a2, b2, s2), yv in y.items():
                total += self.psi_homogeneous(a, b, s, xv, a2, b2, s2, yv)
        return total

    def psi_term(self, a: int, b: int, xv: Sequence[Fraction],
                 yv: Sequence[Fraction]) -> Fraction:
        """psi of two full-term vectors in ST^{a,b} and ST^{-a,2d-b}."""
        b2 = 2 * self.dim - b
        total = Fraction(0)
        for s in self.s_values(a, b):
            sl_x = self._term_slice(a, b, s, xv)
            sl_y = self._term_slice(-a, b2, s, yv)
            if sl_x is not None and sl_y is not None:
                total += self.psi_homogeneous(a, b, s, sl_x, -a, b2, s, sl_y)
        return total

    def _term_slice(self, a: int, b: int, s: int, vec: Sequence[Fraction]):
        labels = self.term_labels(a, b)
        idx = [i for i, (ss, _, _) in enumerate(labels) if ss == s]
        if not idx:
            return None
        return [vec[i] for i in idx]

    def block_to_term(self, a: int, b: int, s: int, vec: Sequence[Fraction]) -> list[Fraction]:
        labels = self.term_labels(a, b)
        block = self.block_labels(a, b, s)
        out = [Fraction(0)] * len(labels)
        by_label = {(s, f, i): v for (f, i), v in zip(block, vec)}
        for idx, lab in enumerate(labels):
            if lab in by_label:
                out[idx] = by_label[lab]
        return out

    def term_to_blocks(self, a: int, b: int, vec: Sequence[Fraction]) -> dict[int, list[Fraction]]:
        out: dict[int, list[Fraction]] = {}
        for lab, v in zip(self.term_labels(a, b), vec):
            out.setdefault(lab[0], []).append(v)
        return {s: v for s, v in out.items() if any(c != 0 for c in v)}

    def apply_d(self, x: Element) -> Element:
        out: Element = {}
        for (a, b, s), vec in x.items():
            t = self.block_to_term(a, b, s, vec)
            dt = self.d_matrix(a, b).mul_vec(t)
            for s2, sl in self.term_to_blocks(a + 1, b, dt).items():
                key = (a + 1, b, s2)
                if key in out:
                    out[key] = [u + v for u, v in zip(out[key], sl)]
                else:
                    out[key] = sl
        return {k: v for k, v in out.items() if any(c != 0 for c in v)}

    def apply_n(self, x: Element) -> Element:
        out: Element = {}
        for (a, b, s), vec in x.items():
            if self.block_exists(a + 2, b - 2, s):
                key = (a + 2, b - 2, s)
                if key in out:
                    out[key] = [u + v for u, v in zip(out[key], vec)]
                else:
                    out[key] = list(vec)
        return {k: v for k, v in out.items() if any(c != 0 for c in v)}


def build_steenbrink(x: FaceComplex) -> SteenbrinkPage:
    """Assemble the page of a compactified unimodular triangulation.

    Best-effort smoothness screening: each bounded face's star fan must be
    unimodular, pure of complementary dimension, and connected in
    codimension one.
    """
    finite = x.bounded_face_indices()
    d = x.dim
    for i in finite:
        sf = x.star_fan(i)
        if not sf.unimodular:
            raise NotUnimodularError(f"star fan of face {i} is not unimodular")
        top = d - x.faces[i].dim
        dims = [len(r) for _, r in sf.cones]
        if dims and max(dims) != top:
            raise NotUnimodularError(f"star fan of face {i} is not pure of dim {top}")
        if not _connected_codim_one(sf, top):
            raise NotUnimodularError(f"star fan of face {i} is disconnected in codim 1")
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
    src_h = st.h_basis(b, a)
    dst_h = st.h_basis(b - 2 * k, a + 2 * k)
    out = RationalMatrix(dst_h.dim, src_h.dim)
    for j, rep in enumerate(src_h.representatives):
        vec = list(rep)
        aa, bb = a, b
        for _ in range(k):
            vec = st.n_matrix(aa, bb).mul_vec(vec)
            aa, bb = aa + 2, bb - 2
        for i, c in enumerate(dst_h.coordinates(vec)):
            out[i, j] = c
    return out


def verify_hl(st: SteenbrinkPage) -> dict:
    """Page-level and cohomology-level Hard Lefschetz around zero.

    Keys are (k, source row b); N^k must map ST^{-k, b} isomorphically onto
    ST^{k, b-2k}, and likewise on row cohomology.
    """
    d = st.dim
    page = {}
    coh = {}
    for k in range(0, d + 1):
        for bs in range(0, 2 * d + 1, 2):
            bt = bs - 2 * k
            sdim = st.term_dim(-k, bs)
            tdim = st.term_dim(k, bt)
            if sdim or tdim:
                page[(k, bs)] = (st.term_labels(-k, bs) == st.term_labels(k, bt))
            hs = st.h_basis(bs, -k).dim
            ht = st.h_basis(bt, k).dim if bt >= 0 else 0
            if hs == 0 and ht == 0:
                continue
            if hs != ht:
                coh[(k, bs)] = False
                continue
            coh[(k, bs)] = rank(n_power_h_matrix(st, k, bs, -k)) == hs
    return {"page": page, "cohomology": coh,
            "all": all(page.values()) and all(coh.values())}


def primitive_basis(st: SteenbrinkPage, a: int, b: int) -> list[list[Fraction]]:
    """Cocycle representatives spanning P^{-a,b} = ker N^{a+1} on H^{-a}(ST^{.,b})."""
    if a < 0:
        return []
    h = st.h_basis(b, -a)
    if h.dim == 0:
        return []
    m = n_power_h_matrix(st, a + 1, b, -a)
    from .linalg import kernel_basis as qkernel

    kern = qkernel(m).basis
    out = []
    for coeffs in kern:
        vec = [Fraction(0)] * st.term_dim(-a, b)
        for c, rep in zip(coeffs, h.representatives):
            for i, v in enumerate(rep):
                vec[i] += c * v
        out.append(vec)
    return out


def _n_power_vec(st: SteenbrinkPage, a: int, b: int, vec, k: int):
    v = list(vec)
    aa, bb = a, b
    for _ in range(k):
        v = st.n_matrix(aa, bb).mul_vec(v)
        aa, bb = aa + 2, bb - 2
    return v


def primitive_parts(st: SteenbrinkPage) -> dict:
    """Primitive dimensions, the Lefschetz decomposition at rank level, and
    psi-orthogonality of distinct primitive summands."""
    hl = verify_hl(st)
    if not hl["all"]:
        raise HLFailureError("Hard Lefschetz fails; no primitive decomposition")
    d = st.dim
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
            rows = []
            summands = []
            for s in range(0, d + 1):
                bb = b + 2 * s
                vecs = [_n_power_vec(st, -(a + 2 * s), bb, v, s)
                        for v in primitive_basis(st, a + 2 * s, bb)]
                if vecs:
                    summands.append((s, vecs))
                for v in vecs:
                    rows.append(h.coordinates(v))
            got = rank(RationalMatrix.from_rows(rows)) if rows else 0
            decomposition_ok[(-a, b)] = (got == h.dim == len(rows))
            # Orthogonality: N^s P (in row b) against N^s' P' (in the psi-dual
            # row) pair to zero under psi(., N^a .) whenever s != s'.
            bdual = 2 * d - b + 2 * a
            dual_summands = []
            for s2 in range(0, d + 1):
                bb2 = bdual + 2 * s2
                vecs2 = [_n_power_vec(st, -(a + 2 * s2), bb2, v, s2)
                         for v in primitive_basis(st, a + 2 * s2, bb2)]
                if vecs2:
                    dual_summands.append((s2, vecs2))
            ok = True
            for s, vecs in summands:
                for s2, vecs2 in dual_summands:
                    if s == s2:
                        continue
                    for vx in vecs:
                        for vy in vecs2:
                            ny = _n_power_vec(st, -a, bdual, vy, a)
                            if st.psi_term(-a, b, vx, ny) != 0:
                                ok = False
            orthogonal_ok[(-a, b)] = ok
    return {"dims": dims, "decomposition": decomposition_ok,
            "orthogonality": orthogonal_ok,
            "all": all(decomposition_ok.values()) and all(orthogonal_ok.values())}


def cohomology_pairing_matrix(st: SteenbrinkPage, p: int, q: int) -> list[list[Fraction]]:
    """psi on H^{q-p}(ST^{.,2p}) x H^{p-q}(ST^{.,2(d-p)}), i.e. the
    Poincare pairing H^{p,q} x H^{d-p,d-q}."""
    d = st.dim
    a = q - p
    hx = st.h_basis(2 * p, a)
    hy = st.h_basis(2 * (d - p), -a)
    out = []
    for rx in hx.representatives:
        row = []
        for ry in hy.representatives:
            row.append(st.psi_term(a, 2 * p, rx, ry))
        out.append(row)
    return out


def random_homogeneous(st: SteenbrinkPage, rng: random.Random) -> tuple[tuple[int, int, int], list[Fraction]]:
    """A random nonzero homogeneous element in a random nonempty block."""
    blocks = []
    d = st.dim
    for b in range(0, 2 * d + 1, 2):
        for a in range(-d, d + 1):
            for s in range(0, d + 1):
                n = st.block_dim(a, b, s)
                if n:
                    blocks.append((a, b, s, n))
    if not blocks:
        return (0, 0, 0), []
    a, b, s, n = blocks[rng.randrange(len(blocks))]
    vec = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    if all(v == 0 for v in vec):
        vec[rng.randrange(n)] = Fraction(1)
    return (a, b, s), vec
