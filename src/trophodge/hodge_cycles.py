"""Hodge loci, the Hodge-class-to-tropical-cycle construction, the explicit
zigzag representative, and numerical versus homological equivalence.

A Hodge class is a compatible family of star-fan Chow classes over the
finite vertices of the triangulation (a cocycle of the kernel complex).
Its tropical cycle is glued from the canonical local Minkowski weights
w_v(sigma) = deg(alpha_v . x_sigma); consistency of the glue across
vertices is asserted, and balancing is checked on the open part.

The zigzag runs along all faces of the compactification.  Every tensor
factor Lambda^k T*gamma in the diagram is a line trivialized by the dual
of the face's orientation multivector, which turns the wedge-with-normal
maps into multiplication by the orientation sign; the leftward Gysin sums
are solved with deterministic pivoting, and the class of the resulting
cochain does not depend on those choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import (
    DegeneratePairingError,
    GluingConflictError,
    IncompatibleClassError,
    ZigzagInconsistentError,
    cached,
)
from .chow import ChowClass, MinkowskiWeight, gysin as chow_gysin, mw_evaluate, ring_of
from .cohomology import cochain_complex, coefficient_space, wedge_vector
from .linalg import Echelon, Rational, RationalMatrix, kernel_vectors, rank, solve
from .steenbrink import SteenbrinkPage, n_power_image


@dataclass
class HodgeClass:
    """A cocycle of K^{0,2p}: one degree-p star Chow class per finite vertex."""

    p: int
    classes: dict[int, ChowClass]

    def component(self, st: SteenbrinkPage, v: int) -> ChowClass:
        if v in self.classes:
            return self.classes[v]
        return st.rings_for(v).zero(self.p)

    def term_vector(self, st: SteenbrinkPage) -> list[Rational]:
        """The class as a full-term vector of ST^{0,2p}, zero outside the s = 0 block."""
        index = st.term_index(0, 2 * self.p)
        out = [0] * len(index)
        for (s, f, i), j in index.items():
            if s == 0:
                out[j] = self.component(st, f).coeffs[i]
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.classes.values())


@dataclass
class TropicalCycle:
    """Weights on the dimension-k closed faces of the compactification."""

    k: int
    weight: MinkowskiWeight


def _block_vector_to_class(st: SteenbrinkPage, p: int, vec: Sequence[Rational]) -> HodgeClass:
    """The class of a vector of K^{0,2p}, labelled by the block ST^{0,2p,0}."""
    coeffs = {v: [0] * st.rings[v].dim(p) for v in st.finite_by_dim.get(0, [])}
    for (f, i), val in zip(st.block_labels(0, 2 * p, 0), vec):
        coeffs[f][i] = val
    return HodgeClass(p, {v: ChowClass(p, tuple(c)) for v, c in coeffs.items()})


@cached
def k_cocycle_vectors(st: SteenbrinkPage, p: int) -> list[list[Rational]]:
    """Basis of the cocycles of K^{0,2p} (the compatibility condition)."""
    kc = st.k_complex(p)
    n = kc.dim(0)
    if n == 0:
        return []
    return [list(v) for v in kernel_vectors(kc.echelon(0), n)]


def is_cocycle(st: SteenbrinkPage, alpha: HodgeClass) -> bool:
    """d alpha = 0; on the s = 0 block, d is the restriction differential of K."""
    _, _, dvec = st.apply_d((0, 2 * alpha.p, alpha.term_vector(st)))
    return all(v == 0 for v in dvec)


@cached
def hodge_locus_basis(st: SteenbrinkPage, p: int) -> list[HodgeClass]:
    """Cocycles of K^{0,2p} whose classes span ker N inside H^{p,p}."""
    h0 = st.h_basis(2 * p, 0)
    target_rank = h0.dim - len(n_power_image(st, 1, 2 * p, 0))
    chosen: list[HodgeClass] = []
    chosen_span = Echelon()
    for vec in k_cocycle_vectors(st, p):
        alpha = _block_vector_to_class(st, p, vec)
        if chosen_span.add(h0.coordinates(alpha.term_vector(st))):
            chosen.append(alpha)
        if len(chosen) == target_rank:
            break
    if len(chosen) != target_rank:
        raise DegeneratePairingError(
            "kernel cocycles do not span ker N; Clemens-Schmid violated")
    return chosen


# ---------------------------------------------------------------------------
# The cycle of a Hodge class

def _incident_finite_vertices(st: SteenbrinkPage, eta: int) -> list[int]:
    return sorted(v for v in st.x.subfaces(eta)
                  if st.x.faces[v].dim == 0 and not st.x.faces[v].sedentarity
                  and not st.x.faces[v].rays)


def hodge_to_cycle(st: SteenbrinkPage, alpha: HodgeClass) -> TropicalCycle:
    if not is_cocycle(st, alpha):
        raise IncompatibleClassError("class components disagree along edges")
    p = alpha.p
    d = st.dim
    k = d - p
    weights = []
    for face in st.x.faces_of_dim(k):
        eta = face.index
        if face.sedentarity:
            continue
        verts = _incident_finite_vertices(st, eta) if k > 0 else (
            [eta] if not face.rays else [])
        if not verts:
            raise GluingConflictError(
                f"face {eta} of the open part has no finite vertex")
        vals = []
        for v in verts:
            star = st.x.star_fan(v)
            ring = ring_of(star)
            cone = star.cone_rays(eta) if k > 0 else frozenset()
            xcls = ring.reduce_class(k, {cone: 1})
            vals.append(ring.pairing(alpha.component(st, v), xcls))
        if any(val != vals[0] for val in vals[1:]):
            raise GluingConflictError(
                f"local weights disagree on face {eta}: {vals}")
        if vals[0] != 0:
            weights.append((eta, vals[0]))
    w = MinkowskiWeight(k, tuple(weights))
    from .chow import is_balanced

    if not is_balanced(st.x, w):
        raise GluingConflictError("glued weight violates balancing")
    return TropicalCycle(k, w)


def local_weight(st: SteenbrinkPage, w: MinkowskiWeight, v: int) -> MinkowskiWeight:
    """The weight induced on the star fan of a finite vertex."""
    star_vals = []
    wd = w.as_dict()
    for lbl, _rays in st.x.star_fan(v).cones_of_dim(w.dim):
        val = wd.get(lbl, 0)
        if val != 0:
            star_vals.append((lbl, val))
    return MinkowskiWeight(w.dim, tuple(star_vals))


def verify_class(st: SteenbrinkPage, alpha: HodgeClass, cyc: TropicalCycle) -> bool:
    """Compare Chow-side degrees against Minkowski-weight evaluations for
    every kernel cocycle of the complementary degree, and require the
    kernel-kernel pairing to be nondegenerate so agreement pins the class."""
    p = alpha.p
    d = st.dim
    q = d - p
    if cyc.k != q:
        return False
    report = numerical_vs_homological(st, p)
    if not report["nondegenerate"]:
        return False
    weights = {v: local_weight(st, cyc.weight, v) for v in st.finite_by_dim.get(0, [])}
    for bvec in k_cocycle_vectors(st, q):
        beta = _block_vector_to_class(st, q, bvec)
        chow_side = 0
        mw_side = 0
        for v, weight in weights.items():
            ring = st.rings[v]
            bv = beta.component(st, v)
            chow_side += ring.pairing(alpha.component(st, v), bv)
            mw_side += mw_evaluate(st.x.star_fan(v), bv, weight)
        if chow_side != mw_side:
            return False
    return True


# ---------------------------------------------------------------------------
# Numerical versus homological equivalence

@cached
def numerical_vs_homological(st: SteenbrinkPage, p: int) -> dict:
    """The psi pairing between ker N in H^{p,p} and in H^{q,q}, plus the
    rank-level decomposition H^{p,p} = ker N + Im N and orthogonality."""
    d = st.dim
    q = d - p
    basis_p = [(0, 2 * p, a.term_vector(st)) for a in hodge_locus_basis(st, p)]
    basis_q = [(0, 2 * q, b.term_vector(st)) for b in hodge_locus_basis(st, q)]
    matrix = [[st.psi(x, y) for y in basis_q] for x in basis_p]
    square = len(basis_p) == len(basis_q)
    nondeg = square and (not basis_p or rank(RationalMatrix.from_rows(matrix)) == len(basis_p))

    # Rank-level splitting of H^{p,p} into ker N and Im N.
    h0, kernel = st.h_basis(2 * p, 0), [x for _, _, x in basis_p]
    image = n_power_image(st, 1, 2 * p + 2, -2)
    ker_rank = len(h0.independent(kernel))
    splits = len(h0.independent(kernel + image)) == ker_rank + len(image) == h0.dim

    # ker N (p side) is psi-orthogonal to Im N (q side).
    images_q = [st.apply_n((-2, 2 * q + 2, rep)) for rep in st.h_basis(2 * q + 2, -2).representatives]
    ortho = all(st.psi(x, y) == 0 for x in basis_p for y in images_q)
    result = {
        "pairing": matrix,
        "square": square,
        "nondegenerate": nondeg,
        "splitting": splits,
        "orthogonal": ortho,
    }
    if not nondeg:
        raise DegeneratePairingError(f"kernel-kernel pairing degenerate at p={p}")
    return result


# ---------------------------------------------------------------------------
# The zigzag representative

def _same_sed_covers(x, gamma: int) -> list[int]:
    fg = x.faces[gamma]
    return [d for d in x.covers_of(gamma) if x.faces[d].sedentarity == fg.sedentarity]


def zigzag_representative(st: SteenbrinkPage, alpha: HodgeClass,
                          pivot_tweak: int = 0) -> dict[int, list[Rational]]:
    """A cocycle in C^{p,p} representing the class of alpha via the zigzag.

    The zigzag constraints are solved as one deterministic linear system:
    the signed Gysin sums at each level must reproduce the pushed values
    from the previous one, the final cochain must restrict to the last
    level on every orientation multivector line, and it must be closed.
    Solving all levels together matters: a greedy level-by-level particular
    solution can fail to admit any closed completion, while the system as a
    whole is solvable whenever the input is a kernel cocycle.

    Returns a map from p-faces of the compactification to dual coordinates
    over each face's coefficient-space basis.  pivot_tweak rotates the
    unknown ordering; the cohomology class must not depend on it.
    """
    x = st.x
    p = alpha.p
    if not is_cocycle(st, alpha):
        raise ZigzagInconsistentError("input is not a kernel cocycle")
    rings = {f.index: ring_of(x.star_fan(f.index)) for f in x.faces}

    # Unknowns: for each level k < p, one coordinate per (gamma in X_k,
    # same-sed cover delta, basis element of A^{p-k-1}(star delta)); then
    # the cochain coordinates of C^{p,p}.
    unknowns: list[tuple] = []
    upos: dict[tuple, int] = {}
    for k in range(p):
        for f in x.faces_of_dim(k):
            for delta in _same_sed_covers(x, f.index):
                rd = rings[delta]
                for i in range(rd.dim(p - k - 1)):
                    key = ("y", k, f.index, delta, i)
                    upos[key] = len(unknowns)
                    unknowns.append(key)
    gc = cochain_complex(x, p)
    labels = gc.labels[p]
    c_offset = len(unknowns)
    for idx, (face, t) in enumerate(labels):
        key = ("c", face, t)
        upos[key] = len(unknowns)
        unknowns.append(key)
    nvars = len(unknowns)

    rows: list[dict[int, Rational]] = []
    rhs: list[Rational] = []

    def add_row(row: dict[int, Rational], val: Rational):
        rows.append(row)
        rhs.append(val)

    # Level-k balance: sum_delta sign(gamma,delta) gys(y_{gamma,delta}) equals
    # the hook of alpha (k = 0) or the pushed values from level k-1.
    for k in range(p):
        for f in x.faces_of_dim(k):
            gamma = f.index
            rg = rings[gamma]
            nr = rg.dim(p - k)
            target = [0] * nr
            if k == 0:
                if not f.sedentarity and not f.rays and f.index in st.finite_by_dim.get(0, []):
                    target = list(alpha.component(st, gamma).coeffs)
            row_entries: list[dict[int, Rational]] = [dict() for _ in range(nr)]
            for delta in _same_sed_covers(x, gamma):
                rd = rings[delta]
                sgn = x.sign(gamma, delta)
                for i, mono in enumerate(rd.basis(p - k - 1)):
                    img = chow_gysin(x, gamma, delta,
                                     rd.reduce_class(p - k - 1, {mono: 1}))
                    pos = upos[("y", k, gamma, delta, i)]
                    for r, v in enumerate(img.coeffs):
                        if v != 0:
                            row_entries[r][pos] = row_entries[r].get(pos, 0) + sgn * v
            if k > 0:
                # Pushed values: right map from level k-1 into gamma.
                for gprev in x.covered_by(gamma):
                    if x.faces[gprev].sedentarity != f.sedentarity:
                        continue
                    sgn = x.sign(gprev, gamma)
                    for i in range(nr):
                        pos = upos[("y", k - 1, gprev, gamma, i)]
                        row_entries[i][pos] = row_entries[i].get(pos, 0) - sgn
            for r in range(nr):
                add_row(row_entries[r], target[r])
    # Restriction of the cochain to orientation lines equals the last push,
    # on faces of the open part; values at infinity faces stay free (the
    # zigzag pins a subquotient of C^{p,p}; closedness completes them).
    face_offsets: dict[int, int] = {}
    for idx, (face, t) in enumerate(labels):
        face_offsets.setdefault(face, idx)
    for f in x.faces_of_dim(p):
        if f.sedentarity:
            continue
        space = coefficient_space(x, f.index, p)
        row: dict[int, Rational] = {}
        if space.dim:
            coords = space.coordinates(wedge_vector(f.tangent, space.stratum_rank))
            for j, v in enumerate(coords):
                if v != 0:
                    row[c_offset + face_offsets[f.index] + j] = v
        if p > 0:
            for gprev in x.covered_by(f.index):
                if x.faces[gprev].sedentarity != f.sedentarity:
                    continue
                sgn = x.sign(gprev, f.index)
                pos = upos[("y", p - 1, gprev, f.index, 0)]
                row[pos] = row.get(pos, 0) - sgn
            add_row(row, 0)
        else:
            val = alpha.component(st, f.index).coeffs[0] \
                if (not f.rays and f.index in st.finite_by_dim.get(0, [])) \
                else 0
            add_row(row, val)
    # Closedness of the cochain.
    dmat = gc.differential(p)
    for i in range(dmat.rows):
        row = {}
        for (r, jj), v in dmat.entries.items():
            if r == i:
                row[c_offset + jj] = v
        add_row(row, 0)

    order = list(range(nvars))
    if pivot_tweak and nvars:
        shift = pivot_tweak % nvars
        order = order[shift:] + order[:shift]
    inv = {oj: jj for jj, oj in enumerate(order)}
    mat = RationalMatrix(len(rows), nvars)
    for i, row in enumerate(rows):
        for pos, v in row.items():
            mat[i, inv[pos]] = v
    sol_p = solve(mat, rhs)
    if sol_p is None:
        raise ZigzagInconsistentError("zigzag system is not solvable")
    sol = [0] * nvars
    for jj, oj in enumerate(order):
        sol[oj] = sol_p[jj]
    cochain: dict[int, list[Rational]] = {}
    for idx, (face, t) in enumerate(labels):
        cochain.setdefault(face, []).append(sol[c_offset + idx])
    for f in x.faces_of_dim(p):
        cochain.setdefault(f.index, [])
    return cochain
