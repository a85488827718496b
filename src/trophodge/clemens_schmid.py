"""Abstract Clemens-Schmid verification for Lefschetz triples, the six-term
connecting map by certified diagram chase, mapping cones, and the assembled
tropical Clemens-Schmid sequence.

A LefschetzTriple is a pair of bounded complexes C, D with a degree-two
chain map L: C^k -> D^{k+2} that is injective in degrees <= -1 and
surjective in degrees >= -1, on the nose and on cohomology.  The kernel
and cokernel complexes inherit differentials, and the two long sequences

  ... -> H^k(K) -> H^k(C) -L-> H^{k+2}(D) -> H^{k+2}(R) -> H^{k+2}(K) -> ...

are verified junction by junction.  The only nontrivial connecting map is
d0: H^0(R) -> H^0(K); it is computed by the chase: lift a cocycle to D^0,
push by d_D, take the unique L-preimage in C^{-1}, push by d_C, certify
the result is killed by L, and read off its class.  Every existence step
records a witness and every uniqueness step asserts kernel triviality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import ChaseFailureError, DegreeMismatchError, HLFailureError
from .cohomology import GradedComplex, QuotientBasis, induced_map
from .linalg import Echelon, RationalMatrix, column_echelon, kernel_basis, rank


@dataclass
class LefschetzTriple:
    """(C, D, L) with L of degree two; L[k] maps C^k into D^{k+2}."""

    C: GradedComplex
    D: GradedComplex
    L: dict[int, RationalMatrix]

    def l_matrix(self, k: int) -> RationalMatrix:
        if k in self.L:
            return self.L[k]
        return RationalMatrix(self.D.dim(k + 2), self.C.dim(k))

    def degrees(self) -> list[int]:
        ks = set(self.C.terms) | {k - 2 for k in self.D.terms}
        return sorted(ks)

    def check_commutes(self) -> bool:
        for k in self.degrees():
            left = self.D.differential(k + 2).matmul(self.l_matrix(k))
            right = self.l_matrix(k + 1).matmul(self.C.differential(k))
            if left != right:
                return False
        return True


@dataclass
class Junction:
    node: str
    incoming_rank: int
    kernel_dim: int
    exact: bool
    composition_zero: bool


@dataclass
class ExactnessReport:
    junctions: list[Junction] = field(default_factory=list)

    @property
    def all_exact(self) -> bool:
        return all(j.exact and j.composition_zero for j in self.junctions)


def check_hl(t: LefschetzTriple, on_cohomology: bool = True) -> None:
    """Raise HLFailureError unless L is HL around 0 (page and cohomology)."""
    if not t.check_commutes():
        raise HLFailureError("L does not commute with the differentials")
    for k in t.degrees():
        m = t.l_matrix(k)
        r = rank(m)
        if k <= -1 and r != t.C.dim(k):
            raise HLFailureError(f"L not injective in degree {k}")
        if k >= -1 and r != t.D.dim(k + 2):
            raise HLFailureError(f"L not surjective onto degree {k + 2}")
    if not on_cohomology:
        return
    for k in t.degrees():
        m = induced_map(t.C, t.D, {k: t.l_matrix(k)}, k, shift=2)
        r = rank(m)
        if k <= -1 and r != t.C.h_basis(k).dim:
            raise HLFailureError(f"L not injective on cohomology in degree {k}")
        if k >= -1 and r != t.D.h_basis(k + 2).dim:
            raise HLFailureError(f"L not surjective on cohomology onto degree {k + 2}")


# ---------------------------------------------------------------------------
# Kernel and cokernel complexes of a triple

class _KernelComplex:
    def __init__(self, t: LefschetzTriple):
        self.basis: dict[int, list[list[Fraction]]] = {}
        self._spans: dict[int, Echelon] = {}
        terms = {}
        for k in t.degrees():
            if t.C.dim(k) == 0:
                continue
            kb = kernel_basis(t.l_matrix(k)).basis
            if kb:
                self.basis[k] = [list(v) for v in kb]
                self._spans[k] = Echelon(kb, keyed=True)
                terms[k] = len(kb)
        diffs = {}
        for k in list(terms):
            if k + 1 not in terms:
                continue
            cols = []
            for v in self.basis[k]:
                img = t.C.differential(k).mul_vec(v)
                cols.append(self._coords(k + 1, img))
            m = RationalMatrix(terms[k + 1], terms[k])
            for j, col in enumerate(cols):
                for i, c in enumerate(col):
                    m[i, j] = c
            diffs[k] = m
        self.gc = GradedComplex(terms, diffs)
        self._t = t

    def _coords(self, k: int, vec: list[Fraction]) -> list[Fraction]:
        span = self._spans.get(k, Echelon())
        c = span.coordinates(vec, range(len(self.basis.get(k, []))))
        if c is None:
            raise ChaseFailureError("vector not in kernel subcomplex")
        return c

    def inclusion(self, k: int) -> RationalMatrix:
        basis = self.basis.get(k, [])
        n = self._t.C.dim(k)
        m = RationalMatrix(n, len(basis))
        for j, b in enumerate(basis):
            for i, v in enumerate(b):
                m[i, j] = v
        return m


class _CokernelComplex:
    def __init__(self, t: LefschetzTriple):
        self.quot: dict[int, QuotientBasis] = {}
        terms = {}
        for k in t.D.terms:
            n = t.D.dim(k)
            if n == 0:
                continue
            lm = t.l_matrix(k - 2)
            image = [lm.column(j) for j in range(lm.cols)]
            qb = QuotientBasis(n, [{j: 1} for j in range(n)], image)
            if qb.dim:
                self.quot[k] = qb
                terms[k] = qb.dim
        diffs = {}
        for k in list(terms):
            if k + 1 not in terms:
                continue
            m = RationalMatrix(terms[k + 1], terms[k])
            for j, rep in enumerate(self.quot[k].representatives):
                img = t.D.differential(k).mul_vec(rep)
                for i, c in enumerate(self.quot[k + 1].coordinates(img)):
                    m[i, j] = c
            diffs[k] = m
        self.gc = GradedComplex(terms, diffs)
        self._t = t

    def projection(self, k: int) -> RationalMatrix:
        qb = self.quot.get(k)
        n = self._t.D.dim(k)
        m = RationalMatrix(qb.dim if qb else 0, n)
        if qb:
            for j in range(n):
                for i, c in enumerate(qb.coordinates({j: 1})):
                    m[i, j] = c
        return m


def _chase_d0(t: LefschetzTriple, kc: _KernelComplex, rc: _CokernelComplex,
              lift_shift: Optional[list[Fraction]] = None) -> RationalMatrix:
    """The connecting map H^0(R) -> H^0(K) by certified diagram chase."""
    h_r0, h_k0 = rc.gc.h_basis(0), kc.gc.h_basis(0)
    out = RationalMatrix(h_k0.dim, h_r0.dim)
    if h_r0.dim == 0:
        return out
    qb0 = rc.quot.get(0)
    lift = column_echelon(t.l_matrix(-1))
    # Uniqueness certificate for the L-preimage step.
    if lift.relations:
        raise ChaseFailureError("L-preimage not unique in degree -1")
    shift = t.l_matrix(-2).mul_vec(lift_shift) if lift_shift is not None else [Fraction(0)] * t.D.dim(0)
    d_d0, d_cm1, l_0 = t.D.differential(0), t.C.differential(-1), t.l_matrix(0)
    qreps = [[(i, v) for i, v in enumerate(dvec) if v] for dvec in qb0.representatives]
    for j, rep in enumerate(h_r0.representatives):
        c = list(shift)
        for coeff, dvec in zip(rep, qreps):
            if coeff:
                for i, v in dvec:
                    c[i] += coeff * v
        b_prime = lift.coordinates(d_d0.mul_vec(c), range(t.C.dim(-1)))
        if b_prime is None:
            raise ChaseFailureError("no L-preimage for the pushed lift")
        b_second = d_cm1.mul_vec(b_prime)
        if any(v != 0 for v in l_0.mul_vec(b_second)):
            raise ChaseFailureError("chase output is not in ker L")
        coords = h_k0.coordinates(kc._coords(0, b_second))
        for i, v in enumerate(coords):
            out[i, j] = v
    return out


def clemens_schmid_sequences(t: LefschetzTriple) -> ExactnessReport:
    """Verify both long exact sequences of the triple, junction by junction."""
    check_hl(t)
    kc = _KernelComplex(t)
    rc = _CokernelComplex(t)
    degrees = t.degrees()
    kmin = min(degrees) - 2 if degrees else 0
    kmax = max(degrees) + 4 if degrees else 0

    incl = {k: induced_map(kc.gc, t.C, {k: kc.inclusion(k)}, k)
            for k in range(kmin, kmax + 1)}
    lmap = {k: induced_map(t.C, t.D, {k: t.l_matrix(k)}, k, shift=2)
            for k in range(kmin, kmax - 1)}
    proj = {k: induced_map(t.D, rc.gc, {k: rc.projection(k)}, k)
            for k in range(kmin, kmax + 1)}
    conn = {k: RationalMatrix(kc.gc.h_basis(k).dim, rc.gc.h_basis(k).dim)
            for k in range(kmin, kmax + 1)}
    conn[0] = _chase_d0(t, kc, rc)

    report = ExactnessReport()

    def junction(node: str, incoming: RationalMatrix, outgoing: RationalMatrix):
        dim = incoming.rows
        if dim == 0 and incoming.cols == 0 and outgoing.rows == 0:
            return
        rk_in = rank(incoming)
        ker_out = dim - rank(outgoing)
        comp = outgoing.matmul(incoming)
        report.junctions.append(Junction(node, rk_in, ker_out,
                                         rk_in == ker_out, comp.is_zero()))

    for k in range(kmin, kmax - 1):
        junction(f"H^{k}(K)", conn[k], incl[k])
        junction(f"H^{k}(C)", incl[k], lmap[k])
        junction(f"H^{k + 2}(D)", lmap[k], proj[k + 2])
        junction(f"H^{k + 2}(R)", proj[k + 2], conn[k + 2])
    return report


def d0_lift_independent(t: LefschetzTriple) -> bool:
    """Recompute d0 with shifted lifts; the class must not change."""
    kc = _KernelComplex(t)
    rc = _CokernelComplex(t)
    base = _chase_d0(t, kc, rc)
    n = t.C.dim(-2)
    if n == 0:
        return True
    shift = [Fraction(1 + (i % 3)) for i in range(n)]
    other = _chase_d0(t, kc, rc, lift_shift=shift)
    return base == other


def d0_boundary_compositions_zero(t: LefschetzTriple) -> bool:
    """d0 . d^{-1} = 0 and d^1 . d0 = 0 on cohomology."""
    kc = _KernelComplex(t)
    rc = _CokernelComplex(t)
    d0 = _chase_d0(t, kc, rc)
    dminus = induced_map(t.D, rc.gc, {0: rc.projection(0)}, 0)
    dplus = induced_map(kc.gc, t.C, {0: kc.inclusion(0)}, 0)
    return d0.matmul(dminus).is_zero() and dplus.matmul(d0).is_zero()


# ---------------------------------------------------------------------------
# Random Lefschetz triples (used by the acceptance harness)

def _rand_unimodular(rng: random.Random, n: int) -> tuple[RationalMatrix, RationalMatrix]:
    u = RationalMatrix.identity(n)
    uinv = RationalMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        if c == 0:
            continue
        # u <- E u where E adds c * row j to row i; uinv <- uinv E^{-1}.
        for col in range(n):
            u[i, col] = u[i, col] + c * u[j, col]
        for row in range(n):
            uinv[row, j] = uinv[row, j] - c * uinv[row, i]
    return u, uinv


def _rank_pattern_matrix(rng: random.Random, rows: int, cols: int, mode: str) -> RationalMatrix:
    """A random matrix, injective / surjective / bijective by construction."""
    m = RationalMatrix(rows, cols)
    r = min(rows, cols)
    for i in range(r):
        m[i, i] = Fraction(1)
    u, _ = _rand_unimodular(rng, rows)
    v, _ = _rand_unimodular(rng, cols)
    return u.matmul(m).matmul(v)


def random_lefschetz_triple(rng: random.Random, max_degree: int = 3,
                            max_dim: int = 3) -> LefschetzTriple:
    """A random triple satisfying HL around zero by construction.

    The triple is generated in split form (harmonic summands plus identity
    pairs), with the Lefschetz map built from forced injection/surjection
    patterns, then conjugated by random unimodular changes of basis.
    """
    span = rng.randint(1, max_degree)
    degs = list(range(-span, span + 1))
    hC = {k: rng.randint(0, max_dim) for k in degs}
    aC = {k: rng.randint(0, max_dim - 1) for k in degs}
    hD = {}
    aD = {}
    for k in degs:
        if k <= -2:
            hD[k + 2] = hC[k] + rng.randint(0, 2)
            aD[k + 2] = aC[k] + (rng.randint(0, 2) if k <= -3 else 0)
        elif k == -1:
            hD[k + 2] = hC[k]
            aD[k + 2] = aC[k]
        else:
            hD[k + 2] = max(0, hC[k] - rng.randint(0, 2))
            aD[k + 2] = max(0, aC[k] - rng.randint(0, 2))
    # Heads at degree k pair with tails at k+1.
    dimsC = {k: hC.get(k, 0) + aC.get(k, 0) + aC.get(k - 1, 0) for k in range(-span, span + 2)}
    dimsD = {k: hD.get(k, 0) + aD.get(k, 0) + aD.get(k - 1, 0) for k in range(-span + 1, span + 4)}

    def build_d(h, a, dims):
        diffs = {}
        for k in sorted(dims):
            if not dims.get(k) or not dims.get(k + 1):
                continue
            m = RationalMatrix(dims[k + 1], dims[k])
            for i in range(a.get(k, 0)):
                m[h.get(k + 1, 0) + a.get(k + 1, 0) + i, h.get(k, 0) + i] = Fraction(1)
            diffs[k] = m
        return diffs

    dC = build_d(hC, aC, dimsC)
    dD = build_d(hD, aD, dimsD)

    lmats = {}
    mpat = {}
    ppat = {}
    for k in degs:
        mode = "inj" if k <= -1 else "surj"
        mpat[k] = _rank_pattern_matrix(rng, hD.get(k + 2, 0), hC.get(k, 0), mode)
        ppat[k] = _rank_pattern_matrix(rng, aD.get(k + 2, 0), aC.get(k, 0), mode)
    for k in degs + [span + 1]:
        rows = dimsD.get(k + 2, 0)
        cols = dimsC.get(k, 0)
        m = RationalMatrix(rows, cols)
        blocks = [
            (mpat.get(k), 0, 0),
            (ppat.get(k), hD.get(k + 2, 0), hC.get(k, 0)),
            (ppat.get(k - 1), hD.get(k + 2, 0) + aD.get(k + 2, 0), hC.get(k, 0) + aC.get(k, 0)),
        ]
        for blk, roff, coff in blocks:
            if blk is None:
                continue
            for (i, j), v in blk.entries.items():
                m[roff + i, coff + j] = v
        lmats[k] = m

    # Conjugate by random changes of basis.
    uC = {k: _rand_unimodular(rng, dimsC.get(k, 0)) for k in dimsC}
    uD = {k: _rand_unimodular(rng, dimsD.get(k, 0)) for k in dimsD}
    dC2 = {k: uC[k + 1][0].matmul(m).matmul(uC[k][1]) for k, m in dC.items()}
    dD2 = {k: uD[k + 1][0].matmul(m).matmul(uD[k][1]) for k, m in dD.items()}
    l2 = {k: uD[k + 2][0].matmul(m).matmul(uC[k][1]) for k, m in lmats.items() if k in dimsC and (k + 2) in dimsD}
    C = GradedComplex({k: v for k, v in dimsC.items() if v}, dC2)
    D = GradedComplex({k: v for k, v in dimsD.items() if v}, dD2)
    return LefschetzTriple(C, D, l2)


# ---------------------------------------------------------------------------
# Mapping cone and the tropical Clemens-Schmid sequence

def mapping_cone_check(st, p: int) -> dict:
    """The projection of the double-cone total complex onto the cokernel
    complex must be a quasi-isomorphism, for an even p."""
    if p % 2:
        raise DegreeMismatchError(f"the mapping cone needs an even row, not p={p}")
    d = st.dim
    kc = st.k_complex(p // 2 + 1)
    rc = st.r_complex(p // 2)
    arange = range(-d - 2, d + 3)
    terms = {}
    parts = {}
    for a in arange:
        nk = kc.dim(a)
        nmid = st.term_dim(a - 1, p + 2)
        nbot = st.term_dim(a, p)
        if nk + nmid + nbot:
            terms[a] = nk + nmid + nbot
            parts[a] = (nk, nmid, nbot)
    diffs = {}
    for a in list(terms):
        if a + 1 not in terms:
            continue
        nk, nmid, nbot = parts[a]
        nk2, nmid2, nbot2 = parts[a + 1]
        m = RationalMatrix(terms[a + 1], terms[a])
        if nk and nk2:
            dk = kc.differential(a)
            for (i, j), v in dk.entries.items():
                m[i, j] = v
        if nk and nmid2:
            # iota: embed the kernel block into the full term.
            index = st.term_index(a, p + 2)
            for j, (f, i) in enumerate(kc.labels.get(a, [])):
                m[nk2 + index[(a, f, i)], j] = Fraction(1)
        if nmid and nmid2:
            dmid = st.row_complex(p + 2).differential(a - 1)
            for (i, j), v in dmid.entries.items():
                m[nk2 + i, nk + j] = -v
        if nmid and nbot2:
            nmat = st.n_matrix(a - 1, p + 2)
            for (i, j), v in nmat.entries.items():
                m[nk2 + nmid2 + i, nk + j] = v
        if nbot and nbot2:
            dbot = st.row_complex(p).differential(a)
            for (i, j), v in dbot.entries.items():
                m[nk2 + nmid2 + i, nk + nmid + j] = v
        diffs[a] = m
    total = GradedComplex(terms, diffs)
    if not total.check():
        raise ChaseFailureError("double cone differential does not square to zero")
    # Projection onto R^{a,p}: the s = -a block of the bottom part.
    proj = {}
    for a in terms:
        nk, nmid, nbot = parts[a]
        out = RationalMatrix(rc.dim(a), terms[a])
        labels_r = rc.labels.get(a, [])
        if labels_r and nbot:
            index = st.term_index(a, p)
            for i, (f, ii) in enumerate(labels_r):
                out[i, nk + nmid + index[(-a, f, ii)]] = Fraction(1)
        proj[a] = out
    # Chain map check.
    for a in terms:
        if a + 1 not in terms:
            continue
        left = proj[a + 1].matmul(diffs[a])
        right = rc.differential(a).matmul(proj[a])
        if left != right:
            raise ChaseFailureError("cone projection is not a chain map")
    result = {}
    for a in range(min(terms, default=0) - 1, max(terms, default=0) + 2):
        h_total, h_coker = total.h_basis(a).dim, rc.h_basis(a).dim
        if h_total or h_coker:
            m = induced_map(total, rc, {a: proj.get(a, RationalMatrix(rc.dim(a), total.dim(a)))}, a)
            result[a] = {"h_total": h_total, "h_coker": h_coker,
                         "iso": h_total == h_coker == rank(m)}
    return {"degrees": result, "all": all(v["iso"] for v in result.values())}


def steenbrink_triple(st, p: int) -> LefschetzTriple:
    """(C, D, L) = (ST^{.,2p+2}, ST^{.,2p}, N) with N of degree (2,-2)."""
    C = st.row_complex(2 * p + 2)
    D = st.row_complex(2 * p)
    L = {}
    for a in C.support:
        L[a] = st.n_matrix(a, 2 * p + 2)
    return LefschetzTriple(C, D, L)


def tropical_clemens_schmid(st) -> dict:
    """Junction-by-junction exactness of the tropical Clemens-Schmid
    sequence, one abstract triple per even row pair."""
    from .steenbrink import verify_hl

    if not verify_hl(st)["all"]:
        raise HLFailureError("Hard Lefschetz fails on the Steenbrink page")
    reports = {}
    d = st.dim
    for p in range(0, d + 1):
        t = steenbrink_triple(st, p)
        if not any(t.C.terms.values()) and not any(t.D.terms.values()):
            continue
        reports[p] = clemens_schmid_sequences(t)
    return {"per_p": reports,
            "all": all(r.all_exact for r in reports.values())}
