"""Test-side helpers for Lefschetz triples: random triples that satisfy
Hard Lefschetz around zero by construction, two checks of the connecting
map d0 that the test suite runs on them, and an oracle for the exact
sequences.

The oracle is the coordinate implementation that `clemens_schmid` used
before it counted independent vectors, and it shares no cohomology code
with the package: its groups are `RowQuotientBasis`, the quotient class the
package used before its groups were read over the cached echelon of the
differential, which takes the boundaries as rows and eliminates them
itself.  It builds K = ker L and R = D / im L as subquotient complexes,
makes the matrix of every map on cohomology from class coordinates, and
ranks and multiplies those matrices.
"""

import random
from functools import partial
from typing import Callable, Optional, Sequence

from trophodge import ChaseFailureError, DegeneratePairingError
from trophodge.clemens_schmid import ExactnessReport, Junction, LefschetzTriple, _chase
from trophodge.cohomology import GradedComplex
from trophodge.linalg import Echelon, Rational, RationalMatrix, column_echelon, kernel_vectors, normal, rank


# ---------------------------------------------------------------------------
# The oracle: quotients from rows, K and R as subquotient complexes, maps as
# coordinate matrices

class RowQuotientBasis:
    """Basis handling for a quotient (span Z)/(span B) of row vectors.

    The representatives are the rows of Z that are independent modulo B and
    the rows of Z before them.  One echelon form holds B unkeyed and Z
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
        self.representatives: list[list[Rational]] = []
        for i, r in enumerate(zrows):
            if self._span.add(r, i):
                self._keys.append(i)
                rep = [r.get(j, 0) for j in range(ambient_dim)] if isinstance(r, dict) else r
                self.representatives.append([normal(x) for x in rep])

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, vec) -> list[Rational]:
        """Coordinates of a vector's class over the representative basis."""
        coords = self._span.coordinates(vec, self._keys)
        if coords is None:
            raise DegeneratePairingError("vector is not a cocycle of this space")
        return coords


def h_rows(gc: GradedComplex, k: int) -> tuple[list, list]:
    """Cocycles and boundary rows of H^k(gc): the canonical kernel of d_k,
    and the columns of d_{k-1}."""
    cocycles = kernel_vectors(column_echelon(gc.differential(k)), gc.dim(k))
    return list(cocycles), gc.differential(k - 1).columns() if gc.dim(k) else []


def row_h_basis(gc: GradedComplex, k: int) -> RowQuotientBasis:
    return RowQuotientBasis(gc.dim(k), *h_rows(gc, k))


def k_rows(t: LefschetzTriple, k: int) -> tuple[list, list]:
    """Cocycles and boundary rows of K^k in C^k: the canonical kernel of the
    stacked [L^k; d_C^k], and d_C of the canonical kernel of L^{k-1}."""
    top = t.l_matrix(k)
    stacked = [{**lc, **{i + top.rows: v for i, v in dc.items()}}
               for lc, dc in zip(top.columns(), t.C.differential(k).columns())]
    cocycles = kernel_vectors(Echelon(stacked, keyed=True), t.C.dim(k))
    d = t.C.differential(k - 1)
    return list(cocycles), [d.mul_vec(v) for v in kernel_vectors(column_echelon(t.l_matrix(k - 1)),
                                                                  t.C.dim(k - 1))]


def r_rows(t: LefschetzTriple, k: int) -> tuple[list, list]:
    """Cocycles and boundary rows of R^k in D^k: the D^k part of the canonical
    kernel of [d_D^k | L^{k-1}], and the columns of d_D^{k-1} and L^{k-2}."""
    stacked = t.D.differential(k).columns() + t.l_matrix(k - 1).columns()
    cocycles = kernel_vectors(Echelon(stacked, keyed=True), t.D.dim(k))
    coboundaries = t.D.differential(k - 1).columns() if t.D.dim(k) else []
    return list(cocycles), coboundaries + t.l_matrix(k - 2).columns()


def _rank(m: RationalMatrix) -> int:
    """The rank of m, with no elimination when m is zero."""
    return 0 if m.is_zero() else rank(m)


def _induced(src: RowQuotientBasis, dst: RowQuotientBasis,
             f: Callable[[Sequence], Sequence]) -> RationalMatrix:
    """The matrix of the map of classes that f induces, from class coordinates."""
    return RationalMatrix.from_columns(dst.dim, [dst.coordinates(f(rep))
                                                 for rep in src.representatives])


class Subquotient:
    """The complex that ambient induces on span Z / span B in each degree,
    for rows Z and B of its terms with d(Z) in Z and d(B) in B.  quot[k] is
    the RowQuotientBasis of degree k; gc leaves out the degrees where it is 0."""

    def __init__(self, ambient: GradedComplex, zrows: dict[int, Sequence],
                 brows: dict[int, Sequence]):
        self.ambient = ambient
        self.quot = {k: RowQuotientBasis(ambient.dim(k), z, brows.get(k, ()))
                     for k, z in zrows.items()}
        terms = {k: qb.dim for k, qb in self.quot.items() if qb.dim}
        diffs = {k: RationalMatrix.from_columns(terms[k + 1], [
                     self.coordinates(k + 1, ambient.differential(k).mul_vec(rep))
                     for rep in self.quot[k].representatives])
                 for k in terms if k + 1 in terms}
        self.gc = GradedComplex(terms, diffs)

    def _basis(self, k: int) -> RowQuotientBasis:
        return self.quot.get(k) or RowQuotientBasis(self.ambient.dim(k), (), ())

    def coordinates(self, k: int, vec: Sequence[Rational]) -> list[Rational]:
        """The coordinates of vec's class over the degree-k representatives."""
        try:
            return self._basis(k).coordinates(vec)
        except DegeneratePairingError:
            raise ChaseFailureError(f"vector outside the subquotient in degree {k}") from None

    def inclusion(self, k: int) -> RationalMatrix:
        """The representatives of degree k as columns in the ambient term."""
        return RationalMatrix.from_columns(self.ambient.dim(k), self._basis(k).representatives)


def kernel_and_cokernel(t: LefschetzTriple) -> tuple[Subquotient, Subquotient]:
    """K = ker L in C, and R = D / im L with L^{k-2} landing in D^k."""
    kc = Subquotient(t.C, {k: kernel_vectors(column_echelon(t.l_matrix(k)), t.C.dim(k))
                           for k in t.degrees()}, {})
    rc = Subquotient(t.D, {k: [{j: 1} for j in range(n)] for k, n in t.D.terms.items()},
                     {k: t.l_matrix(k - 2).columns() for k in t.D.terms})
    return kc, rc


def chase_d0(t: LefschetzTriple, kc: Subquotient, rc: Subquotient,
             lift_shift: Optional[list[Rational]] = None) -> RationalMatrix:
    """The connecting map H^0(R) -> H^0(K) by certified diagram chase, with
    every lift moved by L^{-2} of lift_shift when it is given."""
    h_r0, h_k0 = row_h_basis(rc.gc, 0), row_h_basis(kc.gc, 0)
    if h_r0.dim == 0:
        return RationalMatrix(h_k0.dim, 0)
    lift = column_echelon(t.l_matrix(-1))
    if lift.relations:
        raise ChaseFailureError("L-preimage not unique in degree -1")
    shift = t.l_matrix(-2).mul_vec(lift_shift) if lift_shift is not None else [0] * t.D.dim(0)
    d_d0, d_cm1, l_0 = t.D.differential(0), t.C.differential(-1), t.l_matrix(0)
    r_incl = rc.inclusion(0)
    columns = []
    for rep in h_r0.representatives:
        c = [x + y for x, y in zip(r_incl.mul_vec(rep), shift)]
        b_prime = lift.coordinates(d_d0.mul_vec(c), range(t.C.dim(-1)))
        if b_prime is None:
            raise ChaseFailureError("no L-preimage for the pushed lift")
        b_second = d_cm1.mul_vec(b_prime)
        if any(v != 0 for v in l_0.mul_vec(b_second)):
            raise ChaseFailureError("chase output is not in ker L")
        columns.append(h_k0.coordinates(kc.coordinates(0, b_second)))
    return RationalMatrix.from_columns(h_k0.dim, columns)


def oracle_sequences(t: LefschetzTriple) -> ExactnessReport:
    """Both long exact sequences of a triple that satisfies HL, junction by
    junction, from the ranks and products of coordinate matrices."""
    kc, rc = kernel_and_cokernel(t)
    degrees = t.degrees()
    kmin = min(degrees) - 2 if degrees else 0
    kmax = max(degrees) + 4 if degrees else 0
    groups = {name: {} for name in "KCDR"}

    def h(name: str, k: int) -> RowQuotientBasis:
        if k not in groups[name]:
            groups[name][k] = row_h_basis({"K": kc.gc, "C": t.C, "D": t.D, "R": rc.gc}[name], k)
        return groups[name][k]

    incl = {k: _induced(h("K", k), h("C", k), kc.inclusion(k).mul_vec)
            for k in range(kmin, kmax - 1)}
    lmap = {k: _induced(h("C", k), h("D", k + 2), t.l_matrix(k).mul_vec)
            for k in range(kmin, kmax - 1)}
    proj = {k: _induced(h("D", k), h("R", k), partial(rc.coordinates, k))
            for k in range(kmin + 2, kmax + 1)}
    conn = {k: RationalMatrix(h("K", k).dim, h("R", k).dim) for k in range(kmin, kmax + 1)}
    conn[0] = chase_d0(t, kc, rc)
    maps = {"incl": incl, "lmap": lmap, "proj": proj, "conn": conn}
    report = ExactnessReport()

    def junction(node: str, incoming: tuple[str, int], outgoing: tuple[str, int]):
        m_in, m_out = maps[incoming[0]][incoming[1]], maps[outgoing[0]][outgoing[1]]
        dim = m_in.rows
        if dim == 0 and m_in.cols == 0 and m_out.rows == 0:
            return
        rk_in = _rank(m_in)
        ker_out = dim - _rank(m_out)
        report.junctions.append(Junction(node, rk_in, ker_out, rk_in == ker_out,
                                         m_out.matmul(m_in).is_zero()))

    for k in range(kmin, kmax - 1):
        junction(f"H^{k}(K)", ("conn", k), ("incl", k))
        junction(f"H^{k}(C)", ("incl", k), ("lmap", k))
        junction(f"H^{k + 2}(D)", ("lmap", k), ("proj", k + 2))
        junction(f"H^{k + 2}(R)", ("proj", k + 2), ("conn", k + 2))
    return report


# ---------------------------------------------------------------------------
# Checks of d0

def d0_lift_independent(t: LefschetzTriple) -> bool:
    """The chase of c + L x equals the chase of c, for each representative c
    of H^0(R) and a fixed x in C^{-2}."""
    n = t.C.dim(-2)
    if n == 0:
        return True
    shift = t.l_matrix(-2).mul_vec([1 + (i % 3) for i in range(n)])
    return all(_chase(t, [x + y for x, y in zip(c, shift)]) == _chase(t, c)
               for c in t.group("R", 0).representatives)


def d0_boundary_compositions_zero(t: LefschetzTriple) -> bool:
    """d0 . d^{-1} = 0 and d^1 . d0 = 0 on cohomology, with the chase's
    outputs read in the oracle's class coordinates."""
    kc, rc = kernel_and_cokernel(t)
    h_k0, h_c0 = row_h_basis(kc.gc, 0), row_h_basis(t.C, 0)
    from_d = [h_k0.coordinates(kc.coordinates(0, _chase(t, z)))
              for z in row_h_basis(t.D, 0).representatives]
    into_c = [h_c0.coordinates(_chase(t, rc.inclusion(0).mul_vec(rep)))
              for rep in row_h_basis(rc.gc, 0).representatives]
    return not any(any(v) for v in from_d + into_c)


# ---------------------------------------------------------------------------
# Random triples

def _rand_unimodular(rng: random.Random, n: int) -> tuple[RationalMatrix, RationalMatrix]:
    u = RationalMatrix.identity(n)
    uinv = RationalMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
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
        m[i, i] = 1
    u, _ = _rand_unimodular(rng, rows)
    v, _ = _rand_unimodular(rng, cols)
    return u.matmul(m).matmul(v)


def random_lefschetz_triple(rng: random.Random, max_degree: int = 3,
                            max_dim: int = 3, crossing: int = 0) -> LefschetzTriple:
    """A random triple satisfying HL around zero by construction.

    The triple is generated in split form (harmonic summands plus identity
    pairs), with the Lefschetz map built from forced injection/surjection
    patterns, then conjugated by random unimodular changes of basis.

    A crossing summand of dimension `crossing` adds Q^crossing to C^{-1},
    C^0, D^0 and D^1, with d_C: C^{-1} -> C^0, d_D: D^0 -> D^1 and
    L^{-1}: C^{-1} -> D^1 the identity on it.  It is acyclic in C and D and
    adds Q^crossing to H^0(K) and to H^0(R), on which d0 is an isomorphism;
    without it d0 is almost always zero.  The default draws the same random
    numbers as before the option existed.
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
    # Heads at degree k pair with tails at k+1; the crossing summand comes last.
    dimsC = {k: hC.get(k, 0) + aC.get(k, 0) + aC.get(k - 1, 0) for k in range(-span, span + 2)}
    dimsD = {k: hD.get(k, 0) + aD.get(k, 0) + aD.get(k - 1, 0) for k in range(-span + 1, span + 4)}
    for dims, k in ((dimsC, -1), (dimsC, 0), (dimsD, 0), (dimsD, 1)):
        dims[k] += crossing

    def build_d(h, a, dims, cross_from):
        diffs = {}
        for k in sorted(dims):
            if not dims.get(k) or not dims.get(k + 1):
                continue
            m = RationalMatrix(dims[k + 1], dims[k])
            for i in range(a.get(k, 0)):
                m[h.get(k + 1, 0) + a.get(k + 1, 0) + i, h.get(k, 0) + i] = 1
            if k == cross_from:
                for i in range(1, crossing + 1):
                    m[dims[k + 1] - i, dims[k] - i] = 1
            diffs[k] = m
        return diffs

    dC = build_d(hC, aC, dimsC, -1)
    dD = build_d(hD, aD, dimsD, 0)

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
        if k == -1:
            for i in range(1, crossing + 1):
                m[rows - i, cols - i] = 1
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
