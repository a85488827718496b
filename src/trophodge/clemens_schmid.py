"""Abstract Clemens-Schmid verification for Lefschetz triples, the six-term
connecting map by certified diagram chase, mapping cones, and the assembled
tropical Clemens-Schmid sequence.

A LefschetzTriple is a pair of bounded complexes C, D with a degree-two
chain map L: C^k -> D^{k+2} that is injective in degrees <= -1 and
surjective in degrees >= -1, on the nose and on cohomology.  The kernel
complex K = ker L and the cokernel complex R = D / im L are one kind of
object, a subquotient span Z / span B of a complex in each degree with the
differential it induces: K takes Z = ker L^k in C^k and no B, R takes all of
D^k as Z and the columns of L^{k-2} as B.  The two long sequences

  ... -> H^k(K) -> H^k(C) -L-> H^{k+2}(D) -> H^{k+2}(R) -> H^{k+2}(K) -> ...

are verified junction by junction.  The only nontrivial connecting map is
d0: H^0(R) -> H^0(K); it is computed by the chase: lift a cocycle to D^0,
push by d_D, take the unique L-preimage in C^{-1}, push by d_C, certify
the result is killed by L, and read off its class.  Every existence step
records a witness and every uniqueness step asserts kernel triviality.

The mapping cone check builds the double-cone total complex of a row pair
of the Steenbrink page and verifies that its projection onto R is a
quasi-isomorphism from ranks alone: the projection keeps R's coordinates,
so it is a chain map iff two submatrices of the total differential are
right, and then a quasi-isomorphism iff the coordinate subcomplex on the
other coordinates (its kernel) is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from . import ChaseFailureError, DegeneratePairingError, DegreeMismatchError, HLFailureError, cached
from .cohomology import GradedComplex, QuotientBasis, induced_map
from .linalg import Echelon, Rational, RationalMatrix, column_echelon, kernel_vectors, rank


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

    @cached
    def l_echelon(self, k: int) -> Echelon:
        """The keyed column echelon of L in degree k, the one elimination of
        it that its rank, its kernel and the chase's L-preimages are read from."""
        return column_echelon(self.l_matrix(k))

    @cached
    def l_on_cohomology(self, k: int) -> tuple[RationalMatrix, int]:
        """The map H^k(C) -> H^{k+2}(D) that L induces, and its rank, built
        once for check_hl and the sequences."""
        m = induced_map(self.C, self.D, self.l_matrix(k).mul_vec, k, shift=2)
        return m, _rank(m)

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


def _rank(m: RationalMatrix) -> int:
    """The rank of m, with no elimination when m is zero."""
    return 0 if m.is_zero() else rank(m)


def check_hl(t: LefschetzTriple) -> None:
    """Raise HLFailureError unless L is HL around 0 (page and cohomology)."""
    if not t.check_commutes():
        raise HLFailureError("L does not commute with the differentials")
    for k in t.degrees():
        r = t.l_echelon(k).rank
        if k <= -1 and r != t.C.dim(k):
            raise HLFailureError(f"L not injective in degree {k}")
        if k >= -1 and r != t.D.dim(k + 2):
            raise HLFailureError(f"L not surjective onto degree {k + 2}")
    for k in t.degrees():
        r = t.l_on_cohomology(k)[1]
        if k <= -1 and r != t.C.h_basis(k).dim:
            raise HLFailureError(f"L not injective on cohomology in degree {k}")
        if k >= -1 and r != t.D.h_basis(k + 2).dim:
            raise HLFailureError(f"L not surjective on cohomology onto degree {k + 2}")


# ---------------------------------------------------------------------------
# Kernel and cokernel complexes of a triple

class _Subquotient:
    """The complex that ambient induces on span Z / span B in each degree,
    for rows Z and B of its terms with d(Z) in Z and d(B) in B.  quot[k] is
    the QuotientBasis of degree k; gc leaves out the degrees where it is 0."""

    def __init__(self, ambient: GradedComplex, zrows: dict[int, Sequence],
                 brows: dict[int, Sequence]):
        self.ambient = ambient
        self.quot = {k: QuotientBasis(ambient.dim(k), z, brows.get(k, ()))
                     for k, z in zrows.items()}
        terms = {k: qb.dim for k, qb in self.quot.items() if qb.dim}
        diffs = {k: RationalMatrix.from_columns(terms[k + 1], [
                     self.coordinates(k + 1, ambient.differential(k).mul_vec(rep))
                     for rep in self.quot[k].representatives])
                 for k in terms if k + 1 in terms}
        self.gc = GradedComplex(terms, diffs)

    def _basis(self, k: int) -> QuotientBasis:
        return self.quot.get(k) or QuotientBasis(self.ambient.dim(k), (), ())

    def coordinates(self, k: int, vec: Sequence[Rational]) -> list[Rational]:
        """The coordinates of vec's class over the degree-k representatives."""
        try:
            return self._basis(k).coordinates(vec)
        except DegeneratePairingError:
            raise ChaseFailureError(f"vector outside the subquotient in degree {k}") from None

    def inclusion(self, k: int) -> RationalMatrix:
        """The representatives of degree k as columns in the ambient term."""
        return RationalMatrix.from_columns(self.ambient.dim(k), self._basis(k).representatives)


def _kernel_and_cokernel(t: LefschetzTriple) -> tuple[_Subquotient, _Subquotient]:
    """K = ker L in C, and R = D / im L with L^{k-2} landing in D^k."""
    kc = _Subquotient(t.C, {k: kernel_vectors(t.l_echelon(k), t.C.dim(k))
                            for k in t.degrees()}, {})
    rc = _Subquotient(t.D, {k: [{j: 1} for j in range(n)] for k, n in t.D.terms.items()},
                      {k: t.l_matrix(k - 2).columns() for k in t.D.terms})
    return kc, rc


def _chase_d0(t: LefschetzTriple, kc: _Subquotient, rc: _Subquotient,
              lift_shift: Optional[list[Rational]] = None) -> RationalMatrix:
    """The connecting map H^0(R) -> H^0(K) by certified diagram chase."""
    h_r0, h_k0 = rc.gc.h_basis(0), kc.gc.h_basis(0)
    if h_r0.dim == 0:
        return RationalMatrix(h_k0.dim, 0)
    lift = t.l_echelon(-1)
    # Uniqueness certificate for the L-preimage step.
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


def clemens_schmid_sequences(t: LefschetzTriple) -> ExactnessReport:
    """Verify both long exact sequences of the triple, junction by junction."""
    check_hl(t)
    kc, rc = _kernel_and_cokernel(t)
    degrees = t.degrees()
    kmin = min(degrees) - 2 if degrees else 0
    kmax = max(degrees) + 4 if degrees else 0

    incl = {k: induced_map(kc.gc, t.C, kc.inclusion(k).mul_vec, k)
            for k in range(kmin, kmax - 1)}
    lmap = {k: t.l_on_cohomology(k)[0] for k in range(kmin, kmax - 1)}
    proj = {k: induced_map(t.D, rc.gc, partial(rc.coordinates, k), k)
            for k in range(kmin + 2, kmax + 1)}
    conn = {k: RationalMatrix(kc.gc.h_basis(k).dim, rc.gc.h_basis(k).dim)
            for k in range(kmin, kmax + 1)}
    conn[0] = _chase_d0(t, kc, rc)
    # Each map is the outgoing map of one junction and the incoming map of
    # the next, so it is ranked once, here (most of them are zero).
    maps = {"incl": incl, "lmap": lmap, "proj": proj, "conn": conn}
    ranks = {kind: {k: _rank(m) for k, m in by_k.items()} for kind, by_k in maps.items()
             if kind != "lmap"}
    ranks["lmap"] = {k: t.l_on_cohomology(k)[1] for k in lmap}

    report = ExactnessReport()

    def junction(node: str, incoming: tuple[str, int], outgoing: tuple[str, int]):
        """Exactness at node between two maps, each named by (kind, degree)."""
        m_in, m_out = maps[incoming[0]][incoming[1]], maps[outgoing[0]][outgoing[1]]
        dim = m_in.rows
        if dim == 0 and m_in.cols == 0 and m_out.rows == 0:
            return
        rk_in = ranks[incoming[0]][incoming[1]]
        ker_out = dim - ranks[outgoing[0]][outgoing[1]]
        comp = m_out.matmul(m_in)
        report.junctions.append(Junction(node, rk_in, ker_out,
                                         rk_in == ker_out, comp.is_zero()))

    for k in range(kmin, kmax - 1):
        junction(f"H^{k}(K)", ("conn", k), ("incl", k))
        junction(f"H^{k}(C)", ("incl", k), ("lmap", k))
        junction(f"H^{k + 2}(D)", ("lmap", k), ("proj", k + 2))
        junction(f"H^{k + 2}(R)", ("proj", k + 2), ("conn", k + 2))
    return report


# ---------------------------------------------------------------------------
# Mapping cone and the tropical Clemens-Schmid sequence

def _put(m: RationalMatrix, block: RationalMatrix, row0: int, col0: int, sign: int = 1) -> None:
    """Write sign * block into m with its top left corner at (row0, col0)."""
    for (i, j), v in block.entries.items():
        m.entries[row0 + i, col0 + j] = sign * v


def mapping_cone_check(st, p: int) -> dict:
    """The projection of the double-cone total complex onto R, for an even p,
    checked from ranks as in the module note.  Per degree a with cohomology
    on either side, h_total and h_coker are dim H^a of the total complex and
    of R, and iso says the projection's kernel is acyclic at a and a+1,
    which makes H^a(total) -> H^a(R) an isomorphism; "all" holds iff the
    kernel is acyclic in every degree, that is iff the projection is a
    quasi-isomorphism."""
    if p % 2:
        raise DegreeMismatchError(f"the mapping cone needs an even row, not p={p}")
    d = st.dim
    kc = st.k_complex(p // 2 + 1)
    rc = st.r_complex(p // 2)
    terms = {}
    parts = {}
    for a in range(-d - 2, d + 3):
        nk = kc.dim(a)
        nmid = st.term_dim(a - 1, p + 2)
        nbot = st.term_dim(a, p)
        if nk + nmid + nbot:
            terms[a] = nk + nmid + nbot
            parts[a] = (nk, nmid)
    diffs = {}
    for a in terms:
        if a + 1 not in terms:
            continue
        (nk, nmid), (nk2, nmid2) = parts[a], parts[a + 1]
        m = diffs[a] = RationalMatrix(terms[a + 1], terms[a])
        _put(m, kc.differential(a), 0, 0)
        # iota: embed the kernel block into the full term.
        index = st.term_index(a, p + 2)
        for j, f_i in enumerate(kc.labels.get(a, [])):
            m.entries[nk2 + index[(a,) + f_i], j] = 1
        _put(m, st.row_complex(p + 2).differential(a - 1), nk2, nk, -1)
        _put(m, st.n_matrix(a - 1, p + 2), nk2 + nmid2, nk)
        _put(m, st.row_complex(p).differential(a), nk2 + nmid2, nk + nmid)
    total = GradedComplex(terms, diffs)
    if not total.check():
        raise ChaseFailureError("double cone differential does not square to zero")
    # The projection keeps R^{a,p}, the s = -a block of the bottom part.
    on_r, off_r = {}, {}
    for a, (nk, nmid) in parts.items():
        index = st.term_index(a, p)
        on_r[a] = [nk + nmid + index[(-a,) + f_i] for f_i in rc.labels.get(a, [])]
        kept = set(on_r[a])
        off_r[a] = [j for j in range(terms[a]) if j not in kept]
    for a, m in diffs.items():
        if not m.submatrix(on_r[a + 1], off_r[a]).is_zero() \
                or m.submatrix(on_r[a + 1], on_r[a]) != rc.differential(a):
            raise ChaseFailureError("cone projection is not a chain map")
    kernel = GradedComplex({a: len(js) for a, js in off_r.items()},
                           {a: m.submatrix(off_r[a + 1], off_r[a]) for a, m in diffs.items()})
    result = {}
    for a in range(min(terms, default=0) - 1, max(terms, default=0) + 2):
        h_total, h_coker = total.h_dim(a), rc.h_dim(a)
        if h_total or h_coker:
            result[a] = {"h_total": h_total, "h_coker": h_coker,
                         "iso": kernel.h_dim(a) == kernel.h_dim(a + 1) == 0}
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
