"""Abstract Clemens-Schmid verification for Lefschetz triples, the six-term
connecting map by certified diagram chase, mapping cones, and the assembled
tropical Clemens-Schmid sequence.

A LefschetzTriple is a pair of bounded complexes C, D with a degree-two
chain map L: C^k -> D^{k+2} that is injective in degrees <= -1 and
surjective in degrees >= -1, on the nose and on cohomology.  Its kernel
complex K = ker L is a subcomplex of C, and its cokernel complex
R = D / im L a quotient of D, with L^{k-2} landing in D^k.  The two long
sequences

  ... -> H^k(K) -> H^k(C) -L-> H^{k+2}(D) -> H^{k+2}(R) -> H^{k+2}(K) -> ...

are verified junction by junction, with no class coordinates.  K and R are
complexes in their own coordinates (`LefschetzTriple.complex`): K^k has the
canonical kernel vectors of L^k, a vector of ker L^k read at the free
columns of L^k's echelon; R^k has the unit vectors of D^k at no pivot of
L^{k-2}'s echelon, a class read as its remainder there; each differential
is P d B, for the basis matrix B and the coordinate matrix P.  Each group
H^k(X) is that complex's `h_basis(k)`, and each map is a matrix on those
coordinates (incl is B of K, proj is P of R), so every number of a junction
counts the images that are `independent` modulo the target's boundaries:
the rank of a map counts the images of the source's representatives, and a
composite is zero when none of its images is.  The only nontrivial
connecting map is d0: H^0(R) -> H^0(K), the chase: lift a cocycle of R^0
to D^0, push it by d_D, take the unique L-preimage in C^{-1}, push by d_C,
certify the result is killed by L, and read it in K^0.  Every existence
step records a witness and every uniqueness step asserts kernel triviality.

The mapping cone check builds the double-cone total complex of a row pair
of the Steenbrink page and verifies that its projection onto R is a
quasi-isomorphism from ranks alone: the projection keeps R's coordinates
(the row positions that label R), so it is a chain map iff two submatrices
of the total differential are right, and then a quasi-isomorphism iff the
coordinate subcomplex on the other coordinates (its kernel) is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import ChaseFailureError, DegreeMismatchError, HLFailureError, cached
from .cohomology import GradedComplex, QuotientBasis
from .linalg import Echelon, RationalMatrix, column_echelon

# The maps of the sequences by kind: (source, target, degree shift).
_MAPS = {"incl": ("K", "C", 0), "lmap": ("C", "D", 2), "proj": ("D", "R", 0),
         "conn": ("R", "K", 0)}


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
    def _frame(self, name: str, k: int) -> tuple[RationalMatrix, RationalMatrix, list[int]]:
        """(B, P, positions) of K^k or R^k (the module note): the basis matrix,
        the coordinate matrix, and the ambient positions coordinates are read at."""
        if name == "K":
            n, relations = self.C.dim(k), self.l_echelon(k).relations
            at = [key for key, _ in relations]
            columns = [combo for _, combo in relations]
        else:
            n, e = self.D.dim(k), self.l_echelon(k - 2)
            at = [j for j in range(n) if j not in e.pivots]
            columns = [{j: 1} for j in at]
        basis = RationalMatrix(n, len(at))
        basis.entries = {(j, i): v for i, column in enumerate(columns) for j, v in column.items()}
        coords = RationalMatrix(len(at), n)
        coords.entries = {(i, j): 1 for i, j in enumerate(at)}
        if name == "R":  # a unit vector at a pivot is read as its remainder
            index = {j: i for i, j in enumerate(at)}
            for j in e.pivots:
                coords.entries.update(((index[c], j), v) for c, v in e.reduce({j: 1})[0].items())
        return basis, coords, at

    @cached
    def complex(self, name: str) -> GradedComplex:
        """C or D itself, or K or R in its own coordinates, labelled by position.
        K's are sound only if L^{k+1} d_C B = 0, which is checked."""
        if name in ("C", "D"):
            return getattr(self, name)
        ambient = self.C if name == "K" else self.D
        frames = {k: self._frame(name, k) for k in ambient.terms}
        terms = {k: len(at) for k, (_, _, at) in frames.items() if at}
        diffs = {}
        for k in terms:
            image = ambient.differential(k).matmul(frames[k][0])
            if name == "K" and not self.l_matrix(k + 1).matmul(image).is_zero():
                raise HLFailureError(f"d_C does not map ker L into ker L in degree {k}")
            if k + 1 in terms:
                diffs[k] = frames[k + 1][1].matmul(image)
        return GradedComplex(terms, diffs, {k: frames[k][2] for k in terms})

    @cached
    def group(self, name: str, k: int) -> QuotientBasis:
        """H^k of C, D, K or R, in that complex's own coordinates."""
        return self.complex(name).h_basis(k)

    def push(self, kind: str, k: int, vec: Sequence) -> Sequence:
        """The image of a vector of the source complex in degree k under the
        map of that kind, in the target's coordinates (the module note)."""
        if kind == "lmap":
            return self.l_matrix(k).mul_vec(vec)
        if kind == "incl":
            return self._frame("K", k)[0].mul_vec(vec)
        if kind == "proj":
            return self._frame("R", k)[1].mul_vec(vec)
        if k != 0:  # conn is 0 for k != 0: under HL, K^k = 0 (k < 0) or R^k = 0 (k > 0)
            return [0] * self.complex("K").dim(k)
        return self._frame("K", 0)[1].mul_vec(_chase(self, self._frame("R", 0)[0].mul_vec(vec)))

    @cached
    def images(self, kind: str, k: int) -> list:
        """The images of the source group's representatives under the map of
        that kind out of H^k, each pushed once (d0 is one chase each)."""
        return [self.push(kind, k, z) for z in self.group(_MAPS[kind][0], k).representatives]

    @cached
    def map_rank(self, kind: str, k: int) -> int:
        """The rank on H^k of the map of that kind: the number of its images
        independent modulo the target's boundaries."""
        _, target, shift = _MAPS[kind]
        return len(self.group(target, k + shift).independent(self.images(kind, k)))

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
        r = t.map_rank("lmap", k)
        if k <= -1 and r != t.C.h_basis(k).dim:
            raise HLFailureError(f"L not injective on cohomology in degree {k}")
        if k >= -1 and r != t.D.h_basis(k + 2).dim:
            raise HLFailureError(f"L not surjective on cohomology onto degree {k + 2}")


def _chase(t: LefschetzTriple, c: Sequence) -> list:
    """d0 of the class of a cocycle c of R^0, as a cocycle of K^0 in C^0."""
    lift = t.l_echelon(-1)
    if lift.relations:  # uniqueness certificate for the L-preimage step
        raise ChaseFailureError("L-preimage not unique in degree -1")
    b_prime = lift.coordinates(t.D.differential(0).mul_vec(c), range(t.C.dim(-1)))
    if b_prime is None:
        raise ChaseFailureError("no L-preimage for the pushed lift")
    b_second = t.C.differential(-1).mul_vec(b_prime)
    if any(t.l_matrix(0).mul_vec(b_second)):
        raise ChaseFailureError("chase output is not in ker L")
    return b_second


def clemens_schmid_sequences(t: LefschetzTriple) -> ExactnessReport:
    """Verify both long exact sequences of the triple, junction by junction."""
    check_hl(t)
    degrees = t.degrees()
    kmin = min(degrees) - 2 if degrees else 0
    kmax = max(degrees) + 4 if degrees else 0
    report = ExactnessReport()

    def junction(node: str, k: int, incoming: tuple[str, int], outgoing: tuple[str, int]):
        """Exactness at H^k(node) between two maps, each named by (kind, degree)."""
        (kind_in, k_in), (kind_out, k_out) = incoming, outgoing
        source = _MAPS[kind_in][0]
        _, target, shift = _MAPS[kind_out]
        reps = t.group(source, k_in).representatives
        dim = t.group(node, k).dim
        if dim == 0 and not reps and not t.group(target, k_out + shift).dim:
            return
        rk_in = t.map_rank(kind_in, k_in)
        ker_out = dim - t.map_rank(kind_out, k_out)
        composite = [t.push(kind_out, k_out, y) for y in t.images(kind_in, k_in)]
        zero = not t.group(target, k_out + shift).independent(composite)
        report.junctions.append(Junction(f"H^{k}({node})", rk_in, ker_out,
                                         rk_in == ker_out, zero))

    for k in range(kmin, kmax - 1):
        junction("K", k, ("conn", k), ("incl", k))
        junction("C", k, ("incl", k), ("lmap", k))
        junction("D", k + 2, ("lmap", k), ("proj", k + 2))
        junction("R", k + 2, ("proj", k + 2), ("conn", k + 2))
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
    quasi-isomorphism.  Where iso holds, h_total is derived, not computed:
    the long exact sequence of 0 -> kernel -> total -> R -> 0 makes it
    h_coker.  The total complex's own ranks are taken only where iso fails."""
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
        # iota: embed the kernel block into the full term, at K's positions.
        for j, at in enumerate(kc.labels.get(a, [])):
            m.entries[nk2 + at, j] = 1
        _put(m, st.row_complex(p + 2).differential(a - 1), nk2, nk, -1)
        _put(m, st.n_matrix(a - 1, p + 2), nk2 + nmid2, nk)
        _put(m, st.row_complex(p).differential(a), nk2 + nmid2, nk + nmid)
    total = GradedComplex(terms, diffs)
    if not total.check():
        raise ChaseFailureError("double cone differential does not square to zero")
    # The projection keeps R^{a,p}, the s = -a block of the bottom part.
    on_r, off_r = {}, {}
    for a, (nk, nmid) in parts.items():
        on_r[a] = [nk + nmid + at for at in rc.labels.get(a, [])]
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
        iso, h_coker = kernel.h_dim(a) == kernel.h_dim(a + 1) == 0, rc.h_dim(a)
        h_total = h_coker if iso else total.h_dim(a)
        if h_total or h_coker:
            result[a] = {"h_total": h_total, "h_coker": h_coker, "iso": iso}
    return {"degrees": result, "all": all(v["iso"] for v in result.values())}


def steenbrink_triple(st, p: int) -> LefschetzTriple:
    """(C, D, L) = (ST^{.,2p+2}, ST^{.,2p}, N) with N of degree (2,-2); not
    cached, so what the sequences hold goes with the triple."""
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
