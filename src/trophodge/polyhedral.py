"""Polyhedral complexes, fans, and canonical compactifications.

A FaceComplex holds simplicial rational polyhedra in one ambient lattice.
Faces of a compactified complex live in quotient strata indexed by their
sedentarity cone; each stratum carries a deterministic integer presentation
(projection and section) so that all quotient computations are reproducible.

The sign function on codimension-one face pairs is derived from stored
orientation bases: each face is oriented by the HNF-reduced basis of its
tangent lattice, and each sign is an integer determinant divided by a Gram
determinant, with no rational arithmetic; it is computed once per pair and
complex, and every p shares it.  For incidences that raise sedentarity the normal direction is
taken pointing inward (away from infinity); the d^2 = 0 tests pin this.
Integral vertex coordinates are int.  A face's tangent is the Hermite form of
its generators when they are independent with maximal minors of gcd 1, and
the saturation of their span otherwise.  The loader runs Fourier-Motzkin only
on pairs of maximal cells whose exact bounding boxes overlap, in the frame of
one cell (its generators' coordinates and the equations of their span), over
the other cell's generator weights.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

from . import InputFormatError, NotAFanError, NotCodimOneError, NotUnimodularError, cached
from .lattice import (
    apply_rows,
    det_int,
    gram_adjugate,
    hnf_basis,
    kernel_basis_int,
    maximal_minor_gcd,
    primitive,
    quotient_presentation,
    saturate,
    spans_unimodularly,
)
from .linalg import Rational, normal, rat

Point = tuple[Rational, ...]
IntVec = tuple[int, ...]
SedKey = tuple[IntVec, ...]


# ---------------------------------------------------------------------------
# Exact feasibility checking (Fourier-Motzkin)

def fm_feasible(equalities: Iterable[IntVec], inequalities: Iterable[tuple[IntVec, bool]]) -> bool:
    """Whether integer linear constraints have a rational solution.  A row
    (c_1, ..., c_n, k) is c.x + k: = 0 in an equality, >= 0 in an inequality,
    > 0 when its flag is set.  Variables in some equality go by exact
    substitution, the rest by Fourier-Motzkin; rows are kept primitive (divided
    by the gcd of their entries) and without duplicates.  For small systems."""
    eqs = [_primitive_row(r) for r in equalities]
    rows: dict[IntVec, bool] = {}
    if not all(_add_row(rows, r, strict) for r, strict in inequalities):
        return False
    while eqs:
        e = eqs.pop()
        j = next((j for j, c in enumerate(e[:-1]) if c), None)
        if j is None:
            if e[-1]:
                return False
            continue
        eqs = [_eliminate(r, e, j) for r in eqs]
        old, rows = rows, {}
        if not all(_add_row(rows, _eliminate(r, e, j), strict) for r, strict in old.items()):
            return False
    while rows:
        j = next(j for j, c in enumerate(next(iter(rows))[:-1]) if c)
        pos = [(r, s) for r, s in rows.items() if r[j] > 0]
        neg = [(r, s) for r, s in rows.items() if r[j] < 0]
        rows = {r: s for r, s in rows.items() if not r[j]}
        if not all(_add_row(rows, _eliminate(rp, rn, j), sp or sn)
                   for (rp, sp), (rn, sn) in itertools.product(pos, neg)):
            return False
    return True


def _primitive_row(row: IntVec) -> IntVec:
    g = gcd(*row)
    return row if g <= 1 else tuple(x // g for x in row)


def _eliminate(r: IntVec, e: IntVec, j: int) -> IntVec:
    """|e_j| r - sign(e_j) r_j e: r without x_j, in its own direction."""
    if not r[j]:
        return r
    a, c = abs(e[j]), r[j] if e[j] > 0 else -r[j]
    return _primitive_row(tuple(a * x - c * y for x, y in zip(r, e)))


def _add_row(rows: dict[IntVec, bool], r: IntVec, strict: bool) -> bool:
    """Add an inequality; False when it has no variable left and fails."""
    r = _primitive_row(r)
    if not any(r[:-1]):
        return r[-1] > 0 or (r[-1] == 0 and not strict)
    rows[r] = rows.get(r, False) or strict
    return True


# ---------------------------------------------------------------------------
# Faces

@dataclass(frozen=True)
class Face:
    """One face of a complex, with geometry in its stratum's coordinates."""

    index: int
    vertices: tuple[Point, ...]
    rays: tuple[IntVec, ...]
    sedentarity: SedKey
    tangent: tuple[IntVec, ...]
    unimodular: bool
    pairs: tuple[tuple[int, SedKey], ...] = ()

    @property
    def dim(self) -> int:
        return len(self.tangent)

    @property
    def key(self):
        return (self.sedentarity, frozenset(self.vertices), frozenset(self.rays))


def _int_vec(v: Sequence) -> IntVec:
    out = tuple(normal(x) for x in v)
    if not all(type(x) is int for x in out):
        raise NotUnimodularError(f"non-integral lattice vector {v}")
    return out


def _make_face(index: int, vertices, rays, sed: SedKey, pairs) -> Face:
    vertices = tuple(sorted({tuple(normal(rat(x)) for x in v) for v in vertices}))
    rays = tuple(sorted({tuple(int(x) for x in r) for r in rays}))
    rank = len(vertices[0])
    v0 = vertices[0]
    gens: list[IntVec] = []
    integral = True
    for v in vertices[1:]:
        diff = [a - b for a, b in zip(v, v0)]
        scale = lcm(*(x.denominator for x in diff))
        if scale != 1:
            integral = False
        gens.append(tuple(int(x * scale) for x in diff))
    gens.extend(tuple(r) for r in rays)
    # Independent generators whose maximal minors have gcd 1 span a saturated
    # lattice, and its reduced HNF is the one saturate returns.
    tangent = hnf_basis(gens)
    uni = len(tangent) == len(gens) and (prod(next(x for x in r if x) for r in tangent) == 1
                                         or maximal_minor_gcd(tangent) == 1)
    if not uni:
        tangent = saturate(gens, rank)
    return Face(index, vertices, rays, sed, tuple(tangent), integral and uni, tuple(pairs))


# ---------------------------------------------------------------------------
# Complexes

class FaceComplex:
    """A finite face complex, possibly compactified (faces carry sedentarity)."""

    def __init__(self, rank: int, faces: list[Face], order: set[tuple[int, int]],
                 open_complex: Optional["FaceComplex"] = None):
        self.rank = rank
        self.faces = faces
        self.order = frozenset(order)  # strict relations (sub, super)
        self.open_complex = open_complex
        self.validated = False  # set by build_complex once the axioms are checked
        self.dim = max((f.dim for f in faces), default=0)
        self._below: dict[int, set[int]] = {f.index: set() for f in faces}
        self._above: dict[int, set[int]] = {f.index: set() for f in faces}
        for a, b in self.order:
            self._below[b].add(a)
            self._above[a].add(b)

    # -- basic queries ------------------------------------------------------

    def faces_of_dim(self, k: int) -> list[Face]:
        return [f for f in self.faces if f.dim == k]

    def subfaces(self, idx: int) -> set[int]:
        return self._below[idx]

    def cofaces(self, idx: int) -> set[int]:
        return self._above[idx]

    def covers_of(self, idx: int) -> list[int]:
        d = self.faces[idx].dim
        return sorted(j for j in self._above[idx] if self.faces[j].dim == d + 1)

    def covered_by(self, idx: int) -> list[int]:
        d = self.faces[idx].dim
        return sorted(j for j in self._below[idx] if self.faces[j].dim == d - 1)

    @cached
    def stratum(self, sed: SedKey) -> tuple[int, list[IntVec], list[IntVec]]:
        """(rank, projection rows, section rows) for a sedentarity stratum."""
        if not sed:
            eye = [tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank)]
            return self.rank, eye, eye
        proj, section = quotient_presentation([list(r) for r in sed], self.rank)
        return self.rank - len(sed), [tuple(r) for r in proj], [tuple(s) for s in section]

    @cached
    def stratum_map(self, sed_to: SedKey, sed_from: SedKey) -> list[IntVec]:
        """Rows of the projection P_to . S_from from one stratum to a deeper one."""
        return _compose(self.stratum(sed_to)[1], self.stratum(sed_from)[2])

    def is_pure(self, d: Optional[int] = None) -> bool:
        d = self.dim if d is None else d
        tops = {f.index for f in self.faces_of_dim(d)}
        for f in self.faces:
            if f.dim < d and not (self._above[f.index] & tops):
                return False
        return True

    def bounded_face_indices(self) -> list[int]:
        """Faces whose closure avoids infinity: sedentarity zero and no rays."""
        return [f.index for f in self.faces if f.sedentarity == () and not f.rays]

    # -- sign function ------------------------------------------------------

    def same_sed_cover_pairs(self) -> list[tuple[int, int]]:
        out = []
        for a, b in self.order:
            if self.faces[b].dim == self.faces[a].dim + 1 and \
               self.faces[a].sedentarity == self.faces[b].sedentarity:
                out.append((a, b))
        return sorted(out)

    def direction_into(self, gamma: Face, delta: Face) -> IntVec:
        """An integer tangent vector of delta pointing from gamma into delta."""
        gverts = set(gamma.vertices)
        for v in delta.vertices:
            if v not in gverts:
                return _int_vec(tuple(a - b for a, b in zip(v, gamma.vertices[0])))
        for r in delta.rays:
            if r not in set(gamma.rays):
                return r
        raise NotCodimOneError(f"no direction from face {gamma.index} into {delta.index}")

    @cached
    def sign(self, gamma_idx: int, delta_idx: int) -> int:
        """Orientation sign for a same-sedentarity codimension-one pair: the
        determinant of gamma's tangent and the direction into delta over
        delta's tangent T, which is det(rows . T^T) / det(T . T^T)."""
        gamma, delta = self.faces[gamma_idx], self.faces[delta_idx]
        if gamma.sedentarity != delta.sedentarity:
            raise NotCodimOneError("faces have different sedentarity")
        if delta.dim != gamma.dim + 1 or (gamma_idx, delta_idx) not in self.order:
            raise NotCodimOneError("not a codimension-one face pair")
        rows = gamma.tangent + (self.direction_into(gamma, delta),)
        tangent = delta.tangent
        return _unit_sign(det_int(_dots(rows, tangent)), det_int(_dots(tangent, tangent)), "sign")

    @cached
    def infinity_sign(self, gamma_idx: int, delta_idx: int) -> int:
        """Orientation sign for a sedentarity-raising codimension-one pair.

        gamma sits in a deeper stratum; the normal is taken pointing inward,
        i.e. away from infinity.  Q, the stratum map from delta's stratum to
        gamma's, kills rho, so the rows G . Q . T^T and -rho . T^T have
        determinant det(G . G^T) |rho|^2 / det C, where C holds the
        coordinates over T of G's lifts through Q and of -rho.
        """
        gamma, delta = self.faces[gamma_idx], self.faces[delta_idx]
        if delta.dim != gamma.dim + 1 or (gamma_idx, delta_idx) not in self.order:
            raise NotCodimOneError("not a codimension-one face pair")
        extra = set(gamma.sedentarity) - set(delta.sedentarity)
        if len(extra) != 1:
            raise NotCodimOneError("sedentarity does not rise by one ray")
        ray_amb = next(iter(extra))
        rho = primitive(apply_rows(self.stratum(delta.sedentarity)[1], ray_amb))
        q_rows = self.stratum_map(gamma.sedentarity, delta.sedentarity)
        images = [apply_rows(q_rows, t) for t in delta.tangent]
        rows = _dots(gamma.tangent, images) + _dots([tuple(-x for x in rho)], delta.tangent)
        gram = det_int(_dots(gamma.tangent, gamma.tangent)) * sum(x * x for x in rho)
        return _unit_sign(det_int(rows), gram, "infinity sign")

    def incidence_sign(self, gamma_idx: int, delta_idx: int) -> int:
        if self.faces[gamma_idx].sedentarity == self.faces[delta_idx].sedentarity:
            return self.sign(gamma_idx, delta_idx)
        return self.infinity_sign(gamma_idx, delta_idx)

    def primitive_normal(self, gamma_idx: int, delta_idx: int) -> IntVec:
        """e_{delta/gamma}: the primitive generator of delta's ray in N^gamma."""
        gamma, delta = self.faces[gamma_idx], self.faces[delta_idx]
        if gamma.sedentarity != delta.sedentarity:
            raise NotCodimOneError("faces have different sedentarity")
        if delta.dim != gamma.dim + 1 or (gamma_idx, delta_idx) not in self.order:
            raise NotCodimOneError("not a codimension-one face pair")
        star = self.star_fan(gamma_idx)
        return star.ray_vectors[star.ray_position(delta_idx)]

    @cached
    def star_fan(self, idx: int) -> "StarFan":
        return _build_star_fan(self, idx)


def _compose(a_rows: Sequence[Sequence[int]], b_section: Sequence[Sequence[int]]):
    """Rows of A . S where S's columns are the given section rows."""
    return [tuple(sum(ar[j] * bs[j] for j in range(len(bs))) for bs in b_section) for ar in a_rows]


def _dots(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer matrix of dot products rows[i] . cols[j]."""
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in rows]


def _unit_sign(det: int, gram: int, what: str) -> int:
    """The sign of det, which must be +-gram for a unimodular pair."""
    if abs(det) != gram:
        raise NotUnimodularError(f"{what} undefined: pair is not unimodular")
    return 1 if det > 0 else -1


# ---------------------------------------------------------------------------
# Construction of plain complexes

def build_complex(rank: int, vertices: Sequence[Sequence], rays: Sequence[Sequence[int]],
                  face_specs: Sequence[tuple[Sequence[int], Sequence[int]]],
                  validate: bool = True) -> FaceComplex:
    """Build a complex in R^rank from vertex/ray pools and (V, R) index pairs.

    Faces must be simplicial.  One pass over each face's generator subsets
    reads the face order and, when validate is set, checks closure under
    faces; the intersection axiom is then checked on pairs of maximal cells.
    Without validate the order is still every strict containment of specs.
    """
    vpool = [tuple(normal(rat(x)) for x in v) for v in vertices]
    if not all(any(r) for r in rays):
        raise InputFormatError("a ray is the zero vector")
    rpool = [primitive(tuple(int(x) for x in r)) for r in rays]
    for v in vpool:
        if len(v) != rank:
            raise InputFormatError("vertex of wrong length")
    for r in rpool:
        if len(r) != rank:
            raise InputFormatError("ray of wrong length")

    seen: dict[tuple[frozenset, frozenset], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for vs, rs in face_specs:
        if not vs:
            raise InputFormatError("every face needs at least one vertex")
        if any(not 0 <= v < len(vpool) for v in vs) or any(not 0 <= r < len(rpool) for r in rs):
            raise InputFormatError(f"face {vs}/{rs} references a missing vertex or ray")
        key = (frozenset(vs), frozenset(rs))
        seen[key] = (tuple(sorted(set(vs))), tuple(sorted(set(rs))))

    specs = sorted(seen.values(), key=lambda fr: (len(fr[0]) + len(fr[1]), fr))
    spec_index = {(frozenset(vs), frozenset(rs)): i for i, (vs, rs) in enumerate(specs)}
    order = set()
    for i, (vs, rs) in enumerate(specs):
        for kv in range(1, len(vs) + 1):
            for sub_v in itertools.combinations(vs, kv):
                for kr in range(0, len(rs) + 1):
                    for sub_r in itertools.combinations(rs, kr):
                        j = spec_index.get((frozenset(sub_v), frozenset(sub_r)))
                        if j is None:
                            if validate:
                                raise InputFormatError(
                                    f"closure violated: face {sub_v}/{sub_r} missing")
                        elif j != i:
                            order.add((j, i))

    faces: list[Face] = []
    for i, (vs, rs) in enumerate(specs):
        face = _make_face(i, [vpool[j] for j in vs], [rpool[j] for j in rs], (), [(i, ())])
        if face.dim != len(vs) - 1 + len(rs):
            raise InputFormatError(f"face {vs}/{rs} is not simplicial")
        faces.append(face)

    cx = FaceComplex(rank, faces, order)
    if validate:
        _validate_intersections(cx, specs, vpool, rpool)
        cx.validated = True
    return cx


def _validate_intersections(cx: FaceComplex, specs, vpool, rpool) -> None:
    """Each pair of maximal cells must meet exactly in the face spanned by
    their shared generators (in the complex by closure under faces).  Every
    generator is lifted to an integer row once per complex, and a cell that
    reaches a pair check gets its frame once.  Two cells whose boxes are
    disjoint in some coordinate cannot meet, and skip the check."""
    # Maximal pairs suffice: faces of one simplicial cell meet properly, and so do faces of two cells that do.
    top = [i for i in range(len(specs)) if not cx.cofaces(i)]
    vrows, rrows = _lifted_rows(vpool, rpool)
    boxes = {i: _box(vpool, rpool, specs[i], cx.rank) for i in top}
    frames: dict[int, tuple] = {}
    for i, j in itertools.combinations(top, 2):
        if not _apart(boxes[i], boxes[j]):
            if i not in frames:
                frames[i] = _frame(vrows, rrows, specs[i])
            _check_pair_intersection(vrows, rrows, specs[i], specs[j], frames[i])


def _box(vpool, rpool, cell, rank: int) -> list[tuple]:
    """Exact (lo, hi) bounds of a cell per coordinate: the min and max over
    its vertices, None on a side where one of its rays points."""
    vs, rs = cell
    return [(None if any(rpool[k][c] < 0 for k in rs) else min(vpool[k][c] for k in vs),
             None if any(rpool[k][c] > 0 for k in rs) else max(vpool[k][c] for k in vs))
            for c in range(rank)]


def _apart(box1, box2) -> bool:
    """Whether two boxes are disjoint in some coordinate."""
    return any(hi is not None and lo is not None and hi < lo
               for (lo1, hi1), (lo2, hi2) in zip(box1, box2) for lo, hi in ((lo2, hi1), (lo1, hi2)))


def _lifted_rows(vpool, rpool) -> tuple[list[IntVec], list[IntVec]]:
    """The integer rows (s v, s) of the vertices, s the lcm of all their
    denominators, and (r, 0) of the rays."""
    scale = lcm(*(x.denominator for v in vpool for x in v))
    vrows = [tuple(x.numerator * (scale // x.denominator) for x in v) + (scale,) for v in vpool]
    return vrows, [tuple(r) + (0,) for r in rpool]


def _frame(vrows, rrows, cell) -> Optional[tuple[list[list[int]], list[IntVec]]]:
    """(Q, Z) for a cell whose lifted generators G are independent, else
    None: Q = adj(G G^T) G takes g_i to det(G G^T) e_i, and Z x = 0 exactly
    on span G."""
    vs, rs = cell
    g = [vrows[k] for k in vs] + [rrows[k] for k in rs]
    adj = gram_adjugate(_dots(g, g))
    return None if adj is None else (_dots(adj, list(zip(*g))), kernel_basis_int(g))


def _check_pair_intersection(vrows, rrows, cell1, cell2, frame=None) -> None:
    """Exact check that two cells, given as (vertex, ray) index lists into
    the lifted rows, meet exactly in their shared-generator face.  In the
    frame of cell1 (built here when not given, from a cell with independent
    lifted generators), one Fourier-Motzkin run over the weights mu >= 0 of
    cell2's own generators b asks for y = sum mu b in span G (Z y = 0) with
    coordinates >= 0 on cell1's own generators (the own rows of Q y): with a
    shared vertex and mu > 0, y is off the shared face; without one, y meets
    cell1 when its vertex weights are > 0.  An own row of Q negative on every
    b answers no without a run.  Without any frame, the run is over both
    cells' weights, a shared generator's of free sign."""
    if frame is None:
        frame = _frame(vrows, rrows, cell1)
        if frame is None and (frame := _frame(vrows, rrows, cell2)) is not None:
            cell1, cell2 = cell2, cell1
    (vs1, rs1), (vs2, rs2) = cell1, cell2
    shared_v, shared_r = set(vs1) & set(vs2), set(rs1) & set(rs2)
    own2 = [vrows[k] for k in vs2 if k not in shared_v] + [rrows[k] for k in rs2 if k not in shared_r]
    if frame is not None:
        q, z = frame
        own1 = [k not in shared_v for k in vs1] + [k not in shared_r for k in rs1]
        ineqs = _dots([row for row, own in zip(q, own1) if own], own2)
        if any(all(x < 0 for x in row) for row in ineqs):
            return
        eqs, n = _dots(z, own2), len(own2)
        nonneg, positive = n, n if shared_v else len(vs2)
    else:
        own = [vrows[k] for k in vs1 if k not in shared_v] + [rrows[k] for k in rs1 if k not in shared_r]
        own += [tuple(-x for x in row) for row in own2]
        cols = own + [vrows[k] for k in shared_v] + [rrows[k] for k in shared_r]
        eqs, ineqs, n = list(zip(*cols)), [], len(cols)
        nonneg = len(own)
        positive = nonneg if shared_v else len(vs1)
    ineqs = [(tuple(row) + (0,), False) for row in ineqs]
    ineqs += [(tuple(int(k == j) for k in range(n)) + (0,), False) for j in range(nonneg)]
    ineqs.append((tuple(int(k < positive) for k in range(n)) + (0,), True))
    if fm_feasible([tuple(row) + (0,) for row in eqs], ineqs):
        raise InputFormatError("intersection axiom violated: " +
                               ("overlap beyond common face" if shared_v else "disjoint faces overlap"))


# ---------------------------------------------------------------------------
# Fans

def make_fan(rank: int, cones: Sequence[Sequence[IntVec]], validate: bool = True) -> FaceComplex:
    """Build a fan from a list of cones given by primitive ray tuples.

    The face closure (all ray subsets) is added automatically.
    """
    rays: list[IntVec] = []
    ray_index: dict[IntVec, int] = {}
    cone_sets: set[frozenset[int]] = set()
    for cone in cones:
        idxs = []
        for r in cone:
            r = primitive(tuple(int(x) for x in r))
            if r not in ray_index:
                ray_index[r] = len(rays)
                rays.append(r)
            idxs.append(ray_index[r])
        for k in range(len(idxs) + 1):
            for sub in itertools.combinations(sorted(idxs), k):
                cone_sets.add(frozenset(sub))
    cone_sets.add(frozenset())
    origin = (0,) * rank
    specs = [([0], sorted(s)) for s in cone_sets]
    return build_complex(rank, [origin], rays, specs, validate=validate)


def recession_fan(y: FaceComplex) -> FaceComplex:
    """The fan of recession cones of the faces of y.

    The cones must be closed under faces (checked here, since y may have been
    built without validation) and must meet properly (checked by the
    validated fan build on pairs of maximal cones).
    """
    if any(f.sedentarity != () for f in y.faces):
        raise NotAFanError("recession fan needs a complex in a single R^n")
    cone_sets = {tuple(sorted(f.rays)) for f in y.faces}
    for c in cone_sets:
        for k in range(len(c)):
            for sub in itertools.combinations(c, k):
                if sub not in cone_sets:
                    raise NotAFanError("recession cones are not closed under faces")
    try:
        return make_fan(y.rank, [list(c) for c in sorted(cone_sets)])
    except InputFormatError as exc:
        raise NotAFanError(f"recession cones overlap improperly: {exc}") from exc


# ---------------------------------------------------------------------------
# Canonical compactification

def compactify(y: FaceComplex) -> FaceComplex:
    """Face complex of the canonical compactification of y.

    Faces are merged (gamma, sigma) pairs with sigma a face of the recession
    cone of gamma, realized by projecting gamma to the sigma-stratum;
    sedentarity of the new face is sigma, and the face order follows the
    orbit-stratum combinatorics.
    """
    # A validated y with one vertex is a translate of its recession fan: its
    # cones were checked already, and its faces carry the same flags.
    one_vertex = y.validated and len({v for f in y.faces for v in f.vertices}) == 1
    if not all(f.unimodular for f in (y if one_vertex else recession_fan(y)).faces):
        raise NotUnimodularError("recession fan is not unimodular")

    records: dict[tuple, dict] = {}
    for f in y.faces:
        ray_set = list(f.rays)
        for k in range(len(ray_set) + 1):
            for sub in itertools.combinations(sorted(ray_set), k):
                sed: SedKey = tuple(sorted(sub))
                _, proj, _ = y.stratum(sed)
                pverts = {apply_rows(proj, v) for v in f.vertices}
                prays = set()
                for r in f.rays:
                    img = apply_rows(proj, r)
                    if any(img):
                        prays.add(primitive(img))
                key = (sed, frozenset(pverts), frozenset(prays))
                rec_entry = records.setdefault(key, {"pairs": set(), "verts": pverts, "rays": prays, "sed": sed})
                rec_entry["pairs"].add((f.index, sed))

    keys = sorted(records, key=lambda k: (len(records[k]["verts"]) - 1 + len(records[k]["rays"]),
                                          k[0], tuple(sorted(k[1])), tuple(sorted(k[2]))))
    faces = []
    pair_index = {}
    for i, k in enumerate(keys):
        entry = records[k]
        faces.append(_make_face(i, entry["verts"], entry["rays"], entry["sed"],
                                sorted(entry["pairs"])))
        for pair in entry["pairs"]:
            pair_index[pair] = i

    # (ga, sa) lies below (gb, sb) when ga is a face of gb and sa contains sb.
    order = set()
    for j, face in enumerate(faces):
        for gb, sb in face.pairs:
            for ga in {gb} | y.subfaces(gb):
                rays = y.faces[ga].rays
                if not set(sb) <= set(rays):
                    continue
                rest = [r for r in rays if r not in sb]
                for k in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, k):
                        i = pair_index[(ga, tuple(sorted(sb + extra)))]
                        if i != j:
                            order.add((i, j))
    return FaceComplex(y.rank, faces, order, open_complex=y)


# ---------------------------------------------------------------------------
# Star fans

@dataclass
class StarFan:
    """The fan of projected cofaces of a face, with labels back to the complex.

    Rays are labelled by the covering faces, cones by the cofaces they come
    from; the zero cone is labelled by the base face itself.
    """

    complex: FaceComplex
    base: int
    rank: int
    ray_labels: tuple[int, ...]
    ray_vectors: tuple[IntVec, ...]
    cones: tuple[tuple[int, frozenset], ...]  # (coface label, ray positions)

    def __post_init__(self):
        self._cone_by_rays = {rays: label for label, rays in self.cones}
        self._cone_by_label = {label: rays for label, rays in self.cones}
        self._ray_pos = {label: i for i, label in enumerate(self.ray_labels)}

    @property
    def dim(self) -> int:
        return max((len(r) for _, r in self.cones), default=0)

    def is_cone(self, ray_positions: frozenset) -> bool:
        return ray_positions in self._cone_by_rays

    def cone_label(self, ray_positions: frozenset) -> int:
        return self._cone_by_rays[ray_positions]

    def cone_rays(self, label: int) -> frozenset:
        return self._cone_by_label[label]

    def ray_position(self, label: int) -> int:
        return self._ray_pos[label]

    def cones_of_dim(self, k: int) -> list[tuple[int, frozenset]]:
        return sorted(((lbl, rays) for lbl, rays in self.cones if len(rays) == k),
                      key=lambda c: tuple(sorted(c[1])))

    @property
    @cached
    def unimodular(self) -> bool:
        for _, rays in self.cones:
            if not spans_unimodularly([self.ray_vectors[i] for i in sorted(rays)]):
                return False
        return True


def _build_star_fan(cx: FaceComplex, idx: int) -> StarFan:
    base = cx.faces[idx]
    srank, _, _ = cx.stratum(base.sedentarity)
    qrank = srank - base.dim
    proj, _ = quotient_presentation([list(b) for b in base.tangent], srank)
    cover_ids = [j for j in cx.covers_of(idx) if cx.faces[j].sedentarity == base.sedentarity]
    ray_labels = tuple(cover_ids)
    ray_vectors = []
    for j in cover_ids:
        u = cx.direction_into(base, cx.faces[j])
        ray_vectors.append(primitive(apply_rows(proj, u)))
    cones = [(idx, frozenset())]
    for eta in sorted(cx.cofaces(idx)):
        fe = cx.faces[eta]
        if fe.sedentarity != base.sedentarity:
            continue
        through = frozenset(cover_ids.index(z) for z in cover_ids
                            if z == eta or (z, eta) in cx.order)
        if len(through) != fe.dim - base.dim:
            raise NotAFanError("star fan interval has unexpected rank")
        cones.append((eta, through))
    return StarFan(cx, idx, qrank, ray_labels, tuple(ray_vectors), tuple(cones))


# ---------------------------------------------------------------------------
# Products (used for fixtures such as the plane built from two line complexes)

def product_complex(a: FaceComplex, b: FaceComplex) -> FaceComplex:
    """Product of two plain complexes; all product faces must stay simplicial."""
    vmap: dict[Point, int] = {}
    rmap: dict[IntVec, int] = {}
    specs = []
    for fa in a.faces:
        for fb in b.faces:
            vs = [vmap.setdefault(va + vb, len(vmap)) for va in fa.vertices for vb in fb.vertices]
            rays = [ra + (0,) * b.rank for ra in fa.rays] + [(0,) * a.rank + rb for rb in fb.rays]
            specs.append((vs, [rmap.setdefault(r, len(rmap)) for r in rays]))
    return build_complex(a.rank + b.rank, list(vmap), list(rmap), specs)


# ---------------------------------------------------------------------------
# JSON interface

def complex_to_json(y: FaceComplex) -> dict:
    verts = sorted({v for f in y.faces for v in f.vertices})
    rays = sorted({r for f in y.faces for r in f.rays})
    vmap = {v: i for i, v in enumerate(verts)}
    rmap = {r: i for i, r in enumerate(rays)}
    entries = []
    for f in y.faces:
        vs = sorted(vmap[v] for v in f.vertices)
        rs = sorted(rmap[r] for r in f.rays)
        entries.append((len(vs) + len(rs), tuple(vs), tuple(rs)))
    entries.sort()
    return {
        "lattice_rank": y.rank,
        "vertices": [[str(x) for x in v] for v in verts],
        "rays": [list(r) for r in rays],
        "faces": [{"vertices": list(vs), "rays": list(rs)} for _, vs, rs in entries],
    }


def complex_from_json(data: dict) -> FaceComplex:
    try:
        rank = data["lattice_rank"]
        vertices = [[rat(x) for x in v] for v in data.get("vertices", [])]
        rays = [list(r) for r in data.get("rays", [])]
        if type(rank) is not int or not all(type(x) is int for r in rays for x in r):
            raise InputFormatError("lattice_rank and every ray entry must be an integer")
        if not all(type(x) in (int, str) for v in data.get("vertices", []) for x in v):
            raise InputFormatError('every vertex coordinate must be an integer or a "p/q" string')
        if not all(isinstance(spec, dict) for spec in data["faces"]):
            raise InputFormatError("every face must be an object of vertex and ray indices")
        face_specs = [(spec.get("vertices", []), spec.get("rays", [])) for spec in data["faces"]]
        if not all(type(i) is int for vs, rs in face_specs for i in (*vs, *rs)):
            raise InputFormatError("every vertex and ray index of a face must be an integer")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"malformed complex JSON: {exc}") from exc
    if not vertices:
        # Fan form: implicit origin vertex.
        vertices = [(0,) * rank]
        face_specs = [([0], rs) for _, rs in face_specs]
        has_origin = any(not rs for _, rs in face_specs)
        if not has_origin:
            face_specs.append(([0], []))
    return build_complex(rank, vertices, rays, face_specs)


def load_complex(path: str) -> FaceComplex:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return complex_from_json(data)
