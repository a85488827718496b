"""Polyhedral complexes, fans, and canonical compactifications.

A FaceComplex holds simplicial rational polyhedra in one ambient lattice.
Faces of a compactified complex live in quotient strata indexed by their
sedentarity cone; each stratum carries a deterministic integer presentation
(projection and section) so that all quotient computations are reproducible.

The sign function on codimension-one face pairs is derived from stored
orientation bases: each face is oriented by the HNF-reduced basis of its
tangent lattice, and each sign is an integer determinant divided by a Gram
determinant, with no rational arithmetic; it is computed once per complex
and geometry (pairs with the same tangents and direction share it), and
every p shares it.  For incidences that raise sedentarity the normal direction is
taken pointing inward (away from infinity); the d^2 = 0 tests pin this.
Integral vertex coordinates are int.  A face's tangent is the Hermite form of
its generators when they are independent with maximal minors of gcd 1, and
the saturation of their span otherwise; one build_complex or compactify call
computes it once per distinct generator tuple.  The loader checks pairs of
maximal cells that share a vertex or whose exact bounding boxes overlap.  Each such cell gets
its generator bits, their mask and its frame (its generators' coordinates
and the equations of their span) once.  A pair is settled by a fixed
functional of either cell's frame that is negative on the other cell's own
generators (the AND of per-generator sign masks), and otherwise by one
Fourier-Motzkin run over the other cell's generator weights.  compactify
projects each vertex and ray once per stratum, and walks ray subsets as
submasks.  Its precondition, a unimodular recession fan, is
check_compactifiable, which a caller that reads only the open complex (as
the Steenbrink page does) runs instead.  A star fan is unimodular without a
check when every coface labelling one of its cones is.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul
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
from .linalg import Rational, fmt_rat, normal, rat

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


def _make_face(index: int, vertices, rays, sed: SedKey, pairs, tangents: dict) -> Face:
    """A face on int or Fraction vertices (normalised) and int rays; tangents
    memoizes _tangent_of by generator tuple."""
    vertices = tuple(sorted(set(vertices)))
    rays = tuple(sorted(set(rays)))
    v0 = vertices[0]
    gens: list[IntVec] = []
    integral = True
    for v in vertices[1:]:
        diff = [a - b for a, b in zip(v, v0)]
        if not all(type(x) is int for x in diff):
            scale = lcm(*(x.denominator for x in diff))
            integral = integral and scale == 1
            diff = [int(x * scale) for x in diff]
        gens.append(tuple(diff))
    key = tuple(gens) + rays
    found = tangents.get(key)
    if found is None:
        found = tangents[key] = _tangent_of(key, len(v0))
    tangent, uni = found
    return Face(index, vertices, rays, sed, tangent, integral and uni, tuple(pairs))


def _tangent_of(gens: tuple, rank: int) -> tuple[tuple, bool]:
    """The saturated tangent lattice of generators in Z^rank (nonempty
    generators carry rank as their length, so it needs no place in a memo
    key), and whether the generators are a basis of it."""
    # Independent generators whose maximal minors have gcd 1 span a saturated
    # lattice, and its reduced HNF is the one saturate returns.
    tangent = hnf_basis(gens)
    uni = len(tangent) == len(gens) and (prod(next(x for x in r if x) for r in tangent) == 1
                                         or maximal_minor_gcd(tangent) == 1)
    return tuple(tangent if uni else saturate(gens, rank)), uni


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

    @cached
    def covers_of(self, idx: int) -> list[int]:
        d = self.faces[idx].dim
        return sorted(j for j in self._above[idx] if self.faces[j].dim == d + 1)

    @cached
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

    def bounded_face_indices(self) -> list[int]:
        """Faces whose closure avoids infinity: sedentarity zero and no rays."""
        return [f.index for f in self.faces if f.sedentarity == () and not f.rays]

    # -- sign function ------------------------------------------------------

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
        delta's tangent T (_sign_of, shared by pairs of the same geometry)."""
        gamma, delta = self.faces[gamma_idx], self.faces[delta_idx]
        if gamma.sedentarity != delta.sedentarity:
            raise NotCodimOneError("faces have different sedentarity")
        if delta.dim != gamma.dim + 1 or (gamma_idx, delta_idx) not in self.order:
            raise NotCodimOneError("not a codimension-one face pair")
        try:
            return self._sign_of(gamma.tangent, self.direction_into(gamma, delta), delta.tangent)
        except NotUnimodularError as exc:
            raise _named(exc, gamma, delta) from None

    @cached
    def _sign_of(self, gamma_tangent: tuple, direction: IntVec, tangent: tuple) -> int:
        """det(rows . T^T) / det(T . T^T), rows gamma's tangent and direction."""
        rows = gamma_tangent + (direction,)
        return _unit_sign(det_int(_dots(rows, tangent)), det_int(_dots(tangent, tangent)), "sign")

    @cached
    def infinity_sign(self, gamma_idx: int, delta_idx: int) -> int:
        """Orientation sign for a sedentarity-raising codimension-one pair
        (_infinity_sign_of, shared by pairs of the same geometry)."""
        gamma, delta = self.faces[gamma_idx], self.faces[delta_idx]
        if delta.dim != gamma.dim + 1 or (gamma_idx, delta_idx) not in self.order:
            raise NotCodimOneError("not a codimension-one face pair")
        if len(set(gamma.sedentarity) - set(delta.sedentarity)) != 1:
            raise NotCodimOneError("sedentarity does not rise by one ray")
        try:
            return self._infinity_sign_of(gamma.sedentarity, delta.sedentarity, gamma.tangent, delta.tangent)
        except NotUnimodularError as exc:
            raise _named(exc, gamma, delta) from None

    @cached
    def _infinity_sign_of(self, gamma_sed: SedKey, delta_sed: SedKey, gamma_tangent: tuple,
                          tangent: tuple) -> int:
        """gamma sits in a deeper stratum; the normal is taken pointing inward,
        i.e. away from infinity.  Q, the stratum map from delta's stratum to
        gamma's, kills rho, so the rows G . Q . T^T and -rho . T^T have
        determinant det(G . G^T) |rho|^2 / det C, where C holds the
        coordinates over T of G's lifts through Q and of -rho."""
        ray_amb = next(iter(set(gamma_sed) - set(delta_sed)))
        rho = primitive(apply_rows(self.stratum(delta_sed)[1], ray_amb))
        q_rows = self.stratum_map(gamma_sed, delta_sed)
        images = [apply_rows(q_rows, t) for t in tangent]
        rows = _dots(gamma_tangent, images) + _dots([tuple(-x for x in rho)], tangent)
        gram = det_int(_dots(gamma_tangent, gamma_tangent)) * sum(x * x for x in rho)
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
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def vertex_text(face: Face) -> str:
    """The face's vertices as "(x, y), ...": a name that does not depend on the face order."""
    return ", ".join("(" + ", ".join(map(fmt_rat, v)) + ")" for v in face.vertices)


def _named(exc: NotUnimodularError, gamma: Face, delta: Face) -> NotUnimodularError:
    """exc with the pair's faces named by their vertices, as the page names a
    face (the sign caches are keyed by geometry, so _unit_sign cannot)."""
    return NotUnimodularError(f"{exc}, between the face with vertices {vertex_text(gamma)}"
                              f" and the face with vertices {vertex_text(delta)}")


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
    Faces with the same generators share one _tangent_of, memoized in a dict
    that lives for this call only (the complex it would be cached on does not
    exist yet).
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
    tangents: dict = {}
    for i, (vs, rs) in enumerate(specs):
        face = _make_face(i, [vpool[j] for j in vs], [rpool[j] for j in rs], (), [(i, ())], tangents)
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
    reaches a pair check gets its _cell data once.  Two cells whose boxes are
    disjoint in some coordinate cannot meet, and skip the check."""
    # Maximal pairs suffice: faces of one simplicial cell meet properly, and so do faces of two cells that do.
    top = [i for i in range(len(specs)) if not cx.cofaces(i)]
    vrows, rrows = _lifted_rows(vpool, rpool)
    vmasks = {i: sum(1 << k for k in specs[i][0]) for i in top}
    boxes: dict[int, list] = {}
    cells: dict[int, tuple] = {}
    for i, j in itertools.combinations(top, 2):
        # Boxes of cells that share a vertex overlap, as on a fan.
        if not vmasks[i] & vmasks[j]:
            for k in (i, j):
                if k not in boxes:
                    boxes[k] = _box(vpool, rpool, specs[k], cx.rank)
            if _apart(boxes[i], boxes[j]):
                continue
        for k in (i, j):
            if k not in cells:
                cells[k] = _cell(vrows, rrows, specs[k])
        _check_pair_intersection(vrows, rrows, specs[i], specs[j], (cells[i], cells[j]))


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


class _Frame:
    """The frame of a cell with independent lifted generators G: Q = adj(G G^T) G
    takes g_i to det(G G^T) e_i, and Z x = 0 exactly on span G.  at(gen), for
    a generator bit gen (see _cell), is computed once: Q g and Z g, and the
    bit masks of the rows where Q g < 0, Z g < 0 and Z g > 0."""

    def __init__(self, q: list[list[int]], z: list[IntVec], rows: list[IntVec]):
        self.q, self.z, self.rows = q, z, rows
        self._at: dict[int, tuple] = {}

    def at(self, gen: int) -> tuple[list[int], list[int], int, int, int]:
        out = self._at.get(gen)
        if out is None:
            g = self.rows[gen]
            qg = [sum(map(mul, r, g)) for r in self.q]
            zg = [sum(map(mul, r, g)) for r in self.z]
            qn = zn = zp = 0
            for i, x in enumerate(qg):
                if x < 0:
                    qn |= 1 << i
            for i, x in enumerate(zg):
                if x < 0:
                    zn |= 1 << i
                elif x > 0:
                    zp |= 1 << i
            out = self._at[gen] = (qg, zg, qn, zn, zp)
        return out


def _frame(vrows, rrows, cell) -> _Frame:
    """The frame of a cell; its lifted generators are independent, since
    build_complex rejects a face with dependent ones as not simplicial."""
    vs, rs = cell
    g = [vrows[k] for k in vs] + [rrows[k] for k in rs]
    adj = gram_adjugate(_dots(g, g))
    # Independent rows as many as their length span everything: no equations.
    z = [] if len(g) == len(g[0]) else kernel_basis_int(g)
    return _Frame(_dots(adj, list(zip(*g))), z, vrows + rrows)


def _cell(vrows, rrows, cell) -> tuple[list[int], int, _Frame]:
    """A cell's generators as bits, vertex k as k and ray k as len(vrows) + k,
    in the cell's order (vertices first), their mask, and the cell's frame."""
    vs, rs = cell
    gens = list(vs) + [len(vrows) + k for k in rs]
    return gens, sum(1 << g for g in gens), _frame(vrows, rrows, cell)


def _certified(frame: _Frame, own: list[int], other: list[int]) -> bool:
    """Whether a fixed functional h is < 0 on every generator in other: an own
    row of Q (own lists their positions), the sum of the own rows of Q, or
    +-a row of Z.  Every weighted sum y of those generators that the pair
    check asks about has h(y) >= 0 (own coordinates) or h(y) = 0 (span), so
    h rules each of them out."""
    vals = [frame.at(g) for g in other]
    qneg = zneg = zpos = -1
    for _, _, qn, zn, zp in vals:
        qneg, zneg, zpos = qneg & qn, zneg & zn, zpos & zp
    if (zneg | zpos) & ((1 << len(frame.z)) - 1) or any(qneg >> i & 1 for i in own):
        return True
    return bool(own) and all(sum(qg[i] for i in own) < 0 for qg, *_ in vals)


def _check_pair_intersection(vrows, rrows, cell1, cell2, cells=None) -> None:
    """Exact check that two cells, given as (vertex, ray) index lists into
    the lifted rows, meet exactly in their shared-generator face.  cells
    holds both cells' _cell data (built here when not given), so that the
    shared generators are the AND of the two masks.  In the frame of cell1,
    one Fourier-Motzkin run over the weights
    mu >= 0 of cell2's own generators b asks for y = sum mu b in span G
    (Z y = 0) with coordinates >= 0 on cell1's own generators (the own rows
    of Q y): with a shared vertex and mu > 0, y is off the shared face;
    without one, y meets cell1 when its vertex weights are > 0.  The question
    is symmetric in the two cells, so a certificate in either frame
    (_certified) answers no without a run."""
    if cells is None:
        cells = (_cell(vrows, rrows, cell1), _cell(vrows, rrows, cell2))
    (gens1, mask1, frame1), (gens2, mask2, frame2) = cells
    shared, nv = mask1 & mask2, len(vrows)
    own1 = [p for p, g in enumerate(gens1) if not shared >> g & 1]
    own2 = [p for p, g in enumerate(gens2) if not shared >> g & 1]
    tries = [(frame1, own1, [gens2[p] for p in own2]), (frame2, own2, [gens1[p] for p in own1])]
    for t in tries:
        if _certified(*t):
            return
    shared_v = shared & ((1 << nv) - 1)
    frame, own, other = tries[0]
    vals = [frame.at(g) for g in other]
    ineqs = [[qg[i] for qg, *_ in vals] for i in own]
    eqs = [[zg[r] for _, zg, *_ in vals] for r in range(len(frame.z))]
    n = nonneg = len(vals)
    positive = n if shared_v else sum(g < nv for g in other)
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

def check_compactifiable(y: FaceComplex) -> None:
    """Raise unless y has a canonical compactification: its recession fan must
    be a unimodular fan (NotAFanError, NotUnimodularError)."""
    # A validated y with one vertex is a translate of its recession fan: its
    # cones were checked already, and its faces carry the same flags.
    one_vertex = y.validated and len({v for f in y.faces for v in f.vertices}) == 1
    if not all(f.unimodular for f in (y if one_vertex else recession_fan(y)).faces):
        raise NotUnimodularError("recession fan is not unimodular")


def compactify(y: FaceComplex) -> FaceComplex:
    """Face complex of the canonical compactification of y.

    Faces are merged (gamma, sigma) pairs with sigma a face of the recession
    cone of gamma, realized by projecting gamma to the sigma-stratum;
    sedentarity of the new face is sigma, and the face order follows the
    orbit-stratum combinatorics.  Faces with the same generators share one
    _tangent_of, memoized in a dict that lives for this call only (the
    complex it would be cached on does not exist yet).
    """
    check_compactifiable(y)

    # A set of y's rays is a mask, bit k for the k-th ray in sorted order, so
    # a face's ray subsets come out as sorted tuples in the same order.
    bit = {r: 1 << k for k, r in enumerate(sorted({r for f in y.faces for r in f.rays}))}
    ray_mask = [sum(bit[r] for r in f.rays) for f in y.faces]

    # A vertex and a ray can be the same tuple (fixE x fixD x fixD has both),
    # so an image is keyed by (stratum mask, generator, is_ray).
    images: dict[tuple[int, IntVec, bool], Optional[tuple]] = {}

    def image(sed: SedKey, m: int, gen: IntVec, is_ray: bool) -> Optional[tuple]:
        key = (m, gen, is_ray)
        if key not in images:
            img = apply_rows(y.stratum(sed)[1], gen)
            images[key] = (primitive(img) if any(img) else None) if is_ray else \
                tuple(normal(x) for x in img)
        return images[key]

    records: dict[tuple, list] = {}
    for f in y.faces:
        subsets = [((), 0)]
        for r in f.rays:
            subsets += [(sed + (r,), m | bit[r]) for sed, m in subsets]
        for sed, m in subsets:
            pverts = frozenset(image(sed, m, v, False) for v in f.vertices)
            prays = frozenset(img for r in f.rays if (img := image(sed, m, r, True)) is not None)
            entry = records.get((m, pverts, prays))
            if entry is None:
                vs, rs = tuple(sorted(pverts)), tuple(sorted(prays))
                entry = records[m, pverts, prays] = [(len(vs) - 1 + len(rs), sed, vs, rs), [], []]
            entry[1].append((f.index, sed))
            entry[2].append((f.index, m))

    faces = []
    pair_index = {}
    tangents: dict = {}
    entries = sorted(records.values(), key=lambda e: e[0])
    for i, ((_, sed, vs, rs), pairs, keys) in enumerate(entries):
        faces.append(_make_face(i, vs, rs, sed, sorted(pairs), tangents))
        for key in keys:
            pair_index[key] = i

    # (ga, sa) lies below (gb, sb) when ga is a face of gb and sa contains
    # sb; the masks sa = sb | e run over the submasks e of ga's other rays.
    order = set()
    for j, (_, _, keys) in enumerate(entries):
        for gb, sb in keys:
            for ga in (gb, *y.subfaces(gb)):
                if sb & ~ray_mask[ga]:
                    continue
                rest = e = ray_mask[ga] & ~sb
                while True:
                    i = pair_index[ga, sb | e]
                    if i != j:
                        order.add((i, j))
                    if not e:
                        break
                    e = (e - 1) & rest
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
        """Whether every cone's rays are a basis of a saturated lattice.  A
        coface whose generators are such a basis gives such a star cone: its
        generators off the base project to a basis of a saturated lattice in
        the base's quotient.  So unimodular labels settle it without a check."""
        faces = self.complex.faces
        if all(faces[label].unimodular for label, _ in self.cones):
            return True
        return all(spans_unimodularly([self.ray_vectors[i] for i in sorted(rays)])
                   for _, rays in self.cones)


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
