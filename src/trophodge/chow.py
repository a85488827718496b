"""Chow rings of unimodular fans, degree maps, restriction and Gysin maps,
Minkowski weights, and the Chow / Minkowski-weight duality.

A ring is presented on squarefree cone monomials: degree p is spanned by
x_sigma for p-dimensional cones sigma, modulo the linear-functional
relations multiplied into degree p.  Monomials with repeated rays are
rewritten by substituting one occurrence of x_rho using a functional that
is 1 on e_rho and 0 on the other rays of the support; each rewrite strictly
lowers total multiplicity, so reduction terminates in one pass per repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import (
    DegreeMismatchError,
    NotCodimOneError,
    NotUnimodularError,
    RankDeficientError,
)
from .linalg import Echelon, RationalMatrix, kernel_basis, rank, solve
from .polyhedral import FaceComplex, StarFan

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class ChowClass:
    """An element of A^degree, as coefficients over the ring's monomial basis."""

    degree: int
    coeffs: Vec

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scale(self, c: Fraction) -> "ChowClass":
        return ChowClass(self.degree, tuple(c * x for x in self.coeffs))

    def add(self, other: "ChowClass") -> "ChowClass":
        if other.degree != self.degree:
            raise DegreeMismatchError("cannot add classes of different degrees")
        return ChowClass(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


class ChowRing:
    """The Chow ring of a unimodular (star) fan, degree by degree."""

    def __init__(self, star: StarFan):
        if not star.unimodular:
            raise NotUnimodularError("Chow ring requires a unimodular fan")
        self.star = star
        self.rank = star.rank
        self.nrays = len(star.ray_labels)
        self.top = star.dim
        self._monomials: dict[int, list[frozenset]] = {}
        self._relations: dict[int, Echelon] = {}
        self._basis: dict[int, list[frozenset]] = {}
        self._reduce_memo: dict[tuple, dict] = {}
        self._functional_memo: dict[tuple, list[Fraction]] = {}
        self._deg_norm: Optional[Fraction] = None

    # -- presentation ---------------------------------------------------

    def monomials(self, p: int) -> list[frozenset]:
        if p not in self._monomials:
            self._monomials[p] = [rays for _, rays in self.star.cones_of_dim(p)]
        return self._monomials[p]

    def _ray_vec(self, pos: int) -> Vec:
        return tuple(Fraction(x) for x in self.star.ray_vectors[pos])

    def adapted_functional(self, rho: int, zero_on: frozenset, tweak: int = 0) -> list[Fraction]:
        """A covector with value 1 on e_rho and 0 on the listed ray positions.

        tweak != 0 shifts the choice by a functional vanishing on the whole
        span of {rho} | zero_on, when that span is proper; restriction
        classes must not depend on this.
        """
        key = (rho, tuple(sorted(zero_on)), tweak)
        if key in self._functional_memo:
            return self._functional_memo[key]
        cols = [self._ray_vec(rho)] + [self._ray_vec(i) for i in sorted(zero_on)]
        m = RationalMatrix(len(cols), self.rank)
        for i, c in enumerate(cols):
            for j, v in enumerate(c):
                m[i, j] = v
        target = [Fraction(1)] + [Fraction(0)] * (len(cols) - 1)
        f = solve(m, target)
        if f is None:
            raise NotUnimodularError("no adapted functional; fan is not simplicial here")
        if tweak:
            kern = kernel_basis(m).basis
            if kern:
                f = [a + tweak * b for a, b in zip(f, kern[0])]
        self._functional_memo[key] = f
        return f

    def pair(self, functional: Sequence[Fraction], pos: int) -> Fraction:
        return sum(Fraction(f) * v for f, v in zip(functional, self._ray_vec(pos)))

    def reduce_monomial(self, ms: tuple[int, ...]) -> dict[frozenset, Fraction]:
        """Rewrite a ray multiset into squarefree cone monomials."""
        ms = tuple(sorted(ms))
        if ms in self._reduce_memo:
            return self._reduce_memo[ms]
        supp = frozenset(ms)
        if not self.star.is_cone(supp):
            result: dict[frozenset, Fraction] = {}
        elif len(supp) == len(ms):
            result = {supp: Fraction(1)}
        else:
            rho = next(x for x in ms if ms.count(x) > 1)
            rest = list(ms)
            rest.remove(rho)
            f = self.adapted_functional(rho, supp - {rho})
            result = {}
            for other in range(self.nrays):
                if other in supp:
                    continue
                c = self.pair(f, other)
                if c == 0:
                    continue
                for mono, coeff in self.reduce_monomial(tuple(rest + [other])).items():
                    result[mono] = result.get(mono, Fraction(0)) - c * coeff
            result = {k: v for k, v in result.items() if v != 0}
        self._reduce_memo[ms] = result
        return result

    def _relation_rows(self, p: int) -> list[dict[frozenset, Fraction]]:
        rows = []
        for tau in self.monomials(p - 1):
            base = tuple(sorted(tau))
            for i in range(self.rank):
                m = [Fraction(0)] * self.rank
                m[i] = Fraction(1)
                row: dict[frozenset, Fraction] = {}
                for pos in range(self.nrays):
                    c = self.pair(m, pos)
                    if c == 0:
                        continue
                    for mono, coeff in self.reduce_monomial(base + (pos,)).items():
                        row[mono] = row.get(mono, Fraction(0)) + c * coeff
                row = {k: v for k, v in row.items() if v != 0}
                if row:
                    rows.append(row)
        return rows

    def _ensure_degree(self, p: int) -> None:
        if p in self._basis:
            return
        monos = self.monomials(p)
        index = {mono: i for i, mono in enumerate(monos)}
        rows = self._relation_rows(p) if p > 0 else []
        relations = Echelon({index[mono]: c for mono, c in row.items()} for row in rows)
        self._relations[p] = relations
        self._basis[p] = [m for i, m in enumerate(monos) if i not in relations.pivots]

    def basis(self, p: int) -> list[frozenset]:
        if p < 0 or p > self.top:
            return []
        self._ensure_degree(p)
        return self._basis[p]

    def dim(self, p: int) -> int:
        return len(self.basis(p))

    def dims(self) -> list[int]:
        return [self.dim(p) for p in range(self.top + 1)]

    # -- classes ----------------------------------------------------------

    def reduce_class(self, p: int, combo: dict[frozenset, Fraction]) -> ChowClass:
        """Class of a squarefree-cone-monomial combination, in basis coords."""
        if p < 0 or p > self.top:
            if any(v != 0 for v in combo.values()):
                raise DegreeMismatchError(f"degree {p} out of range")
            return ChowClass(p, ())
        self._ensure_degree(p)
        monos = self.monomials(p)
        index = {mono: i for i, mono in enumerate(monos)}
        vec: dict[int, Fraction] = {}
        for mono, c in combo.items():
            vec[index[mono]] = vec.get(index[mono], 0) + c
        # The remainder modulo the relations is zero on every pivot column,
        # so it is the class's expansion over the basis monomials.
        rem, _ = self._relations[p].reduce(vec)
        return ChowClass(p, tuple(Fraction(rem.get(index[m], 0)) for m in self._basis[p]))

    def class_from_monomial(self, mono: frozenset) -> ChowClass:
        p = len(mono)
        return self.reduce_class(p, {mono: Fraction(1)})

    def unit(self) -> ChowClass:
        return self.reduce_class(0, {frozenset(): Fraction(1)})

    def zero(self, p: int) -> ChowClass:
        return ChowClass(p, tuple(Fraction(0) for _ in self.basis(p)))

    def monomial_representative(self, cls: ChowClass) -> dict[frozenset, Fraction]:
        """A squarefree representative: the basis expansion itself."""
        return {m: c for m, c in zip(self.basis(cls.degree), cls.coeffs) if c != 0}

    def multiply(self, a: ChowClass, b: ChowClass) -> ChowClass:
        p = a.degree + b.degree
        acc: dict[frozenset, Fraction] = {}
        for ma, ca in zip(self.basis(a.degree), a.coeffs):
            if ca == 0:
                continue
            for mb, cb in zip(self.basis(b.degree), b.coeffs):
                if cb == 0:
                    continue
                for mono, c in self.reduce_monomial(tuple(sorted(ma)) + tuple(sorted(mb))).items():
                    acc[mono] = acc.get(mono, Fraction(0)) + ca * cb * c
        return self.reduce_class(p, acc)

    # -- degree and pairings ----------------------------------------------

    def _degree_normalization(self) -> Fraction:
        if self._deg_norm is None:
            d = self.top
            if self.dim(d) != 1:
                raise RankDeficientError(f"top Chow group has rank {self.dim(d)}, not 1")
            vals = []
            for eta in self.monomials(d):
                cls = self.class_from_monomial(eta)
                vals.append(cls.coeffs[0])
            if len(set(vals)) != 1 or vals[0] == 0:
                raise RankDeficientError("x_eta classes of maximal cones disagree")
            self._deg_norm = vals[0]
        return self._deg_norm

    def degree(self, cls: ChowClass) -> Fraction:
        if cls.degree != self.top:
            raise DegreeMismatchError("degree map needs a top-degree class")
        if not cls.coeffs:
            return Fraction(0)
        return cls.coeffs[0] / self._degree_normalization()

    def pairing(self, a: ChowClass, b: ChowClass) -> Fraction:
        if a.degree + b.degree != self.top:
            raise DegreeMismatchError("pairing needs complementary degrees")
        return self.degree(self.multiply(a, b))


def ring_of(star: StarFan) -> ChowRing:
    if star._chow_ring is None:
        star._chow_ring = ChowRing(star)
    return star._chow_ring


def fan_star(f: FaceComplex) -> StarFan:
    """The star fan at the origin vertex of a fan (equal to the fan itself)."""
    origin = [face.index for face in f.faces if face.dim == 0 and face.sedentarity == ()]
    if len(origin) != 1:
        raise NotUnimodularError("not a fan: needs a unique vertex")
    return f.star_fan(origin[0])


def fan_ring(f) -> ChowRing:
    if isinstance(f, StarFan):
        return ring_of(f)
    return ring_of(fan_star(f))


def chow_ring(f, p: int) -> dict:
    """Degree-p piece of the Chow ring: dimension plus basis monomial labels."""
    ring = fan_ring(f)
    return {
        "p": p,
        "dim": ring.dim(p),
        "basis": [tuple(sorted(ring.star.ray_labels[i] for i in mono)) for mono in ring.basis(p)],
    }


def degree(f, cls: ChowClass) -> Fraction:
    return fan_ring(f).degree(cls)


def pairing(f, a: ChowClass, b: ChowClass) -> Fraction:
    return fan_ring(f).pairing(a, b)


# ---------------------------------------------------------------------------
# Restriction and Gysin maps between star fans

def _diamond_partner(y: FaceComplex, gamma: int, delta: int, eta: int) -> int:
    """The face other than delta strictly between gamma and eta (codim 2)."""
    mids = [z for z in y.cofaces(gamma)
            if y.faces[z].dim == y.faces[gamma].dim + 1
            and z != delta and (z, eta) in y.order
            and y.faces[z].sedentarity == y.faces[gamma].sedentarity]
    if len(mids) != 1:
        raise NotCodimOneError(f"diamond property fails between {gamma} and {eta}")
    return mids[0]


def _check_codim_one(y: FaceComplex, gamma: int, delta: int) -> None:
    if y.faces[gamma].sedentarity != y.faces[delta].sedentarity:
        raise NotCodimOneError("faces differ in sedentarity")
    if y.faces[delta].dim != y.faces[gamma].dim + 1 or (gamma, delta) not in y.order:
        raise NotCodimOneError("not a codimension-one pair")


def restriction(y: FaceComplex, gamma: int, delta: int, a: ChowClass,
                tweak: int = 0) -> ChowClass:
    """The ring map A^k(star gamma) -> A^k(star delta).

    The distinguished ray x_rho (rho the ray of star gamma labelled by
    delta) is first eliminated from each monomial using an adapted
    functional; remaining rays map to their images in star delta when they
    span a cone with rho, and to zero otherwise.
    """
    _check_codim_one(y, gamma, delta)
    sg = y.star_fan(gamma)
    sd = y.star_fan(delta)
    rg = ring_of(sg)
    rd = ring_of(sd)
    rho = sg.ray_position(delta)

    def image_ray(pos: int) -> Optional[int]:
        pair = frozenset({pos, rho})
        if not sg.is_cone(pair):
            return None
        eta = sg.cone_label(pair)
        return sd.ray_position(eta)

    def restrict_squarefree(mono: frozenset) -> dict[frozenset, Fraction]:
        imgs = []
        for pos in sorted(mono):
            ir = image_ray(pos)
            if ir is None:
                return {}
            imgs.append(ir)
        return rd.reduce_monomial(tuple(imgs))

    acc: dict[frozenset, Fraction] = {}
    for mono, coeff in zip(rg.basis(a.degree), a.coeffs):
        if coeff == 0:
            continue
        if rho not in mono:
            parts = restrict_squarefree(mono)
            for mb, c in parts.items():
                acc[mb] = acc.get(mb, Fraction(0)) + coeff * c
        else:
            rest = mono - {rho}
            f = rg.adapted_functional(rho, rest, tweak=tweak)
            for other in range(rg.nrays):
                if other in mono:
                    continue
                lam = rg.pair(f, other)
                if lam == 0:
                    continue
                parts = restrict_squarefree(rest | {other})
                for mb, c in parts.items():
                    acc[mb] = acc.get(mb, Fraction(0)) - coeff * lam * c
    return rd.reduce_class(a.degree, acc)


def gysin(y: FaceComplex, gamma: int, delta: int, a: ChowClass) -> ChowClass:
    """The Gysin map A^k(star delta) -> A^(k+1)(star gamma): lift ray-wise
    along the diamond correspondence and multiply by x_rho."""
    _check_codim_one(y, gamma, delta)
    sg = y.star_fan(gamma)
    sd = y.star_fan(delta)
    rg = ring_of(sg)
    rd = ring_of(sd)
    rho = sg.ray_position(delta)
    acc: dict[frozenset, Fraction] = {}
    for mono, coeff in zip(rd.basis(a.degree), a.coeffs):
        if coeff == 0:
            continue
        lifted = {rho}
        for pos in sorted(mono):
            eta = sd.ray_labels[pos]
            zeta = _diamond_partner(y, gamma, delta, eta)
            lifted.add(sg.ray_position(zeta))
        target = frozenset(lifted)
        if len(target) != len(mono) + 1 or not sg.is_cone(target):
            raise NotCodimOneError("gysin image is not a cone; fan data corrupt")
        acc[target] = acc.get(target, Fraction(0)) + coeff
    return rg.reduce_class(a.degree + 1, acc)


# ---------------------------------------------------------------------------
# Minkowski weights

@dataclass(frozen=True)
class MinkowskiWeight:
    """A rational weight on the k-faces of a complex satisfying balancing."""

    dim: int
    weights: tuple[tuple[int, Fraction], ...]  # (face index, weight)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.weights)

    def value(self, face_idx: int) -> Fraction:
        return dict(self.weights).get(face_idx, Fraction(0))


def _balancing_matrix(y: FaceComplex, k: int) -> tuple[RationalMatrix, list[int]]:
    k_faces = [f.index for f in y.faces_of_dim(k) if f.sedentarity == ()]
    rows: list[list[Fraction]] = []
    for g in y.faces_of_dim(k - 1):
        if g.sedentarity != ():
            continue
        covers = [d for d in y.covers_of(g.index)
                  if y.faces[d].sedentarity == () and y.faces[d].index in k_faces]
        if not covers:
            continue
        normals = {d: y.primitive_normal(g.index, d) for d in covers}
        ncoords = len(next(iter(normals.values())))
        for c in range(ncoords):
            row = [Fraction(0)] * len(k_faces)
            for d in covers:
                row[k_faces.index(d)] = Fraction(normals[d][c])
            rows.append(row)
    if rows:
        mat = RationalMatrix.from_rows(rows)
    else:
        mat = RationalMatrix(0, len(k_faces))
    return mat, k_faces


def minkowski_weights(y: FaceComplex, k: int) -> list[MinkowskiWeight]:
    """Basis of MW_k(y): kernel of the balancing map on k-face weights."""
    mat, k_faces = _balancing_matrix(y, k)
    basis = kernel_basis(mat).basis
    out = []
    for vec in basis:
        out.append(MinkowskiWeight(k, tuple((f, v) for f, v in zip(k_faces, vec) if v != 0)))
    return out


def is_balanced(y: FaceComplex, w: MinkowskiWeight) -> bool:
    mat, k_faces = _balancing_matrix(y, w.dim)
    vec = [w.value(f) for f in k_faces]
    return all(v == 0 for v in mat.mul_vec(vec))


def star_fan_weights(f, k: int) -> list[MinkowskiWeight]:
    """Minkowski weights on a fan given as FaceComplex or StarFan."""
    if isinstance(f, StarFan):
        return _star_minkowski_weights(f, k)
    return minkowski_weights(f, k)


def _star_minkowski_weights(star: StarFan, k: int) -> list[MinkowskiWeight]:
    """MW basis on a star fan, with weights indexed by cone labels."""
    k_cones = star.cones_of_dim(k)
    labels = [lbl for lbl, _ in k_cones]
    rows: list[list[Fraction]] = []
    for lbl_g, rays_g in star.cones_of_dim(k - 1):
        covers = [(lbl, rays) for lbl, rays in k_cones if rays_g < rays]
        if not covers:
            continue
        proj, _ = _cone_quotient(star, rays_g)
        for c in range(len(proj)):
            row = [Fraction(0)] * len(labels)
            for lbl, rays in covers:
                extra = next(iter(rays - rays_g))
                from .lattice import apply_rows, primitive
                img = primitive(apply_rows(proj, star.ray_vectors[extra]))
                row[labels.index(lbl)] = Fraction(img[c])
            rows.append(row)
    mat = RationalMatrix.from_rows(rows) if rows else RationalMatrix(0, len(labels))
    basis = kernel_basis(mat).basis
    return [MinkowskiWeight(k, tuple((l, v) for l, v in zip(labels, vec) if v != 0))
            for vec in basis]


def _cone_quotient(star: StarFan, rays: frozenset):
    from .lattice import quotient_presentation

    tangent = [list(star.ray_vectors[i]) for i in sorted(rays)]
    return quotient_presentation(tangent, star.rank) if tangent else (
        [tuple(1 if i == j else 0 for j in range(star.rank)) for i in range(star.rank)],
        [tuple(1 if i == j else 0 for j in range(star.rank)) for i in range(star.rank)],
    )


def weight_from_class(ring: ChowRing, cls: ChowClass) -> MinkowskiWeight:
    """The canonical Minkowski weight of a Chow class: sigma -> deg(a . x_sigma)."""
    d = ring.top
    k = d - cls.degree
    weights = []
    for lbl, rays in ring.star.cones_of_dim(k):
        val = ring.degree(ring.multiply(cls, ring.reduce_class(k, {rays: Fraction(1)})))
        if val != 0:
            weights.append((lbl, val))
    return MinkowskiWeight(k, tuple(weights))


def mw_evaluate(ring: ChowRing, cls: ChowClass, w: MinkowskiWeight) -> Fraction:
    """Evaluation pairing: sum of monomial coefficients against weights.

    The class degree must equal the weight dimension; well-definedness on
    classes is a consequence of the balancing condition.
    """
    if cls.degree != w.dim:
        raise DegreeMismatchError("evaluation pairing needs matching degrees")
    wd = w.as_dict()
    total = Fraction(0)
    for mono, c in ring.monomial_representative(cls).items():
        lbl = ring.star.cone_label(mono)
        total += c * wd.get(lbl, Fraction(0))
    return total


def chow_mw_duality(f, p: int) -> list[list[Fraction]]:
    """The pairing matrix between A^p and MW_(d-p); raises when degenerate."""
    ring = fan_ring(f)
    d = ring.top
    mw_basis = star_fan_weights(ring.star if isinstance(f, StarFan) else f, d - p)
    a_basis = ring.basis(p)
    matrix = []
    for mono in a_basis:
        cls = ring.reduce_class(p, {mono: Fraction(1)})
        wcls = weight_from_class(ring, cls)
        row = []
        for w in mw_basis:
            row.append(mw_evaluate_weights(wcls, w))
        matrix.append(row)
    if len(a_basis) != len(mw_basis):
        raise RankDeficientError(
            f"A^{p} has dim {len(a_basis)} but MW_{d-p} has dim {len(mw_basis)}")
    if a_basis and rank(RationalMatrix.from_rows(matrix)) != len(a_basis):
        raise RankDeficientError("Chow/Minkowski pairing is degenerate")
    return matrix


def mw_evaluate_weights(wa: MinkowskiWeight, wb: MinkowskiWeight) -> Fraction:
    """Pair a class's canonical weight against a Minkowski weight by summing
    products over common faces (works because wa stores deg(a . x_sigma))."""
    if wa.dim != wb.dim:
        raise DegreeMismatchError("weights of different dimensions")
    db = wb.as_dict()
    return sum((c * db.get(lbl, Fraction(0)) for lbl, c in wa.weights), Fraction(0))
