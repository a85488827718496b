"""Chow rings of unimodular fans, degree maps, restriction and Gysin maps,
Minkowski weights, and the evaluation pairing of classes with weights.

A ring is presented on squarefree cone monomials: degree p is spanned by
x_sigma for p-dimensional cones sigma, modulo the linear-functional
relations multiplied into degree p.  The relations are built squarefree:
x_tau times a functional that vanishes on the rays of tau.  Products, whose
monomials can repeat a ray, are rewritten by substituting one occurrence of
x_rho using a functional that is 1 on e_rho and 0 on the other rays of the
support; each rewrite strictly lowers total multiplicity, so reduction
terminates in one pass per repeat.  Reduction modulo the relations is
linear: each monomial's normal form is computed once per ring, a class is
the sum of its monomials' normal forms, and a product the sum of cached
products of basis monomials.
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
    cached,
)
from .lattice import kernel_basis_int
from .linalg import Echelon, Rational, RationalMatrix, kernel_basis, normal, solve
from .polyhedral import FaceComplex, StarFan

Vec = tuple[Rational, ...]


@dataclass(frozen=True)
class ChowClass:
    """An element of A^degree, as coefficients over the ring's monomial basis."""

    degree: int
    coeffs: Vec

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scale(self, c: Rational) -> "ChowClass":
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

    # -- presentation ---------------------------------------------------

    @cached
    def monomials(self, p: int) -> list[frozenset]:
        return [rays for _, rays in self.star.cones_of_dim(p)]

    @cached
    def adapted_functional(self, rho: int, zero_on: frozenset, tweak: int = 0) -> list[Rational]:
        """A covector with value 1 on e_rho and 0 on the listed ray positions.

        tweak != 0 shifts the choice by a functional vanishing on the whole
        span of {rho} | zero_on, when that span is proper; restriction
        classes must not depend on this.
        """
        cols = [self.star.ray_vectors[i] for i in [rho] + sorted(zero_on)]
        m = RationalMatrix(len(cols), self.rank)
        for i, c in enumerate(cols):
            for j, v in enumerate(c):
                m[i, j] = v
        target = [1] + [0] * (len(cols) - 1)
        f = solve(m, target)
        if f is None:
            raise NotUnimodularError("no adapted functional; fan is not simplicial here")
        if tweak:
            kern = kernel_basis(m).basis
            if kern:
                f = [a + tweak * b for a, b in zip(f, kern[0])]
        return f

    def pair(self, functional: Sequence[Rational], pos: int) -> Rational:
        return sum(f * v for f, v in zip(functional, self.star.ray_vectors[pos]) if v)

    def reduce_monomial(self, ms: tuple[int, ...]) -> dict[frozenset, Rational]:
        """Rewrite a ray multiset into squarefree cone monomials."""
        return self._reduce_sorted(tuple(sorted(ms)))

    @cached
    def _reduce_sorted(self, ms: tuple[int, ...]) -> dict[frozenset, Rational]:
        supp = frozenset(ms)
        if not self.star.is_cone(supp):
            return {}
        if len(supp) == len(ms):
            return {supp: 1}
        rho = next(x for x in ms if ms.count(x) > 1)
        rest = list(ms)
        rest.remove(rho)
        f = self.adapted_functional(rho, supp - {rho}, 0)
        result: dict[frozenset, Rational] = {}
        for other in range(self.nrays):
            if other in supp:
                continue
            c = self.pair(f, other)
            if c == 0:
                continue
            for mono, coeff in self.reduce_monomial(tuple(rest + [other])).items():
                result[mono] = result.get(mono, 0) - c * coeff
        return {k: v for k, v in result.items() if v != 0}

    def _relation_rows(self, p: int) -> list[dict[frozenset, int]]:
        """x_tau times sum_sigma <z, v_sigma> x_sigma, for each (p-1)-cone tau
        and each z in the integer annihilator of tau's rays (the unit
        covectors when tau is the zero cone); sigma runs over the rays with
        tau | {sigma} a cone.  These span the unit functionals times x_tau
        with squares rewritten, since the rewriting of x_rho x_tau uses a
        functional that vanishes on tau - {rho}; so the echelon's pivots and
        normal forms, which depend only on the row space, are theirs."""
        vectors, rows = self.star.ray_vectors, []
        for tau in self.monomials(p - 1):
            zs = kernel_basis_int([vectors[i] for i in sorted(tau)]) if tau else \
                [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
            cones = [(cone, vectors[pos]) for pos in range(self.nrays)
                     if pos not in tau and self.star.is_cone(cone := tau | {pos})]
            for z in zs:
                row = {cone: c for cone, v in cones if (c := sum(a * b for a, b in zip(z, v)))}
                if row:
                    rows.append(row)
        return rows

    @cached
    def _presentation(self, p: int) -> tuple[Echelon, list[frozenset], dict[frozenset, int]]:
        """The relations of degree p over the monomial positions, the basis
        (the monomials at no pivot of the relations), and each monomial's
        position."""
        monos = self.monomials(p)
        index = {mono: i for i, mono in enumerate(monos)}
        rows = self._relation_rows(p) if p > 0 else []
        relations = Echelon({index[mono]: c for mono, c in row.items()} for row in rows)
        return relations, [m for i, m in enumerate(monos) if i not in relations.pivots], index

    @cached
    def _normal_form(self, p: int, mono: frozenset) -> dict[frozenset, Rational]:
        """The class of x_mono as {basis monomial: coefficient}: its remainder
        modulo the relations, which is zero on every pivot column."""
        relations, _, index = self._presentation(p)
        rem, _ = relations.reduce({index[mono]: 1})
        return {self.monomials(p)[j]: c for j, c in rem.items()}

    def _expand(self, p: int, combo: dict[frozenset, Rational]) -> dict[frozenset, Rational]:
        """The basis expansion of a combination: the sum of its monomials'
        normal forms, since reduction is linear."""
        acc: dict[frozenset, Rational] = {}
        for mono, c in combo.items():
            for m, v in self._normal_form(p, mono).items():
                acc[m] = acc.get(m, 0) + c * v
        return acc

    @cached
    def _basis_product(self, pa: int, i: int, pb: int, j: int) -> dict[frozenset, Rational]:
        """The basis expansion of the product of basis monomials i of degree
        pa and j of degree pb."""
        ms = tuple(sorted(self.basis(pa)[i])) + tuple(sorted(self.basis(pb)[j]))
        return self._expand(pa + pb, self.reduce_monomial(ms))

    def basis(self, p: int) -> list[frozenset]:
        if p < 0 or p > self.top:
            return []
        return self._presentation(p)[1]

    def dim(self, p: int) -> int:
        return len(self.basis(p))

    def dims(self) -> list[int]:
        return [self.dim(p) for p in range(self.top + 1)]

    # -- classes ----------------------------------------------------------

    def reduce_class(self, p: int, combo: dict[frozenset, Rational]) -> ChowClass:
        """Class of a squarefree-cone-monomial combination, in basis coords."""
        if p < 0 or p > self.top:
            if any(v != 0 for v in combo.values()):
                raise DegreeMismatchError(f"degree {p} out of range")
            return ChowClass(p, ())
        acc = self._expand(p, combo)
        return ChowClass(p, tuple(normal(acc.get(m, 0)) for m in self.basis(p)))

    def class_from_monomial(self, mono: frozenset) -> ChowClass:
        p = len(mono)
        return self.reduce_class(p, {mono: 1})

    def unit(self) -> ChowClass:
        return self.reduce_class(0, {frozenset(): 1})

    def zero(self, p: int) -> ChowClass:
        return ChowClass(p, (0,) * self.dim(p))

    def monomial_representative(self, cls: ChowClass) -> dict[frozenset, Rational]:
        """A squarefree representative: the basis expansion itself."""
        return {m: c for m, c in zip(self.basis(cls.degree), cls.coeffs) if c != 0}

    def multiply(self, a: ChowClass, b: ChowClass) -> ChowClass:
        """The sum of the cached products of basis monomials."""
        acc: dict[frozenset, Rational] = {}
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if cb == 0:
                    continue
                for m, v in self._basis_product(a.degree, i, b.degree, j).items():
                    acc[m] = acc.get(m, 0) + ca * cb * v
        return self.reduce_class(a.degree + b.degree, acc)

    # -- degree and pairings ----------------------------------------------

    @cached
    def _degree_normalization(self) -> Rational:
        d = self.top
        if self.dim(d) != 1:
            raise RankDeficientError(f"top Chow group has rank {self.dim(d)}, not 1")
        vals = [self.class_from_monomial(eta).coeffs[0] for eta in self.monomials(d)]
        if len(set(vals)) != 1 or vals[0] == 0:
            raise RankDeficientError("x_eta classes of maximal cones disagree")
        return vals[0]

    def degree(self, cls: ChowClass) -> Rational:
        if cls.degree != self.top:
            raise DegreeMismatchError("degree map needs a top-degree class")
        if not cls.coeffs:
            return 0
        c, n = cls.coeffs[0], self._degree_normalization()
        return c if n == 1 else normal(Fraction(c, n))

    @cached
    def pairing_matrix(self, k: int) -> RationalMatrix:
        """G[i, j] = deg(e_i . e_j) for the basis monomials e_i of degree k and
        e_j of degree top - k, read off the cached products of basis monomials."""
        top = self.top
        return RationalMatrix.from_columns(self.dim(k), [
            [self.degree(self.reduce_class(top, self._basis_product(k, i, top - k, j)))
             for i in range(self.dim(k))] for j in range(self.dim(top - k))])

    def pairing(self, a: ChowClass, b: ChowClass) -> Rational:
        """deg(a . b) for complementary degrees: a^T G b on the pairing matrix."""
        if a.degree + b.degree != self.top:
            raise DegreeMismatchError("pairing needs complementary degrees")
        gb = self.pairing_matrix(a.degree).mul_vec(b.coeffs)
        return normal(sum(x * y for x, y in zip(a.coeffs, gb) if x))


@cached
def ring_of(star: StarFan) -> ChowRing:
    return ChowRing(star)


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

    def restrict_squarefree(mono: frozenset) -> dict[frozenset, Rational]:
        imgs = []
        for pos in sorted(mono):
            ir = image_ray(pos)
            if ir is None:
                return {}
            imgs.append(ir)
        return rd.reduce_monomial(tuple(imgs))

    acc: dict[frozenset, Rational] = {}
    for mono, coeff in zip(rg.basis(a.degree), a.coeffs):
        if coeff == 0:
            continue
        if rho not in mono:
            parts = restrict_squarefree(mono)
            for mb, c in parts.items():
                acc[mb] = acc.get(mb, 0) + coeff * c
        else:
            rest = mono - {rho}
            f = rg.adapted_functional(rho, rest, tweak)
            for other in range(rg.nrays):
                if other in mono:
                    continue
                lam = rg.pair(f, other)
                if lam == 0:
                    continue
                parts = restrict_squarefree(rest | {other})
                for mb, c in parts.items():
                    acc[mb] = acc.get(mb, 0) - coeff * lam * c
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
    acc: dict[frozenset, Rational] = {}
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
        acc[target] = acc.get(target, 0) + coeff
    return rg.reduce_class(a.degree + 1, acc)


# ---------------------------------------------------------------------------
# Minkowski weights

@dataclass(frozen=True)
class MinkowskiWeight:
    """A rational weight on the k-faces of a complex satisfying balancing."""

    dim: int
    weights: tuple[tuple[int, Rational], ...]  # (face index, weight)

    @cached
    def as_dict(self) -> dict[int, Rational]:
        """{face: weight}, built once and shared: callers must not change it."""
        return dict(self.weights)

    def value(self, face_idx: int) -> Rational:
        return self.as_dict().get(face_idx, 0)


@cached
def _balancing_matrix(y: FaceComplex, k: int) -> tuple[RationalMatrix, list[int]]:
    k_faces = [f.index for f in y.faces_of_dim(k) if f.sedentarity == ()]
    column = {d: i for i, d in enumerate(k_faces)}
    rows: list[list[Rational]] = []
    for g in y.faces_of_dim(k - 1):
        if g.sedentarity != ():
            continue
        covers = [d for d in y.covers_of(g.index) if d in column]
        if not covers:
            continue
        normals = {d: y.primitive_normal(g.index, d) for d in covers}
        ncoords = len(next(iter(normals.values())))
        for c in range(ncoords):
            row = [0] * len(k_faces)
            for d in covers:
                row[column[d]] = normals[d][c]
            rows.append(row)
    mat = RationalMatrix.from_rows(rows) if rows else RationalMatrix(0, len(k_faces))
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
    wd = w.as_dict()
    vec = [wd.get(f, 0) for f in k_faces]
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
    rows: list[list[Rational]] = []
    for lbl_g, rays_g in star.cones_of_dim(k - 1):
        covers = [(lbl, rays) for lbl, rays in k_cones if rays_g < rays]
        if not covers:
            continue
        proj, _ = _cone_quotient(star, rays_g)
        for c in range(len(proj)):
            row = [0] * len(labels)
            for lbl, rays in covers:
                extra = next(iter(rays - rays_g))
                from .lattice import apply_rows, primitive
                img = primitive(apply_rows(proj, star.ray_vectors[extra]))
                row[labels.index(lbl)] = img[c]
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
        val = ring.pairing(cls, ring.reduce_class(k, {rays: 1}))
        if val != 0:
            weights.append((lbl, val))
    return MinkowskiWeight(k, tuple(weights))


def mw_evaluate(ring: ChowRing, cls: ChowClass, w: MinkowskiWeight) -> Rational:
    """Evaluation pairing: sum of monomial coefficients against weights.

    The class degree must equal the weight dimension; well-definedness on
    classes is a consequence of the balancing condition.
    """
    if cls.degree != w.dim:
        raise DegreeMismatchError("evaluation pairing needs matching degrees")
    wd = w.as_dict()
    total = 0
    for mono, c in ring.monomial_representative(cls).items():
        lbl = ring.star.cone_label(mono)
        total += c * wd.get(lbl, 0)
    return total
