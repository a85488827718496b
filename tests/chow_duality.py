"""Test-side oracle for the Chow / Minkowski-weight duality: the evaluation
pairing matrix between A^p of a fan and its Minkowski weights of
complementary dimension, which acceptance criterion 2 requires to be square
and invertible."""

from trophodge import DegreeMismatchError, RankDeficientError
from trophodge.chow import MinkowskiWeight, fan_ring, fan_star, star_fan_weights, weight_from_class
from trophodge.linalg import Rational, RationalMatrix, rank
from trophodge.polyhedral import StarFan


def chow_mw_duality(f, p: int) -> list[list[Rational]]:
    """The pairing matrix between A^p and MW_(d-p); raises when degenerate."""
    ring = fan_ring(f)
    d = ring.top
    star = f if isinstance(f, StarFan) else fan_star(f)
    mw_basis = star_fan_weights(f, d - p)
    a_basis = ring.basis(p)
    matrix = []
    for mono in a_basis:
        wcls = weight_from_class(star, ring.reduce_class(p, {mono: 1}))
        matrix.append([mw_evaluate_weights(wcls, w) for w in mw_basis])
    if len(a_basis) != len(mw_basis):
        raise RankDeficientError(
            f"A^{p} has dim {len(a_basis)} but MW_{d-p} has dim {len(mw_basis)}")
    if a_basis and rank(RationalMatrix.from_rows(matrix)) != len(a_basis):
        raise RankDeficientError("Chow/Minkowski pairing is degenerate")
    return matrix


def mw_evaluate_weights(wa: MinkowskiWeight, wb: MinkowskiWeight) -> Rational:
    """Pair a class's canonical weight against a Minkowski weight by summing
    products over common faces (works because wa stores deg(a . x_sigma))."""
    if wa.dim != wb.dim:
        raise DegreeMismatchError("weights of different dimensions")
    db = wb.as_dict()
    return sum(c * db.get(lbl, 0) for lbl, c in wa.weights)
