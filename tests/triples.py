"""Test-side helpers for Lefschetz triples: random triples that satisfy
Hard Lefschetz around zero by construction, and two checks of the connecting
map d0 that the test suite runs on them."""

import random
from functools import partial

from trophodge.clemens_schmid import LefschetzTriple, _chase_d0, _kernel_and_cokernel
from trophodge.cohomology import GradedComplex, induced_map
from trophodge.linalg import RationalMatrix


def d0_lift_independent(t: LefschetzTriple) -> bool:
    """Recompute d0 with shifted lifts; the class must not change."""
    kc, rc = _kernel_and_cokernel(t)
    base = _chase_d0(t, kc, rc)
    n = t.C.dim(-2)
    if n == 0:
        return True
    shift = [1 + (i % 3) for i in range(n)]
    other = _chase_d0(t, kc, rc, lift_shift=shift)
    return base == other


def d0_boundary_compositions_zero(t: LefschetzTriple) -> bool:
    """d0 . d^{-1} = 0 and d^1 . d0 = 0 on cohomology."""
    kc, rc = _kernel_and_cokernel(t)
    d0 = _chase_d0(t, kc, rc)
    dminus = induced_map(t.D, rc.gc, partial(rc.coordinates, 0), 0)
    dplus = induced_map(kc.gc, t.C, kc.inclusion(0).mul_vec, 0)
    return d0.matmul(dminus).is_zero() and dplus.matmul(d0).is_zero()


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
                m[h.get(k + 1, 0) + a.get(k + 1, 0) + i, h.get(k, 0) + i] = 1
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
