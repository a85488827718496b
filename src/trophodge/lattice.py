"""Integer lattice utilities: Hermite forms, saturated kernels, quotient
presentations.  Inputs and outputs are plain tuples of Python ints."""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def row_hnf(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transformation.

    Returns (H, R) with R unimodular and R*mat = H; pivots are positive,
    entries below a pivot are zero and entries above are reduced into
    [0, pivot).  Deterministic.  R is carried as identity columns appended
    to mat, on which the elimination never pivots.
    """
    n = len(mat)
    cols = len(mat[0]) if n else 0
    rows = _hermite([list(map(int, r)) + [int(i == j) for j in range(n)]
                     for i, r in enumerate(mat)], cols)
    return [r[:cols] for r in rows], [r[cols:] for r in rows]


def _hermite(rows: list[list[int]], cols: int) -> list[list[int]]:
    """The row operations of a row Hermite normal form of rows, with pivots
    taken among the first cols columns only; changes rows and returns it."""
    n = len(rows)
    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, n) if rows[i][c] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if best != r:
                rows[r], rows[best] = rows[best], rows[r]
            done = True
            prow = rows[r]
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // prow[c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < n and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            prow = rows[r]
            for i in range(r):
                q = rows[i][c] // prow[c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
            r += 1
            if r == n:
                break
    return rows


def hnf_basis(generators: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical (HNF-reduced) basis of the lattice spanned by generators."""
    if not generators:
        return []
    h = _hermite([list(map(int, g)) for g in generators], len(generators[0]))
    return [tuple(r) for r in h if any(r)]


def kernel_basis_int(mat: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the saturated lattice {x in Z^c : mat . x = 0}.

    mat is given by rows; the result is a list of integer vectors.
    """
    rows = [list(r) for r in mat]
    if not rows:
        return []
    cols = len(rows[0])
    # Transpose so ambient coordinates become rows, then read off the rows
    # of the transform that map to zero.
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(cols)]
    h, transform = row_hnf(transposed)
    out = []
    for hr, tr in zip(h, transform):
        if not any(hr):
            out.append(tuple(tr))
    return out


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free)."""
    a = [list(map(int, r)) for r in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gram_adjugate(gram: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """adj(A) of the Gram matrix A = G G^T of integer rows G, so that
    adj(A) . A = det(A) I, or None when the rows are dependent.  Fraction-free
    Gauss-Jordan on [A | I] needs no pivot search: the leading minors of A
    are all positive exactly when the rows are independent."""
    n = len(gram)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(gram)]
    prev = 1
    for k in range(n):
        pivot = rows[k][k]
        if not pivot:
            return None
        rows = [r if i == k else [(pivot * a - r[k] * b) // prev for a, b in zip(r, rows[k])]
                for i, r in enumerate(rows)]
        prev = pivot
    return [r[n:] for r in rows]


def maximal_minor_gcd(mat: Sequence[Sequence[int]]) -> int:
    """gcd of all k x k minors of a k x n integer matrix (k <= n)."""
    rows = [list(r) for r in mat]
    k = len(rows)
    if k == 0:
        return 1
    n = len(rows[0])
    if k > n:
        return 0
    from itertools import combinations

    g = 0
    for cols in combinations(range(n), k):
        minor = det_int([[row[c] for c in cols] for row in rows])
        g = gcd(g, minor)
        if g == 1:
            return 1
    return g


def spans_unimodularly(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the vectors are a basis of the saturation of their span."""
    vectors = list(vectors)
    if not vectors:
        return True
    if len(hnf_basis(vectors)) != len(vectors):
        return False
    return maximal_minor_gcd(vectors) == 1


def saturate(generators: Sequence[Sequence[int]], rank: int) -> list[tuple[int, ...]]:
    """HNF basis of the saturation Z^rank ∩ span_Q(generators)."""
    gens = [list(g) for g in generators if any(g)]
    if not gens:
        return []
    perp = kernel_basis_int(gens)
    if not perp:
        return [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    return [tuple(v) for v in hnf_basis(kernel_basis_int(perp))]


def quotient_presentation(
    tangent: Sequence[Sequence[int]], ambient_rank: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Deterministic presentation of N/N_delta for a saturated sublattice.

    tangent holds basis rows of the sublattice.  Returns (P, S): P has
    (ambient_rank - k) rows and P: Z^n -> Z^(n-k) is surjective with kernel
    exactly the sublattice; S is an integer section with P . S = I, given
    as rows of length n (one per quotient coordinate).
    """
    k = len(tangent)
    m = ambient_rank - k
    if k == 0:
        eye = [tuple(1 if i == j else 0 for j in range(ambient_rank)) for i in range(ambient_rank)]
        return eye, eye
    if m == 0:
        return [], []
    p_rows = kernel_basis_int(tangent)
    if len(p_rows) != m:
        raise ValueError("tangent rows are not independent")
    # Section: row-HNF of P^T yields R with R . P^T = [I; 0]; the first m
    # rows of R transpose to a section because the kernel lattice is
    # saturated, so the Hermite block is the identity.
    p_t = [[p_rows[i][j] for i in range(m)] for j in range(ambient_rank)]
    h, transform = row_hnf(p_t)
    for i in range(m):
        if h[i][i] != 1 or any(h[i][j] != (1 if j == i else 0) for j in range(m)):
            raise ValueError("quotient presentation failed; sublattice not saturated?")
    section = [tuple(transform[i]) for i in range(m)]
    return [tuple(r) for r in p_rows], section


def apply_rows(rows: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple[int, ...]:
    """Matrix-vector product where the matrix is given by rows."""
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)
