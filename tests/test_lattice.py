import random

from trophodge.lattice import (
    det_int,
    gram_adjugate,
    hnf_basis,
    kernel_basis_int,
    maximal_minor_gcd,
    primitive,
    quotient_presentation,
    row_hnf,
    saturate,
    spans_unimodularly,
    apply_rows,
)


def test_primitive():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    assert primitive((0, 5)) == (0, 1)


def test_row_hnf_transform_is_unimodular():
    rng = random.Random(9)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        h, t = row_hnf(mat)
        assert abs(det_int(t)) == 1
        for i in range(n):
            row = [sum(t[i][k] * mat[k][j] for k in range(n)) for j in range(m)]
            assert row == h[i]


def _row_hnf_oracle(mat):
    """The row Hermite form as it was written before, with the transform
    carried in a separate matrix beside the rows."""
    rows = [list(map(int, r)) for r in mat]
    n = len(rows)
    cols = len(rows[0]) if n else 0
    transform = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def addmul(dst, src, q):
        rows[dst] = [a - q * b for a, b in zip(rows[dst], rows[src])]
        transform[dst] = [a - q * b for a, b in zip(transform[dst], transform[src])]

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        transform[i], transform[j] = transform[j], transform[i]

    def negate(i):
        rows[i] = [-a for a in rows[i]]
        transform[i] = [-a for a in transform[i]]

    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, n) if rows[i][c] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if best != r:
                swap(r, best)
            done = True
            for i in range(r + 1, n):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    addmul(i, r, q)
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < n and rows[r][c] != 0:
            if rows[r][c] < 0:
                negate(r)
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    addmul(i, r, q)
            r += 1
            if r == n:
                break
    return rows, transform


def test_one_hermite_elimination_matches_separate_transform():
    # row_hnf carries its transform as appended columns and hnf_basis carries
    # none; both must give the Hermite rows (and row_hnf the transform) of
    # the elimination that kept the transform beside the rows.
    rng = random.Random(1515)
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((1, 3, 9))
        mat = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
        h, t = _row_hnf_oracle(mat)
        assert row_hnf(mat) == (h, t), mat
        assert hnf_basis(mat) == [tuple(r) for r in h if any(r)], mat
    assert row_hnf([]) == ([], [])


def test_integer_kernel_is_saturated():
    kb = kernel_basis_int([[1, 1, 1]])
    assert len(kb) == 2
    for v in kb:
        assert sum(v) == 0
    # (2,2) is in the rational kernel of [[1,-1]] scaled; basis must contain (1,1)
    kb2 = kernel_basis_int([[2, -2]])
    assert kb2 == [(1, 1)] or kb2 == [(-1, -1)]


def test_quotient_presentation_section():
    p, s = quotient_presentation([[1, 2, 3]], 3)
    assert len(p) == 2 and len(s) == 2
    for i in range(2):
        img = apply_rows(p, s[i])
        assert img == tuple(1 if j == i else 0 for j in range(2))
    assert apply_rows(p, (1, 2, 3)) == (0, 0)


def test_saturate():
    assert saturate([[2, 0]], 2) == [(1, 0)]
    assert saturate([[1, 1], [1, -1]], 2) == [(1, 0), (0, 1)]


def test_unimodular_span():
    assert spans_unimodularly([[1, 0, 0], [0, 1, 1]])
    assert not spans_unimodularly([[2, 0], [0, 1]])
    assert not spans_unimodularly([[1, 0], [1, 0]])
    assert maximal_minor_gcd([[1, 0, 2], [0, 1, 5]]) == 1


def test_hnf_basis_canonical():
    b1 = hnf_basis([[1, 2], [0, 3]])
    b2 = hnf_basis([[1, 5], [0, 3]])
    assert b1 == b2  # same lattice, same canonical basis


def test_gram_adjugate_matches_cofactors():
    # adj(A)[i][j] is the (j, i) cofactor of A; dependent rows give None.
    rng = random.Random(12)
    kinds = set()
    for _ in range(300):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        gram = [[sum(a * b for a, b in zip(r, c)) for c in g] for r in g]
        det = det_int(gram)
        got = gram_adjugate(gram)
        kinds.add(det > 0)
        if det == 0:
            assert got is None
            continue
        minor = lambda i, j: [r[:j] + r[j + 1:] for m, r in enumerate(gram) if m != i]
        assert got == [[(-1) ** (i + j) * det_int(minor(j, i)) for j in range(k)] for i in range(k)]
        assert all(sum(got[i][m] * gram[m][j] for m in range(k)) == (det if i == j else 0)
                   for i in range(k) for j in range(k))
    assert kinds == {True, False}
