import random
from fractions import Fraction

import pytest

from cochains import identity
from trophodge import NotASubspaceError
from trophodge.linalg import (
    Echelon,
    RationalMatrix,
    Subspace,
    fmt_rat,
    normal,
    kernel_basis,
    rank,
    rat,
    solve,
    quotient_dim,
)

F = Fraction


def dense(m: RationalMatrix) -> list[list]:
    return [m.row(i) for i in range(m.rows)]


def naive_rank(rows):
    """Independent oracle: plain Gauss-Jordan over Fractions."""
    rows = [list(map(F, r)) for r in rows]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_identity():
    assert rank(identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(RationalMatrix(3, 4)) == 0


def test_rank_dependent_rows():
    assert rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(identity(3)).basis == ()


def test_kernel_sum_vector():
    kb = kernel_basis(RationalMatrix.from_rows([[1, 1, 1]]))
    assert kb.dim == 2
    for v in kb.basis:
        assert sum(v) == 0


def test_kernel_zero_matrix_full():
    assert kernel_basis(RationalMatrix(2, 3)).dim == 3


def test_solve_identity():
    x = solve(identity(3), [1, 2, 3])
    assert x == [F(1), F(2), F(3)]


def test_solve_pivot_rule():
    assert solve(RationalMatrix.from_rows([[1, 1]]), [2]) == [F(2), F(0)]


def test_solve_inconsistent():
    assert solve(RationalMatrix.from_rows([[0]]), [1]) is None


def test_quotient_dim_examples():
    e = lambda i: tuple(F(1 if j == i else 0) for j in range(3))
    v3 = Subspace(3, (e(0), e(1), e(2)))
    assert quotient_dim(v3, Subspace(3, (e(0),))) == 2
    assert quotient_dim(v3, v3) == 0
    v2 = Subspace(2, ((F(1), F(0)), (F(0), F(1))))
    diag = Subspace(2, ((F(1), F(1)),))
    assert quotient_dim(v2, diag) == 1


def test_quotient_dim_rejects_non_subspace():
    amb = Subspace(2, ((F(1), F(0)),))
    sub = Subspace(2, ((F(0), F(1)),))
    with pytest.raises(NotASubspaceError):
        quotient_dim(amb, sub)


def test_rank_plus_nullity():
    rng = random.Random(42)
    for _ in range(50):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)])
        assert rank(m) + kernel_basis(m).dim == nc


def test_solve_is_exact():
    rng = random.Random(7)
    for _ in range(50):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-4, 4)) for _ in range(nc)] for _ in range(nr)]
        m = RationalMatrix.from_rows(rows)
        target = m.mul_vec([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nc)])
        x = solve(m, target)
        assert x is not None
        assert m.mul_vec(x) == target


def test_rank_invariant_under_row_permutation_and_scaling():
    rng = random.Random(2024)
    for _ in range(40):
        nr, nc = rng.randint(2, 6), rng.randint(2, 6)
        rows = [[F(rng.randint(-5, 5)) for _ in range(nc)] for _ in range(nr)]
        base = rank(RationalMatrix.from_rows(rows))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [[F(rng.choice([1, 2, -3, 5])) * x for x in row] for row in shuffled]
        assert rank(RationalMatrix.from_rows(scaled)) == base
        assert base == naive_rank(rows)


def test_rank_agrees_with_naive_oracle():
    rng = random.Random(11)
    for _ in range(100):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
        assert rank(RationalMatrix.from_rows(rows)) == naive_rank(rows)


def test_sparse_path_wide_matrix():
    # One more wide, sparse input for the elimination kernel.
    rng = random.Random(3)
    nc = 70
    rows = []
    for i in range(8):
        row = [0] * nc
        for _ in range(5):
            row[rng.randrange(nc)] = rng.randint(-3, 3)
        rows.append(row)
    m = RationalMatrix.from_rows(rows)
    assert rank(m) == naive_rank(rows)
    assert rank(m) + kernel_basis(m).dim == nc


def test_rational_serialization():
    assert fmt_rat(rat("3/6")) == "1/2"
    assert fmt_rat(rat(5)) == "5"
    assert rat("-7/2") == F(-7, 2)


def random_rows(rng, nr, nc):
    """Sparse random rationals with a zero row and a zero column when there is room."""
    rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
             for _ in range(nc)] for _ in range(nr)]
    if nr > 2:
        rows[rng.randrange(nr)] = [F(0)] * nc
    if nc > 2:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = F(0)
    if nr > 3:  # a dependent row, so that the rank drops below min(nr, nc)
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    return rows


def matrix(rows, nc):
    m = RationalMatrix(len(rows), nc)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = v
    return m


SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (12, 40), (16, 80), (80, 16)]


@pytest.mark.parametrize("nr,nc", SHAPES)
def test_rank_kernel_solve_against_oracle(nr, nc):
    rng = random.Random(nr * 1000 + nc)
    for _ in range(3):
        rows = random_rows(rng, nr, nc)
        m = matrix(rows, nc)
        r = naive_rank(rows)
        assert rank(m) == r
        kern = kernel_basis(m).basis
        assert len(kern) == nc - r
        free = []
        for v in kern:
            assert all(x == 0 for x in m.mul_vec(v))
            f = max(j for j, x in enumerate(v) if x != 0)
            assert v[f] == 1
            free.append(f)
        # Canonical: each vector is 0 on the other free columns, and the
        # remaining columns are independent, so they are m's pivot columns.
        assert len(set(free)) == len(free)
        for v, f in zip(kern, free):
            assert all(v[g] == 0 for g in free if g != f)
        pivots = [j for j in range(nc) if j not in free]
        assert naive_rank([[row[j] for j in pivots] for row in rows]) == len(pivots) == r

        b = m.mul_vec([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nc)])
        x = solve(m, b)
        assert m.mul_vec(x) == b
        assert all(x[f] == 0 for f in free)
        b = [F(rng.randint(-3, 3)) for _ in range(nr)]
        consistent = naive_rank([row + [bi] for row, bi in zip(rows, b)]) == r
        x = solve(m, b)
        assert (x is not None) == consistent
        if x is not None:
            assert m.mul_vec(x) == b and all(x[f] == 0 for f in free)


@pytest.mark.parametrize("nr,nc", SHAPES)
def test_quotient_coordinates_round_trip(nr, nc):
    """Rows added without a key span B; keyed rows that are independent
    modulo B are a quotient basis, and the coordinates of any combination
    of them plus a vector of B are its coefficients on that basis."""
    rng = random.Random(7 * nr + nc)
    brows = random_rows(rng, nr // 2, nc)
    zrows = random_rows(rng, nr, nc)
    e = Echelon(keyed=True)
    for r in brows:
        e.add(r)
    kept = [i for i, r in enumerate(zrows) if e.add(r, i)]
    assert len(kept) == naive_rank(brows + zrows) - naive_rank(brows)
    coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in kept]
    vec = [F(0)] * nc
    for c, i in zip(coeffs, kept):
        vec = [a + c * b for a, b in zip(vec, zrows[i])]
    for r in brows:
        c = F(rng.randint(-2, 2))
        vec = [a + c * b for a, b in zip(vec, r)]
    assert e.coordinates(vec, kept) == coeffs
    # A nonzero w with (B + Z).w = 0 is outside the row space, since w.w > 0.
    for w in kernel_basis(matrix(brows + zrows, nc)).basis[:1]:
        assert e.coordinates(w, kept) is None


def normalised(values) -> bool:
    """Every value is an int, or a Fraction that is not integral (never a float)."""
    return all(type(v) is int or (type(v) is F and v.denominator != 1) for v in values)


def test_integral_entries_are_stored_as_int():
    m = RationalMatrix(2, 3)
    m[0, 0], m[0, 1], m[1, 2] = F(4, 2), F(1, 2), "-6/3"
    assert type(m[0, 0]) is int and m[0, 0] == 2
    assert type(m[0, 1]) is F and m[0, 1] == F(1, 2)
    assert type(m[1, 2]) is int and m[1, 2] == -2
    assert normalised(RationalMatrix.from_rows([[F(3, 3), F(2, 4)], [F(0), -1]]).entries.values())
    assert all(type(v) is int for v in identity(3).entries.values())
    m = RationalMatrix.from_columns(2, [[F(6, 3), F(1, 2)], [F(0), -1]])
    assert normalised(m.entries.values()) and type(m[0, 0]) is int and m[0, 0] == 2
    assert (0, 1) not in m.entries and dense(m) == [[2, 0], [F(1, 2), -1]]


@pytest.mark.parametrize("seed", range(10))
def test_from_columns_matches_an_entrywise_build(seed):
    rng = random.Random(seed)

    def value():  # an int, a Fraction, an integral Fraction, or zero
        return rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), rng.randint(1, 3)),
                           F(2 * rng.randint(-2, 2), 2), 0, F(0)])

    nr, nc = rng.randint(0, 5), rng.randint(0, 5)
    columns = [[value() for _ in range(nr)] for _ in range(nc)]
    expected = RationalMatrix(nr, nc)
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            expected[i, j] = v
    got = RationalMatrix.from_columns(nr, columns)
    assert got == expected and (got.rows, got.cols) == (nr, nc)
    assert normalised(got.entries.values())


def test_from_columns_of_empty_columns_and_of_no_columns():
    m = RationalMatrix.from_columns(0, [[], [], []])
    assert (m.rows, m.cols, m.entries) == (0, 3, {})
    m = RationalMatrix.from_columns(4, [])
    assert (m.rows, m.cols, m.entries) == (4, 0, {})
    with pytest.raises(ValueError):
        RationalMatrix.from_columns(2, [[1, 2], [3]])


def test_submatrix_keeps_the_listed_order_and_drops_the_rest():
    m = RationalMatrix.from_rows([[1, 0, F(1, 2)], [0, 5, 6], [7, 8, 0]])
    sub = m.submatrix([2, 0], [2, 0, 1])
    assert dense(sub) == [[0, 7, 8], [F(1, 2), 1, 0]]
    assert sub.entries == {(0, 1): 7, (0, 2): 8, (1, 0): F(1, 2), (1, 1): 1}
    assert dense(m.submatrix([1], [1])) == [[5]]
    for rows, cols in (([], [0, 1]), ([1, 2], []), ([], [])):
        empty = m.submatrix(rows, cols)
        assert (empty.rows, empty.cols, empty.entries) == (len(rows), len(cols), {})


def fraction_solve(rows, b, nc):
    """Oracle: Gauss-Jordan over Fractions on [rows | b], free variables 0;
    None when the system is inconsistent."""
    aug = [[F(x) for x in row] + [F(bi)] for row, bi in zip(rows, b)]
    pivots = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                aug[i] = [a - aug[i][c] * p for a, p in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[-1] != 0 for row in aug[len(pivots):]):
        return None
    x = [F(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][-1]
    return x


# Hand-made inputs besides the seeded ones: a product whose entries cancel
# to 0 (an int and a Fraction term among them), and one whose Fraction sums
# are integral.
MIXED_INPUTS = {
    "cancelling": ([[1, F(1, 2)], [2, -1]], [[1, 1], [-2, 2]], [F(1, 2), 1]),
    "integral": ([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]], [[1, F(3, 2)], [1, F(1, 2)]], [F(1, 3), F(2, 3)]),
}


@pytest.mark.parametrize("seed", [*range(10), *MIXED_INPUTS])
def test_mixed_int_and_fraction_input_matches_fraction_oracle(seed):
    rng = random.Random(seed)

    def value():  # an int, a Fraction, or an integral Fraction
        return rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), rng.randint(1, 3)),
                           F(2 * rng.randint(-2, 2), 2)])

    if seed in MIXED_INPUTS:
        a, b, v = MIXED_INPUTS[seed]
        nr, nc, nk = len(a), len(b), len(b[0])
    else:
        nr, nc, nk = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        a = [[value() for _ in range(nc)] for _ in range(nr)]
        b = [[value() for _ in range(nk)] for _ in range(nc)]
        v = [value() for _ in range(nc)]
    fa, fb, fv = [list(map(F, row)) for row in a], [list(map(F, row)) for row in b], list(map(F, v))
    m = RationalMatrix.from_rows(a)
    assert normalised(m.entries.values())

    product = m.matmul(RationalMatrix.from_rows(b))
    assert normalised(product.entries.values())
    if seed == "cancelling":
        assert sorted(product.entries) == [(0, 1), (1, 0)]
    if seed == "integral":
        assert product.entries == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): F(5, 6)}
        assert all(type(product.entries[key]) is int for key in [(0, 0), (0, 1), (1, 0)])
    assert dense(product) == [[sum((fa[i][j] * fb[j][k] for j in range(nc)), F(0))
                               for k in range(nk)] for i in range(nr)]
    mv = m.mul_vec(v)
    assert mv == [sum((fa[i][j] * fv[j] for j in range(nc)), F(0)) for i in range(nr)]

    for rhs in (mv, [value() for _ in range(nr)]):
        x = solve(m, rhs)
        assert x == fraction_solve(fa, rhs, nc)
        assert x is None or normalised(x)

    # Coordinates over the rows kept by the echelon (each independent of
    # the rows before it) are the coefficients a combination was made with.
    kept = [i for i in range(nr) if naive_rank(fa[:i + 1]) > naive_rank(fa[:i])]
    coeffs = {i: value() for i in kept}
    target = [sum((F(c) * fa[i][j] for i, c in coeffs.items()), F(0)) for j in range(nc)]
    coords = Echelon(a, keyed=True).coordinates(target, range(nr))
    assert coords == [coeffs.get(i, 0) for i in range(nr)]
    assert normalised(coords)


# ---------------------------------------------------------------------------
# The lazy echelon against the eager one it replaced

class EagerEchelon:
    """The echelon as it was before its combinations were expanded on first
    read: each add computes its combination or relation at once."""

    def __init__(self, rows=(), keyed=False):
        self.pivots, self.relations = {}, []
        self.combos = {} if keyed else None
        for i, row in enumerate(rows):
            self.add(row, i if keyed else None)

    def copy(self, keyed=None):
        out = EagerEchelon(keyed=self.combos is not None if keyed is None else keyed)
        out.pivots = dict(self.pivots)
        if keyed is None and self.combos is not None:
            out.combos, out.relations = dict(self.combos), list(self.relations)
        elif keyed:
            out.combos = dict.fromkeys(self.pivots, {})
        return out

    def _eliminate(self, row, rem=None):
        mult = {}
        while row:
            lead = min(row)
            prow = self.pivots.get(lead)
            if prow is None:
                if rem is None:
                    break
                rem[lead] = row.pop(lead)
                continue
            c = mult[lead] = row[lead]
            for j, v in prow.items():
                x = row.get(j, 0) - c * v
                if x:
                    row[j] = x
                else:
                    del row[j]
        return mult

    def _combination(self, mult):
        out = {}
        for lead, c in mult.items():
            for k, v in self.combos[lead].items():
                out[k] = out.get(k, 0) + c * v
        return out

    @staticmethod
    def _sparse(row):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        return {j: normal(v) for j, v in items if v}

    def add(self, row, key=None):
        row = self._sparse(row)
        mult = self._eliminate(row)
        combo = None
        if self.combos is not None:
            combo = {k: -normal(v) for k, v in self._combination(mult).items() if v}
            if key is not None:
                combo[key] = 1
        if not row:
            if combo is not None and key is not None:
                self.relations.append((key, combo))
            return False
        lead = min(row)
        inv = row[lead]
        if inv == -1:
            row = {j: -v for j, v in row.items()}
            if combo is not None:
                combo = {k: -v for k, v in combo.items()}
        elif inv != 1:
            inv = F(inv)
            row = {j: normal(v / inv) for j, v in row.items()}
            if combo is not None:
                combo = {k: normal(v / inv) for k, v in combo.items()}
        self.pivots[lead] = row
        if combo is not None:
            self.combos[lead] = combo
        return True

    def coordinates(self, row, keys):
        rem = {}
        mult = self._eliminate(self._sparse(row), rem)
        if rem:
            return None
        combo = self._combination(mult)
        return [normal(combo.get(k, 0)) for k in keys]


def _echelon_rows(rng, nc):
    """Seeded rows for the lazy/eager comparison: sparse ints and Fractions
    with leads other than +-1, zero rows, repeats, negations, scalings and
    sums of earlier rows, dense or as dicts."""
    rows = []
    for _ in range(rng.randint(4, 14)):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = [0] * nc if kind < 0.05 else \
                [rng.choice([0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(4, 2)]) for _ in range(nc)]
        elif kind < 0.2:
            row = list(rng.choice(rows))
        elif kind < 0.3:
            c = rng.choice([-1, 2, F(1, 3), F(-3, 2)])
            row = [c * v for v in rng.choice(rows)]
        elif kind < 0.45:
            a, b = rng.choice(rows), rng.choice(rows)
            row = [x + rng.choice([1, -2, F(1, 2)]) * y for x, y in zip(a, b)]
        else:
            row = [rng.choice([0, 0, 0, 1, -1, 2, -5, F(1, 2), F(-7, 3)]) for _ in range(nc)]
        rows.append(row)
    return [{j: v for j, v in enumerate(r) if v} if rng.random() < 0.3 else r for r in rows]


def _typed(x):
    """A structure with every value tagged by its type, so that an int and
    an equal Fraction differ, and dict order counts."""
    if isinstance(x, dict):
        return [(k, _typed(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_typed(v) for v in x]
    return type(x).__name__, x


def _same_echelons(lazy, eager):
    assert _typed(lazy.pivots) == _typed(eager.pivots)
    assert lazy.rank == len(eager.pivots)
    assert _typed(lazy.combos) == _typed(eager.combos)
    assert _typed(lazy.relations) == _typed(eager.relations)


@pytest.mark.parametrize("seed", range(40))
def test_lazy_echelon_matches_the_eager_oracle(seed):
    rng = random.Random(seed)
    nc = rng.randint(1, 7)
    keyed = seed % 4 != 3
    pairs = [(Echelon(keyed=keyed), EagerEchelon(keyed=keyed))]
    for step, row in enumerate(_echelon_rows(rng, nc)):
        # Keyed rows with unkeyed ones between them, on every echelon made so far.
        key = step if keyed and rng.random() < 0.75 else None
        for lazy, eager in pairs:
            assert lazy.add(dict(row) if isinstance(row, dict) else row, key) == eager.add(row, key)
        lazy, eager = rng.choice(pairs)
        action = rng.random()
        if action < 0.2:  # read between adds
            _same_echelons(lazy, eager)
        elif action < 0.4:
            target = [rng.choice([0, 1, -2, F(1, 2)]) for _ in range(nc)]
            keys = range(step + 1)
            if lazy.combos is not None:
                assert _typed(lazy.coordinates(target, keys)) == _typed(eager.coordinates(target, keys))
        elif action < 0.55 and len(pairs) < 4:
            copy_keyed = rng.choice([None, True, False])
            pairs.append((lazy.copy(copy_keyed), eager.copy(copy_keyed)))
    for lazy, eager in pairs:
        _same_echelons(lazy, eager)
        for _ in range(3):
            combo = [rng.choice([0, 1, F(-1, 2), 3]) for _ in lazy.pivots]
            target = [sum((c * row.get(j, 0) for c, row in zip(combo, lazy.pivots.values())), 0)
                      for j in range(nc)]
            if lazy.combos is not None:
                keys = sorted({k for c in lazy.combos.values() for k in c})
                assert _typed(lazy.coordinates(target, keys)) == _typed(eager.coordinates(target, keys))


def test_a_rank_read_expands_nothing(tmp_path, capsys, monkeypatch):
    # `trophodge cohomology` reads only ranks of the cellular differentials,
    # so no combination of any echelon's kept rows is ever formed.
    import json

    from conftest import grid_plane
    from trophodge.cli import main
    from trophodge.polyhedral import complex_to_json

    calls = []
    original = Echelon._combination

    def counting(self, mult):
        calls.append(len(mult))
        return original(self, mult)

    monkeypatch.setattr(Echelon, "_combination", counting)
    path = tmp_path / "grid2.json"
    path.write_text(json.dumps(complex_to_json(grid_plane(2))))
    assert main(["cohomology", str(path)]) == 0
    numbers = json.loads(capsys.readouterr().out)["hodge_numbers"]
    assert numbers == {f"h^{p},{q}": int(p == q) + (p == q == 1) for p in range(3) for q in range(3)}
    assert calls == []
