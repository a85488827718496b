"""Exact linear algebra over the rationals.

Every elimination in the package runs through one kernel, `Echelon`: a row
echelon form over Q grown one sparse row at a time, with one deterministic
pivot rule (a row is reduced on its leading column by the rows kept before
it, in the order given).  Rank, kernel bases, particular solutions, in-span
and quotient coordinates are all read from it.  Results do not depend on
the elimination order: kernel vectors are the canonical ones (1 on their
free column, 0 on the others) and solutions set every free variable to 0.
All results are exact; there is no tolerance anywhere.  What an echelon
tracks of its keyed rows (their combinations and relations) is expanded on
first read, so an echelon read only for its rank costs its elimination.

An integral value is held as an int, and a Fraction only where a division
made a non-integral one: matrix entries, kept rows, coordinates and kernel
vectors are normalised that way, so integer data stays in int arithmetic.

The matrix of a linear map is built in one place, `RationalMatrix.from_columns`,
from the coordinates of the images of the source basis, one column each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

from . import NotASubspaceError

Rational = Union[int, Fraction]
Row = dict[int, Rational]


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction, or a "p/q" / "p" string."""
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def normal(value: Rational) -> Rational:
    """value as an int when it is integral, else the Fraction it is."""
    return value if type(value) is int or value.denominator != 1 else value.numerator


def fmt_rat(value: Rational) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


class RationalMatrix:
    """A rows x cols matrix over Q with sparse entry storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Rational] = {}

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = cls(rows, cols)
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                m[i, j] = v
        return m

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence]) -> "RationalMatrix":
        """The matrix with the given dense columns, each of length rows; only
        their nonzero entries are stored, normalised."""
        m = cls(rows, len(columns))
        entries = m.entries
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError(f"column {j} has length {len(col)}, not {rows}")
            for i, v in enumerate(col):
                if v:
                    entries[i, j] = normal(v)
        return m

    def __getitem__(self, key) -> Rational:
        return self.entries.get(key, 0)

    def __setitem__(self, key, value) -> None:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {key} out of bounds for {self.rows}x{self.cols}")
        v = value if type(value) is int else normal(rat(value))
        if v == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = v

    def row(self, i: int) -> list[Rational]:
        get = self.entries.get
        return [get((i, j), 0) for j in range(self.cols)]

    def columns(self) -> list[Row]:
        """Every column as a sparse {row: value} dict, from one pass over the entries."""
        cols: list[Row] = [{} for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RationalMatrix":
        """The entries at the listed (distinct) rows and columns, in the order listed."""
        at_row = {r: i for i, r in enumerate(rows)}
        at_col = {c: j for j, c in enumerate(cols)}
        out = RationalMatrix(len(rows), len(cols))
        for (r, c), v in self.entries.items():
            if r in at_row and c in at_col:
                out.entries[at_row[r], at_col[c]] = v
        return out

    def transpose(self) -> "RationalMatrix":
        t = RationalMatrix(self.cols, self.rows)
        for (i, j), v in self.entries.items():
            t.entries[(j, i)] = v
        return t

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row: dict[int, Row] = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, {})[k] = v
        acc: dict[int, Row] = {}
        for (i, j), v in self.entries.items():
            w_row = by_row.get(j)
            if w_row:
                out_row = acc.setdefault(i, {})
                for k, w in w_row.items():
                    out_row[k] = out_row.get(k, 0) + v * w
        out = RationalMatrix(self.rows, other.cols)
        out.entries = {(i, k): normal(v) for i, out_row in acc.items()
                       for k, v in out_row.items() if v}
        return out

    def mul_vec(self, vec: Sequence) -> list[Rational]:
        """The product with a vector of int/Fraction values, skipping its zeros."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        nonzero = {j: x for j, x in enumerate(vec) if x}
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            x = nonzero.get(j)
            if x is not None:
                out[i] += v * x
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n given by an independent basis."""

    ambient_dim: int
    basis: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector of wrong length")

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sparse(row: Union[Mapping[int, Rational], Sequence]) -> Row:
    """A fresh {column: value} dict of the nonzero entries of a dict or a
    dense sequence, normalised."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: v if type(v) is int else normal(v) for j, v in items if v}


class Echelon:
    """A row echelon form over Q, grown one sparse row at a time.

    `pivots` maps each leading column to the kept row that has 1 there and
    0 in every column before it.  A row added under a key is tracked: with
    `keyed` set, `combos` gives each kept row as a combination of the keyed
    rows added so far (modulo the rows added without a key), and
    `relations` lists, for each keyed row that was dropped, the combination
    of keyed rows that vanishes because of it.  The rows given to the
    constructor are added in order, keyed by position when `keyed` is set.

    An add only logs the multipliers its elimination produced; `combos` and
    `relations` are expanded from the log, in the order of the adds, when
    first read (by them, `coordinates` or `copy`), so an echelon read only
    for its rank or its kept rows never expands them.
    """

    __slots__ = ("pivots", "_combos", "_relations", "_log")

    def __init__(self, rows: Iterable = (), keyed: bool = False):
        self.pivots: dict[int, Row] = {}
        self._combos: Optional[dict[int, Row]] = {} if keyed else None
        self._relations: list[tuple[Hashable, Row]] = []
        self._log: list[tuple[Optional[int], Optional[Hashable], Row, Rational]] = []
        for i, row in enumerate(rows):
            self.add(row, i if keyed else None)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def combos(self) -> Optional[dict[int, Row]]:
        return self._expand()._combos

    @property
    def relations(self) -> list[tuple[Hashable, Row]]:
        return self._expand()._relations

    def _expand(self) -> "Echelon":
        """Turn the logged adds into combinations and relations, in order:
        each add's combination is minus the multipliers' combination of the
        kept rows it was reduced by, plus its key, over its lead entry."""
        for lead, key, mult, inv in self._log:
            combo = {k: -normal(v) for k, v in self._combination(mult).items() if v}
            if key is not None:
                combo[key] = 1
            if lead is None:
                self._relations.append((key, combo))
                continue
            if inv == -1:  # negation keeps integral entries ints
                combo = {k: -v for k, v in combo.items()}
            elif inv != 1:  # the Fraction `add` divided the row by
                combo = {k: normal(v / inv) for k, v in combo.items()}
            self._combos[lead] = combo
        self._log.clear()
        return self

    def copy(self, keyed: Optional[bool] = None) -> "Echelon":
        """A new echelon that starts from this one's kept rows (shared: no add
        changes a kept row).  With keyed None it copies the combinations and
        relations too; keyed True or False holds the kept rows as unkeyed."""
        out = Echelon(keyed=self._combos is not None if keyed is None else keyed)
        out.pivots = dict(self.pivots)
        if keyed is None and self._combos is not None:
            out._combos, out._relations = dict(self.combos), list(self._relations)
        elif keyed:
            out._combos = dict.fromkeys(self.pivots, {})  # combos are replaced, never changed
        return out

    def _eliminate(self, row: Row, rem: Optional[Row] = None) -> Row:
        """Subtract kept rows from row, in place, while its leading column
        holds a pivot; returns the multiplier used at each pivot column (its
        lead entry).  With rem given, a leading entry without a pivot moves
        into rem and elimination goes on, so that row ends empty."""
        pivots = self.pivots
        mult: Row = {}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                if rem is None:
                    break
                rem[lead] = row.pop(lead)
                continue
            c = mult[lead] = row.pop(lead)
            for j, v in prow.items():
                if j != lead:
                    x = row.get(j, 0) - c * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        return mult

    def _combination(self, mult: Mapping[int, Rational]) -> Row:
        """The keyed-row coefficients of the sum of mult[c] times the row kept at c."""
        out: Row = {}
        for lead, c in mult.items():
            for k, v in self._combos[lead].items():
                out[k] = out.get(k, 0) + c * v
        return out

    def add(self, row, key: Optional[Hashable] = None) -> bool:
        """Reduce row and keep it when it is independent of the kept rows."""
        row = _sparse(row)
        mult = self._eliminate(row)
        if not row:
            if key is not None and self._combos is not None:
                self._log.append((None, key, mult, 1))
            return False
        lead = min(row)
        inv = row[lead]
        if inv == -1:  # negation keeps integral entries ints
            row = {j: -v for j, v in row.items()}
        elif inv != 1:
            inv = Fraction(inv)  # a Fraction operand: `/` never makes a float
            row = {j: normal(v / inv) for j, v in row.items()}
        self.pivots[lead] = row
        if self._combos is not None:
            self._log.append((lead, key, mult, inv))
        return True

    def reduce(self, row) -> tuple[Row, Row]:
        """(remainder, multipliers): row is the remainder plus the sum of
        multipliers[c] times the row kept at c, and the remainder is 0 in
        every pivot column.  The remainder is empty exactly when row lies in
        the span of the kept rows."""
        rem: Row = {}
        mult = self._eliminate(_sparse(row), rem)
        return rem, mult

    def coordinates(self, row, keys: Iterable[Hashable]) -> Optional[list[Rational]]:
        """Coefficients of row over the keyed rows listed, modulo the rows
        added without a key; None when row is outside the span."""
        rem, mult = self.reduce(row)
        if rem:
            return None
        self._expand()
        combo = self._combination(mult)
        return [normal(combo.get(k, 0)) for k in keys]


def column_echelon(m: RationalMatrix, keyed: bool = True) -> Echelon:
    """The echelon of m's columns, added left to right with column j keyed
    by j.  Its kept keys are the pivot columns of m, its relations the
    canonical kernel of m, and its coordinates solve m.x = b."""
    return Echelon(m.columns(), keyed)


def kernel_vectors(e: Echelon, n: int) -> tuple[tuple[Rational, ...], ...]:
    """The relations of a column echelon as dense vectors of length n."""
    return tuple(tuple(combo.get(j, 0) for j in range(n)) for _, combo in e.relations)


def rank(m: RationalMatrix) -> int:
    """Rank over Q."""
    return column_echelon(m, keyed=False).rank


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Basis of the right kernel {x : m.x = 0}, one vector per free column
    with 1 there and 0 on the other free columns; dim = cols - rank."""
    return Subspace(m.cols, kernel_vectors(column_echelon(m), m.cols))


def solve(m: RationalMatrix, b: Sequence) -> Optional[list[Rational]]:
    """The solution of m.x = b with every free variable 0, or None when
    the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    return column_echelon(m).coordinates(b, range(m.cols))


def quotient_dim(ambient: Subspace, sub: Subspace) -> int:
    """dim(ambient) - dim(sub), after checking sub is contained in ambient."""
    if ambient.ambient_dim != sub.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    if sub.dim and Echelon(ambient.basis + sub.basis).rank != ambient.dim:
        raise NotASubspaceError("sub is not contained in ambient")
    return ambient.dim - sub.dim


def row_space_rank(rows: Iterable[Sequence]) -> int:
    return Echelon(rows).rank


def in_span(vectors: Sequence[Sequence], target: Sequence) -> bool:
    """Whether target lies in the span of the given vectors."""
    return not Echelon(vectors).reduce(target)[0]
