"""Exact linear algebra over the rationals.

Every scalar is exact and has one canonical form, decided by `exact`: an
`int` when the value is integral, otherwise a `fractions.Fraction` whose
denominator is greater than 1.  Never a float, and never an integral
`Fraction`.  Integer matrices, which are most of them, therefore run on
Python's native integer arithmetic, and `Fraction` arithmetic appears only
once a denominator does.  Equality and hashing do not see the difference
(``3 == Fraction(3)`` and ``hash(3) == hash(Fraction(3))``).

Every rank, kernel, image, quotient, and solve is computed by Gaussian
elimination with no rounding anywhere.  Elimination runs over the integers:
each working row is a copy of a stored row scaled to integer entries, and
every update is in place.  Under a pivot whose lead is 1 a row loses a
multiple of the pivot row; under a larger lead it becomes an integer
combination of the two with its content divided out.  Every entry is divided
by its pivot's lead once, at the end.  The rows enter one at a time, and
each is reduced by the pivot row of its leading column until no pivot row
leads there; then it becomes one.  The pivot rows span the row space and
lead in distinct columns, so those columns are the pivots of rational
elimination, and clearing above them gives the reduced row echelon form,
which is unique: whatever order the rows enter in, pivots and form are
those of rational elimination.  The forward pass alone fixes the pivots, so
`rank` stops there; everything else also clears above them.

A matrix memoizes its elimination and its transpose, each computed at most
once, in private slots, and so are its `kernel_basis` and `image_basis`.
`rref`, `kernel_basis`, `image_basis`, `solve` and `quotient_with_section`
(through the memoized transpose) read the one elimination and never mutate
it; `rank` reads it when it is there and runs the forward pass alone
otherwise.  A transpose keeps no reference back to its source, so the memo
forms no reference cycle, except that two shared empty matrices (below) may
be each other's transpose.  Equality and hashing read the entries only, never
the memo.

Matrices are immutable and stored as sparse rows: one ``{column: value}``
dict per row, with ascending columns, no zeros and canonical scalars.  The
face, coface and coend matrices of this package are mostly empty or +-1, so
every operation costs time in proportion to the nonzeros, not the cells.
Only this module knows that format.  ``from_rows`` (dense rows) and
``from_columns`` (one ``{row: value}`` mapping per column) coerce every
entry with `exact`; everything else, from ``@`` and
``transpose`` to ``rref`` and ``solve``, builds its result through the
private ``RatMatrix._trusted`` from rows it already knows to be canonical.
No stored row is ever mutated, so matrices share rows freely; elimination
works on copies.  ``row``, ``column`` and ``__getitem__`` read the matrix
densely, ``sparse_column`` one column from the memoized transpose, and
``leading_column`` a row's first nonzero column.  Each reader checks the
indices it takes: a row or column outside the matrix, a negative one
included, is an IndexError.

Zero-dimensional matrices (0 x n and n x 0) are legal and denote maps to or
from the zero space; graded computations hit empty degrees all the time.
So a matrix without entries is never built twice: there is one shared
instance per empty shape, held by a bounded cache.  ``zeros`` returns it,
and so does every operation whose result has no entries, from ``@`` and
``transpose`` to ``rref`` and ``solve``.  Sharing is safe because matrices
are immutable and their memo depends on the entries alone.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


def exact(x) -> int | Fraction:
    """The canonical exact scalar equal to ``x``.

    An ``int`` passes through, an integral ``Fraction`` becomes its
    numerator, and anything else goes through ``Fraction(x)`` first, so
    whatever ``Fraction`` rejects is rejected here too.  A ``float`` is a
    ``TypeError``: its binary expansion is not the number that was meant.
    """
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, float):
            raise TypeError(f"{x!r} is a float, not an exact scalar")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# The most characters of an input value that an error message echoes.
ECHO_LIMIT = 60


def echo(text: str) -> str:
    """text as an error message shows it: whole when it is short, else its
    first ECHO_LIMIT characters and an ellipsis, so a huge value in an input
    file still makes one short line."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "…"


# The grammar of a serialized entry: an ASCII integer, optionally over an
# ASCII natural number.  No decimals, exponents, underscores or other digits.
_ENTRY = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational_from_str(s: str) -> int | Fraction:
    """Parse a rational string "p" or "p/q" (ASCII digits, an optional sign
    on p, whitespace around); a bad entry is a ValueError that names it."""
    match = _ENTRY.fullmatch(s.strip()) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"matrix entry {echo(repr(s))} is not a string of the form 'p' or 'p/q'")
    p, q = match.groups()
    try:
        return int(p) if q is None else exact(Fraction(int(p), int(q)))
    except ZeroDivisionError:
        raise ValueError(f"matrix entry {echo(repr(s))} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"matrix entry {echo(repr(s))} is not a rational number") from None


class RatMatrix:
    """Immutable matrix of rationals, stored as sparse rows.

    ``from_rows``, ``from_columns``, ``zeros`` and ``identity`` refuse
    negative dimensions; every other constructor goes through `_trusted`,
    private to this module, which takes canonical rows, mostly by way of
    `_built`, which hands out the shared matrix when no row has an entry.
    ``_elim``, ``_transposed``, ``_kernel`` and ``_image`` memoize the
    elimination, the transpose, `kernel_basis` and `image_basis`; all start
    empty.
    """

    __slots__ = ("rows", "cols", "_sparse", "_elim", "_transposed", "_kernel", "_image")

    @classmethod
    def _trusted(cls, cols: int, rows: Sequence[dict[int, int | Fraction]]) -> "RatMatrix":
        """The matrix with these sparse rows, taken as they are.

        Each row maps column to value with ascending columns, no zeros and
        canonical scalars.  The rows become the matrix's own: nobody may
        mutate them afterwards, so matrices share rows freely.
        """
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = cols
        m._sparse = tuple(rows)
        m._elim = m._transposed = m._kernel = m._image = None
        return m

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "RatMatrix":
        """Dense rows, each entry coerced with `exact`; every row has cols
        entries, by default the first row's length (0 with no rows)."""
        if cols is not None:
            _check_dims(cols)
        sparse = []
        for r in rows:
            if cols is None:
                cols = len(r)
            elif len(r) != cols:
                raise ValueError("ragged rows")
            sparse.append({j: c for j, e in enumerate(r) if (c := e if type(e) is int else exact(e))})
        return _built(cols or 0, sparse)

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[Mapping[int, object]]) -> "RatMatrix":
        """One column per ``{row: value}`` mapping, each value coerced with
        `exact` and zeros dropped; a row outside ``[0, rows)`` is an IndexError."""
        _check_dims(rows)
        out: list[dict[int, int | Fraction]] = [{} for _ in range(rows)]
        cols = 0
        for column in columns:  # left to right, so each row's columns ascend
            for i, e in column.items():
                if not 0 <= i < rows:
                    raise IndexError(f"row {i} outside a matrix of {rows} rows")
                if type(e) is not int:
                    e = exact(e)
                if e:
                    out[i][cols] = e
            cols += 1
        return _built(cols, out)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        _check_dims(rows, cols)
        return _zeros(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        _check_dims(n)
        return _built(n, [{i: 1} for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        i, j = ij
        return self._sparse[self._row_index(i)].get(self._column_index(j), 0)

    def leading_column(self, i: int) -> int | None:
        """The first nonzero column of row i, or None for a zero row."""
        return next(iter(self._sparse[self._row_index(i)]), None)

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        out = [0] * self.cols
        for j, v in self._sparse[self._row_index(i)].items():
            out[j] = v
        return tuple(out)

    def column(self, j: int) -> tuple[int | Fraction, ...]:
        j = self._column_index(j)
        return tuple(r.get(j, 0) for r in self._sparse)

    def sparse_column(self, j: int) -> Mapping[int, int | Fraction]:
        """Column j's nonzeros as a read-only ``{row: value}`` mapping."""
        return MappingProxyType(self.transpose()._sparse[self._column_index(j)])

    def transpose(self) -> "RatMatrix":
        """The transpose, computed once and memoized on this matrix only (the
        transpose keeps no reference back, so no reference cycle forms,
        except between two shared matrices without entries)."""
        t = self._transposed
        if t is None:
            if not any(self._sparse):
                t = self._transposed = _zeros(self.cols, self.rows)
                return t
            out: list[dict[int, int | Fraction]] = [{} for _ in range(self.cols)]
            for i, r in enumerate(self._sparse):
                for j, v in r.items():
                    out[j][i] = v
            t = self._transposed = RatMatrix._trusted(self.rows, out)
        return t

    def is_zero(self) -> bool:
        return not any(self._sparse)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._sparse == other._sparse
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(tuple(r.items()) for r in self._sparse)))

    def __neg__(self) -> "RatMatrix":
        return _built(self.cols, [{j: -v for j, v in r.items()} for r in self._sparse])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return _built(self.cols, [_row_sum(ra, rb, 1) for ra, rb in zip(self._sparse, other._sparse)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return _built(self.cols, [_row_sum(ra, rb, -1) for ra, rb in zip(self._sparse, other._sparse)])

    def scale(self, c) -> "RatMatrix":
        c = exact(c)
        if c == 1:
            return self
        if not c:
            return _zeros(self.rows, self.cols)
        return _built(self.cols, [{j: _canonical(c * v) for j, v in r.items()} for r in self._sparse])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not (self.rows and self.cols and other.cols):
            return _zeros(self.rows, other.cols)
        orows = other._sparse
        out = []
        for row in self._sparse:
            if not row:
                out.append(row)
                continue
            if len(row) == 1:
                # one entry: a scaled copy of one row of other, already sorted
                (k, a), = row.items()
                orow = orows[k]
                out.append(orow if a == 1 else {j: _canonical(a * b) for j, b in orow.items()})
                continue
            acc: dict[int, int | Fraction] = {}
            for k, a in row.items():
                for j, b in orows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_sorted_row(acc))
        return _built(other.cols, out)

    def column_select(self, indices: Sequence[int]) -> "RatMatrix":
        places: dict[int, list[int]] = {}
        for p, j in enumerate(indices):
            places.setdefault(self._column_index(j), []).append(p)
        if not places or not self.rows:
            return _zeros(self.rows, len(indices))
        return _built(len(indices), [
            dict(sorted((p, v) for j, v in r.items() if j in places for p in places[j]))
            for r in self._sparse
        ])

    def row_select(self, indices: Iterable[int]) -> "RatMatrix":
        """The rows at the given indices, in that order."""
        return _built(self.cols, [self._sparse[self._row_index(i)] for i in indices])

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"

    def pretty(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"({self.rows}x{self.cols})"
        cells = [[str(e) for e in self.row(i)] for i in range(self.rows)]
        width = max(len(c) for r in cells for c in r)
        return "\n".join(" ".join(c.rjust(width) for c in r) for r in cells)

    def _row_index(self, i: int) -> int:
        """i, checked to be a row index of this matrix."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}x{self.cols} matrix")
        return i

    def _column_index(self, j: int) -> int:
        """j, checked to be a column index of this matrix."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside a {self.rows}x{self.cols} matrix")
        return j

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _check_dims(*dims: int) -> None:
    if min(dims) < 0:
        raise ValueError("negative matrix dimensions")


# The one empty row, shared by every zero row that is not built one at a time.
_ZERO_ROW: dict[int, int | Fraction] = {}

# A seed-0 battery pass at truncation 6 meets 59 empty shapes.
@lru_cache(maxsize=512)
def _zeros(rows: int, cols: int) -> RatMatrix:
    """The shared rows x cols matrix without entries; dimensions unchecked."""
    return RatMatrix._trusted(cols, (_ZERO_ROW,) * rows)


def _built(cols: int, rows: Sequence[dict[int, int | Fraction]]) -> RatMatrix:
    """`RatMatrix._trusted`, except that rows without any entry give the
    shared matrix of their shape."""
    return RatMatrix._trusted(cols, rows) if any(rows) else _zeros(len(rows), cols)


def _canonical(x: int | Fraction) -> int | Fraction:
    """`exact` for a value computed from canonical scalars."""
    return x if type(x) is int else exact(x)


def _sorted_row(row: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    """A canonical row from unordered canonical-or-computed entries."""
    return {j: _canonical(v) for j, v in sorted(row.items()) if v}


def _row_sum(a: dict[int, int | Fraction], b: dict[int, int | Fraction],
             sign: int) -> dict[int, int | Fraction]:
    """The row a + sign * b."""
    if not b:
        return a
    if not a and sign == 1:
        return b
    acc = dict(a)
    for j, v in b.items():
        acc[j] = acc.get(j, 0) + sign * v
    return _sorted_row(acc)


def hstack(*mats: RatMatrix) -> RatMatrix:
    """The matrices side by side; the one matrix with columns itself, when
    the others have none."""
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    rows = mats[0].rows
    wide = []
    for m in mats:
        if m.rows != rows:
            raise ValueError("hstack: row counts differ")
        if m.cols:
            wide.append(m)
    if len(wide) == 1:  # the others add no column
        return wide[0]
    if not rows:
        return _zeros(0, sum(m.cols for m in wide))
    out: list[dict[int, int | Fraction]] = [{} for _ in range(rows)]
    off = 0
    for m in wide:  # left to right, so each row's columns stay ascending
        for merged, r in zip(out, m._sparse):
            for j, v in r.items():
                merged[off + j] = v
        off += m.cols
    return _built(off, out)


def block_diag(*mats: RatMatrix) -> RatMatrix:
    out: list[dict[int, int | Fraction]] = []
    c0 = 0
    for m in mats:
        if c0:
            out.extend({c0 + j: v for j, v in r.items()} for r in m._sparse)
        else:
            out.extend(m._sparse)
        c0 += m.cols
    return _built(c0, out)


# -- elimination ------------------------------------------------------------
#
# Pivot selection: a row is reduced by the pivot row of its leading column,
# looked up in a dict from leading column to pivot row, so an elimination
# costs time in proportion to the entries it touches.  The reduced row
# echelon form is unique, so the order the rows enter in is a performance
# rule, not a semantic one.  Rows enter last first: a reduction only moves a
# leading column right, and the combinatorial matrices store their rows by
# nondecreasing leading column, so each column that leads a stored row gets
# that sparse row as its pivot, not a reduced row that got there first.


def _integer_row(row: dict[int, int | Fraction]) -> dict[int, int]:
    """A copy of a stored row scaled by a positive number to integer entries
    with no common factor."""
    denominators = [v.denominator for v in row.values() if type(v) is not int]
    if denominators:
        scale = math.lcm(*denominators)
        row = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
    else:
        row = dict(row)
    content = math.gcd(*row.values())
    if content > 1:
        for c, v in row.items():
            row[c] = v // content
    return row


def _cancel(target: dict[int, int], pivot: dict[int, int], col: int, lead: int) -> None:
    """Clear column col of the integer working row target, in place, with the
    integer pivot row whose entry there is lead > 0.  target stays a positive
    multiple of target - (target[col] / lead) * pivot.

    With lead 1 that is the difference itself.  Otherwise target becomes
    (lead/g) * target - (factor/g) * pivot, g = gcd(lead, factor), with its
    content divided out.
    """
    factor = target[col]
    if lead != 1:
        g = math.gcd(lead, factor)
        scale, factor = lead // g, factor // g
        if scale != 1:
            for c, v in target.items():
                target[c] = scale * v
    for c, v in pivot.items():
        nv = target.get(c, 0) - factor * v
        if nv:
            target[c] = nv
        else:
            del target[c]
    if lead != 1:
        content = math.gcd(*target.values())
        if content > 1:
            for c, v in target.items():
                target[c] = v // content


def _forward(m: RatMatrix) -> dict[int, dict[int, int]]:
    """Forward elimination on integer copies of the stored rows, entered one
    at a time, last first: {leading column: integer pivot row}, each lead
    positive.  No two pivot rows share a leading column, so the keys are the
    pivot columns of the reduced form and their count is the rank."""
    by_lead: dict[int, dict[int, int]] = {}
    for stored in reversed(m._sparse):
        if not stored:
            continue
        row = _integer_row(stored)
        col = next(iter(row))  # a fresh copy keeps its columns ascending
        while col in by_lead:
            pivot = by_lead[col]
            _cancel(row, pivot, col, pivot[col])
            if not row:
                break
            col = min(row)
        else:
            if row[col] < 0:
                for c, v in row.items():
                    row[c] = -v
            by_lead[col] = row
    return by_lead


def _eliminate(m: RatMatrix) -> tuple[tuple[int, ...], tuple[dict[int, int | Fraction], ...]]:
    """(pivot columns, pivot rows of the reduced form, each with ascending
    columns): `_forward`, then a back pass from the last pivot to the first
    that clears each row's other pivot columns with the rows already fully
    reduced, and one division per entry.  Clearing with a fully reduced row
    brings in no pivot column.  Computed once per matrix and memoized on it;
    callers only read it."""
    done = m._elim
    if done is not None:
        return done
    by_lead = _forward(m)
    pivots = sorted(by_lead)
    reduced = []
    for col in reversed(pivots):
        row = by_lead[col]
        for c in [c for c in row if c != col and c in by_lead]:
            pivot = by_lead[c]
            _cancel(row, pivot, c, pivot[c])
        lead = row[col]
        items = sorted(row.items())
        if lead == 1:
            reduced.append(dict(items))
        else:
            reduced.append({c: v // lead if v % lead == 0 else Fraction(v, lead) for c, v in items})
    reduced.reverse()
    done = m._elim = (tuple(pivots), tuple(reduced))
    return done


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int], int]:
    """Reduced row echelon form of ``m``.

    Returns ``(R, pivots, rank)`` where ``R`` has the shape of ``m``, the
    pivot columns are strictly increasing, and ``rank == len(pivots)``.
    """
    pivots, pivot_rows = _eliminate(m)
    if not pivots:
        return _zeros(m.rows, m.cols), [], 0
    rows = list(pivot_rows)
    rows.extend([_ZERO_ROW] * (m.rows - len(rows)))
    return RatMatrix._trusted(m.cols, rows), list(pivots), len(pivots)


def rank(m: RatMatrix) -> int:
    """The rank: read from the memoized elimination when there is one,
    otherwise from the forward pass alone."""
    done = m._elim
    return len(done[0]) if done is not None else len(_forward(m))


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Columns form a basis of ker(m); count = cols - rank.

    Bases are in rref order: one column per free coordinate, ascending, with
    a unit in the free coordinate itself.  Memoized on ``m``.
    """
    if m._kernel is None:
        m._kernel = _kernel_with_free(m)[0]
    return m._kernel


def _kernel_with_free(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """(`kernel_basis` of m, the free columns of m), read from the one
    elimination; not memoized."""
    pivots, pivot_rows = _eliminate(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    position = {f: k for k, f in enumerate(free)}
    rows: list[dict[int, int | Fraction]] = [_ZERO_ROW] * m.cols
    for k, f in enumerate(free):
        rows[f] = {k: 1}
    # a fully reduced pivot row is its pivot plus free coordinates only
    for p, row in zip(pivots, pivot_rows):
        rows[p] = {position[c]: -v for c, v in row.items() if c != p}
    return _built(len(free), rows), free


def image_basis(m: RatMatrix) -> RatMatrix:
    """The pivot columns of ``m``: a basis of its column space.  Memoized
    on ``m``."""
    if m._image is None:
        m._image = m.column_select(_eliminate(m)[0])
    return m._image


def solve(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """Solve a @ x = b columnwise; None when any column of b is not in im(a).

    Free coordinates of the solution are set to zero, so the result is the
    unique solution whenever ``a`` is injective.
    """
    if a.rows != b.rows:
        raise ValueError("solve: row counts differ")
    pivots, pivot_rows = _eliminate(hstack(a, b))
    if any(p >= a.cols for p in pivots):
        return None
    rows: list[dict[int, int | Fraction]] = [_ZERO_ROW] * a.cols
    for p, row in zip(pivots, pivot_rows):
        rows[p] = {j - a.cols: v for j, v in row.items() if j >= a.cols}
    return _built(b.cols, rows)


def quotient_with_section(ambient_dim: int, sub: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Quotient projection plus the ambient coordinates that survive.

    Returns ``(Q, kept)`` where Q is (n-r) x n, ker Q = im(sub), and the
    coordinate inclusion on ``kept``, the non-pivot coordinates of the
    subspace, is a section of Q (Q restricted to those columns is the
    identity).  Q is the transpose of the kernel basis of sub^T, whose
    columns span ker(sub^T), the annihilator of im(sub); ``kept`` are the
    free columns of sub^T.
    """
    if sub.rows != ambient_dim:
        raise ValueError(
            f"quotient_with_section: subspace lives in dimension {sub.rows}, "
            f"ambient is {ambient_dim}"
        )
    basis, kept = _kernel_with_free(sub.transpose())
    return basis.transpose(), kept


def coordinate_section(ambient_dim: int, kept: Sequence[int]) -> RatMatrix:
    """The inclusion k^kept -> k^ambient on the given coordinates."""
    rows: list[dict[int, int | Fraction]] = [{} for _ in range(ambient_dim)]
    for k, f in enumerate(kept):
        rows[f][k] = 1
    return _built(len(kept), rows)


def is_invertible(m: RatMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    x = solve(m, RatMatrix.identity(m.rows))
    if x is None or rank(m) != m.rows:
        raise ValueError("matrix is singular")
    return x
