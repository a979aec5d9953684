"""Exact linear algebra over the rationals.

Every scalar is exact and has one canonical form, decided by `exact`: an
`int` when the value is integral, otherwise a `fractions.Fraction` whose
denominator is greater than 1.  Never a float, and never an integral
`Fraction`.  Integer matrices, which are most of them, therefore run on
Python's native integer arithmetic, and `Fraction` arithmetic appears only
once a denominator does.  Equality and hashing do not see the difference
(``3 == Fraction(3)`` and ``hash(3) == hash(Fraction(3))``).

Every rank, kernel, image, quotient, and solve is computed by Gaussian
elimination with no rounding anywhere.  Matrices are immutable and dense on
the outside; elimination runs on sparse row dictionaries internally, which is
what makes the large-but-sparse relation matrices of the coend computations
cheap.

Zero-dimensional matrices (0 x n and n x 0) are legal and denote maps to or
from the zero space; graded computations hit empty degrees all the time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


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


def rational_to_str(x: int | Fraction) -> str:
    """Serialize as "p/q", or "p" when the value is integral."""
    return str(x)


def rational_from_str(s: str) -> int | Fraction:
    """Parse a rational string such as "p" or "p/q"; a bad entry is a
    ValueError that names it."""
    if not isinstance(s, str):
        raise ValueError(f"matrix entry {s!r} is not a string of the form 'p' or 'p/q'")
    try:
        return exact(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"matrix entry {s!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"matrix entry {s!r} is not a rational number") from None


class RatMatrix:
    """Immutable dense matrix of rationals, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        flat = [e if type(e) is int else exact(e) for e in entries]
        if not flat:
            flat = [0] * (rows * cols)
        if len(flat) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(flat)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return cls(len(rows), cols, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        columns = [list(c) for c in columns]
        if rows is None:
            rows = len(columns[0]) if columns else 0
        for c in columns:
            if len(c) != rows:
                raise ValueError("ragged columns")
        return cls(rows, len(columns), [columns[j][i] for i in range(rows) for j in range(len(columns))])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[int | Fraction, ...]:
        return tuple(r[j] for r in self._data)

    def row_major(self) -> list[int | Fraction]:
        return [e for r in self._data for e in r]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, [self._data[i][j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self) -> bool:
        return all(not e for r in self._data for e in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [-e for r in self._data for e in r])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            self.rows, self.cols,
            [a + b for ra, rb in zip(self._data, other._data) for a, b in zip(ra, rb)],
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(
            self.rows, self.cols,
            [a - b for ra, rb in zip(self._data, other._data) for a, b in zip(ra, rb)],
        )

    def scale(self, c) -> "RatMatrix":
        c = exact(c)
        return RatMatrix(self.rows, self.cols, [c * e for r in self._data for e in r])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [[0] * other.cols for _ in range(self.rows)]
        odata = other._data
        for i, row in enumerate(self._data):
            acc = out[i]
            for k, a in enumerate(row):
                if a:
                    orow = odata[k]
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
        return RatMatrix(self.rows, other.cols, [e for r in out for e in r])

    def column_select(self, indices: Sequence[int]) -> "RatMatrix":
        return RatMatrix(
            self.rows, len(indices),
            [self._data[i][j] for i in range(self.rows) for j in indices],
        )

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"

    def pretty(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"({self.rows}x{self.cols})"
        cells = [[rational_to_str(e) for e in r] for r in self._data]
        width = max(len(c) for r in cells for c in r)
        return "\n".join(" ".join(c.rjust(width) for c in r) for r in cells)

    def _check_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def hstack(*mats: RatMatrix) -> RatMatrix:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack: row counts differ")
    data = []
    for i in range(rows):
        for m in mats:
            data.extend(m.row(i))
    return RatMatrix(rows, sum(m.cols for m in mats), data)


def block_diag(*mats: RatMatrix) -> RatMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            row = m.row(i)
            for j in range(m.cols):
                if row[j]:
                    out[r0 + i][c0 + j] = row[j]
        r0 += m.rows
        c0 += m.cols
    return RatMatrix(rows, cols, [e for r in out for e in r])


# -- elimination ------------------------------------------------------------
#
# Pivot selection: scan columns left to right, take the first not-yet-used row
# with a nonzero entry in that column.  The reduced row echelon form is
# canonical, so this is a performance rule, not a semantic one.


def _sparse_rows(m: RatMatrix) -> list[dict[int, int | Fraction]]:
    return [{j: v for j, v in enumerate(row) if v} for row in m._data]


def _axpy(target: dict[int, int | Fraction], source: dict[int, int | Fraction],
          coeff: int | Fraction) -> None:
    for c, v in source.items():
        nv = target.get(c, 0) + coeff * v
        if nv:
            target[c] = nv if type(nv) is int else exact(nv)
        else:
            target.pop(c, None)


def _eliminate(m: RatMatrix) -> tuple[list[int], list[dict[int, int | Fraction]]]:
    """Run full reduced elimination; returns (pivot columns, pivot rows)."""
    work = _sparse_rows(m)
    free_rows = list(range(m.rows))
    pivots: list[int] = []
    pivot_rows: list[dict[int, int | Fraction]] = []
    for col in range(m.cols):
        sel = None
        for pos, ridx in enumerate(free_rows):
            if col in work[ridx]:
                sel = pos
                break
        if sel is None:
            continue
        ridx = free_rows.pop(sel)
        row = work[ridx]
        lead = row[col]
        if lead == -1:
            row = {c: -v for c, v in row.items()}
        elif lead != 1:
            inv = Fraction(1, lead)
            row = {c: exact(v * inv) for c, v in row.items()}
        for other in free_rows:
            factor = work[other].get(col)
            if factor:
                _axpy(work[other], row, -factor)
        pivots.append(col)
        pivot_rows.append(row)
        if not free_rows:
            break
    # clear above the pivots so the form is fully reduced
    for k in range(len(pivot_rows) - 1, 0, -1):
        col = pivots[k]
        row = pivot_rows[k]
        for j in range(k):
            factor = pivot_rows[j].get(col)
            if factor:
                _axpy(pivot_rows[j], row, -factor)
    return pivots, pivot_rows


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int], int]:
    """Reduced row echelon form of ``m``.

    Returns ``(R, pivots, rank)`` where ``R`` has the shape of ``m``, the
    pivot columns are strictly increasing, and ``rank == len(pivots)``.
    """
    pivots, pivot_rows = _eliminate(m)
    data = []
    for row in pivot_rows:
        data.extend(row.get(j, 0) for j in range(m.cols))
    data.extend([0] * ((m.rows - len(pivot_rows)) * m.cols))
    return RatMatrix(m.rows, m.cols, data), pivots, len(pivots)


def rank(m: RatMatrix) -> int:
    return len(_eliminate(m)[0])


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Columns form a basis of ker(m); count = cols - rank.

    Bases are in rref order: one column per free coordinate, ascending, with
    a unit in the free coordinate itself.
    """
    pivots, pivot_rows = _eliminate(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    columns = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for i, p in enumerate(pivots):
            coef = pivot_rows[i].get(f)
            if coef:
                v[p] = -coef
        columns.append(v)
    return RatMatrix.from_columns(columns, rows=m.cols)


def image_basis(m: RatMatrix) -> RatMatrix:
    """The pivot columns of ``m``: a basis of its column space."""
    pivots, _ = _eliminate(m)
    return m.column_select(pivots)


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
    out = [[0] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        row = pivot_rows[i]
        for j in range(b.cols):
            v = row.get(a.cols + j)
            if v:
                out[p][j] = v
    return RatMatrix(a.cols, b.cols, [e for r in out for e in r])


def quotient_map(ambient_dim: int, sub: RatMatrix) -> RatMatrix:
    """Projection of k^ambient onto a complement of the column space of sub.

    The retained coordinates are the non-pivot coordinates of the subspace,
    so ``quotient_map(n, sub) @ sub == 0`` and the ranks add up to n.
    """
    return quotient_with_section(ambient_dim, sub)[0]


def quotient_with_section(ambient_dim: int, sub: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Quotient projection plus the ambient coordinates that survive.

    Returns ``(Q, kept)`` where Q is (n-r) x n, ker Q = im(sub), and the
    coordinate inclusion on ``kept`` is a section of Q (Q restricted to those
    columns is the identity).
    """
    if sub.rows != ambient_dim:
        raise ValueError(
            f"quotient_map: subspace lives in dimension {sub.rows}, ambient is {ambient_dim}"
        )
    pivots, pivot_rows = _eliminate(sub.transpose())
    pivot_set = set(pivots)
    kept = [c for c in range(ambient_dim) if c not in pivot_set]
    out = [[0] * ambient_dim for _ in kept]
    for k, f in enumerate(kept):
        out[k][f] = 1
        for i, p in enumerate(pivots):
            coef = pivot_rows[i].get(f)
            if coef:
                out[k][p] = -coef
    q = RatMatrix(len(kept), ambient_dim, [e for r in out for e in r])
    return q, kept


def coordinate_section(ambient_dim: int, kept: Sequence[int]) -> RatMatrix:
    """The inclusion k^kept -> k^ambient on the given coordinates."""
    cols = []
    for f in kept:
        v = [0] * ambient_dim
        v[f] = 1
        cols.append(v)
    return RatMatrix.from_columns(cols, rows=ambient_dim)


def is_invertible(m: RatMatrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    x = solve(m, RatMatrix.identity(m.rows))
    if x is None or rank(m) != m.rows:
        raise ValueError("matrix is singular")
    return x
