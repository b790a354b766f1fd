"""Exact linear algebra over the rationals, plus truncated power series.

Everything here computes with `fractions.Fraction`; there is no floating
point and no tolerance anywhere.  Rank, kernel dimension and reduced row
echelon form of a rational matrix are unchanged under extension of the
ground field, so every dimension computed over Q holds verbatim over any
field of characteristic zero.

Matrices are sparse (only nonzero entries stored).  `RowReducer` accepts
rows one at a time and maintains a fully back-substituted pivot table;
the tall, very sparse elimination problems produced by the cohomology
code stream their rows through it instead of materialising dense arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

Q = Fraction
QZERO = Q(0)
QONE = Q(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Q:
    """Parse "p/q" (or plain "p") into a normalized Fraction.

    Unreduced inputs like "2/4" are accepted and normalized; negative or
    zero denominators and anything non-integral are rejected.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Q(text.strip())


def format_rational(x) -> str:
    return str(Q(x))


# ---------------------------------------------------------------------------
# dense rational vectors (tuples)

def vzero(n: int) -> tuple[Q, ...]:
    return (QZERO,) * n


def vadd(a: Sequence[Q], b: Sequence[Q]) -> tuple[Q, ...]:
    return tuple(x + y for x, y in zip(a, b))


def vscale(c: Q, v: Sequence[Q]) -> tuple[Q, ...]:
    return tuple(c * x for x in v)


def vec_is_zero(v: Sequence[Q]) -> bool:
    return all(x == 0 for x in v)


def dense_of(d: Mapping[int, Q], n: int) -> tuple[Q, ...]:
    return tuple(Q(d.get(i, QZERO)) for i in range(n))


# ---------------------------------------------------------------------------
# sparse rational matrices

class RationalMatrix:
    """Sparse matrix over Q; `entries` maps (row, col) to a nonzero Fraction."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int,
                 entries: Mapping[tuple[int, int], Q] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], Q] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry index ({r},{c}) out of range")
            v = Q(v)
            if v != 0:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Q(v)
                if v != 0:
                    entries[(r, c)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): QONE for i in range(n)})

    def row(self, r: int) -> dict[int, Q]:
        return {c: v for (rr, c), v in self.entries.items() if rr == r}

    def rows_map(self) -> dict[int, dict[int, Q]]:
        out: dict[int, dict[int, Q]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def column(self, c: int) -> dict[int, Q]:
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def matvec(self, v: Sequence[Q]) -> tuple[Q, ...]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        acc = [QZERO] * self.nrows
        for (r, c), w in self.entries.items():
            x = v[c]
            if x != 0:
                acc[r] += w * x
        return tuple(acc)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        brows = other.rows_map()
        entries: dict[tuple[int, int], Q] = {}
        for (r, k), v in self.entries.items():
            for c, w in brows.get(k, {}).items():
                key = (r, c)
                s = entries.get(key, QZERO) + v * w
                if s == 0:
                    entries.pop(key, None)
                else:
                    entries[key] = s
        return RationalMatrix(self.nrows, other.ncols, entries)

    def to_rows(self) -> list[list[Q]]:
        rows = [[QZERO] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


# rows fed between two calls of a reducer's `progress` callback
_PROGRESS_ROWS = 10000


def _axpy(work: dict[int, Q], coef: Q, row: Mapping[int, Q], skip: int) -> None:
    """work -= coef * row in place, dropping zeros; column `skip` is left
    out (the caller has already removed it from `work`)."""
    for c, v in row.items():
        if c == skip:
            continue
        s = work.get(c, QZERO) - coef * v
        if s:
            work[c] = s
        else:
            work.pop(c, None)


class RowReducer:
    """Streaming exact Gaussian elimination.

    Rows are fed one at a time; `pivots` maps a pivot column to a row that
    is normalized (leading entry 1) and fully reduced against every other
    pivot row, i.e. the table is always in reduced row echelon form.  The
    result is canonical: it depends only on the row space, not on the
    order in which rows arrive.
    """

    __slots__ = ("ncols", "pivots", "rows_seen", "progress", "_by_col")

    def __init__(self, ncols: int, progress=None):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, Q]] = {}
        self.rows_seen = 0
        self.progress = progress
        # column -> pivots whose row is nonzero there; built by `in_kernel`
        # and dropped by `add` whenever back-substitution changes the rows
        self._by_col: dict[int, list[int]] | None = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_cols(self) -> list[int]:
        return sorted(self.pivots)

    def _reduce(self, row: Mapping[int, Q]) -> dict[int, Q]:
        # Pivot rows are zero at every other pivot column, so clearing one
        # pivot column never refills another: one pass clears them all.
        work = {c: Q(v) for c, v in row.items() if v != 0}
        pivots = self.pivots
        for c in [c for c in work if c in pivots]:
            _axpy(work, work.pop(c), pivots[c], c)
        return work

    def residual(self, row: Mapping[int, Q]) -> dict[int, Q]:
        """Reduce `row` against the pivot table without inserting it."""
        return self._reduce(row)

    def add(self, row: Mapping[int, Q]) -> bool:
        """Insert a row; returns True when it contributed a new pivot."""
        self.rows_seen += 1
        if self.progress is not None and self.rows_seen % _PROGRESS_ROWS == 0:
            self.progress(self.rows_seen)
        work = self._reduce(row)
        if not work:
            return False
        c = min(work)
        lead = work[c]
        if lead != 1:
            work = {cc: v / lead for cc, v in work.items()}
        # back-substitute the new pivot into the existing rows
        for prow in self.pivots.values():
            coef = prow.pop(c, None)
            if coef:
                _axpy(prow, coef, work, c)
        self.pivots[c] = work
        self._by_col = None
        return True

    def in_kernel(self, vec: Mapping[int, Q]) -> bool:
        """True iff every fed row annihilates `vec` (M @ vec == 0).

        Only the pivot rows that share a column with `vec` are dotted; any
        other row contributes exactly 0.
        """
        by_col = self._by_col
        if by_col is None:
            by_col = {}
            for pc, prow in self.pivots.items():
                for c in prow:
                    by_col.setdefault(c, []).append(pc)
            self._by_col = by_col
        for pc in {pc for c in vec for pc in by_col.get(c, ())}:
            prow = self.pivots[pc]
            s = QZERO
            if len(prow) <= len(vec):
                for c, v in prow.items():
                    x = vec.get(c)
                    if x:
                        s += v * x
            else:
                for c, x in vec.items():
                    v = prow.get(c)
                    if v:
                        s += v * x
            if s != 0:
                return False
        return True

    def kernel_basis_sparse(self) -> list[dict[int, Q]]:
        """Canonical kernel basis of the matrix whose rows were fed."""
        basis = []
        for free in range(self.ncols):
            if free in self.pivots:
                continue
            vec = {free: QONE}
            for pc, prow in self.pivots.items():
                coef = prow.get(free)
                if coef:
                    vec[pc] = -coef
            basis.append(vec)
        return basis


class RrefResult(NamedTuple):
    reduced: RationalMatrix
    rank: int
    pivot_cols: list[int]


def rref(m: RationalMatrix) -> RrefResult:
    """Reduced row echelon form, exact; rank and pivot columns alongside."""
    red = RowReducer(m.ncols)
    rows = m.rows_map()
    for r in range(m.nrows):
        red.add(rows.get(r, {}))
    entries: dict[tuple[int, int], Q] = {}
    for r, pc in enumerate(red.pivot_cols()):
        for c, v in red.pivots[pc].items():
            entries[(r, c)] = v
    return RrefResult(RationalMatrix(m.nrows, m.ncols, entries),
                      red.rank, red.pivot_cols())


def matrix_rank(m: RationalMatrix) -> int:
    red = RowReducer(m.ncols)
    for row in m.rows_map().values():
        red.add(row)
    return red.rank


def kernel_basis(m: RationalMatrix) -> list[tuple[Q, ...]]:
    """Canonical basis of {v : m @ v = 0}, as dense tuples."""
    red = RowReducer(m.ncols)
    for row in m.rows_map().values():
        red.add(row)
    return [dense_of(vec, m.ncols) for vec in red.kernel_basis_sparse()]


def invert(m: RationalMatrix) -> RationalMatrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    red = RowReducer(2 * n)
    rows = m.rows_map()
    for r in range(n):
        row = dict(rows.get(r, {}))
        row[n + r] = QONE
        red.add(row)
    pivots = red.pivot_cols()
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    entries = {}
    for r in range(n):
        for c, v in red.pivots[r].items():
            if c >= n:
                entries[(r, c - n)] = v
    return RationalMatrix(n, n, entries)


# ---------------------------------------------------------------------------
# truncated power series

@dataclass(frozen=True)
class TruncatedSeries:
    """Rational power series modulo x^(order+1); coeffs[k] multiplies x^k."""

    order: int
    coeffs: tuple[Q, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(Q(c) for c in self.coeffs))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, order: int | None = None) -> "TruncatedSeries":
        cs = [Q(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order >= len(cs):
            cs += [QZERO] * (order + 1 - len(cs))
        return cls(order, tuple(cs[: order + 1]))

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([0, 1], order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([], order)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return TruncatedSeries.from_coeffs(self.coeffs, order)
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(
                n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return self._shift_const(Q(other))

    __radd__ = __add__

    def _shift_const(self, c: Q) -> "TruncatedSeries":
        return TruncatedSeries(
            self.order, (self.coeffs[0] + c,) + self.coeffs[1:])

    def __neg__(self):
        return TruncatedSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -Q(other))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            out = [QZERO] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    if b != 0:
                        out[i + j] += a * b
            return TruncatedSeries(n, tuple(out))
        c = Q(other)
        return TruncatedSeries(self.order, tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner); `inner` must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires zero constant term")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        acc = TruncatedSeries.zero(n)
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * inner + c
        return acc

    def scale_argument(self, c) -> "TruncatedSeries":
        """Series of x ↦ self(c·x)."""
        c = Q(c)
        return TruncatedSeries(
            self.order, tuple(a * c ** k for k, a in enumerate(self.coeffs)))

    def __repr__(self) -> str:
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(x^{self.order + 1})>"


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a + b


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a * b


def series_compose(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a.compose(b)
