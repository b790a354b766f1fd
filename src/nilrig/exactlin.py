"""Exact linear algebra over the rationals.

Every value that enters or leaves is a `fractions.Fraction` (or an int);
there is no floating point and no tolerance anywhere.  Rank, kernel
dimension and reduced row echelon form of a rational matrix are unchanged
under extension of the ground field, so every dimension computed over Q
holds verbatim over any field of characteristic zero.

Matrices are sparse (only nonzero entries stored).  `RowReducer` accepts
rows one at a time and maintains a fully back-substituted pivot table;
the tall, very sparse elimination problems produced by the cohomology
code stream their rows through it instead of materialising dense arrays.
`RowReducer.add_rows` takes a whole stream: it sets single-entry rows
aside as unit pivots and inserts the other rows by decreasing first
column, so each new pivot lies left of the pivots before it, where every
pivot row is zero, and back-substitution has almost nothing to do.
Inside, the reducer clears denominators and eliminates on integers; it
converts back to `Fraction`s only in what it returns.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter

Q = Fraction
QZERO = Q(0)
QONE = Q(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$", re.ASCII)


def parse_rational(text: str) -> Q:
    """Parse "p/q" (or plain "p") into a normalized Fraction.

    Unreduced inputs like "2/4" are accepted and normalized; negative or
    zero denominators and anything non-integral are rejected.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {text!r}")
    return Q(text.strip())


def as_rational(x) -> Q:
    """The exact value of one API input: a Fraction passes unchanged, an
    int or a "p/q" string is converted, and a float, a bool or anything
    else raises TypeError naming the value."""
    if isinstance(x, Q):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Q(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_sparse_vector(vec, dim: int) -> dict[int, Q]:
    """The exact value of one vector input {coordinate: rational}: the
    nonzero entries, each through `as_rational`.  A value that is not a
    mapping (a tuple or list included) raises TypeError, a coordinate
    that is not an int in range(dim) raises ValueError."""
    if not isinstance(vec, Mapping):
        raise TypeError(f"vector value must be a mapping {{coordinate: rational}}, "
                        f"got {type(vec).__name__}")
    out = {}
    for m, x in vec.items():
        if type(m) is not int or not 0 <= m < dim:
            raise ValueError(f"coordinate {m!r} outside range({dim})")
        if not isinstance(x, Q):
            x = as_rational(x)
        if x:
            out[m] = x
    return out


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
            v = as_rational(v)
            if v != 0:
                clean[(r, c)] = v
        self.entries = clean

    def rows_map(self) -> dict[int, dict[int, Q]]:
        out: dict[int, dict[int, Q]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


# rows fed between two calls of a reducer's `progress` callback, which
# gets (rows fed, rank, rows fed per second since the reducer was made)
_PROGRESS_ROWS = 10000


def _integer_row(row: Mapping[int, Q]) -> tuple[dict[int, int], int]:
    """(ints, scale) with ints == scale * row: the nonzero entries of a
    rational row cleared of denominators by their lcm."""
    scale = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return {c: v.numerator * (scale // v.denominator)
            for c, v in row.items() if v}, scale


def _integer_rows(rows: Mapping) -> tuple[dict, int]:
    """(ints, L) with ints[key] == L * rows[key] for every key: sparse
    rational rows cleared of denominators by one lcm L, in key order."""
    scale = lcm(*(x.denominator for row in rows.values() for x in row.values()))
    return {key: {c: x.numerator * (scale // x.denominator) for c, x in row.items()}
            for key, row in rows.items()}, scale


def insertion_order(rows: Iterable[Mapping[int, Q]]) -> list[Mapping[int, Q]]:
    """The rows that have an entry, by decreasing first column, ties by
    decreasing last column: the order in which `RowReducer.add_rows`
    inserts the rows it holds back (see there)."""
    return sorted((row for row in rows if row), key=lambda row: (min(row), max(row)),
                  reverse=True)


class RowReducer:
    """Streaming exact Gaussian elimination.

    Rows are fed one at a time and the table is kept in reduced row
    echelon form: every pivot row is zero at every other pivot column.
    The result is canonical; it depends only on the row space, not on the
    order in which rows arrive.

    Inside, each pivot row is stored as the primitive integer multiple of
    its RREF row with a positive leading entry, so elimination runs on
    Python integers.  `pivots`, `residual` and `kernel_basis_sparse`
    convert back to `Fraction`s at the boundary.
    """

    __slots__ = ("ncols", "rows_seen", "progress", "_rows", "_by_col", "_started")

    def __init__(self, ncols: int, progress=None):
        self.ncols = ncols
        self.rows_seen = 0
        self.progress = progress
        # pivot column -> primitive integer row, in the order pivots appear
        self._rows: dict[int, dict[int, int]] = {}
        # column -> pivot columns whose row is nonzero there
        self._by_col: dict[int, set[int]] = {}
        self._started = perf_counter()

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> dict[int, dict[int, Q]]:
        """Pivot column -> RREF row (leading entry 1), in insertion order."""
        out = {}
        for pc, prow in self._rows.items():
            lead = prow[pc]
            out[pc] = {c: Q(v, lead) for c, v in prow.items()}
        return out

    def pivot_cols(self) -> list[int]:
        return sorted(self._rows)

    def _reduce(self, row: Mapping[int, Q]) -> tuple[dict[int, int], int]:
        """(work, scale): work == scale * (row reduced against the table),
        an integer row that is zero at every pivot column."""
        work, scale = _integer_row(row)
        rows = self._rows
        hits = [c for c in work if c in rows]
        if not hits:
            return work, scale
        # m * work - sum work[c] * (m / lead_c) * row_c in one pass: each
        # pivot row is zero at the other pivot columns, so clearing one
        # never refills another
        m = 1
        for c in hits:
            lead = rows[c][c]
            if lead != 1:
                m = m * lead // gcd(m, lead)
        if m != 1:
            work = {c: m * v for c, v in work.items()}
        for c in hits:
            prow = rows[c]
            coef = work[c] // prow[c]
            for cc, v in prow.items():
                s = work.get(cc, 0) - coef * v
                if s:
                    work[cc] = s
                else:
                    del work[cc]
        return work, scale * m

    def residual(self, row: Mapping[int, Q]) -> dict[int, Q]:
        """Reduce `row` against the pivot table without inserting it."""
        work, scale = self._reduce(row)
        return {c: Q(v, scale) for c, v in work.items()}

    def _tick(self) -> None:
        """Count one row offered, and report progress every _PROGRESS_ROWS."""
        self.rows_seen += 1
        if self.progress is not None and self.rows_seen % _PROGRESS_ROWS == 0:
            elapsed = perf_counter() - self._started
            self.progress(self.rows_seen, self.rank,
                          self.rows_seen / elapsed if elapsed > 0 else 0.0)

    def add(self, row: Mapping[int, Q]) -> bool:
        """Insert a row; returns True when it contributed a new pivot."""
        self._tick()
        return self._insert(row)

    def add_rows(self, rows: Iterable[Mapping[int, Q]]) -> None:
        """Insert every row of `rows`; the table ends as if each went
        through `add`, and `rows_seen` and progress count each row as it
        is read.

        A row with one nonzero entry at column c puts e_c in the row
        space: the first such row at c becomes the pivot row e_c at once,
        a repeat is only counted.  Every other row is held back and
        inserted after the stream ends with those unit columns dropped,
        so no row is reduced against a unit pivot and no unit pivot
        back-substitutes; a held row that only touched unit columns (or
        had no entry at all) is not inserted.

        The held rows go in by decreasing first column, ties by
        decreasing last column.  A pivot row is zero left of its pivot,
        so a row whose pivot lies left of every pivot made so far meets
        no row to back-substitute into; in this order that is the case
        unless the row's first column is a pivot already.  The table is
        canonical, so the order changes the work and not the result.
        """
        units: set[int] = set()
        held = []
        for row in rows:
            self._tick()
            if len(row) == 1:
                (c, v), = row.items()
                if v and c not in units:
                    units.add(c)
                    if c in self._by_col:
                        self._insert(row)
                    else:
                        # no pivot row touches c: e_c is already reduced
                        # and nothing needs back-substituting
                        self._rows[c] = {c: 1}
                        self._by_col[c] = {c}
                continue
            held.append(row)
        held = [{c: v for c, v in row.items() if c not in units} for row in held]
        for row in insertion_order(held):
            self._insert(row)

    def _insert(self, row: Mapping[int, Q]) -> bool:
        work, _ = self._reduce(row)
        if not work:
            return False
        c = min(work)
        g = gcd(*work.values())
        if work[c] < 0:
            g = -g
        if g != 1:
            work = {cc: v // g for cc, v in work.items()}
        lead = work[c]
        rows, by_col = self._rows, self._by_col
        # back-substitute into the rows that are nonzero at the new pivot
        # column: row <- lead * row - row[c] * work, then make it primitive
        for pc in by_col.pop(c, ()):
            prow = rows[pc]
            a = prow[c]
            if lead != 1:
                for cc in prow:
                    prow[cc] *= lead
            for cc, v in work.items():
                s = prow.get(cc, 0) - a * v
                if s:
                    if cc not in prow:
                        by_col.setdefault(cc, set()).add(pc)
                    prow[cc] = s
                else:
                    del prow[cc]
                    if cc != c:
                        by_col[cc].discard(pc)
            content = gcd(*prow.values())
            if content != 1:
                for cc in prow:
                    prow[cc] //= content
        rows[c] = work
        for cc in work:
            by_col.setdefault(cc, set()).add(c)
        return True

    def in_kernel(self, vec: Mapping[int, Q]) -> bool:
        """True iff every fed row annihilates `vec` (M @ vec == 0).

        Only the pivot rows that share a column with `vec` are dotted; any
        other row contributes exactly 0.
        """
        ivec, _ = _integer_row(vec)
        rows, by_col = self._rows, self._by_col
        for pc in {pc for c in ivec for pc in by_col.get(c, ())}:
            prow = rows[pc]
            s = 0
            for c, x in ivec.items():
                v = prow.get(c)
                if v:
                    s += v * x
            if s:
                return False
        return True

    def kernel_basis_sparse(self) -> list[dict[int, Q]]:
        """Canonical kernel basis of the matrix whose rows were fed."""
        rows = self._rows
        basis = []
        for free in range(self.ncols):
            if free in rows:
                continue
            vec = {free: QONE}
            for pc in self._by_col.get(free, ()):
                prow = rows[pc]
                vec[pc] = Q(-prow[free], prow[pc])
            basis.append(vec)
        return basis


def reducer_of(ncols: int, rows: Iterable[Mapping[int, Q]]) -> RowReducer:
    """A RowReducer that took every row of `rows` through `add_rows`."""
    red = RowReducer(ncols)
    red.add_rows(rows)
    return red


def inverse_columns(m: RationalMatrix) -> tuple[list[dict[int, int]], int]:
    """(cols, B): cols[c] is B times column c of m^-1, an int dict of its
    nonzero entries, and B the lcm of the leads of the primitive rows of
    the reducer of (m | I), off which the columns are read; raises
    ValueError when m is singular."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices can be inverted")
    n = m.nrows
    rows = m.rows_map()
    red = reducer_of(2 * n, ({**rows.get(r, {}), n + r: 1} for r in range(n)))
    if red.pivot_cols()[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    scale = lcm(*(red._rows[r][r] for r in range(n)))
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for r in range(n):
        prow = red._rows[r]
        a = scale // prow[r]
        for c, v in prow.items():
            if c >= n:
                cols[c - n][r] = a * v
    return cols, scale


def invert(m: RationalMatrix) -> RationalMatrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    cols, scale = inverse_columns(m)
    return RationalMatrix(m.nrows, m.ncols, {(r, c): Q(v, scale) for c, col in enumerate(cols)
                                             for r, v in col.items()})


def extend_basis(base: RowReducer, candidates, count: int) -> list:
    """The first `count` of `candidates` that are each independent modulo
    the row space of `base` and of those taken before; fewer when the
    candidates run out.  Reading stops at the `count`-th, so a lazy
    `candidates` computes no row after it.  The candidates go to a copy
    of `base`, which is left as it was."""
    red = RowReducer(base.ncols)
    red._rows = {c: dict(row) for c, row in base._rows.items()}
    red._by_col = {c: set(pcs) for c, pcs in base._by_col.items()}
    taken = []
    for v in candidates:
        if red.add(v):
            taken.append(v)
            if len(taken) == count:
                break
    return taken


def iterated_images(n: int, push) -> list[list[dict[int, Q]]]:
    """Sparse RREF bases, in pivot-column order, of V_1, V_2, ...: V_0 is
    Q^n and V_k is spanned by push(v) for the basis rows v of V_(k-1).

    `push` gets each basis row as the reducer's primitive integer
    multiple of it (unit rows {j: 1} for V_0), so a push that keeps
    ints stays on ints; only the returned bases are `Fraction`s.  Stops
    after a zero image, or after one whose dimension repeats the
    previous one (the chain has stabilized at a nonzero subspace).
    """
    images: list[list[dict[int, Q]]] = []
    rows: list[dict[int, int]] = [{j: 1} for j in range(n)]
    while rows:
        red = RowReducer(n)
        for v in rows:
            for w in push(v):
                red.add(w)
        pivots = red.pivots
        image = [pivots[c] for c in red.pivot_cols()]
        images.append(image)
        if len(image) == len(rows):
            break
        rows = [red._rows[c] for c in red.pivot_cols()]
    return images
