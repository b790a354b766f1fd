"""Structure-constant Lie algebras over exact rationals.

A `LieAlgebra` stores only the brackets [X_i, X_j] with i < j (0-based);
skew-symmetry and [X_i, X_i] = 0 are structural.  A vector, such as a
bracket value, is a sparse dict {coordinate: Fraction} holding its nonzero
entries only; the cleared bracket tables that the algorithms read
(`LieAlgebra.integer_table`, `LieAlgebra.double_brackets`) hold ints.
All operations are pure and values are treated as immutable, so
concurrent use is safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .exactlin import (
    Q,
    QONE,
    RationalMatrix,
    RowReducer,
    _integer_row,
    _integer_rows,
    as_size,
    as_sparse_vector,
    extend_basis,
    inverse_columns,
    iterated_images,
    reducer_of,
)

DEFAULT_SEED = 0xC0FFEE
# random candidates of characteristic_sequence after the basis vectors
_COMBINATIONS = 50


class LieAlgebra:
    """Finite-dimensional algebra given by rational structure constants."""

    __slots__ = ("dim", "constants", "_table", "_double", "_center")

    def __init__(self, dim: int,
                 constants: Mapping[tuple[int, int], Mapping[int, object]] | None = None):
        self.dim = as_size(dim, "dimension")
        clean: dict[tuple[int, int], dict[int, Q]] = {}
        for (i, j), vec in (constants or {}).items():
            if not (type(i) is type(j) is int and 0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 0 <= i < j < dim")
            v = as_sparse_vector(vec, dim)
            if v:
                clean[(i, j)] = v
        self.constants = clean
        self._table: tuple[dict[tuple[int, int], dict[int, int]], int] | None = None
        self._double: dict[tuple[int, int, int], dict[int, int]] | None = None
        self._center: RowReducer | None = None

    def integer_table(self) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
        """(table, L): L is the lcm of the denominators of the structure
        constants and table holds L * [X_i, X_j], as int dicts, for every
        ordered pair with a nonzero bracket.  Every reader of the bracket
        takes this form or `double_brackets`, bracketed on it; built once,
        kept on the algebra and shared, so callers never mutate it."""
        if self._table is None:
            ints, scale = _integer_rows(self.constants)
            table: dict[tuple[int, int], dict[int, int]] = {}
            for (i, j), vec in ints.items():
                table[(i, j)] = vec
                table[(j, i)] = {k: -x for k, x in vec.items()}
            self._table = table, scale
        return self._table

    def double_brackets(self) -> dict[tuple[int, int, int], dict[int, int]]:
        """L^2 * [[X_i, X_j], X_k] for i < j and every k, L as in
        `integer_table`, as int dicts, nonzero only and in sorted key
        order: bracketed on that table, kept and shared like it."""
        if self._double is None:
            table, _ = self.integer_table()
            double = {}
            for pair in sorted(self.constants):
                for k in range(self.dim):
                    w = _bracket_sparse(table, table[pair], k)
                    if w:
                        double[pair + (k,)] = w
            self._double = double
        return self._double

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra)
                and self.dim == other.dim and self.constants == other.constants)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.constants)})"


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


@dataclass(frozen=True, order=True)
class CharSeq:
    """Non-increasing partition recording nilpotency block structure."""

    parts: tuple[int, ...]
    # True when the rank bounds prove the value (see characteristic_sequence)
    certified: bool = field(default=False, compare=False)

    def __post_init__(self):
        for p in self.parts:
            as_size(p, "partition part", 1)
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("partition parts must be non-increasing")


@dataclass(frozen=True)
class SubspaceChain:
    """Descending chain of subspaces with canonical bases: the sparse RREF
    rows of each term, in pivot-column order."""

    dims: tuple[int, ...]
    bases: tuple[tuple[dict[int, Q], ...], ...]


# ---------------------------------------------------------------------------
# bracket and validity

def _bracket_sparse(table, vec: Mapping[int, Q], k: int) -> dict[int, Q]:
    """[v, X_k] for a sparse coordinate vector v, nonzero entries only.

    The sums start at the int 0, so on the int table of `integer_table`
    an int v gives int values and a `Fraction` v gives `Fraction`s."""
    acc: dict[int, Q] = {}
    for s, c in vec.items():
        row = table.get((s, k))
        if row:
            for m, w in row.items():
                x = acc.get(m, 0) + c * w
                if x == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = x
    return acc


def _lincomb(terms) -> dict[int, Q]:
    """Sum of c * vec over the (c, vec) pairs of sparse vectors, nonzero
    entries only; int terms give int values, as in `_bracket_sparse`."""
    acc: dict[int, Q] = {}
    for c, vec in terms:
        for m, w in vec.items():
            acc[m] = acc.get(m, 0) + c * w
    return {m: x for m, x in acc.items() if x}


def jacobi_defect(g: LieAlgebra) -> list[tuple[int, int, int]]:
    """Triples (i, j, k), i < j < k, where the Jacobi identity fails.

    The Jacobiator of (i, j, k) is the sum of [[X_a, X_b], X_c] over the
    cyclic orders (a, b, c) of the triple.  Each [[X_a, X_b], X_c] with
    a < b is read off the (L^2-scaled) double-bracket table and added to
    its sorted triple, negated when (a, b, c) is not cyclic.
    """
    jac: dict[tuple[int, int, int], dict[int, int]] = {}
    for (a, b, c), vec in g.double_brackets().items():
        if c == a or c == b:
            continue
        if c < a:
            key, sign = (c, a, b), 1
        elif c < b:
            key, sign = (a, c, b), -1
        else:
            key, sign = (a, b, c), 1
        acc = jac.setdefault(key, {})
        for m, w in vec.items():
            acc[m] = acc.get(m, 0) + sign * w
    return sorted(key for key, acc in jac.items() if any(acc.values()))


def two_step_defect(g: LieAlgebra) -> list[tuple[int, int, int]]:
    """Basis tuples (i, j, k) with [[X_i, X_j], X_k] != 0."""
    return list(g.double_brackets())


def three_step_defect(g: LieAlgebra) -> list[tuple[int, int, int, int]]:
    """Basis tuples (i, j, k, l) with [[[X_i, X_j], X_k], X_l] != 0.

    Only a double bracket w outside the centre is bracketed with each X_l.
    Nothing is kept: each call computes a new list.
    """
    table, _ = g.integer_table()
    center = _center_reducer(g)
    return [key + (l,) for key, w in g.double_brackets().items() if not center.in_kernel(w)
            for l in range(g.dim) if _bracket_sparse(table, w, l)]


# ---------------------------------------------------------------------------
# central series, nilpotency, characteristic sequence

def _series(g: LieAlgebra) -> list[RowReducer]:
    """Reducers whose row spaces are g^1, g^2, ... with g^k = [g^(k-1), g]:
    one `exactlin.iterated_images` chain on `integer_table`, started at
    the nonzero constants and pushed through every X_k.  Not kept."""
    n = g.dim
    table, _ = g.integer_table()
    return iterated_images(n, lambda v: [_bracket_sparse(table, v, k) for k in range(n)],
                           [table[pair] for pair in g.constants])


def lower_central_series(g: LieAlgebra) -> SubspaceChain:
    """Chain g = g^0 ⊇ g^1 ⊇ ... with g^k = [g^(k-1), g].

    The recorded dims stop at the first 0, or repeat once when the chain
    stabilizes at a nonzero ideal (non-nilpotent input).  The brackets
    are taken on integers (`_series`), and only the RREF bases are
    `Fraction`s.
    """
    bases = [tuple({j: QONE} for j in range(g.dim))]
    bases += [tuple(v for _, v in sorted(red.pivots.items())) for red in _series(g)]
    return SubspaceChain(tuple(len(b) for b in bases), tuple(bases))


def nilindex(g: LieAlgebra) -> int:
    """Smallest k with g^k = 0; errors when the series stops short of 0."""
    return _nilindex(lower_central_series(g))


def _nilindex(chain: SubspaceChain) -> int:
    """`nilindex` read off the lower central series `chain`."""
    if chain.dims and chain.dims[-1] == 0:
        return len(chain.dims) - 1
    raise ValueError("series stabilized at nonzero ideal")


def _ad_ranks(table, x: Mapping[int, Q], n: int) -> list[int]:
    """[rank (ad x)^1, rank (ad x)^2, ..., 0], read on `table`, the
    table of `integer_table` (L ad x has the ranks of ad x); g must be
    nilpotent.

    The image of (ad x)^k is ad x applied to the image of (ad x)^(k-1),
    so each power pushes only the previous term's rows through ad x.
    """
    cols = [_bracket_sparse(table, x, j) for j in range(n)]  # [x, X_j]
    return [red.rank for red in iterated_images(
        n, lambda v: (_lincomb((c, cols[j]) for j, c in v.items()),), cols)]


def _jordan_type(ranks: Sequence[int], n: int) -> tuple[int, ...]:
    """Jordan block sizes from [rank A, rank A^2, ..., 0]: the number of
    blocks of size >= k is rank A^(k-1) - rank A^k."""
    ge = [a - b for a, b in zip([n] + list(ranks), ranks)]
    parts: list[int] = []
    for k in range(len(ge), 0, -1):
        parts += [k] * (ge[k - 1] - (ge[k] if k < len(ge) else 0))
    return tuple(parts)


def characteristic_sequence(g: LieAlgebra) -> CharSeq:
    """Lexicographically maximal ad-Jordan type over elements off g^1.

    Every x satisfies rank (ad x)^k <= dim g^k, and rank ad x <= n -
    dim z(g) - 1, since ad x kills x and the centre.  A rank sequence
    that meets these bounds is pointwise maximal, so its Jordan type
    dominates every other ad-Jordan type and is the lexicographic
    maximum.  Candidates are the basis vectors outside g^1, then
    small-integer combinations drawn from DEFAULT_SEED; the first that
    meets every bound is returned with `certified` True.  When none does
    (the free 3-step algebra on two generators is such a case: no bound
    is attainable there), the maximum over all candidates is returned
    with `certified` False.
    """
    return _characteristic_sequence(g, lower_central_series(g))


def _characteristic_sequence(g: LieAlgebra, chain: SubspaceChain) -> CharSeq:
    """`characteristic_sequence` of g, whose lower central series is `chain`."""
    n = g.dim
    if _nilindex(chain) <= 1:  # abelian (or zero): ad x = 0 for every x
        return CharSeq((1,) * n, certified=True)
    bounds = list(chain.dims[1:-1])
    bounds[0] = min(bounds[0], n - center_dim(g) - 1)
    derived = RowReducer(n)
    derived.add_rows(chain.bases[1])
    table, _ = g.integer_table()
    best: tuple[int, ...] = ()
    for x in _charseq_candidates(n, derived):
        ranks = _ad_ranks(table, x, n)
        parts = _jordan_type(ranks, n)
        if ranks[:len(bounds)] == bounds:
            return CharSeq(parts, certified=True)
        best = max(best, parts)
    return CharSeq(best)


def _charseq_candidates(n: int, derived: RowReducer):
    """Sparse basis vectors outside the row space of `derived`, then
    `_COMBINATIONS` seeded combinations with entries in [-5, 5] outside it."""
    for i in range(n):
        if derived.residual({i: 1}):
            yield {i: 1}
    rng = random.Random(DEFAULT_SEED)
    found = attempts = 0
    while found < _COMBINATIONS and attempts < 20 * _COMBINATIONS + 20:
        attempts += 1
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        vec = {i: c for i, c in enumerate(coeffs) if c}
        if vec and derived.residual(vec):
            found += 1
            yield vec


def _center_reducer(g: LieAlgebra) -> RowReducer:
    """A RowReducer fed the rows (j, m) -> L c_ij^m of `integer_table`,
    whose kernel is the centre {x : [x, X_j] = 0 for all j}.  Built once,
    kept on the algebra and shared like `integer_table`, so callers only
    read it and never add a row.  It is made in `exactlin.reducer_of`,
    for the reason `exactlin.iterated_images` gives."""
    if g._center is None:
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for (i, j), sp in g.integer_table()[0].items():
            for m, v in sp.items():
                rows.setdefault((j, m), {})[i] = v
        g._center = reducer_of(g.dim, rows.values())
    return g._center


def center_dim(g: LieAlgebra) -> int:
    """Dimension of {x : [x, X_j] = 0 for all j}."""
    return g.dim - _center_reducer(g).rank


def basis_change(g: LieAlgebra, f: RationalMatrix) -> LieAlgebra:
    """Transport of structure: (f·μ)(x, y) = f^(-1) μ(f x, f y).

    The integer columns of f^(-1) are read off the reducer of (f | I)
    (`exactlin.inverse_columns`), and `_transport` moves the integer
    table; one `Fraction` is made per nonzero constant."""
    n = g.dim
    if f.nrows != n or f.ncols != n:
        raise ValueError("basis change matrix has wrong shape")
    try:
        finv = inverse_columns(f)
    except ValueError:
        raise ValueError("singular basis change matrix") from None
    table, scale = g.integer_table()
    cols = _integer_rows(dict(enumerate(_columns(f))))
    return LieAlgebra(n, _transport(table, (scale,), cols, finv)[0])


def _transport(table, scales: Sequence[int], a, b) -> list[dict[tuple[int, int], dict[int, Q]]]:
    """The constants, on pairs i < j, of (x, y) |-> B β_r(A x, A y) for
    each skew bilinear map β_r, r < len(scales), of one table laid out
    as `LieAlgebra.integer_table`, value key r n + m holding coordinate
    m of scales[r] β_r.  a = (cols, s) holds s times the columns of A,
    and b those of B, as int dicts.

    With A X_j = sum_k A_kj X_k, β(A X_i, A X_j) = sum_k A_kj β(A X_i, X_k),
    and each β(A X_i, X_k) is one sparse bracket of column i of A, taken
    for every r at once: n^2 brackets per call, however many maps.  The
    sums run on integers; one `Fraction` is made per nonzero entry."""
    (acols, sa), (bcols, sb) = a, b
    n = len(acols)
    shifted = [{r * n + m: x for m, x in bcols[c].items()}
               for r in range(len(scales)) for c in range(n)]
    dens = [sa * sa * sb * s for s in scales]
    moved: list[dict[tuple[int, int], dict[int, Q]]] = [{} for _ in scales]
    for i in range(n):
        left = [_bracket_sparse(table, acols[i], k) for k in range(n)]  # s_r sa β_r(A X_i, X_k)
        for j in range(i + 1, n):
            v = _lincomb((c, left[k]) for k, c in acols[j].items())
            for u, x in _lincomb((c, shifted[u]) for u, c in v.items()).items():
                r, m = divmod(u, n)
                moved[r].setdefault((i, j), {})[m] = Q(x, dens[r])
    return moved


def adapted_basis(g: LieAlgebra) -> RationalMatrix | None:
    """A basis f of generators and their brackets, adapted to the lower
    central series: for every k, the last dim g^k columns of f span g^k.
    None when the given basis is already adapted up to order, i.e. every
    RREF basis row of every g^k is a unit vector; when every [X_i, X_j]
    is a multiple of one X_m, every g^k is spanned by basis vectors, and
    the series is not computed.

    The generators, layer 0, are the vectors independent modulo g^1,
    taken first from the kernel basis of the centre and then from the
    unit vectors X_j.  Layer k >= 1 is the brackets [y, x] (y in layer
    k-1, x a generator) independent modulo g^(k+1).  On a Lie algebra
    g^(k-1) is layer k-1 plus g^k and [g^(k-1), g^1] lies in g^(k+1),
    so layer k spans g^k modulo g^(k+1); the columns of f are layer 0,
    layer 1, ...  Every bracket column is the bracket itself, so in the
    new basis each chosen [y, x] is one basis vector with coefficient 1,
    and a central generator brackets to 0 with everything: it splits off
    an abelian direct factor.  The brackets are taken on `integer_table`,
    layer k as L^k times itself, and scaled back only in f.  When the
    series stops at a nonzero ideal, that ideal's RREF basis ends the
    flag.  When a layer falls short, which only a bracket that breaks
    Jacobi allows, None is returned: validation then names the defect
    in the given basis.
    """
    if all(len(sp) == 1 for sp in g.constants.values()):
        return None
    terms = _series(g)
    if all(v is None for red in terms for v in red._rows.values()):
        return None
    n = g.dim
    dims = [n] + [red.rank for red in terms]
    table, scale = g.integer_table()
    center = [_integer_row(v)[0] for v in _center_reducer(g).kernel_basis_sparse()]
    gens = layer = extend_basis(terms[0], center + [{j: 1} for j in range(n)], n - dims[1])
    cols: list[dict[int, Q]] = list(gens)
    for k in range(1, len(dims) - 1):
        count = dims[k] - dims[k + 1]
        if not count:  # the series stopped at a nonzero ideal
            cols += [v for _, v in sorted(terms[k - 1].pivots.items())]
            break
        layer = extend_basis(terms[k], (
            _lincomb((c, _bracket_sparse(table, y, j)) for j, c in x.items())
            for y in layer for x in gens), count)
        if len(layer) < count:
            return None
        cols += [{m: Q(v, scale ** k) for m, v in col.items()} for col in layer]
    return RationalMatrix(n, n, {(r, c): x for c, v in enumerate(cols) for r, x in v.items()})


def _columns(m: RationalMatrix) -> list[dict[int, Q]]:
    cols: list[dict[int, Q]] = [{} for _ in range(m.ncols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v
    return cols
