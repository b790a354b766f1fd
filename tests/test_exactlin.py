import re
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilrig import families
from nilrig.cohom import CochainIndex, chevalley2_rows, r2_rows
from nilrig.exactlin import (
    _PROGRESS_ROWS,
    RationalMatrix,
    RowReducer,
    _integer_row,
    as_rational,
    extend_basis,
    invert,
    parse_rational,
    reducer_of,
)

from nilrig.liealg import DEFAULT_SEED, basis_change
from nilrig.sampling import random_invertible, rng_for

from helpers import dense_matvec, dense_rank, dense_rref, matmul


def M(rows):
    """The matrix with the given dense rows, through the constructor."""
    return RationalMatrix(len(rows), len(rows[0]) if rows else 0,
                          {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})


# --- rationals -------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("-3/2") == Q(-3, 2)
    assert parse_rational("7") == Q(7)
    assert parse_rational("2/4") == Q(1, 2)  # normalized on input


# "\u0661" (ARABIC-INDIC DIGIT ONE) and "\U0001d7d7" (MATHEMATICAL BOLD
# DIGIT NINE) are Unicode digits, not ASCII ones
@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "0.5", "a", "1/04",
                                 "\u0661", "\U0001d7d7"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_as_rational_keeps_fractions_and_converts_ints_and_strings():
    x = Q(3, 4)
    assert as_rational(x) is x
    for given_value, want in ((7, Q(7)), (-2, Q(-2)), ("-3/6", Q(-1, 2)), ("5", Q(5))):
        got = as_rational(given_value)
        assert type(got) is Q and got == want


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, None, 1j])
def test_as_rational_rejects_inexact_values(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        as_rational(bad)


@pytest.mark.parametrize("bad", [0.1, True, 2.0, False])
def test_rational_matrix_rejects_float_and_bool(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        RationalMatrix(2, 2, {(0, 1): bad})
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        M([[1, bad], [0, 1]])
    # nor as a shape
    for shape in ((bad, 2), (2, bad)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RationalMatrix(*shape, {})


def test_rational_matrix_stores_fractions():
    for m in (RationalMatrix(2, 2, {(0, 0): 2, (1, 1): "1/3"}),
              M([[2, 0], [0, "1/3"]])):
        assert m.entries == {(0, 0): Q(2), (1, 1): Q(1, 3)}
        assert all(type(v) is Q for v in m.entries.values())


# --- rref / kernel ----------------------------------------------------------

def reduced(rows, ncols=None):
    """A RowReducer fed the rows of a small matrix."""
    red = RowReducer(len(rows[0]) if ncols is None else ncols)
    for row in rows:
        red.add({c: Q(v) for c, v in enumerate(row) if v})
    return red


def test_rref_identity():
    red = reduced([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert red.rank == 3 and red.pivot_cols() == [0, 1, 2]


def test_rref_zero():
    red = reduced([[0] * 5, [0] * 5])
    assert red.rank == 0 and red.pivot_cols() == []


def test_rref_rank_one():
    red = reduced([[1, 2], [2, 4]])
    assert red.rank == 1 and red.pivot_cols() == [0]
    assert red.pivots[0] == {0: Q(1), 1: Q(2)}


def test_kernel_identity_empty():
    assert reduced([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel_basis_sparse() == []


def test_kernel_rank_one():
    (vec,) = reduced([[1, 2], [2, 4]]).kernel_basis_sparse()
    # proportional to (-2, 1)
    assert vec[0] * Q(1) == -2 * vec[1]


def test_kernel_zero_matrix():
    vecs = reduced([[0] * 3, [0] * 3]).kernel_basis_sparse()
    assert len(vecs) == 3


def test_rref_idempotent():
    first = reduced([[2, 4, 1], [1, 2, 0], [0, 0, 3], [3, 6, 4]])
    second = RowReducer(3)
    for row in first.pivots.values():
        second.add(row)
    assert second.pivot_cols() == first.pivot_cols()
    assert second.pivots == first.pivots


# Draw the width first: filtering ragged lists instead left only about one
# example in fifteen with two or more rows and two or more columns.
small_matrices = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
    min_size=1, max_size=6))

# p/q entries: the engine clears denominators and may meet negative leads
rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))
small_rational_matrices = st.integers(1, 5).flatmap(lambda ncols: st.lists(
    st.lists(rationals, min_size=ncols, max_size=ncols),
    min_size=1, max_size=6))


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(rows):
    m = M(rows)
    red = reduced(rows)
    vecs = red.kernel_basis_sparse()
    assert red.rank + len(vecs) == m.ncols
    for v in vecs:
        assert all(x == 0 for x in dense_matvec(m, [v.get(c, 0) for c in range(m.ncols)]))
    assert red.rank == dense_rank([list(map(Q, r)) for r in rows])


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_rref_insensitive_to_row_order(rows, rnd):
    red = reduced(rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    s = reduced(shuffled)
    assert s.pivot_cols() == red.pivot_cols()
    assert s.pivots == red.pivots


def test_row_reducer_membership():
    red = RowReducer(3)
    red.add({0: Q(1), 1: Q(1)})
    red.add({1: Q(1), 2: Q(1)})
    assert not red.residual({0: Q(1), 2: Q(-1)})  # in the row space
    assert red.residual({0: Q(1), 2: Q(1)})


def check_stored_rows(red):
    """The library reads a reducer's stored rows as its integer basis:
    each is the primitive integer multiple of its RREF row, with a
    positive lead and content 1."""
    pivots = red.pivots
    for c, row in red._rows.items():
        assert row == _integer_row(pivots[c])[0]
        assert all(type(v) is int for v in row.values())
        assert row[c] > 0 and gcd(*row.values()) == 1


def check_rref_and_residual(rows, probe):
    red = RowReducer(len(rows[0]))
    for k, r in enumerate(rows):
        row = {c: Q(x) for c, x in enumerate(r)}
        red.add(row)
        assert not red.residual(row)
        check_stored_rows(red)
        pivots = red.pivots
        for p, prow in pivots.items():
            assert min(prow) == p and prow[p] == 1
            assert all(q == p or q not in prow for q in pivots)
        v = [Q(x) for x in probe[:len(r)]]
        res = red.residual(dict(enumerate(v)))
        assert not set(res) & set(pivots)
        seen = [list(map(Q, x)) for x in rows[:k + 1]]
        assert (not res) == (dense_rank(seen + [v]) == dense_rank(seen))
        assert pivots == dense_rref(seen)


def check_in_kernel(rows, probes):
    # `in_kernel` reads a column index that `add` keeps up to date; every
    # answer must match M @ v over the rows fed so far, also after a
    # back-substitution
    ncols = len(rows[0])
    red = RowReducer(ncols)
    kernel = []
    for k, r in enumerate(rows):
        red.add({c: Q(x) for c, x in enumerate(r) if x})
        # the kernel before this row leaves it exactly when the row is new
        vecs = kernel + [{c: Q(x) for c, x in enumerate(p[:ncols])} for p in probes]
        kernel = red.kernel_basis_sparse()
        for v in vecs + kernel:
            dense = all(sum(x * v.get(c, 0) for c, x in enumerate(seen)) == 0
                        for seen in rows[:k + 1])
            assert red.in_kernel(v) == dense


@given(small_matrices, st.lists(st.integers(-4, 4), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_row_reducer_rref_and_residual(rows, probe):
    check_rref_and_residual(rows, probe)


@given(small_rational_matrices, st.lists(rationals, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_row_reducer_rref_and_residual_rational(rows, probe):
    check_rref_and_residual(rows, probe)


@given(small_matrices, st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
                                max_size=3))
@settings(max_examples=60, deadline=None)
def test_in_kernel_tracks_added_rows(rows, probes):
    check_in_kernel(rows, probes)


@given(small_rational_matrices, st.lists(st.lists(rationals, min_size=5, max_size=5),
                                         max_size=3))
@settings(max_examples=60, deadline=None)
def test_in_kernel_tracks_added_rows_rational(rows, probes):
    check_in_kernel(rows, probes)


def test_pivots_match_dense_rref_after_basis_change():
    # a dense basis change gives a tall redundant Z system with large
    # denominators; the integer table must read back as the exact RREF
    g = basis_change(families.g_k3k2k1(1, 0, 2),
                     random_invertible(5, rng_for(DEFAULT_SEED), -2, 2))
    size = CochainIndex(g.dim).size
    rows = list(chevalley2_rows(g)) + list(r2_rows(g))
    red = RowReducer(size)
    for row in rows:
        red.add(row)
    expected = dense_rref([[row.get(c, 0) for c in range(size)] for row in rows])
    assert any(v.denominator > 1 for prow in expected.values() for v in prow.values())
    assert red.pivots == expected


# Rows over 2-6 columns, each either a single entry {c: v} (v may be 0,
# and the few columns make repeats and singles after multi-entry rows on
# the same column common) or a multi-entry row; plus a cut that splits
# the rows over two add_rows calls, so the second meets a non-empty table.
# Entries are Fractions or ints, so rows of ints (the rows the cohomology
# generators make) and mixed rows both occur.
def _rows_and_cut(ncols):
    col = st.integers(0, ncols - 1)
    value = st.one_of(rationals, st.integers(-4, 4))
    single = st.builds(lambda c, v: {c: v}, col, value)
    multi = st.dictionaries(col, value, min_size=2, max_size=ncols)
    rows = st.lists(st.one_of(single, single, multi), max_size=12)
    return rows.flatmap(lambda rs: st.tuples(st.just(ncols), st.just(rs),
                                             st.integers(0, len(rs))))


@given(st.integers(2, 6).flatmap(_rows_and_cut))
# {0: 0} has one key but is the zero row: it must not make column 0 a
# unit column, so the pivot row at 0 stays {0: 1, 1: 1}
@example((2, [{0: Q(0)}, {0: Q(1), 1: Q(1)}], 2))
# the empty row (a delta^1 image of a derivation) and a row of zeros are
# counted and leave no pivot; neither may reach the sort by first column
@example((2, [{}, {0: Q(1), 1: Q(1)}], 1))
@example((3, [{0: Q(0), 1: Q(0)}, {1: Q(2), 2: Q(1)}, {}], 3))
@settings(max_examples=150, deadline=None)
def test_add_rows_matches_add(case):
    ncols, rows, cut = case
    one = RowReducer(ncols)
    for row in rows:
        one.add(row)
    many = RowReducer(ncols)
    many.add_rows(iter(rows[:cut]))
    many.add_rows(iter(rows[cut:]))
    assert many.pivots == one.pivots
    assert many.kernel_basis_sparse() == one.kernel_basis_sparse()
    assert (many.rank, many.rows_seen) == (one.rank, one.rows_seen)
    check_stored_rows(one)
    check_stored_rows(many)


# add_rows inserts its held rows in an order of its own; the table is
# canonical, so the order the rows arrive in must not show
@given(st.integers(2, 6).flatmap(_rows_and_cut), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_add_rows_ignores_row_order(case, rnd):
    ncols, rows, _ = case
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    one, two = RowReducer(ncols), RowReducer(ncols)
    one.add_rows(rows)
    two.add_rows(shuffled)
    assert two.pivots == one.pivots
    assert two.rank == one.rank
    assert two.kernel_basis_sparse() == one.kernel_basis_sparse()


def test_progress_reports_rows_rank_and_rate():
    calls = []
    red = RowReducer(3, progress=lambda *args: calls.append(args))
    for k in range(2 * _PROGRESS_ROWS + 1):
        red.add({k % 2: Q(1), 2: Q(k)})
    assert [(n, rank) for n, rank, _ in calls] == [(_PROGRESS_ROWS, 3), (2 * _PROGRESS_ROWS, 3)]
    assert all(rate > 0 for _, _, rate in calls)


@pytest.mark.parametrize("nrows,ncols,entries,msg", [
    (-1, 2, {}, "dimensions must be nonnegative"),
    (2, -1, {}, "dimensions must be nonnegative"),
    (2, 2, {(2, 0): 1}, re.escape("entry index (2,0) out of range")),
    (2, 2, {(0, -1): 1}, re.escape("entry index (0,-1) out of range")),
    # an index entry is an int and no bool, as a vector coordinate is
    (2, 2, {(0, 1.0): 1}, re.escape("entry index (0,1.0) out of range")),
    (2, 2, {(True, 0): 1}, re.escape("entry index (True,0) out of range")),
])
def test_rational_matrix_rejects_bad_shape_and_index(nrows, ncols, entries, msg):
    with pytest.raises(ValueError, match=msg):
        RationalMatrix(nrows, ncols, entries)


def test_invert_rejects_non_square():
    with pytest.raises(ValueError, match="only square matrices can be inverted"):
        invert(M([[1, 0, 0], [0, 1, 0]]))


def test_extend_basis_leaves_its_reducer_unchanged():
    """extend_basis feeds the candidates to a copy: the reducer it is
    given keeps its rows, and the candidates it takes each raise the
    dense rank of the base and of those taken before."""
    base = [{0: Q(1), 2: Q(-1, 2)}, {1: 2, 3: 3}]
    red = reducer_of(5, base)
    pivots, rows_seen = red.pivots, red.rows_seen
    candidates = [{0: 2, 2: -1}, {2: 1}, {0: 1}, {3: Q(1, 3), 1: Q(2, 9)}, {4: 1}, {3: 1}]
    taken = extend_basis(red, candidates, 2)
    assert taken == [{2: 1}, {4: 1}]
    assert red.pivots == pivots and red.rows_seen == rows_seen
    assert extend_basis(red, candidates, 5) == [{2: 1}, {4: 1}, {3: 1}]
    assert red.pivots == pivots
    dense_base = [[row.get(c, 0) for c in range(5)] for row in base]
    assert dense_rank(dense_base + [[v.get(c, 0) for c in range(5)] for v in taken]) == 4


def test_invert_and_singular():
    m = M([[1, 2], [3, 5]])
    inv = invert(m)
    assert matmul(m, inv).entries == {(0, 0): Q(1), (1, 1): Q(1)}
    with pytest.raises(ValueError):
        invert(M([[1, 2], [2, 4]]))
