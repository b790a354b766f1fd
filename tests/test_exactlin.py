import copy
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
    """The library reads a reducer's stored rows (`integer_rows`, e_c
    included) as its integer basis: each is the primitive integer
    multiple of its RREF row, with a positive lead and content 1."""
    pivots = red.pivots
    rows = red.integer_rows()
    assert len(rows) == len(pivots)
    for (c, prow), row in zip(pivots.items(), rows):
        assert row == _integer_row(prow)[0]
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
# the rows over two calls, so the second meets a non-empty table.
# Entries are Fractions or ints, so rows of ints and mixed rows both
# occur; `int_rows_and_cut` draws ints only, zeros included, the rows
# that every cohomology row generator yields.
def _rows_and_cut(ncols, value=st.one_of(rationals, st.integers(-4, 4))):
    col = st.integers(0, ncols - 1)
    single = st.builds(lambda c, v: {c: v}, col, value)
    multi = st.dictionaries(col, value, min_size=2, max_size=ncols)
    rows = st.lists(st.one_of(single, single, multi), max_size=12)
    return rows.flatmap(lambda rs: st.tuples(st.just(ncols), st.just(rs),
                                             st.integers(0, len(rs))))


rows_and_cut = st.integers(2, 6).flatmap(_rows_and_cut)
int_rows_and_cut = st.integers(2, 6).flatmap(lambda n: _rows_and_cut(n, st.integers(-4, 4)))


@given(st.one_of(rows_and_cut, int_rows_and_cut))
# {0: 0} has one key but is the zero row: it must not make column 0 a
# unit column, so the pivot row at 0 stays {0: 1, 1: 1}
@example((2, [{0: Q(0)}, {0: Q(1), 1: Q(1)}], 2))
# the empty row (a delta^1 image of a derivation) and a row of zeros are
# counted and leave no pivot; neither may reach the sort by first column
@example((2, [{}, {0: Q(1), 1: Q(1)}], 1))
@example((3, [{0: Q(0), 1: Q(0)}, {1: Q(2), 2: Q(1)}, {}], 3))
# after the cut, a unit row at a column whose pivot row is e_c is only
# counted: e_c from a unit row of the first call, or from `add`
@example((2, [{0: 2}, {0: -1}], 1))
# ... or from a held row of the first call, cut to {0: 1} by the unit
# column 1
@example((3, [{0: 1, 1: 1}, {1: 1}, {0: 3}], 2))
# a unit row at a column that a multi-entry pivot row touches still
# back-substitutes: at a column that is no pivot, and at the pivot
# column of {0: 1, 2: 1}
@example((3, [{0: 1, 1: 1}, {1: 2}], 1))
@example((3, [{0: 1, 2: 1}, {0: 3}], 1))
# zero entries of int rows are dropped, also beside a unit column
@example((3, [{0: 0, 1: 1}, {1: 5}, {0: 0, 1: 1, 2: 0}], 2))
@settings(max_examples=300, deadline=None)
def test_add_rows_matches_add(case):
    """Rows fed one `add` at a time, in two `add_rows` calls, and in
    `add` calls up to the cut and one `add_rows` call after it, give one
    table and one count."""
    ncols, rows, cut = case
    one = RowReducer(ncols)
    for row in rows:
        one.add(row)
    many = RowReducer(ncols)
    many.add_rows(iter(rows[:cut]))
    many.add_rows(iter(rows[cut:]))
    mixed = RowReducer(ncols)
    for row in rows[:cut]:
        mixed.add(row)
    mixed.add_rows(iter(rows[cut:]))
    for red in (many, mixed):
        assert red.pivots == one.pivots
        assert red.kernel_basis_sparse() == one.kernel_basis_sparse()
        assert (red.rank, red.rows_seen) == (one.rank, one.rows_seen)
        check_stored_rows(red)
    check_stored_rows(one)


def test_add_rows_only_counts_a_unit_row_at_a_unit_pivot():
    inserted = []

    class Counting(RowReducer):
        __slots__ = ()

        def _insert(self, work):
            inserted.append(dict(work))
            return super()._insert(work)

    red = Counting(5)
    red.add({0: 2})
    # e_1 from a unit row; the held row {1: 1, 2: 1} goes in as e_2
    red.add_rows([{1: 1, 2: 1}, {1: -1}, {3: 1, 4: 1}])
    inserted.clear()
    red.add_rows([{0: 5}, {1: 3}, {2: Q(-1, 2)}, {4: 7}])
    # the pivot rows at 0, 1 and 2 are e_c, from `add`, a unit row and a
    # held row; {4: 7} meets the pivot row {3: 1, 4: 1} and goes in
    assert inserted == [{4: 1}]
    assert red.rows_seen == 8 and red.rank == 5
    assert red.pivots == {c: {c: 1} for c in range(5)}


def test_add_only_counts_a_unit_row_at_a_unit_pivot():
    inserted = []

    class Counting(RowReducer):
        __slots__ = ()

        def _insert(self, work):
            inserted.append(dict(work))
            return super()._insert(work)

    red = Counting(5)
    red.add({0: 2})
    red.add_rows([{1: -1}])
    # e_3, whose back-substitution leaves the pivot row at 2 as e_2
    red.add({2: 1, 3: 1})
    red.add({3: 4})
    inserted.clear()
    # the pivot rows at 0, 1, 2 and 3 are e_c, from `add`, from
    # `add_rows`, by back-substitution and from `add`
    assert [red.add(row) for row in ({0: 5}, {1: 3}, {2: Q(-1, 2)}, {3: 1})] == [False] * 4
    assert inserted == []
    assert red.add({4: 7}) and inserted == [{4: 7}]
    assert red.rows_seen == 9 and red.rank == 5
    assert red.pivots == {c: {c: 1} for c in range(5)}


def test_add_rows_reduces_no_row_against_a_unit_pivot():
    met = []

    class Counting(RowReducer):
        __slots__ = ()

        def _reduce(self, work, scale):
            pivots = self.pivots
            met.extend(c for c in work if pivots.get(c) == {c: 1})
            return super()._reduce(work, scale)

    red = Counting(6)
    red.add({0: 1})
    red.add_rows([{1: 3}, {2: 1, 3: 1}])
    # e_3, whose back-substitution leaves the pivot row at 2 as e_2
    red.add_rows([{3: 1}])
    met.clear()
    # held rows at the e_c pivots of `add`, of a unit row, of a
    # back-substitution and of an earlier call: all of them are dropped
    # before a held row is reduced
    red.add_rows([{0: 1, 4: 1, 5: 1}, {1: 2, 2: 1, 3: -1, 4: 1, 5: 2}])
    assert met == []
    assert red.rank == 6 and red.rows_seen == 6


# {0: 1, 1: 1} then {1: 1} turns the pivot row at 0 into e_0, through
# `add`, through two `add_rows` calls, and in one call
@given(st.one_of(rows_and_cut, int_rows_and_cut), st.lists(st.booleans(), max_size=12))
@example((2, [{0: 1, 1: 1}, {1: 1}], 1), [True, True])
@example((2, [{0: 1, 1: 1}, {1: 1}], 1), [False, False])
@example((2, [{0: 1, 1: 1}, {1: 1}], 2), [False, False])
@example((3, [{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 3}], 2), [False, True, False])
@settings(max_examples=200, deadline=None)
def test_stored_rows_are_units_or_have_two_entries(case, by_add):
    """After any mix of `add` and `add_rows`, every stored row with one
    entry is kept as a bare unit column and the table is `add`'s."""
    ncols, rows, cut = case
    red, one = RowReducer(ncols), RowReducer(ncols)
    batch = []
    for k, row in enumerate(rows):
        one.add(row)
        if k == cut or (k < len(by_add) and by_add[k]):
            red.add_rows(batch)
            batch = []
        if k < len(by_add) and by_add[k]:
            red.add(row)
        else:
            batch.append(row)
        assert all(v is None or len(v) > 1 for v in red._rows.values())
    red.add_rows(batch)
    assert all(v is None or len(v) > 1 for v in red._rows.values())
    assert red.pivots == one.pivots and red.rows_seen == one.rows_seen
    check_stored_rows(red)


@given(st.one_of(rows_and_cut, int_rows_and_cut))
@settings(max_examples=100, deadline=None)
def test_reducer_keeps_no_row_it_is_passed(case):
    ncols, rows, cut = case
    snapshot = copy.deepcopy(rows)
    red = RowReducer(ncols)
    for row in rows[:cut]:
        red.add(row)
    red.add_rows(rows[cut:])
    for row in rows:
        red.residual(row)
        red.in_kernel(row)
    assert repr(rows) == repr(snapshot)
    assert {id(row) for row in rows}.isdisjoint(map(id, red._rows.values()))


@given(small_matrices, st.lists(st.lists(st.integers(-2, 2), min_size=5, max_size=5),
                                max_size=3))
@settings(max_examples=60, deadline=None)
def test_in_kernel_reads_int_vectors(rows, probes):
    # rows and probes of ints with their zero entries, as the row
    # generators and the delta^1 images give them
    ncols = len(rows[0])
    red = RowReducer(ncols)
    red.add_rows([dict(enumerate(r)) for r in rows])
    for p in probes + rows:
        vec = dict(enumerate(p[:ncols]))
        dot = all(sum(x * vec[c] for c, x in enumerate(r)) == 0 for r in rows)
        assert red.in_kernel(vec) == dot


# add_rows inserts its held rows in an order of its own; the table is
# canonical, so the order the rows arrive in must not show
@given(rows_and_cut, st.randoms(use_true_random=False))
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


def test_add_rows_reports_progress_as_rows_are_read():
    # progress comes at the same counts as through `add`, with the rank
    # as the stream is read: held rows go in when their call ends
    calls = []
    red = RowReducer(4, progress=lambda *args: calls.append(args))
    red.add_rows({k % 2: 1} if k < _PROGRESS_ROWS else {2: 1, 3: k}
                 for k in range(_PROGRESS_ROWS + 5))
    red.add_rows({3: 1} for _ in range(_PROGRESS_ROWS))
    assert [(n, rank) for n, rank, _ in calls] == [(_PROGRESS_ROWS, 2), (2 * _PROGRESS_ROWS, 4)]
    assert red.rows_seen == 2 * _PROGRESS_ROWS + 5


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
