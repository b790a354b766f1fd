from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrig.exactlin import TruncatedSeries
from nilrig.operads import (
    DimSequence,
    count_commutative_binary_trees,
    dual_dims_2nilp,
    gen_function,
    koszul_check,
    static_dims_table,
    two_nilp_dims,
)


def test_two_nilp_generating_function():
    g = gen_function(two_nilp_dims(6), 6)
    assert g.coeffs[:3] == (Q(0), Q(1), Q(1, 2))
    assert all(c == 0 for c in g.coeffs[3:])


def test_gen_function_single_generator():
    g = gen_function(DimSequence((1, 0, 0, 0)), 4)
    assert g == TruncatedSeries.from_coeffs([0, 1], 4)


def test_gen_function_dual_prefix():
    g = gen_function(dual_dims_2nilp(4), 4)
    assert g.coeffs == (Q(0), Q(1), Q(1, 2), Q(1, 2), Q(5, 8))


def test_gen_function_order_guard():
    with pytest.raises(ValueError, match="exceeds"):
        gen_function(DimSequence((1, 1)), 3)


def test_dual_dims_values():
    dims = dual_dims_2nilp(8)
    assert dims.dims[:4] == (1, 1, 3, 15)
    # d5 = C(5,1) d1 d4 + C(5,2) d2 d3 = 75 + 30
    assert dims[4] == 105
    assert dims.dims == (1, 1, 3, 15, 105, 945, 10395, 135135)


def test_tree_oracle_matches_recurrence():
    rec = dual_dims_2nilp(6)
    for n in range(1, 7):
        assert count_commutative_binary_trees(n) == rec[n - 1]


def test_koszul_functional_equation():
    for order in (2, 5, 8, 12):
        primal = gen_function(two_nilp_dims(order), order)
        dual = gen_function(dual_dims_2nilp(max(order, 2)), order)
        assert koszul_check(primal, dual).is_zero()


def test_koszul_trivial_and_failing_cases():
    x = TruncatedSeries.x(6)
    assert koszul_check(x, x).is_zero()
    s = TruncatedSeries.from_coeffs([0, 1, 1], 4)  # x + x^2 is not self-dual
    res = koszul_check(s, s)
    # -(-x + x^2) + (-x + x^2)^2 - x = -2 x^3 + x^4 exactly
    assert res.coeffs == (Q(0), Q(0), Q(0), Q(-2), Q(1))


def test_koszul_requires_zero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        koszul_check(TruncatedSeries.from_coeffs([1, 1], 3), TruncatedSeries.x(3))


@given(st.lists(st.integers(0, 5), min_size=3, max_size=6),
       st.lists(st.integers(0, 5), min_size=3, max_size=6))
@settings(max_examples=40, deadline=None)
def test_gen_function_linear_in_dims(a, b):
    size = min(len(a), len(b))
    da = DimSequence(tuple(a[:size]))
    db = DimSequence(tuple(b[:size]))
    order = size
    total = DimSequence(tuple(x + y for x, y in zip(da.dims, db.dims)))
    assert gen_function(total, order) == gen_function(da, order) + gen_function(db, order)


def test_dim_sequence_validation():
    with pytest.raises(ValueError):
        DimSequence((1, -1))


def test_static_table_contents():
    table = {(row.operad, row.arity): row.dim for row in static_dims_table()}
    assert table[("2Nilp", 2)] == 1
    assert table[("2Nilp", 3)] == 0
    assert table[("2Nilp!", 4)] == 15
    assert table[("AssCubic", 4)] == 24
    assert table[("3Nilp", 4)] == 0
    assert table[("Jord", 4)] == 11
    assert table[("Jord-free", 4)] == 15
    assert table[("Jord-relations", 4)] == 4
    assert table[("Jord-free", 4)] - table[("Jord-relations", 4)] == table[("Jord", 4)]
