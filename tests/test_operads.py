import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrig.operads import (
    count_commutative_binary_trees,
    dual_dims_2nilp,
    gen_function,
    koszul_check,
    static_dims_table,
    two_nilp_dims,
)


def test_two_nilp_generating_function():
    g = gen_function(two_nilp_dims(6), 6)
    assert g[:3] == (Q(0), Q(1), Q(1, 2))
    assert all(c == 0 for c in g[3:])


def test_gen_function_single_generator():
    assert gen_function((1, 0, 0, 0), 4) == (Q(0), Q(1), Q(0), Q(0), Q(0))


def test_gen_function_dual_prefix():
    g = gen_function(dual_dims_2nilp(4), 4)
    assert g == (Q(0), Q(1), Q(1, 2), Q(1, 2), Q(5, 8))


def test_gen_function_order_guard():
    with pytest.raises(ValueError, match="exceeds"):
        gen_function((1, 1), 3)


def test_dual_dims_values():
    dims = dual_dims_2nilp(8)
    assert dims[:4] == (1, 1, 3, 15)
    # d5 = C(5,1) d1 d4 + C(5,2) d2 d3 = 75 + 30
    assert dims[4] == 105
    assert dims == (1, 1, 3, 15, 105, 945, 10395, 135135)


def test_tree_oracle_matches_recurrence():
    rec = dual_dims_2nilp(6)
    for n in range(1, 7):
        assert count_commutative_binary_trees(n) == rec[n - 1]


def test_koszul_functional_equation():
    for order in (2, 5, 8, 12):
        primal = gen_function(two_nilp_dims(order), order)
        dual = gen_function(dual_dims_2nilp(max(order, 2)), order)
        assert not any(koszul_check(primal, dual))


def test_koszul_trivial_and_failing_cases():
    x = (0, 1, 0, 0, 0, 0, 0)
    assert koszul_check(x, x) == (0,) * 7
    s = (0, 1, 1, 0, 0)  # x + x^2 is not self-dual
    res = koszul_check(s, s)
    # -(-x + x^2) + (-x + x^2)^2 - x = -2 x^3 + x^4 exactly
    assert res == (Q(0), Q(0), Q(0), Q(-2), Q(1))
    assert all(type(c) is Q for c in res)


def test_koszul_requires_zero_constant_term():
    for primal, dual in (((1, 1, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 0), (1, 1, 0, 0))):
        with pytest.raises(ValueError, match="zero constant term"):
            koszul_check(primal, dual)


@pytest.mark.parametrize("bad", [0.1, True])
def test_koszul_check_rejects_float_and_bool(bad):
    for primal, dual in (((0, bad), (0, 1)), ((0, 1), (0, bad))):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            koszul_check(primal, dual)


def naive_residual(a, b):
    """Independent oracle: sum_k a_k inner^k - x with inner = -b(-x), each
    power of inner one more truncated product, to the shorter order."""
    n = min(len(a), len(b))
    inner = [-b[k] * (-1) ** k for k in range(n)]
    total = [Q(a[0])] + [Q(0)] * (n - 1)
    power = [Q(1)] + [Q(0)] * (n - 1)
    for k in range(1, n):
        power = [sum(power[i] * inner[m - i] for i in range(m + 1)) for m in range(n)]
        total = [t + a[k] * p for t, p in zip(total, power)]
    if n > 1:
        total[1] -= 1
    return tuple(total)


short_series = st.lists(st.integers(-3, 3), min_size=1, max_size=7)


@given(short_series, short_series, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_koszul_check_against_naive_expansion(al, bl, order):
    a = tuple([0] + al)[: order + 1]
    b = tuple([0] + bl)[: order + 1]
    assert koszul_check(a, b) == naive_residual(a, b)


@given(st.lists(st.integers(0, 5), min_size=3, max_size=6),
       st.lists(st.integers(0, 5), min_size=3, max_size=6))
@settings(max_examples=40, deadline=None)
def test_gen_function_linear_in_dims(a, b):
    order = min(len(a), len(b))
    total = tuple(x + y for x, y in zip(a, b))
    assert gen_function(total, order) == tuple(
        x + y for x, y in zip(gen_function(a, order), gen_function(b, order)))


def test_gen_function_checks_dims():
    for bad in (1.0, True):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            gen_function((1, bad), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_function((1, -1), 2)


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
