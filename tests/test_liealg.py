import re
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrig import families
from nilrig.cohom import derivation_algebra_dim
from nilrig.exactlin import RationalMatrix, RowReducer, invert
from nilrig.liealg import (
    DEFAULT_SEED,
    CharSeq,
    LieAlgebra,
    _ad_ranks,
    _bracket_sparse,
    abelian,
    adapted_basis,
    basis_change,
    center_dim,
    characteristic_sequence,
    derived_dim,
    jacobi_defect,
    lower_central_series,
    nilindex,
    three_step_defect,
    two_step_defect,
)
from nilrig.sampling import random_invertible, random_unipotent, rng_for

from helpers import (
    ad_matrix,
    bracket,
    bracket_basis,
    bracket_vec_basis,
    brute_jacobi_defect,
    brute_three_step_defect,
    brute_two_step_defect,
    dense_basis_change,
    dense_rank,
    dense_rows,
    dense_rref,
    direct_sum,
    jacobiator,
    jordan_partition,
    matmul,
    power_ranks,
    random_nilpotent,
    span_dim,
)


def e(n, i):
    return tuple(Q(1) if k == i else Q(0) for k in range(n))


# --- bracket -----------------------------------------------------------------

def test_heisenberg_bracket():
    table, _ = families.heisenberg(1).integer_table()  # L = 1
    assert _bracket_sparse(table, {0: Q(1)}, 1) == {2: Q(1)}
    assert _bracket_sparse(table, {1: Q(1)}, 0) == {2: Q(-1)}


def test_bracket_skew_on_diagonal():
    table, _ = families.g_p1(2).integer_table()
    assert all(table[(j, i)] == {m: -w for m, w in sp.items()} and i != j
               for (i, j), sp in table.items())
    x = {0: Q(1), 1: Q(2), 2: Q(-1), 4: Q(3)}
    # [x, x] = sum_k x_k [x, X_k]
    acc = {}
    for k, c in x.items():
        for m, w in _bracket_sparse(table, x, k).items():
            acc[m] = acc.get(m, Q(0)) + c * w
    assert not any(acc.values())


def test_g21_bracket():
    table, _ = families.g_p1(2).integer_table()  # L = 1
    assert _bracket_sparse(table, {0: Q(1)}, 3) == {4: Q(1)}  # [X1, X4] = X5


# --- Jacobi ------------------------------------------------------------------

def test_jacobi_heisenberg():
    assert jacobi_defect(families.heisenberg(2)) == []


def test_jacobi_so3_like():
    # standard so(3) table: a non-nilpotent algebra passing the Jacobi check
    g = LieAlgebra(3, {
        (0, 1): {2: Q(1)},
        (0, 2): {1: Q(-1)},
        (1, 2): {0: Q(1)},
    })
    assert jacobi_defect(g) == []
    for (i, j, k) in [(0, 1, 2)]:
        assert all(x == 0 for x in jacobiator(g, i, j, k))


@st.composite
def skew_brackets(draw):
    """Random structure constants with small integer entries, most of
    them failing the Jacobi identity."""
    n = draw(st.integers(3, 6))
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                constants[(i, j)] = dict(enumerate(
                    draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
    return LieAlgebra(n, constants)


@given(skew_brackets())
@settings(max_examples=80, deadline=None)
def test_jacobi_defect_matches_dense_triples(g):
    assert jacobi_defect(g) == brute_jacobi_defect(g)
    check_double_bracket_defects(g)


def check_double_bracket_defects(g):
    """The step defects agree with the dense walks, and every
    double-bracket entry with L^2 times the dense walk."""
    assert two_step_defect(g) == brute_two_step_defect(g)
    assert three_step_defect(g) == brute_three_step_defect(g)
    square = g.integer_table()[1] ** 2
    for (i, j, k), w in g.double_brackets().items():
        dense = bracket_vec_basis(g, bracket_basis(g, i, j), k)
        assert w == {m: square * x for m, x in enumerate(dense) if x != 0}


def test_jacobi_defect_matches_dense_triples_on_families():
    dense = basis_change(families.g_k3k2k1(1, 0, 2), random_invertible(5, rng_for(5), -2, 2))
    for g in (families.g_p1(4), families.g_p01(3), families.rigid_3step_7(),
              families.heisenberg(3), dense, FILIFORM5):
        assert jacobi_defect(g) == brute_jacobi_defect(g) == []
        check_double_bracket_defects(g)


#: the 4-step filiform algebra [X1, X_i] = X_(i+1), i = 2, 3, 4: its double
#: bracket [[X1,X2],X1] = -X4 lies outside the centre and [[X1,X3],X1] = -X5
#: inside it, so `three_step_defect` brackets some double brackets and skips others
FILIFORM5 = LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}})


def test_three_step_defect_with_central_and_noncentral_double_brackets():
    double = FILIFORM5.double_brackets()  # L = 1
    assert double[(0, 1, 0)] == {3: -1} and double[(0, 2, 0)] == {4: -1}
    assert three_step_defect(FILIFORM5) == brute_three_step_defect(FILIFORM5) == [
        (0, 1, 0, 0)]


def test_three_step_defect_is_kept_and_returned_as_a_new_list():
    """The defect is computed once per algebra; a caller that changes the
    list it got does not change what the next call returns."""
    g = LieAlgebra(5, dict(FILIFORM5.constants))
    first = three_step_defect(g)
    first.append((9, 9, 9, 9))
    first[0] = (1, 1, 1, 1)
    second = three_step_defect(g)
    assert second == [(0, 1, 0, 0)] and second is not first
    second.clear()
    assert three_step_defect(g) == [(0, 1, 0, 0)]


def test_jacobi_violation_detected():
    g = LieAlgebra(3, {
        (0, 1): {2: Q(1)},   # [e1,e2] = e3
        (0, 2): {0: Q(1)},   # [e1,e3] = e1
    })
    assert (0, 1, 2) in jacobi_defect(g)
    assert any(x != 0 for x in jacobiator(g, 0, 1, 2))


@pytest.mark.parametrize("value,error,text", [
    pytest.param({2: 0.1}, TypeError, "0.1", id="0.1"),
    pytest.param({2: True}, TypeError, "True", id="True"),
    # a bracket value is {coordinate: rational}: no dense tuple or list
    pytest.param((0, 0, 1), TypeError, "mapping", id="tuple"),
    pytest.param([0, 0, 1], TypeError, "mapping", id="list"),
    pytest.param({3: 1}, ValueError, "coordinate 3", id="coordinate-3"),
    pytest.param({-1: 1}, ValueError, "coordinate -1", id="coordinate-minus-1"),
])
def test_lie_algebra_rejects_float_and_bool(value, error, text):
    with pytest.raises(error, match=re.escape(text)):
        LieAlgebra(3, {(0, 1): value})


def test_lie_algebra_stores_fractions():
    g = LieAlgebra(3, {(0, 1): {0: 0, 1: "-2/4", 2: 3}, (0, 2): {0: 0, 1: "0"}})
    assert g.constants == {(0, 1): {1: Q(-1, 2), 2: Q(3)}}
    assert all(type(x) is Q for x in g.constants[(0, 1)].values())


# --- central series, nilindex --------------------------------------------------

def test_lcs_abelian():
    assert lower_central_series(abelian(4)).dims == (4, 0)
    assert lower_central_series(abelian(0)).dims == (0,)


def test_lcs_heisenberg():
    assert lower_central_series(families.heisenberg(1)).dims == (3, 1, 0)


def test_lcs_rigid7():
    chain = lower_central_series(families.rigid_3step_7())
    assert chain.dims == (7, 4, 2, 0)
    # oracle: spans computed densely and independently
    g = families.rigid_3step_7()
    layer1 = [[v.get(c, Q(0)) for c in range(7)] for v in chain.bases[1]]
    assert span_dim(layer1) == 4
    # g^1 = span{X3, X4, X6, X7}
    expect = [[Q(0)] * 7 for _ in range(4)]
    for r, c in enumerate((2, 3, 5, 6)):
        expect[r][c] = Q(1)
    assert span_dim(layer1 + expect) == 4


def check_lcs_against_dense_rref(g):
    """Every sparse basis of the series is the RREF of the dense brackets
    [v, X_k] of the previous basis rows v."""
    n = g.dim
    chain = lower_central_series(g)
    assert chain.bases[0] == tuple({i: Q(1)} for i in range(n))
    assert chain.dims == tuple(len(b) for b in chain.bases)
    for prev, basis in zip(chain.bases, chain.bases[1:]):
        rows = [list(bracket_vec_basis(g, [v.get(c, Q(0)) for c in range(n)], k))
                for v in prev for k in range(n)]
        expected = dense_rref(rows)
        assert list(basis) == [expected[c] for c in sorted(expected)]
    return chain.dims


def test_lcs_matches_dense_rref_on_random_nilpotent():
    rng = rng_for(41)
    for _ in range(50):
        dims = check_lcs_against_dense_rref(random_nilpotent(rng))
        assert dims[-1] == 0 and all(a > b for a, b in zip(dims, dims[1:]))


def test_lcs_matches_dense_rref_on_non_nilpotent():
    # [X1,X2] = X3, [X1,X3] = -X2: g^1 = span{X2, X3} = [g^1, g]
    g = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}})
    assert check_lcs_against_dense_rref(g) == (3, 2, 2)


SL2 = LieAlgebra(3, {(0, 1): {2: Q(1)}, (0, 2): {1: Q(-1)}, (1, 2): {0: Q(1)}})


def test_nilindex_values():
    assert nilindex(families.heisenberg(1)) == 2
    assert nilindex(families.g_k3k2k1(1, 0, 2)) == 3
    assert nilindex(abelian(5)) == 1
    assert nilindex(abelian(0)) == 0


def test_nilindex_error_for_non_nilpotent():
    g = LieAlgebra(3, {
        (0, 1): {2: Q(1)},
        (0, 2): {1: Q(-1)},
        (1, 2): {0: Q(1)},
    })
    with pytest.raises(ValueError, match="stabilized at nonzero ideal"):
        nilindex(g)


@pytest.mark.parametrize("dim,constants,msg", [
    (-1, None, "dimension must be nonnegative"),
    (3, {(1, 1): {2: 1}}, re.escape("bracket pair (1,1) must satisfy")),
    (3, {(2, 0): {1: 1}}, re.escape("bracket pair (2,0) must satisfy")),
])
def test_lie_algebra_rejects_bad_dim_and_pairs(dim, constants, msg):
    with pytest.raises(ValueError, match=msg):
        LieAlgebra(dim, constants)


def test_characteristic_sequence_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="stabilized at nonzero ideal"):
        characteristic_sequence(SL2)


def test_step_defects():
    assert two_step_defect(families.heisenberg(3)) == []
    g = families.g_p01(2)
    assert three_step_defect(g) == []
    assert two_step_defect(g) != []
    a = abelian(3)
    assert two_step_defect(a) == [] and three_step_defect(a) == []


# --- ad, Jordan partitions (dense oracle in helpers) ----------------------------

def test_ad_matrix_heisenberg():
    m = ad_matrix(families.heisenberg(1), e(3, 0))
    assert m.entries == {(2, 1): Q(1)}
    assert ad_matrix(families.heisenberg(1), (Q(0),) * 3).entries == {}


def test_ad_squared_zero_on_g21():
    g = families.g_p1(2)
    m = ad_matrix(g, e(5, 0))
    assert len({r for (r, c) in m.entries}) == 2  # rank 2 image
    assert not matmul(m, m).entries


def test_jordan_partition_zero_and_block():
    assert jordan_partition(RationalMatrix(4, 4)).parts == (1, 1, 1, 1)
    block = RationalMatrix(3, 3, {(0, 1): Q(1), (1, 2): Q(1)})
    assert jordan_partition(block).parts == (3,)


def test_jordan_partition_g21():
    g = families.g_p1(2)
    assert jordan_partition(ad_matrix(g, e(5, 0))).parts == (2, 2, 1)


def test_jordan_partition_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_partition(RationalMatrix(3, 3, {(i, i): 1 for i in range(3)}))


@given(st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_jordan_partition_conjugate_identity(n, rnd):
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = rnd.randint(-2, 2)
            if v:
                entries[(i, j)] = Q(v)
    m = RationalMatrix(n, n, entries)  # strictly upper triangular: nilpotent
    parts = jordan_partition(m).parts
    assert sum(parts) == n
    assert all(a >= b for a, b in zip(parts, parts[1:]))
    # conjugate-partition identity against ranks from the sparse reducer
    power = m
    ranks = [n]
    while True:
        red = RowReducer(n)
        for row in power.rows_map().values():
            red.add(row)
        ranks.append(red.rank)
        if red.rank == 0:
            break
        power = matmul(power, m)
    for k in range(1, len(ranks)):
        assert sum(1 for p in parts if p >= k) == ranks[k - 1] - ranks[k]


# --- characteristic sequences ---------------------------------------------------

def test_charseq_examples():
    assert characteristic_sequence(families.heisenberg(3)).parts == (2, 1, 1, 1, 1, 1)
    assert characteristic_sequence(families.rigid_3step_7()).parts == (3, 3, 1)
    assert characteristic_sequence(abelian(4)).parts == (1, 1, 1, 1)
    assert characteristic_sequence(abelian(0)).parts == ()


def test_charseq_invariant_under_basis_change():
    rng = rng_for(0xC0FFEE)
    for g in (families.heisenberg(2), families.g_p1(2), families.g_k3k2k1(1, 0, 2)):
        want = characteristic_sequence(g).parts
        for _ in range(20):
            f = random_invertible(g.dim, rng, -2, 2)
            cs = characteristic_sequence(basis_change(g, f))
            assert cs.parts == want and cs.certified


def test_charseq_leading_part_is_nilindex_on_families():
    for g in (families.heisenberg(2), families.g_p1(3), families.g_p12(3),
              families.g_k3k2k1(2, 1, 1), families.rigid_2step("g7"),
              families.rigid_3step_7()):
        assert characteristic_sequence(g).parts[0] == nilindex(g)


#: the free 3-step algebra on two generators: rank (ad x)^2 <= 1 for every
#: x while dim g^2 = 2, so no candidate meets the bounds
FREE_3STEP_2GEN = LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}})


def charseq_corpus():
    """Model algebras whose characteristic sequence the rank bounds prove."""
    return ([families.heisenberg(p) for p in (1, 2, 3, 4)]
            + [families.g_p1(p) for p in (2, 3, 5, 9)]
            + [families.g_p12(p) for p in (2, 3, 4)]
            + [families.rigid_2step(name) for name in ("g6", "g7", "g8", "g9", "h6", "h8", "h10")]
            + [families.g_k3k2k1(*k) for k in ((1, 0, 2), (1, 0, 3), (2, 1, 1))]
            + [families.g_p01(2), families.g_p01(3), families.rigid_3step_7()]
            + families.classification_F731())


def test_charseq_uncertified_on_free_3step():
    cs = characteristic_sequence(FREE_3STEP_2GEN)
    assert cs.parts == (3, 1, 1) and not cs.certified
    assert lower_central_series(FREE_3STEP_2GEN).dims[2] == 2


def test_charseq_certified_by_combination_on_h3_plus_h3():
    g = direct_sum(families.heisenberg(1), families.heisenberg(1))
    # every basis vector has ad-rank 1, below the bound n - dim z - 1 = 2
    assert all(_ad_ranks(g.integer_table()[0], {i: Q(1)}, 6)[0] <= 1 for i in range(6))
    cs = characteristic_sequence(g)
    assert cs.parts == (2, 2, 1, 1) and cs.certified


def test_charseq_certified_and_ranks_match_dense_oracle_on_corpus():
    rng = rng_for(DEFAULT_SEED)
    for g in charseq_corpus():
        n = g.dim
        cs = characteristic_sequence(g)
        assert cs.certified
        xs = [e(n, i) for i in range(n)]
        xs += [tuple(Q(rng.randint(-3, 3)) for _ in range(n)) for _ in range(2)]
        for x in xs:
            m = ad_matrix(g, x)
            assert _ad_ranks(g.integer_table()[0], {i: c for i, c in enumerate(x) if c}, n) \
                == power_ranks(m)
            assert jordan_partition(m).parts <= cs.parts


def test_charseq_mark_does_not_affect_equality_or_order():
    assert CharSeq((2, 1), certified=True) == CharSeq((2, 1))
    assert not CharSeq((2, 1), certified=True) < CharSeq((2, 1))


def test_charseq_validation():
    with pytest.raises(ValueError):
        CharSeq((1, 2))
    with pytest.raises(ValueError):
        CharSeq((2, 0))


# --- center, derived, derivations -----------------------------------------------

def test_center_and_derived():
    h3 = families.heisenberg(1)
    assert center_dim(h3) == 1
    assert derived_dim(h3) == 1
    assert center_dim(families.g_p1(2)) == 2


def test_derivation_dims():
    assert derivation_algebra_dim(abelian(3)) == 9
    for p in (1, 2, 3):
        h = families.heisenberg(p)
        assert derivation_algebra_dim(h) == (2 * p + 1) * (p + 1)


# --- basis change, direct sums ----------------------------------------------------

def test_basis_change_identity():
    g = families.g_p1(2)
    assert basis_change(g, RationalMatrix(5, 5, {(i, i): 1 for i in range(5)})) == g


def test_basis_change_scaling_realizes_linear_deformation():
    # Y1 = X1, Yi = t*Xi turns a deformed family member into mu0 + t*phi
    from nilrig.cohom import deformed_bracket
    t = Q(3)
    template = families.normalized_cocycle_template("221", 3)
    coeffs = {name: Q(k + 1) for k, name in enumerate(template.free)}
    g = families.deformed_2step("g_p1", families.FamilyParams("221", p=3, coeffs=coeffs))
    n = g.dim
    f = RationalMatrix(n, n, {(0, 0): Q(1), **{(i, i): t for i in range(1, n)}})
    moved = basis_change(g, f)
    base = families.g_p1(3)
    phi = template.instantiate(coeffs)
    assert moved == deformed_bracket(base, phi, t)


def test_basis_change_requires_invertible():
    with pytest.raises(ValueError, match="singular"):
        basis_change(families.heisenberg(1), RationalMatrix(3, 3))
    with pytest.raises(ValueError, match="wrong shape"):
        basis_change(families.heisenberg(1), RationalMatrix(2, 2, {(0, 0): 1, (1, 1): 1}))


def rational_invertible(n, rng):
    """An invertible matrix with entries p/q, |p| <= 3, 1 <= q <= 4."""
    while True:
        f = RationalMatrix(n, n, {(i, j): Q(rng.randint(-3, 3), rng.randint(1, 4))
                                  for i in range(n) for j in range(n)})
        if dense_rref([[f.entries.get((i, j), 0) for j in range(n)]
                       for i in range(n)]).keys() == set(range(n)):
            return f


#: a skew bracket that fails the Jacobi identity; transport of structure
#: is defined for any skew bilinear map
SKEW_NON_LIE = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {1: 1, 3: "1/2"},
                              (1, 3): {0: 2, 3: -1}, (2, 3): {2: 1}})


@pytest.mark.parametrize("g,dims", [(abelian(0), (0,)), (SL2, (3, 3)), (SKEW_NON_LIE, (4, 3, 3))],
                         ids=["abelian(0)", "sl2", "skew"])
def test_lcs_stop_rule_matches_dense_rref(g, dims):
    """The series stops at once on the zero algebra, and after one
    repeated dimension on sl2, its own derived algebra, and on the skew
    input that breaks Jacobi."""
    assert check_lcs_against_dense_rref(g) == dims


#: a Lie algebra with rational structure constants: g_k3k2k1(1,0,2) with
#: its basis rescaled by diag(1, 1/2, 1/3, 2, 1)
RATIONAL_K3K2K1 = dense_basis_change(
    families.g_k3k2k1(1, 0, 2),
    RationalMatrix(5, 5, {(k, k): Q(d) for k, d in enumerate(["1", "1/2", "1/3", "2", "1"])}))


@pytest.mark.parametrize("g", [families.heisenberg(2), families.rigid_3step_7(),
                               families.g_p01(2), FILIFORM5, SKEW_NON_LIE, RATIONAL_K3K2K1],
                         ids=["heisenberg(2)", "rigid7", "g_p01(2)", "filiform5", "skew",
                              "g_k3k2k1(1,0,2)-rational"])
def test_basis_change_matches_dense_oracle(g):
    assert bool(jacobi_defect(g)) == (g is SKEW_NON_LIE)
    if g is RATIONAL_K3K2K1:
        assert any(x.denominator > 1 for vec in g.constants.values() for x in vec.values())
    rng = rng_for(11)
    n = g.dim
    fs = ([random_invertible(n, rng, -2, 2) for _ in range(3)]
          + [random_unipotent(n, rng, extra=n) for _ in range(3)]
          + [rational_invertible(n, rng) for _ in range(3)])
    assert any(v.denominator > 1 for f in fs for v in f.entries.values())
    for f in fs:
        assert basis_change(g, f) == dense_basis_change(g, f)


def _rational_move(g, seed):
    return basis_change(g, rational_invertible(g.dim, rng_for(seed)))


def _independent(rows, candidates, count):
    """The first `count` candidates that each raise the dense rank of the
    rows and of those taken before."""
    taken = []
    for v in candidates:
        if len(taken) == count:
            break
        if dense_rank(rows + taken + [v]) > dense_rank(rows + taken):
            taken.append(v)
    return taken


def fraction_generator_basis(g):
    """adapted_basis recomputed on dense Fraction vectors: (f, chosen,
    central), f None when every series basis row is a unit vector, chosen
    the column -> (y column, generator column) of each bracket column and
    central the columns of the central generators.

    The series is dense Gauss-Jordan of the dense brackets [v, X_k].
    The generators are taken modulo g^1 from the centre's RREF kernel
    basis, each vector cleared of denominators, and then from the unit
    vectors; layer k from the dense brackets [y, x] modulo g^(k+1).  A
    series that stops at a nonzero ideal ends with its RREF basis, and a
    layer that falls short gives None."""
    n = g.dim
    none = (None, {}, set())
    bases = [[{i: Q(1)} for i in range(n)]]
    while bases[-1]:
        rows = [list(bracket_vec_basis(g, [v.get(c, Q(0)) for c in range(n)], k))
                for v in bases[-1] for k in range(n)]
        rref = dense_rref(rows)
        bases.append([rref[c] for c in sorted(rref)])
        if len(bases[-1]) == len(bases[-2]):
            break
    if all(len(v) == 1 for basis in bases for v in basis):
        return none
    dense_bases = [[[v.get(c, Q(0)) for c in range(n)] for v in basis] for basis in bases]
    center_rref = dense_rref([[bracket_basis(g, i, j)[m] for i in range(n)]
                              for j in range(n) for m in range(n)])
    center = []
    for free in (c for c in range(n) if c not in center_rref):
        vec = [Q(int(c == free)) for c in range(n)]
        for pc, row in center_rref.items():
            vec[pc] = -row.get(free, Q(0))
        scale = lcm(*(x.denominator for x in vec))
        center.append([x * scale for x in vec])
    units = [[Q(int(c == j)) for c in range(n)] for j in range(n)]
    cols, chosen, central, gens, layer = [], {}, set(), [], []
    for k in range(len(bases) - 1):
        count = len(bases[k]) - len(bases[k + 1])
        if count == 0:
            cols += dense_bases[k]
            break
        if k == 0:
            layer = _independent(dense_bases[1], center + units, count)
            gens = [(len(cols) + a, x) for a, x in enumerate(layer)]
            central = {c for c, x in gens if x in center}
            cols += layer
            continue
        offset = len(cols) - len(layer)
        pairs = {}
        for a, y in enumerate(layer):
            for c, x in gens:
                pairs.setdefault(bracket(g, y, x), (offset + a, c))
        layer = _independent(dense_bases[k + 1], list(pairs), count)
        if len(layer) < count:
            return none
        chosen.update({len(cols) + a: pairs[v] for a, v in enumerate(layer)})
        cols += layer
    f = RationalMatrix(n, n, {(r, c): x for c, v in enumerate(cols)
                              for r, x in enumerate(v) if x})
    return f, chosen, central


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _rational_move(families.g_k3k2k1(1, 0, 2), 23),
                 id="g_k3k2k1(1,0,2)-rational23"),
    pytest.param(lambda: _rational_move(families.g_k3k2k1(1, 0, 2), 24),
                 id="g_k3k2k1(1,0,2)-rational24"),
    pytest.param(lambda: _rational_move(families.rigid_3step_7(), 23), id="rigid7-rational23"),
    pytest.param(lambda: _rational_move(families.rigid_3step_7(), 24), id="rigid7-rational24"),
    pytest.param(lambda: SKEW_NON_LIE, id="skew"),
])
def test_lcs_and_adapted_basis_with_denominators(make):
    """Structure constants and series bases with denominators, so the
    series is taken on L-scaled brackets of integer rows: it still
    matches the dense RREF, and the generator basis matches its Fraction
    recomputation."""
    g = make()
    assert any(x.denominator > 1 for vec in g.constants.values() for x in vec.values())
    bases = lower_central_series(g).bases
    assert any(x.denominator > 1 for basis in bases for v in basis for x in v.values())
    check_lcs_against_dense_rref(g)
    assert adapted_basis(g) == fraction_generator_basis(g)[0]


def test_basis_change_preserves_charseq_on_h5():
    rng = rng_for(17)
    h5 = families.heisenberg(2)
    for _ in range(20):
        f = random_invertible(5, rng, -2, 2)
        cs = characteristic_sequence(basis_change(h5, f))
        assert cs.parts == (2, 1, 1, 1) and cs.certified


# --- adapted basis -------------------------------------------------------------

def diagonal(*diag):
    n = len(diag)
    return RationalMatrix(n, n, {(k, k): Q(d) for k, d in enumerate(diag)})


def test_adapted_basis_none_on_model_bases():
    models = [g for g in charseq_corpus() if g.dim <= 10]
    models += [abelian(0), abelian(4), FILIFORM5, families.g_p01(5), families.g_p1(9)]
    # the diagonal rescalings of the space_dims oracle cases
    models += [basis_change(families.g_k3k2k1(1, 0, 2), diagonal(1, 1, 2, 3, 1)),
               basis_change(families.heisenberg(2), diagonal(1, 1, 1, 1, 2)),
               basis_change(families.g_p12(2), diagonal(1, 1, 2, 1))]
    for g in models:
        assert adapted_basis(g) is None


AFFINE_LINE = LieAlgebra(2, {(0, 1): {1: 1}})  # [X1, X2] = X2: not nilpotent


@pytest.mark.parametrize("g", [families.heisenberg(2), families.g_k3k2k1(1, 0, 2),
                               families.g_p12(2), families.rigid_3step_7(), FILIFORM5,
                               direct_sum(AFFINE_LINE, families.heisenberg(1))],
                         ids=["heisenberg(2)", "g_k3k2k1(1,0,2)", "g_p12(2)", "rigid7",
                              "filiform5", "affine+h3"])
def test_adapted_basis_spans_lower_central_series(g):
    """On dense basis changes f is invertible and, for each k, its last
    dim g^k columns lie in g^k, hence span it."""
    rng = rng_for(19)
    n = g.dim
    for _ in range(4):
        h = basis_change(g, random_invertible(n, rng, -2, 2))
        f = adapted_basis(h)
        assert f is not None
        assert dense_rref(dense_rows(f)).keys() == set(range(n))
        cols = [{r: v for (r, c), v in f.entries.items() if c == k} for k in range(n)]
        chain = lower_central_series(h)
        for dim, basis in zip(chain.dims, chain.bases):
            red = RowReducer(n)
            for v in basis:
                red.add(v)
            assert all(not red.residual(col) for col in cols[n - dim:])


FAMILY_MEMBERS = {
    "heisenberg(2)": families.heisenberg(2),
    "g_p1(3)": families.g_p1(3),
    "g_p12(2)": families.g_p12(2),
    "g6": families.rigid_2step("g6"),
    "g_k3k2k1(1,0,2)": families.g_k3k2k1(1, 0, 2),
    "g_p01(2)": families.g_p01(2),
    "rigid7": families.rigid_3step_7(),
    "deformed_2step": families.deformed_2step("g_p1", families.FamilyParams(
        "221", p=3, coeffs={name: Q(k + 1) for k, name in enumerate(
            families.normalized_cocycle_template("221", 3).free)})),
    "F731[6]": families.classification_F731()[6],
}


@pytest.mark.parametrize("g", FAMILY_MEMBERS.values(), ids=FAMILY_MEMBERS.keys())
def test_generator_basis_brackets_are_unit_columns(g):
    """On dense and rational basis changes of a member of every family the
    generator basis equals its Fraction recomputation; in the new basis
    each chosen bracket [y, x] is one basis vector with coefficient 1, and
    each central generator brackets to 0 with every basis vector."""
    rng = rng_for(31)
    n = g.dim
    for f in (random_invertible(n, rng, -2, 2), rational_invertible(n, rng)):
        moved = basis_change(g, f)
        a, chosen, central = fraction_generator_basis(moved)
        assert a is not None and adapted_basis(moved) == a
        h = basis_change(moved, a)
        assert chosen
        for c, (y, x) in chosen.items():
            assert h.constants[(min(x, y), max(x, y))] == {c: Q(1 if y < x else -1)}
        assert not any(x in pair for pair in h.constants for x in central)


@pytest.mark.parametrize("g", FAMILY_MEMBERS.values(), ids=FAMILY_MEMBERS.keys())
def test_basis_change_matches_dense_recomputation_on_every_family(g):
    """The integer inverse and transport of basis_change against f^(-1)
    mu(f x, f y) on dense Fractions (`helpers.dense_basis_change`: the
    columns of f bracketed by `helpers.bracket`, the inverse by dense
    Gauss-Jordan of [f | I]), under integer, unipotent and rational f;
    and changing back by f^(-1) gives g again."""
    rng = rng_for(43)
    n = g.dim
    for f in (random_invertible(n, rng, -2, 2), random_unipotent(n, rng, extra=n),
              rational_invertible(n, rng)):
        moved = basis_change(g, f)
        assert moved == dense_basis_change(g, f)
        assert basis_change(moved, invert(f)) == g


def test_central_generators_come_first():
    """g_k3k2k1(1,0,2) has a central vector outside g^1: it is the first
    generator of every dense basis change, so the new basis splits off
    a line."""
    g = families.g_k3k2k1(1, 0, 2)
    rng = rng_for(37)
    for _ in range(4):
        h = basis_change(g, random_invertible(5, rng, -2, 2))
        f, _, central = fraction_generator_basis(h)
        assert central == {0} and adapted_basis(h) == f


def test_direct_sum():
    s = direct_sum(families.heisenberg(1), abelian(2))
    assert characteristic_sequence(s).parts == (2, 1, 1, 1)
    g = families.g_p1(2)
    assert direct_sum(g, abelian(0)) == g
    assert direct_sum(abelian(2), abelian(3)) == abelian(5)
    assert nilindex(direct_sum(families.g_k3k2k1(1, 0, 2), families.heisenberg(1))) == 3


# --- randomized structure checks ----------------------------------------------------

def test_step_predicates_match_defects_on_random_nilpotent():
    rng = rng_for(0xC0FFEE)
    seen_two, seen_three = 0, 0
    for _ in range(200):
        g = random_nilpotent(rng, max_dim=6)
        assert jacobi_defect(g) == []
        n = nilindex(g)
        two_ok = two_step_defect(g) == []
        three_ok = three_step_defect(g) == []
        assert two_ok == (n <= 2)
        assert three_ok == (n <= 3)
        seen_two += n == 2
        seen_three += n == 3
    assert seen_two > 10 and seen_three > 10
