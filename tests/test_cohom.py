import re
from copy import deepcopy
from fractions import Fraction as Q
from itertools import combinations, permutations, product
from functools import partial
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilrig import families, report
from nilrig.cohom import (
    Cochain,
    CochainIndex,
    ComplexKind,
    MultiMap,
    ch_delta2,
    ch_kernel_contained_in_chevalley,
    check_linear_deformation,
    chevalley_and_cr_dims,
    chevalley_delta1,
    chevalley_delta2,
    chevalley2_rows,
    coboundary_image_vectors,
    coboundary_rank,
    comp1,
    deformed_bracket,
    derivation_algebra_dim,
    jordan_cocycle_defect,
    jordan_linearized_defect,
    r_delta2,
    r2_rows,
    space_dims,
    t_operator_rows,
    JORDAN_V,
    _DEFORMATION_CONDITIONS,
    _JACOBI,
    _COMB,
    _cleared,
    _combine,
    _format_tuple,
    _graded_pieces,
    _z_rows,
)
from nilrig.exactlin import RationalMatrix, RowReducer, insertion_order
from nilrig.liealg import (
    DEFAULT_SEED,
    LieAlgebra,
    _center_reducer,
    abelian,
    basis_change,
    adapted_basis,
    center_dim,
    characteristic_sequence,
    jacobi_defect,
    lower_central_series,
    three_step_defect,
    two_step_defect,
)
from nilrig.sampling import (
    arbitrary_basis_inputs,
    random_commutative_associative,
    random_endomorphism,
    random_invertible,
    random_skew_cochain,
    rng_for,
)

from helpers import (
    basis_cochains,
    bracket_basis,
    bracket_map,
    bracket_vec_basis,
    brute_b2,
    brute_comp1,
    brute_z2,
    dense,
    dense_rank,
    dense_rref,
    dense_transport_back,
    operator_rows,
    random_coeffs,
    sparse,
    vadd,
    value,
    vscale,
    vzero,
)


def e(n, i):
    """X_i of an n-dimensional space as a value {coordinate: Fraction}."""
    assert 0 <= i < n
    return {i: Q(1)}


def rescaled(g, *diag):
    """`g` in the basis diag(d_1, ..., d_n) X_k: rational structure constants."""
    n = len(diag)
    return basis_change(g, RationalMatrix(n, n, {(k, k): Q(d) for k, d in enumerate(diag)}))


def moved(g, seed):
    """`g` after a random dense basis change: most constants nonzero."""
    return basis_change(g, random_invertible(g.dim, rng_for(seed), -2, 2))


# the four cheapest inputs of ROADMAP's table "space_dims on arbitrary
# bases": {name: (complex, g in its model basis, basis change)}
ARBITRARY = {name: (kind, g, f) for name, kind, g, f in arbitrary_basis_inputs()
             if name in ("g_p01(2)", "rigid7", "g_p1(4)", "g_p01(3)")}


def scaled(g):
    """`g`, checked to have constants with denominators (L > 1), so that
    a test on it exercises the L scale of the cleared tables."""
    assert g.integer_table()[1] > 1
    return g


def single(n, pair, vec_idx, c=1):
    return Cochain(2, n, {pair: {vec_idx: Q(c)}})


def graded(leaves, pieces):
    """`_graded_pieces` with leaves {multidegree: Cochain or MultiMap},
    each cleared as the operators clear theirs."""
    dim = next(iter(leaves.values())).dim
    return _graded_pieces(dim, {d: _cleared(m) for d, m in leaves.items()}, pieces)


def jacobiator_square(phi):
    """(phi . phi)(x,y,z) = phi(phi(x,y),z) + cyclic: the Jacobiator of phi,
    the t^2 piece of the Jacobiator of mu + t*phi."""
    return graded({(1,): phi}, [(_JACOBI, (2,))])[0]


def conditions(check):
    """{name: (ok, witness)} over the conditions of a DeformationCheck."""
    return {name: (ok, witness) for name, ok, witness in check.conditions}


H3 = families.heisenberg(1)

# [X1,X3] = X4, [X2,X3] = 1/2 X4: the zero-pair T block is 2 phi^1 + phi^2
# (the RREF row phi^1 + 1/2 phi^2 times its lcm 2) and phi^3
HALF4 = LieAlgebra(4, {(0, 2): {3: Q(1)}, (1, 2): {3: Q(1, 2)}})
# the same plus [X4,X3] = X5, 3-step: the zero-pair delta_R block is
# 2 phi^1 + phi^2 and phi^3
HALF5 = LieAlgebra(5, {(0, 2): {3: Q(1)}, (1, 2): {3: Q(1, 2)}, (2, 3): {4: Q(-1)}})


# --- strict values -------------------------------------------------------------

@pytest.mark.parametrize("cls", [Cochain, MultiMap])
@pytest.mark.parametrize("value,error,text", [
    pytest.param({0: 0.1}, TypeError, "0.1", id="0.1"),
    pytest.param({0: True}, TypeError, "True", id="True"),
    # a value is {coordinate: rational}: no dense tuple or list, and no
    # fourth coordinate in a 3-dim space
    pytest.param((1, 2, 3, 4), TypeError, "mapping", id="tuple"),
    pytest.param([0, 0, 1], TypeError, "mapping", id="list"),
    pytest.param({3: 4}, ValueError, "coordinate 3", id="coordinate-3"),
    pytest.param({-1: 1}, ValueError, "coordinate -1", id="coordinate-minus-1"),
])
def test_multilinear_rejects_float_and_bool(cls, value, error, text):
    with pytest.raises(error, match=re.escape(text)):
        cls(2, 3, {(0, 1): value})


@pytest.mark.parametrize("cls", [Cochain, MultiMap])
def test_multilinear_stores_fractions(cls):
    x = Q(2, 3)
    m = cls(2, 3, {(0, 1): {0: x, 1: 1, 2: "-1/2"}, (0, 2): {0: 0, 1: "0", 2: Q(0)}})
    assert m.coeffs == {(0, 1): {0: x, 1: Q(1), 2: Q(-1, 2)}}
    assert m.coeffs[(0, 1)][0] is x  # a Fraction is stored as given
    assert all(type(v) is Q for v in m.coeffs[(0, 1)].values())


@pytest.mark.parametrize("bad", [0.1, True])
def test_deformed_bracket_rejects_float_and_bool_parameter(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        deformed_bracket(H3, single(3, (0, 1), 2), bad)


def test_deformed_bracket_parameter_as_int_or_string():
    phi = single(3, (0, 2), 1)
    assert deformed_bracket(H3, phi, "1/2") == deformed_bracket(H3, phi, Q(1, 2))
    assert deformed_bracket(H3, phi, 2).constants[(0, 2)] == {1: Q(2)}


# --- degree-1 operator -------------------------------------------------------

def test_delta1_identity_map_returns_bracket():
    n = 5
    g = families.g_p1(2)
    ident = Cochain(1, n, {(i,): e(n, i) for i in range(n)})
    d = chevalley_delta1(g, ident)
    for (i, j), vec in g.constants.items():
        assert value(d, (i, j)) == vec
    assert len(d.coeffs) == len(g.constants)


def test_delta1_abelian_is_zero():
    f = random_endomorphism(4, rng_for(1))
    assert chevalley_delta1(abelian(4), f).is_zero()


def test_delta1_hand_case():
    # f = E11 on the 3-dim Heisenberg: delta f (X1, X2) = X3
    f = Cochain(1, 3, {(0,): e(3, 0)})
    d = chevalley_delta1(H3, f)
    assert value(d, (0, 1)) == e(3, 2)
    assert value(d, (0, 2)) == {}
    assert chevalley_delta1(H3, Cochain.zero(1, 3)).is_zero()


@pytest.mark.parametrize("make,msg", [
    (lambda: Cochain(0, 3), "arity must be positive"),
    (lambda: Cochain(2, 3, {(0, 3): {0: 1}}), re.escape("index tuple (0, 3) out of range")),
    (lambda: Cochain(2, 3, {(1, 0): {0: 1}}), re.escape("(1, 0) must be strictly increasing")),
    (lambda: Cochain(2, 3, {(1, 1): {0: 1}}), re.escape("(1, 1) must be strictly increasing")),
    (lambda: MultiMap(2, 3, {(0, 3): {0: 1}}), re.escape("bad index tuple (0, 3)")),
    (lambda: MultiMap(2, 3, {(0,): {0: 1}}), re.escape("bad index tuple (0,)")),
])
def test_multilinear_maps_reject_bad_keys(make, msg):
    with pytest.raises(ValueError, match=msg):
        make()


def test_space_dims_rejects_unknown_kind():
    with pytest.raises(ValueError, match=re.escape("unknown complex kind: 'bogus'")):
        space_dims(H3, "bogus")


def test_delta1_rejects_wrong_arity():
    with pytest.raises(ValueError, match="arity-1"):
        chevalley_delta1(H3, single(3, (0, 1), 2))


# --- degree-2 Chevalley operator -----------------------------------------------

def test_delta2_of_bracket_vanishes():
    for g in (H3, families.g_p1(2), families.rigid_3step_7()):
        mu = Cochain(2, g.dim, dict(g.constants))
        assert chevalley_delta2(g, mu).is_zero()


def test_delta2_abelian_zero():
    phi = random_skew_cochain(4, rng_for(3))
    assert chevalley_delta2(abelian(4), phi).is_zero()


def test_delta2_hand_case():
    # phi(X1,X2) = X1 on the 3-dim Heisenberg; direct six-term expansion:
    # [X1,phi(X2,X3)] - [X2,phi(X1,X3)] + [X3,phi(X1,X2)]
    #   - phi([X1,X2],X3) + phi([X1,X3],X2) - phi([X2,X3],X1)
    # = 0 - 0 + [X3,X1] - phi(X3,X3) + 0 - 0 = 0
    phi = single(3, (0, 1), 0)
    d = chevalley_delta2(H3, phi)
    assert value(d, (0, 1, 2)) == {}
    # and on h3 with phi(X2,X3) = X2 the coboundary term survives:
    phi2 = single(3, (1, 2), 1)
    d2 = chevalley_delta2(H3, phi2)
    # [X1, phi(X2,X3)] = [X1,X2] = X3; all other five terms vanish
    assert value(d2, (0, 1, 2)) == e(3, 2)


# --- 2-step operator T ----------------------------------------------------------

def test_t_operator_basic():
    assert ch_delta2(H3, Cochain.zero(2, 3)).is_zero()
    mu = Cochain(2, 3, dict(H3.constants))
    assert ch_delta2(H3, mu).is_zero()


def test_t_operator_hand_case():
    # phi(X2,X3) = X2: T(phi)(X1,X2,X3) = mu(phi(X1,X2),X3) + phi(mu(X1,X2),X3)
    # = 0 + phi(X3,X3) = 0 but T(phi)(X2,X3,X1) = mu(X2,X1)... nonzero entry:
    phi = single(3, (1, 2), 1)
    t = ch_delta2(H3, phi)
    # T(phi)(X2,X3,X1) = mu(phi(X2,X3),X1) + phi(mu(X2,X3),X1) = [X2,X1] = -X3
    assert value(t, (1, 2, 0)) == {2: Q(-1)}
    assert not t.is_zero()


def test_t_operator_requires_two_step():
    with pytest.raises(ValueError, match="not 2-step"):
        ch_delta2(families.g_p01(2), single(7, (0, 1), 2))


# --- comp1 and the Jacobiator -----------------------------------------------------

def test_comp1_definition():
    g = families.rigid_3step_7()
    mu = bracket_map(g)
    mm = comp1(mu, mu)
    # (mu o1 mu)(x,y,z) = [[x,y],z]
    for (i, j) in sorted(g.constants):
        vec = bracket_basis(g, i, j)
        for k in range(g.dim):
            assert value(mm, (i, j, k)) == sparse(bracket_vec_basis(g, vec, k))


@st.composite
def multilinear_maps(draw, dim):
    """A Cochain or MultiMap of arity 1-3 with a few rational values."""
    arity = draw(st.integers(1, 3))
    skew = draw(st.booleans())
    keys = [t for t in product(range(dim), repeat=arity)
            if not skew or all(a < b for a, b in zip(t, t[1:]))]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)) if keys else []
    values = st.lists(st.one_of(st.fractions(-2, 2, max_denominator=3), st.integers(-2, 2)),
                      min_size=dim, max_size=dim)
    coeffs = {t: dict(enumerate(draw(values))) for t in chosen}
    return (Cochain if skew else MultiMap)(arity, dim, coeffs)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(multilinear_maps(n), multilinear_maps(n))),
       st.data())
@settings(max_examples=200, deadline=None)
def test_comp1_matches_dense_walk(pair, data):
    f, h = pair
    slot = data.draw(st.integers(0, f.arity - 1), label="slot")
    out = comp1(f, h, slot)
    assert out == brute_comp1(f, h, slot)
    for m in (f, h, out):  # every stored value is a nonzero vector of Fractions
        for vec in m.coeffs.values():
            assert vec and all(x and type(x) is Q for x in vec.values())


def _dense_cyclic_sum(n, sign, *maps):
    """The arity-3 Cochain with value sign * sum of m(x,y,z) + m(y,z,x) +
    m(z,x,y) over `maps` on each x < y < z, evaluated densely."""
    coeffs = {}
    for x, y, z in combinations(range(n), 3):
        acc = vzero(n)
        for m in maps:
            for u in ((x, y, z), (y, z, x), (z, x, y)):
                acc = vadd(acc, dense(value(m, u), n))
        coeffs[(x, y, z)] = sparse(vscale(sign, acc))
    return Cochain(3, n, coeffs)


def _dense_sum(arity, n, *maps):
    keys = set().union(*(m.coeffs for m in maps))
    return MultiMap(arity, n, {k: sparse(map(sum, zip(*(dense(value(m, k), n) for m in maps))))
                               for k in keys})


DENSE_K3K2K1 = moved(families.g_k3k2k1(1, 0, 2), 3)
DENSE_P12 = moved(families.g_p12(2), 37)
FILIFORM5 = LieAlgebra(5, {(0, 1): e(5, 2), (0, 2): e(5, 3), (0, 3): e(5, 4)})


@pytest.mark.parametrize("g", [families.g_p01(2), families.rigid_3step_7(), DENSE_K3K2K1],
                         ids=["g_p01(2)", "rigid7", "dense-k3k2k1"])
def test_degree2_operators_match_dense_compositions_on_basis(g):
    """chevalley_delta2 and r_delta2 are linear in phi, so agreeing with
    their definitions on every basis cochain proves them equal; the
    quadratic Jacobiator of phi is compared on the same cochains.  The
    reference composes with brute_comp1 and a bracket map built from
    `bracket_basis`, and sums values densely."""
    n = g.dim
    mu = bracket_map(g)
    mumu = brute_comp1(mu, mu)
    for phi in basis_cochains(n):
        assert chevalley_delta2(g, phi) == _dense_cyclic_sum(
            n, -1, brute_comp1(mu, phi), brute_comp1(phi, mu))
        assert jacobiator_square(phi) == _dense_cyclic_sum(n, 1, brute_comp1(phi, phi))
        assert r_delta2(g, phi) == _dense_sum(
            4, n, brute_comp1(mu, brute_comp1(mu, phi)),
            brute_comp1(mu, brute_comp1(phi, mu)), brute_comp1(phi, mumu))


def _dense_combination(like, *terms):
    """The sum of c * m over the (c, m) in `terms`, summed densely on each
    stored key, as a map of the type and shape of `like`."""
    n = like.dim
    coeffs = {}
    for k in set().union(*(m.coeffs for _, m in terms)):
        acc = vzero(n)
        for c, m in terms:
            acc = vadd(acc, vscale(c, dense(value(m, k), n)))
        coeffs[k] = sparse(acc)
    return type(like)(like.arity, n, coeffs)


@pytest.mark.parametrize("g", [families.g_p01(2), families.rigid_3step_7(), DENSE_K3K2K1],
                         ids=["g_p01(2)", "rigid7", "dense-k3k2k1"])
def test_deformation_pieces_match_dense_compositions_on_basis(g):
    """Every piece in t that `check_linear_deformation` tests, on every
    fifth basis cochain phi, against its definition composed with
    brute_comp1: the nonlinear pieces meet the dense oracle here (the
    linear ones are compared on the whole basis above).  The pieces are
    algebra in mu and phi, so 2-step and 3-step pieces are compared on
    each g."""
    n = g.dim
    mu = bracket_map(g)
    for phi in basis_cochains(n)[::5]:
        sq = brute_comp1(phi, phi)
        expected = {
            "ch_cocycle": _dense_sum(3, n, brute_comp1(mu, phi), brute_comp1(phi, mu)),
            "quadratic": sq,
            "chevalley_cocycle": _dense_cyclic_sum(
                n, 1, brute_comp1(mu, phi), brute_comp1(phi, mu)),
            "jacobiator_square": _dense_cyclic_sum(n, 1, sq),
            "r_cocycle": _dense_sum(4, n, brute_comp1(mu, brute_comp1(mu, phi)),
                                    brute_comp1(mu, brute_comp1(phi, mu)),
                                    brute_comp1(phi, brute_comp1(mu, mu))),
            "mixed_quadratic": _dense_sum(4, n, brute_comp1(mu, sq),
                                          brute_comp1(phi, brute_comp1(phi, mu)),
                                          brute_comp1(phi, brute_comp1(mu, phi))),
            "cubic": brute_comp1(phi, sq),
        }
        for steps in (2, 3):
            conditions = _DEFORMATION_CONDITIONS[steps]
            pieces = graded({(0,): bracket_map(g), (1,): phi},
                            [(identity, (k,)) for _, identity, k in conditions])
            for (name, _, _), piece in zip(conditions, pieces):
                assert piece == expected[name], name


@pytest.mark.parametrize("g", [families.g_p01(2), DENSE_K3K2K1], ids=["g_p01(2)", "dense-k3k2k1"])
def test_polarised_piece_is_one_call(g):
    """Q(phi_a, phi_b), the part of degree (1, 1) of F(mu + s phi_a + t phi_b),
    is one expansion; it is the polarisation Q(a + b) - Q(a) - Q(b) of the
    t^2 piece Q, and it matches its definition composed with brute_comp1:
    the six placements of (mu, a, b) in nu o1 (nu o1 nu), and the cyclic
    sum of a o1 b + b o1 a for the Jacobiator."""
    n = g.dim
    mu = bracket_map(g)
    basis = basis_cochains(n)
    rng = rng_for(43)
    pairs = [(basis[i], basis[j]) for i, j in (rng.sample(range(len(basis)), 2) for _ in range(12))]
    pairs += [(basis[i], basis[i + 1]) for i in range(0, len(basis) - 1, 7)]
    def square(identity, phi):
        return graded({(0,): mu, (1,): phi}, [(identity, (2,))])[0]

    for a, b in pairs:
        both = _dense_combination(a, (1, a), (1, b))
        for identity, composed in (
                (_COMB[3], _dense_sum(4, n, *(brute_comp1(x, brute_comp1(y, z))
                                                 for x, y, z in permutations((mu, a, b))))),
                (_JACOBI, _dense_cyclic_sum(n, 1, brute_comp1(a, b), brute_comp1(b, a)))):
            [polar] = graded({(0, 0): mu, (1, 0): a, (0, 1): b}, [(identity, (1, 1))])
            assert polar == _dense_combination(polar, (1, square(identity, both)),
                                               (-1, square(identity, a)), (-1, square(identity, b)))
            assert polar == composed


def _symmetric_basis(n):
    return [MultiMap(2, n, {(i, j): {m: Q(1)}, (j, i): {m: Q(1)}})
            for i in range(n) for j in range(i, n) for m in range(n)]


def _dense_jordan(n, *signed_maps):
    """(sum of c * F) o Phi_v over the (c, F) in `signed_maps`, arity 4,
    summed densely on every argument tuple: the value at (x1..x4) adds
    F(x_sigma(1), .., x_sigma(4)) for each sigma of v, in one-line notation."""
    perms = ((1, 2, 3, 0), (2, 0, 3, 1), (0, 1, 3, 2))
    tuples = list(product(range(n), repeat=4))
    total = {t: vzero(n) for t in tuples}
    for c, m in signed_maps:
        for t in tuples:
            total[t] = vadd(total[t], vscale(c, dense(value(m, t), n)))
    coeffs = {}
    for t in tuples:
        acc = vzero(n)
        for p in perms:
            acc = vadd(acc, total[tuple(t[r] for r in p)])
        coeffs[t] = sparse(acc)
    return MultiMap(4, n, coeffs)


def _dense_outer(outer, left, right):
    """(x1..x4) |-> outer(left(x1,x2), right(x3,x4))."""
    return brute_comp1(brute_comp1(outer, left), right, 2)


def test_jordan_defects_match_dense_compositions():
    """Both Jordan defects against their six-term definitions composed
    with brute_comp1, on a Jordan algebra, a non-Jordan commutative
    multiplication and a random commutative associative one, with phi
    every other basis symmetric map."""
    rng = rng_for(47)
    algebras = [matrix_jordan(), MultiMap(2, 2, {(0, 0): {1: Q(1)}, (1, 1): {0: Q(1)}}),
                random_commutative_associative(rng, 3)]
    for a in algebras:
        n = a.dim
        assert jordan_linearized_defect(a) == _dense_jordan(
            n, (1, brute_comp1(a, brute_comp1(a, a))), (-1, _dense_outer(a, a, a)))
        for phi in _symmetric_basis(n)[::2]:
            assert jordan_cocycle_defect(a, phi) == _dense_jordan(
                n, (1, brute_comp1(phi, brute_comp1(a, a))),
                (1, brute_comp1(a, brute_comp1(phi, a))),
                (1, brute_comp1(a, brute_comp1(a, phi))),
                (-1, _dense_outer(a, a, phi)), (-1, _dense_outer(a, phi, a)),
                (-1, _dense_outer(phi, a, a)))


def _scaled(c, m):
    """c * m, of the type and shape of m."""
    return type(m)(m.arity, m.dim, {k: {i: c * x for i, x in v.items()} for k, v in m.coeffs.items()})


def test_operators_keep_the_scales_of_rational_leaves():
    """The operators clear each input map by the lcm of its denominators
    and carry that scale through every composed node.  Here mu has
    denominators and phi, phi_a and phi_b are cochains times 2/3, 1/2 and
    3/5, so a scale dropped from any leaf or node would show.  Each
    operator is compared with its definition composed with brute_comp1:
    ch_delta2 on the 2-step DENSE_P12, the others on the 3-step
    DENSE_K3K2K1, and the Jordan defect on a rational commutative
    associative multiplication."""
    g, n = DENSE_K3K2K1, DENSE_K3K2K1.dim
    assert g.integer_table()[1] > 1 and DENSE_P12.integer_table()[1] > 1
    mu = bracket_map(g)
    rng = rng_for(53)
    f = _scaled(Q(2, 3), random_endomorphism(n, rng, -1, 1))
    a, b = brute_comp1(mu, f), brute_comp1(f, mu)
    assert chevalley_delta1(g, f) == Cochain(2, n, {
        (x, y): sparse(vadd(dense(value(a, (x, y)), n), vscale(-1, vadd(
            dense(value(a, (y, x)), n), dense(value(b, (x, y)), n)))))
        for x, y in combinations(range(n), 2)})
    basis = basis_cochains(n)
    phis = [_scaled(Q(2, 3), phi) for phi in basis[::7]]
    phis.append(_scaled(Q(2, 3), random_skew_cochain(n, rng)))
    for phi in phis:
        assert chevalley_delta2(g, phi) == _dense_cyclic_sum(
            n, -1, brute_comp1(mu, phi), brute_comp1(phi, mu))
        assert r_delta2(g, phi) == _dense_sum(
            4, n, brute_comp1(mu, brute_comp1(mu, phi)),
            brute_comp1(mu, brute_comp1(phi, mu)), brute_comp1(phi, brute_comp1(mu, mu)))
    for phi in basis[::5]:
        pa, pb = _scaled(Q(1, 2), phi), _scaled(Q(3, 5), random_skew_cochain(n, rng))
        [polar] = graded({(0, 0): bracket_map(g), (1, 0): pa, (0, 1): pb},
                         [(_COMB[3], (1, 1))])
        assert polar == _dense_sum(4, n, *(brute_comp1(x, brute_comp1(y, z))
                                           for x, y, z in permutations((mu, pa, pb))))
    p12, m = DENSE_P12.dim, bracket_map(DENSE_P12)
    for phi in basis_cochains(p12)[::3]:
        phi = _scaled(Q(2, 3), phi)
        assert ch_delta2(DENSE_P12, phi) == _dense_sum(
            3, p12, brute_comp1(m, phi), brute_comp1(phi, m))
    alg = random_commutative_associative(rng, 3)
    assert any(x.denominator > 1 for v in alg.coeffs.values() for x in v.values())
    for phi in _symmetric_basis(3)[::3]:
        phi = _scaled(Q(2, 3), phi)
        assert jordan_cocycle_defect(alg, phi) == _dense_jordan(
            3, (1, brute_comp1(phi, brute_comp1(alg, alg))),
            (1, brute_comp1(alg, brute_comp1(phi, alg))),
            (1, brute_comp1(alg, brute_comp1(alg, phi))),
            (-1, _dense_outer(alg, alg, phi)), (-1, _dense_outer(alg, phi, alg)),
            (-1, _dense_outer(phi, alg, alg)))


@pytest.mark.parametrize("g", [DENSE_K3K2K1, families.rigid_3step_7()],
                         ids=["dense-k3k2k1", "rigid7"])
def test_cached_tables_are_unchanged_by_their_readers(g):
    """Every reader shares the rows of the integer table and of the
    double brackets kept on the algebra (the chain images of the Z rows
    hold them too), and the centre's reducer kept on it; none of them
    may change those rows or add a row to that reducer."""
    table, double = deepcopy(g.integer_table()), deepcopy(g.double_brackets())
    center = _center_reducer(g)
    center_rows, seen = center.pivots, center.rows_seen
    rng = rng_for(61)
    space_dims(g, "cr", with_representatives=True)
    chevalley_delta1(g, random_endomorphism(g.dim, rng, -1, 1))
    phi = random_skew_cochain(g.dim, rng)
    chevalley_delta2(g, phi)
    r_delta2(g, phi)
    characteristic_sequence(g)
    center_dim(g)
    lower_central_series(g)
    basis_change(g, random_invertible(g.dim, rng, -2, 2))
    assert g.integer_table() == table and g.double_brackets() == double
    assert _center_reducer(g) is center
    assert (center.pivots, center.rows_seen) == (center_rows, seen)


def test_comp1_rejects_slot_out_of_range():
    f = Cochain(2, 3, {(0, 1): e(3, 2)})
    with pytest.raises(ValueError, match="slot"):
        comp1(f, f, 2)


def test_comp1_identity_left():
    n = 4
    ident = Cochain(1, n, {(i,): e(n, i) for i in range(n)})
    h = random_skew_cochain(n, rng_for(5))
    out = comp1(ident, h)
    for i in range(n):
        for j in range(n):
            assert value(out, (i, j)) == value(h, (i, j))


def test_comp1_triple_bracket_shape():
    g = families.rigid_3step_7()
    mu = bracket_map(g)
    left = comp1(comp1(mu, mu), mu)
    right = comp1(mu, comp1(mu, mu))
    assert left == right  # substitution into the first slot is associative


def test_bullet_square():
    for g in (H3, families.g_p1(3)):
        mu = Cochain(2, g.dim, dict(g.constants))
        assert jacobiator_square(mu).is_zero()
    assert jacobiator_square(Cochain.zero(2, 4)).is_zero()
    phi = LieAlgebra(3, {
        (0, 1): {2: Q(1)},
        (0, 2): {0: Q(1)},
    })
    bad = jacobiator_square(Cochain(2, 3, dict(phi.constants)))
    assert value(bad, (0, 1, 2)) != {}


# --- the associativity-chain operators ----------------------------------------------

def test_r_delta2_on_bracket_and_zero():
    g = families.g_k3k2k1(1, 0, 2)
    mu = Cochain(2, g.dim, dict(g.constants))
    assert r_delta2(g, mu).is_zero()  # each term is a fourfold bracket
    assert r_delta2(g, Cochain.zero(2, g.dim)).is_zero()


def test_r_delta2_kills_coboundaries():
    g = families.g_k3k2k1(1, 0, 2)
    rng = rng_for(11)
    for _ in range(20):
        f = random_endomorphism(g.dim, rng)
        assert r_delta2(g, chevalley_delta1(g, f)).is_zero()


def test_r_delta2_requires_three_step():
    four = LieAlgebra(4, {(0, 1): {2: Q(1)}, (0, 2): {3: Q(1)}, (0, 3): {0: Q(1)}})
    with pytest.raises(ValueError, match="not 3-step"):
        r_delta2(four, Cochain.zero(2, 4))


# --- matrix assembly agrees with the concrete operators -------------------------------

def _pivots(rows, dim: int) -> dict:
    red = RowReducer(CochainIndex(dim).size)
    for row in rows:
        red.add(row)
    return red.pivots


@pytest.mark.parametrize("maker", [
    lambda: families.heisenberg(2),
    lambda: families.g_p12(2),
    lambda: families.rigid_2step("h6"),
    pytest.param(lambda: rescaled(families.heisenberg(2), 1, 1, 1, 1, 2), id="heisenberg(2)-diag"),
    pytest.param(lambda: rescaled(families.g_p12(2), 1, 1, 2, 1), id="g_p12(2)-diag"),
    pytest.param(lambda: families.g_p1(3), id="g_p1(3)"),
    pytest.param(lambda: families.rigid_2step("g8"), id="g8"),
    pytest.param(lambda: HALF4, id="half4"),
])
def test_t_rows_match_operator(maker):
    g = maker()
    idx = CochainIndex(g.dim)
    rng = rng_for(19)
    for _ in range(10):
        phi = random_skew_cochain(g.dim, rng, entries=4)
        flat = idx.to_flat(phi)
        rows_zero = all(
            sum(v * flat.get(u, Q(0)) for u, v in row.items()) == 0
            for row in t_operator_rows(g))
        assert rows_zero == ch_delta2(g, phi).is_zero()
    assert _pivots(t_operator_rows(g), g.dim) == _pivots(operator_rows(g, [ch_delta2]), g.dim)


@pytest.mark.parametrize("maker", [
    lambda: families.g_k3k2k1(1, 0, 2),
    lambda: families.rigid_3step_7(),
    pytest.param(lambda: rescaled(families.g_k3k2k1(1, 0, 2), 1, 1, 2, 3, 1),
                 id="g_k3k2k1(1,0,2)-diag"),
    pytest.param(lambda: families.g_p01(2), id="g_p01(2)"),
    pytest.param(lambda: families.classification_F731()[6], id="F731[6]"),
    # a dense basis, not moved to an adapted one: almost every chain of
    # right brackets is nonzero, so the generators skip almost no tuple
    pytest.param(lambda: basis_change(families.g_k3k2k1(1, 0, 2),
                                      random_invertible(5, rng_for(DEFAULT_SEED), -2, 2)),
                 id="g_k3k2k1(1,0,2)-dense"),
    pytest.param(lambda: HALF5, id="half5"),
])
def test_r2_and_chevalley_rows_match_operators(maker):
    g = maker()
    idx = CochainIndex(g.dim)
    rng = rng_for(23)
    for _ in range(6):
        phi = random_skew_cochain(g.dim, rng, entries=4)
        flat = idx.to_flat(phi)
        r_zero = all(
            sum(v * flat.get(u, Q(0)) for u, v in row.items()) == 0
            for row in r2_rows(g))
        c_zero = all(
            sum(v * flat.get(u, Q(0)) for u, v in row.items()) == 0
            for row in chevalley2_rows(g))
        assert r_zero == r_delta2(g, phi).is_zero()
        assert c_zero == chevalley_delta2(g, phi).is_zero()
    assert _pivots(r2_rows(g), g.dim) == _pivots(operator_rows(g, [r_delta2]), g.dim)
    assert _pivots(chevalley2_rows(g), g.dim) == _pivots(operator_rows(g, [chevalley_delta2]), g.dim)


def _sides_of_the_cyclic_identity(g, phi, bracket):
    """For one 2-cochain phi, the two sides of
    sum_cyc delta_R phi(x,y,z,w) = -[delta^2 phi(x,y,z), w]
    as {(x, y, z, w): nonzero value}, read through `value` at every tuple
    where either side can be nonzero: a rotation of (x, y, z) in the
    support of r_delta2(phi), or an ordering of a stored key of
    chevalley_delta2(phi) with any w."""
    r, d = r_delta2(g, phi), chevalley_delta2(g, phi)
    tuples = {(z, x, y, w) for (x, y, z, w) in r.coeffs} | set(r.coeffs)
    tuples |= {(y, z, x, w) for (x, y, z, w) in r.coeffs}
    tuples |= {p + (w,) for key in d.coeffs for p in permutations(key) for w in range(g.dim)}
    left, right = {}, {}
    for x, y, z, w in tuples:
        cyc = {}
        for args in ((x, y, z, w), (y, z, x, w), (z, x, y, w)):
            for m, c in value(r, args).items():
                cyc[m] = cyc.get(m, 0) + c
        br = {}
        for s, c in value(d, (x, y, z)).items():
            for m, b in value(bracket, (s, w)).items():
                br[m] = br.get(m, 0) - c * b
        left[(x, y, z, w)] = {m: c for m, c in cyc.items() if c}
        right[(x, y, z, w)] = {m: c for m, c in br.items() if c}
    return ({t: v for t, v in left.items() if v}, {t: v for t, v in right.items() if v})


@pytest.mark.parametrize("g", [
    pytest.param(families.rigid_3step_7(), id="rigid7"),
    pytest.param(families.g_p01(2), id="g_p01(2)"),
    pytest.param(families.heisenberg(2), id="heisenberg(2)"),
    pytest.param(moved(families.g_k3k2k1(1, 0, 2), 5), id="g_k3k2k1(1,0,2)-dense5"),
    pytest.param(moved(families.g_k3k2k1(1, 0, 2), 17), id="g_k3k2k1(1,0,2)-dense17"),
])
def test_cyclic_sum_of_r_delta2_is_minus_bracket_of_delta2(g):
    # the identity behind the cr stream of _z_rows, proved on a basis:
    # both sides are linear in phi, so every basis 2-cochain settles it
    bracket = bracket_map(g)
    for phi in basis_cochains(g.dim):
        left, right = _sides_of_the_cyclic_identity(g, phi, bracket)
        assert left == right, phi


@pytest.mark.parametrize("g", [
    *(pytest.param(a, id=f"F731[{k}]") for k, a in enumerate(families.classification_F731())),
    pytest.param(families.g_p01(2), id="g_p01(2)"),
    pytest.param(families.g_p01(3), id="g_p01(3)"),
    pytest.param(families.rigid_3step_7(), id="rigid7"),
    # 2-step algebras are 3-step too
    pytest.param(families.g_p1(3), id="g_p1(3)"),
    pytest.param(families.heisenberg(2), id="heisenberg(2)"),
    pytest.param(DENSE_K3K2K1, id="g_k3k2k1(1,0,2)-dense"),
    pytest.param(moved(families.g_k3k2k1(1, 0, 2), 11), id="g_k3k2k1(1,0,2)-dense11"),
    pytest.param(moved(families.g_k3k2k1(1, 0, 2), 29), id="g_k3k2k1(1,0,2)-dense29"),
])
def test_cr_z_rows_keep_the_table_of_every_chevalley_row(g):
    # _z_rows feeds the Chevalley rows at dim z(g) output coordinates
    # only; the reducer ends in the table of every Chevalley row plus the
    # delta_R rows (in the given basis, adapted or not)
    size = CochainIndex(g.dim).size
    full = RowReducer(size)
    full.add_rows([*chevalley2_rows(g), *r2_rows(g)])
    cr = RowReducer(size)
    cr.add_rows(_z_rows(g, ComplexKind.CR))
    assert cr.pivots == full.pivots
    # the stream is some of the Chevalley rows, fewer of them than there
    # are, then the delta_R rows
    stream, r2 = list(_z_rows(g, ComplexKind.CR)), list(r2_rows(g))
    head, chevalley = stream[:len(stream) - len(r2)], list(chevalley2_rows(g))
    assert stream[len(head):] == r2
    assert len(head) < len(chevalley) and all(row in chevalley for row in head)


def _delta2_rows_by_operator(g, outputs):
    """The row of each (i < j < k, m), m in `outputs`, in that order: the
    functional phi |-> L chevalley_delta2(phi)(X_i, X_j, X_k)_m on the flat
    unknowns, read off the concrete operator at every basis cochain, with
    L the lcm of the denominators of g.constants; zero rows left out."""
    n = g.dim
    scale = lcm(*(x.denominator for vec in g.constants.values() for x in vec.values()))
    rows = {}
    for u, phi in enumerate(basis_cochains(n)):
        for key, vec in chevalley_delta2(g, phi).coeffs.items():
            for m, x in vec.items():
                if m in outputs:
                    rows.setdefault(key + (m,), {})[u] = scale * x
    return [rows[key] for key in sorted(rows)]


@pytest.mark.parametrize("g,count", [
    pytest.param(families.rigid_2step("h10"), 727, id="h10"),
    pytest.param(families.g_p01(3), 504, id="g_p01(3)"),
    pytest.param(DENSE_K3K2K1, 50, id="g_k3k2k1(1,0,2)-dense"),
])
def test_chevalley_rows_are_one_row_per_triple_and_output(g, count):
    # with every output coordinate the stream is one row per (i<j<k, m)
    # with a nonzero row, in that order, as the per-triple generator gave
    # it; with fewer outputs it is that stream at those m only
    rows = list(chevalley2_rows(g))
    assert len(rows) == count
    assert rows == _delta2_rows_by_operator(g, range(g.dim))
    odd = range(1, g.dim, 2)
    assert list(chevalley2_rows(g, odd)) == _delta2_rows_by_operator(g, odd)


@pytest.mark.parametrize("gen,g,block", [
    pytest.param(t_operator_rows, HALF4, [{0: 2, 1: 1}, {2: 1}], id="t-half4"),
    pytest.param(r2_rows, HALF5, [{0: 2, 1: 1}, {2: 1}], id="r2-half5"),
])
def test_zero_pair_block(gen, g, block):
    # pair (0, 1) is a zero pair and comes first; every zero pair emits
    # the same block, shifted to the pair's columns
    n = g.dim
    idx = CochainIndex(n)
    rows = list(gen(g))
    assert sorted(rows[:len(block)], key=sorted) == block
    for pair in idx.pairs:
        if not g.constants.get(pair):
            base = idx.pidx[pair] * n
            assert all({base + c: v for c, v in row.items()} in rows for row in block)


def _tuple_rows(g, steps: int) -> list[tuple[Q, ...]]:
    """The constraint rows of T (steps 2) or delta_R (steps 3) at every
    index tuple (i<j, k[, l]) and output coordinate m, read from
    g.constants, as dense rows over the flat unknowns (pair p, coordinate
    t) at p * n + t; zero rows and repeats up to a scalar dropped."""
    n = g.dim
    pairs = list(combinations(range(n), 2))
    size = len(pairs) * n

    def phi(v, c):
        # phi(v, X_c): one sparse row per output coordinate
        out = [{} for _ in range(n)]
        for s, x in enumerate(v):
            if x and s != c:
                p, sign = pairs.index((min(s, c), max(s, c))), 1 if s < c else -1
                for m in range(n):
                    out[m][p * n + m] = out[m].get(p * n + m, 0) + sign * x
        return out

    brackets = {(t, k): bracket_basis(g, t, k) for t in range(n) for k in range(n)}

    def right(rows, k):
        # [R, X_k]: output m is sum_t [X_t, X_k]_m R_t
        out = [{} for _ in range(n)]
        for t in range(n):
            for m, c in enumerate(brackets[(t, k)]):
                for u, x in rows[t].items():
                    if c:
                        out[m][u] = out[m].get(u, 0) + c * x
        return out

    def plus(*terms):
        out = [{} for _ in range(n)]
        for rows in terms:
            for m, row in enumerate(rows):
                for u, x in row.items():
                    out[m][u] = out[m].get(u, 0) + x
        return out

    found = set()
    for i, j in pairs:
        cij, unit = brackets[(i, j)], dense(e(n, i), n)
        for k in range(n):
            # T: [phi(X_i, X_j), X_k] + phi([X_i, X_j], X_k)
            tuples = [plus(right(phi(unit, j), k), phi(cij, k))] if steps == 2 else [
                # delta_R: [[phi(X_i, X_j), X_k], X_l] + [phi([X_i, X_j], X_k), X_l]
                #   + phi([[X_i, X_j], X_k], X_l)
                plus(right(right(phi(unit, j), k), l), right(phi(cij, k), l),
                     phi(bracket_vec_basis(g, cij, k), l)) for l in range(n)]
            for rows in tuples:
                for row in rows:
                    row = {u: x for u, x in row.items() if x}
                    if row:
                        lead = row[min(row)]
                        found.add(tuple(sorted((u, Q(x) / lead) for u, x in row.items())))
    return [dense(dict(row), size) for row in sorted(found)]


@pytest.mark.parametrize("gen,steps", [(t_operator_rows, 2), (r2_rows, 3)], ids=["t", "r2"])
@pytest.mark.parametrize("g", [
    pytest.param(families.g_p1(3), id="g_p1(3)"),
    pytest.param(families.heisenberg(3), id="heisenberg(3)"),
    pytest.param(families.rigid_3step_7(), id="rigid7"),
    pytest.param(families.g_p01(2), id="g_p01(2)"),
    pytest.param(families.classification_F731()[6], id="F731[6]"),
    pytest.param(HALF5, id="half5"),
    pytest.param(DENSE_K3K2K1, id="g_k3k2k1(1,0,2)-dense"),
    pytest.param(abelian(3), id="abelian(3)"),
    # 2-step, so in delta_R every [[X_i, X_j], X_k] = 0 and no row is a
    # pure phi([[X_i, X_j], X_k], X_l) row
    pytest.param(families.g_p12(2), id="g_p12(2)"),
    # [X1, X2] = X2: zero centre, g^1 = g^2 = span X2
    pytest.param(LieAlgebra(2, {(0, 1): e(2, 1)}), id="dim2"),
])
def test_z_rows_span_the_per_tuple_rows(g, gen, steps):
    # the generators emit spanning sets, not one row per index tuple; the
    # rows of every tuple, enumerated here, span the same space
    size = len(list(combinations(range(g.dim), 2))) * g.dim
    produced = dense_rref([dense(row, size) for row in gen(g)])
    enumerated = dense_rref(_tuple_rows(g, steps))
    # the stacked rows span what the two RREF bases span
    stacked = [dense(row, size) for row in [*produced.values(), *enumerated.values()]]
    assert len(produced) == len(enumerated) == dense_rank(stacked)


@pytest.mark.parametrize("g", [
    pytest.param(families.g_p1(5), id="g_p1(5)"),
    pytest.param(families.g_p1(9), id="g_p1(9)"),
    pytest.param(families.heisenberg(8), id="heisenberg(8)"),
    pytest.param(families.g_p12(3), id="g_p12(3)"),
])
def test_t_rows_have_no_repeats(g):
    # a span row phi(X_s, X_c)_m that a zero pair's block or the pass of
    # an earlier e_c already gave is not emitted again
    seen = set()
    for row in t_operator_rows(g):
        content = gcd(*row.values())
        lead = row[min(row)]
        key = tuple(sorted((c, v // content * (1 if lead > 0 else -1)) for c, v in row.items()))
        assert key not in seen, row
        seen.add(key)


def test_z_rows_are_nonzero_int_dicts():
    # the model corpus of the benchmark and one algebra with rational
    # structure constants; the delta^1 images are integer rows too
    for g in (families.g_p1(5), families.g_p1(9), families.heisenberg(8),
              families.rigid_2step("h10"), families.g_p01(3), families.g_p01(5),
              families.rigid_3step_7(), HALF5):
        for gen in (chevalley2_rows, r2_rows if two_step_defect(g) else t_operator_rows):
            for row in gen(g):
                assert isinstance(row, dict) and row, gen.__name__
                assert all(type(v) is int and v for v in row.values()), (gen.__name__, row)
        for vec in coboundary_image_vectors(g):
            assert all(type(v) is int and v for v in vec.values()), vec


# --- dimension reports vs dense brute force --------------------------------------------

@pytest.mark.parametrize("maker,kind", [
    (lambda: families.heisenberg(1), "ch"),
    (lambda: families.heisenberg(2), "ch"),
    (lambda: families.g_p1(2), "ch"),
    (lambda: families.g_p12(2), "ch"),
    (lambda: families.rigid_2step("h6"), "ch"),
    (lambda: families.heisenberg(1), "chevalley"),
    (lambda: abelian(4), "chevalley"),
    (lambda: families.g_k3k2k1(1, 0, 2), "cr"),
    pytest.param(lambda: families.g_k3k2k1(1, 0, 3), "cr", id="g_k3k2k1(1,0,3)-cr"),
    pytest.param(lambda: families.g_k3k2k1(1, 0, 4), "cr", id="g_k3k2k1(1,0,4)-cr"),
    pytest.param(lambda: families.g_p01(2), "cr", id="g_p01(2)-cr"),
    pytest.param(lambda: families.g_p01(3), "cr", id="g_p01(3)-cr"),
    # diagonal rescalings: structure constants with denominators
    pytest.param(lambda: rescaled(families.g_k3k2k1(1, 0, 2), 1, 1, 2, 3, 1), "cr",
                 id="g_k3k2k1(1,0,2)-diag-cr"),
    pytest.param(lambda: rescaled(families.heisenberg(2), 1, 1, 1, 1, 2), "ch",
                 id="heisenberg(2)-diag-ch"),
    pytest.param(lambda: rescaled(families.g_p12(2), 1, 1, 2, 1), "ch", id="g_p12(2)-diag-ch"),
    pytest.param(lambda: rescaled(families.g_p12(2), 1, 1, 2, 1), "chevalley",
                 id="g_p12(2)-diag-chevalley"),
    # dense basis changes: space_dims moves these to an adapted basis, the
    # oracle works in the given one
    pytest.param(lambda: DENSE_K3K2K1, "cr", id="g_k3k2k1(1,0,2)-dense-cr"),
    pytest.param(lambda: DENSE_P12, "ch", id="g_p12(2)-dense-ch"),
    pytest.param(lambda: DENSE_P12, "chevalley", id="g_p12(2)-dense-chevalley"),
    pytest.param(lambda: moved(families.heisenberg(2), 41), "ch", id="heisenberg(2)-dense-ch"),
])
def test_space_dims_against_brute_force(maker, kind):
    g = maker()
    r = space_dims(g, kind)
    assert r.z2_dim == brute_z2(g, kind)
    assert r.b2_dim == brute_b2(g)
    assert r.h2_dim == r.z2_dim - r.b2_dim
    assert r.rigid_candidate == (r.h2_dim == 0)


def test_space_dims_abelian_ch():
    n = 4
    r = space_dims(abelian(n), "ch")
    assert r.z2_dim == n * n * (n - 1) // 2
    assert r.b2_dim == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_abelian_has_no_z_rows(n):
    # every bracket is zero, so the generators skip every index tuple
    g = abelian(n)
    for gen in (chevalley2_rows, t_operator_rows, r2_rows):
        assert list(gen(g)) == []
    for kind in ("chevalley", "ch", "cr"):
        r = space_dims(g, kind)
        assert (r.z2_dim, r.b2_dim, r.h2_dim) == (n * n * (n - 1) // 2, 0, n * n * (n - 1) // 2)


def test_space_dims_kind_errors():
    with pytest.raises(ValueError, match="not 2-step"):
        space_dims(families.g_p01(2), "ch")
    filiform5 = LieAlgebra(5, {(0, 1): e(5, 2), (0, 2): e(5, 3), (0, 3): e(5, 4)})
    with pytest.raises(ValueError, match="not 3-step"):
        space_dims(filiform5, ComplexKind.CR)
    bad = LieAlgebra(3, {(0, 1): {2: Q(1)}, (0, 2): {0: Q(1)}})
    with pytest.raises(ValueError, match="Jacobi"):
        space_dims(bad, "chevalley")


def _dims(r):
    return (r.z2_dim, r.b2_dim, r.h2_dim, r.rigid_candidate, r.representatives)


@pytest.mark.parametrize("g", [
    *(pytest.param(a, id=f"F731[{k}]") for k, a in enumerate(families.classification_F731())),
    pytest.param(families.g_p01(2), id="g_p01(2)"),
    pytest.param(families.rigid_3step_7(), id="rigid7"),
    pytest.param(DENSE_K3K2K1, id="g_k3k2k1(1,0,2)-dense"),
    pytest.param(moved(families.g_k3k2k1(1, 0, 2), 5), id="g_k3k2k1(1,0,2)-dense5"),
    pytest.param(moved(families.g_k3k2k1(1, 0, 2), 17), id="g_k3k2k1(1,0,2)-dense17"),
])
def test_chevalley_and_cr_dims_match_space_dims(g):
    # one Z reducer takes the Chevalley rows and then the delta_R rows;
    # the rank in between is the Chevalley one
    chevalley, cr = chevalley_and_cr_dims(g)
    assert _dims(chevalley) == _dims(space_dims(g, "chevalley"))
    assert _dims(cr) == _dims(space_dims(g, "cr"))


@pytest.mark.parametrize("g", [
    pytest.param(FILIFORM5, id="filiform5"),
    pytest.param(moved(FILIFORM5, 3), id="filiform5-dense"),
    pytest.param(LieAlgebra(3, {(0, 1): {2: Q(1)}, (0, 2): {0: Q(1)}}), id="not-lie"),
])
def test_chevalley_and_cr_dims_errors_match_space_dims(g):
    with pytest.raises(ValueError) as want:
        space_dims(g, "cr")
    with pytest.raises(ValueError) as got:
        chevalley_and_cr_dims(g)
    assert str(got.value) == str(want.value)


def test_c07_b2_values_match_space_dims():
    # C07 reads dim B^2 as the rank of delta^1; the old route read it off
    # space_dims(a, "cr")
    fixtures = {"base": families.g_p01(2), "rigid7": families.rigid_3step_7()}
    fixtures.update((f"F731[{k}]", a) for k, a in enumerate(families.classification_F731()))
    row, = report.run_claims(only="C07")["claims"]
    assert row["detail"]["b2"] == {name: space_dims(a, "cr").b2_dim
                                   for name, a in fixtures.items()}
    assert len(row["detail"]["b2"]) == 18


def test_c07_rejects_an_invalid_fixture(monkeypatch):
    members = families.classification_F731()
    members[3] = FILIFORM5
    monkeypatch.setattr(families, "classification_F731", lambda: members)
    with pytest.raises(ValueError, match=re.escape("C07 fixture F731[3]")):
        report.run_claims(only="C07")


def test_c09_derivation_dims_match_derivation_algebra_dim():
    # C09 reads dim Der as n^2 - dim B^2 of its cr report, and
    # derivation_algebra_dim reads the B^2 step of the same `_dims`, so
    # both sides share one route and this pins only that C09 reads it
    # right; the independent check is the dense oracle (`brute_b2`, in
    # test_coboundary_rank_matches_dense_oracle_on_changed_bases)
    for a in families.classification_F731():
        assert report._invariant_vector(a)[2] == derivation_algebra_dim(a)


@pytest.mark.parametrize("g,f", [pytest.param(g, f, id=name)
                                 for name, _, g, f in arbitrary_basis_inputs()])
def test_delta1_rank_is_basis_free(g, f):
    # coboundary_rank and derivation_algebra_dim rank delta^1 after the
    # basis step of `_dims`, as space_dims does, so a dense change of
    # basis gives the model basis's values
    moved_g = basis_change(g, f)
    assert coboundary_rank(moved_g) == coboundary_rank(g) == space_dims(g, "chevalley").b2_dim
    assert derivation_algebra_dim(moved_g) == derivation_algebra_dim(g)


@pytest.mark.parametrize("name", ["g_p01(2)", "rigid7"])
def test_coboundary_rank_matches_dense_oracle_on_changed_bases(name):
    kind, g, f = ARBITRARY[name]
    moved_g = basis_change(g, f)
    assert coboundary_rank(moved_g) == brute_b2(moved_g)


def test_coboundary_rank_validates_like_space_dims():
    # [X1,X2] = X4, [X3,X4] = -X5: Jacobi fails at (X1,X2,X3)
    g = LieAlgebra(5, {(0, 1): {3: 1}, (2, 3): {4: -1}})
    with pytest.raises(ValueError, match="Jacobi fails") as dims_error:
        space_dims(g, "chevalley")
    for rank in (coboundary_rank, derivation_algebra_dim):
        with pytest.raises(ValueError, match=re.escape(str(dims_error.value))):
            rank(g)


def test_layer_shortfall_gives_no_basis_and_the_given_witness():
    # [X1,X2] = X3, [X1,X3] = X4, [X3,X4] = X5 fails Jacobi at (X1,X2,X4);
    # after X4 -> X4 + X3 the constants and g^1 are no longer spanned by
    # basis vectors, so neither shortcut of adapted_basis applies, and
    # layer 2 falls short
    g = LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: 1}, (2, 3): {4: 1}})
    unipotent = RationalMatrix(5, 5, {**{(i, i): 1 for i in range(5)}, (2, 3): 1})
    moved_g = basis_change(g, unipotent)
    assert any(len(sp) > 1 for sp in moved_g.constants.values())
    assert any(len(v) > 1 for v in lower_central_series(moved_g).bases[2])
    assert adapted_basis(moved_g) is None
    witness = jacobi_defect(moved_g)[0]
    for kind in ComplexKind:
        with pytest.raises(ValueError, match=re.escape(
                f"not a Lie algebra: Jacobi fails at {_format_tuple(witness)}")):
            space_dims(moved_g, kind)


def test_representatives_are_cocycles_spanning_z2():
    g = families.g_p12(2)
    r = space_dims(g, "ch", with_representatives=True)
    assert len(r.representatives) == r.z2_dim
    idx = CochainIndex(g.dim)
    red = RowReducer(idx.size)
    for c in r.representatives:
        assert ch_delta2(g, c).is_zero()
        red.add(idx.to_flat(c))
    assert red.rank == r.z2_dim


@pytest.mark.parametrize("g,kind", [(DENSE_K3K2K1, "cr"), (DENSE_P12, "ch")],
                         ids=["g_k3k2k1(1,0,2)-dense-cr", "g_p12(2)-dense-ch"])
def test_transported_representatives_are_cocycles_in_given_basis(g, kind):
    """space_dims computes in an adapted basis; the representatives it
    returns are independent cocycles of g in the basis g was given in."""
    assert adapted_basis(g) is not None
    r = space_dims(g, kind, with_representatives=True)
    assert len(r.representatives) == r.z2_dim
    idx = CochainIndex(g.dim)
    red = RowReducer(idx.size)
    for c in r.representatives:
        if kind == "cr":
            assert chevalley_delta2(g, c).is_zero() and r_delta2(g, c).is_zero()
        else:
            assert ch_delta2(g, c).is_zero()
        red.add(idx.to_flat(c))
    assert red.rank == r.z2_dim


def _dense_workload_inputs():
    """The 16 inputs of the `dense` benchmark workload, in pool order."""
    g, rng = families.g_k3k2k1(1, 0, 2), rng_for(DEFAULT_SEED)
    return [(f"dense#{k}", basis_change(g, random_invertible(5, rng, -2, 2)), "cr")
            for k in range(16)]


TRANSPORT_INPUTS = _dense_workload_inputs() + [
    (name, basis_change(g, f), kind) for name, kind, g, f in arbitrary_basis_inputs()
    if name in ("g_p01(2)", "rigid7")]


@pytest.mark.parametrize("g,kind", [(g, kind) for _, g, kind in TRANSPORT_INPUTS],
                         ids=[name for name, _, _ in TRANSPORT_INPUTS])
def test_representatives_match_dense_transport_one_at_a_time(g, kind):
    """All representatives go back to the given basis in one integer
    transport; in order, they equal the kernel cochains of the generator
    basis moved back one at a time by `helpers.dense_transport_back`."""
    f = adapted_basis(g)
    h = basis_change(g, f)
    assert adapted_basis(h) is None
    kernel = space_dims(h, kind, with_representatives=True).representatives
    got = space_dims(g, kind, with_representatives=True).representatives
    assert len(got) > 1
    assert got == tuple(dense_transport_back(phi, f) for phi in kernel)


def test_representatives_after_rational_basis_change_are_recorded():
    """A basis change with denominators on both sides: the adapted basis
    and its inverse clear to different scales, and the representatives
    are moved back through one Fraction per entry.  The reference cochains
    were recorded from the Fraction implementation of the transport in an
    earlier basis step; the representatives span the same space, and
    each is a T-cocycle of g."""
    rows = [["-3/4", "-3/4", "-2"], ["-2", "1/2", "1"], ["-2", "2", "-1"]]
    f = RationalMatrix(3, 3, {(r, c): Q(x) for r, row in enumerate(rows)
                              for c, x in enumerate(row)})
    g = basis_change(H3, f)
    assert adapted_basis(g) is not None
    r = space_dims(g, "ch", with_representatives=True)
    expected = [
        {(0, 1): {0: "-15/2", 1: "-285/2", 2: "225/4"},
         (0, 2): {0: "-19", 1: "-361", 2: "285/2"},
         (1, 2): {0: "1", 1: "19", 2: "-15/2"}},
        {(0, 1): {0: "-1", 1: "-19", 2: "15"}, (0, 2): {2: "19"}, (1, 2): {2: "-1"}},
        {(0, 1): {1: "-15/2"}, (0, 2): {0: "-1", 1: "-38", 2: "15/2"}, (1, 2): {1: "1"}},
    ]
    idx = CochainIndex(3)
    recorded = [idx.to_flat(Cochain(2, 3, rep)) for rep in expected]
    got = [idx.to_flat(c) for c in r.representatives]
    assert all(ch_delta2(g, c).is_zero() for c in r.representatives)
    assert dense_rank([dense(v, idx.size) for v in recorded]) == 3
    assert dense_rank([dense(v, idx.size) for v in recorded + got]) == 3 == len(got)


@pytest.mark.parametrize("kind", ["cr", "ch"])
def test_step_error_names_a_witness_in_the_given_basis(kind):
    """Validity does not depend on the basis, but the witness does: the
    error names the first defect tuple of the algebra as given."""
    for seed in range(20):
        g = moved(FILIFORM5, seed)
        if kind == "cr":
            i, j, k, l = three_step_defect(g)[0]
            text = f"not 3-step: [[[X{i + 1},X{j + 1}],X{k + 1}],X{l + 1}] != 0"
        else:
            i, j, k = two_step_defect(g)[0]
            text = f"not 2-step: [[X{i + 1},X{j + 1}],X{k + 1}] != 0"
        with pytest.raises(ValueError) as err:
            space_dims(g, kind)
        assert str(err.value) == text


def _matrix_unit(n, a, b):
    # E_ab: X_b -> X_a
    return Cochain(1, n, {(b,): e(n, a)})


@pytest.mark.parametrize("maker", [
    lambda: families.g_p1(5),
    lambda: families.heisenberg(3),
    lambda: families.rigid_2step("h10"),
    lambda: families.g_p01(3),
    lambda: families.rigid_3step_7(),
    pytest.param(lambda: scaled(basis_change(families.g_k3k2k1(1, 0, 2),
                                             random_invertible(5, rng_for(29), -2, 2))),
                 id="g_k3k2k1(1,0,2)-basis-change"),
    # [X1, X2] = X2 is not nilpotent: for E_22, the [X_a, X_j] term and the
    # -c_ij^b term both land on coordinate X2 of the pair (X1, X2) and cancel
    pytest.param(lambda: LieAlgebra(2, {(0, 1): {1: Q(1)}}), id="affine-line"),
])
def test_coboundary_images_match_delta1(maker):
    # delta^1 is linear, so agreeing on every matrix unit proves the sparse
    # images equal L times the concrete operator everywhere
    g = maker()
    idx = CochainIndex(g.dim)
    scale = g.integer_table()[1]
    assert coboundary_image_vectors(g) == [
        {u: scale * x for u, x in idx.to_flat(chevalley_delta1(g, _matrix_unit(g.dim, a, b))).items()}
        for a in range(g.dim) for b in range(g.dim)]


def test_coboundaries_inside_every_kernel():
    for g, kind in ((families.heisenberg(2), "ch"),
                    (families.g_k3k2k1(1, 0, 2), "cr"),
                    (families.g_p1(2), "chevalley")):
        idx = CochainIndex(g.dim)
        zred = RowReducer(idx.size)
        if kind == "ch":
            rows = t_operator_rows(g)
        elif kind == "chevalley":
            rows = chevalley2_rows(g)
        else:
            rows = list(chevalley2_rows(g)) + list(r2_rows(g))
        for row in rows:
            zred.add(row)
        for vec in coboundary_image_vectors(g):
            assert zred.in_kernel(vec)


@pytest.mark.parametrize("maker,kind", [
    # the model-basis inputs of the benchmark's model workload
    pytest.param(lambda: families.g_p1(5), "ch", id="g_p1(5)-ch"),
    pytest.param(lambda: families.g_p1(9), "ch", id="g_p1(9)-ch"),
    pytest.param(lambda: families.heisenberg(8), "ch", id="heisenberg(8)-ch"),
    pytest.param(lambda: families.rigid_2step("h10"), "chevalley", id="h10-chevalley"),
    pytest.param(lambda: families.g_p01(3), "cr", id="g_p01(3)-cr"),
    pytest.param(lambda: families.g_p01(5), "cr", id="g_p01(5)-cr"),
    pytest.param(lambda: families.rigid_3step_7(), "cr", id="rigid7-cr"),
    # dense basis changes, moved to their adapted basis as space_dims does
    pytest.param(lambda: DENSE_K3K2K1, "cr", id="g_k3k2k1(1,0,2)-dense-cr"),
    pytest.param(lambda: moved(families.g_k3k2k1(1, 0, 2), 11), "cr",
                 id="g_k3k2k1(1,0,2)-dense11-cr"),
    pytest.param(lambda: DENSE_P12, "ch", id="g_p12(2)-dense-ch"),
    # four of ROADMAP's arbitrary-basis inputs, before their adapted basis
    *(pytest.param(partial(basis_change, g, f), kind, id=f"{name}-arbitrary-{kind}")
      for name, (kind, g, f) in ARBITRARY.items()),
])
def test_z_add_rows_matches_add(maker, kind):
    g = maker()
    f = adapted_basis(g)
    h = g if f is None else basis_change(g, f)
    rows = list(_z_rows(h, ComplexKind.coerce(kind)))
    one = RowReducer(CochainIndex(h.dim).size)
    for row in rows:
        one.add(row)
    many = RowReducer(CochainIndex(h.dim).size)
    many.add_rows(rows)
    assert many.pivots == one.pivots
    assert many.kernel_basis_sparse() == one.kernel_basis_sparse()
    assert (many.rank, many.rows_seen) == (one.rank, one.rows_seen)
    assert one.ncols - one.rank == space_dims(g, kind).z2_dim


def test_arbitrary_bases_keep_model_dims_and_b2_table():
    # space_dims feeds the delta^1 images to B^2 in insertion_order; the
    # table must equal that of the images fed in the order they are made,
    # and the dims must be those of the model basis
    for kind, g, f in ARBITRARY.values():
        moved_g = basis_change(g, f)
        base, r = space_dims(g, kind), space_dims(moved_g, kind)
        assert (r.z2_dim, r.b2_dim, r.h2_dim) == (base.z2_dim, base.b2_dim, base.h2_dim)
        a = adapted_basis(moved_g)
        h = moved_g if a is None else basis_change(moved_g, a)
        vecs = coboundary_image_vectors(h)
        stream, ordered = RowReducer(CochainIndex(h.dim).size), RowReducer(CochainIndex(h.dim).size)
        for vec in vecs:
            stream.add(vec)
        for vec in insertion_order(vecs):
            ordered.add(vec)
        assert ordered.pivots == stream.pivots
        assert ordered.rank == r.b2_dim


def test_ch_kernel_contained_in_chevalley_kernel():
    for g in (families.heisenberg(2), families.g_p12(3), families.rigid_2step("g6")):
        assert ch_kernel_contained_in_chevalley(g)


# --- certified dimensions where the recorded targets diverge ----------------------------
#
# These pin the computed values of the report rows whose recorded targets
# diverge, each with an explicit certificate: a cocycle class that no
# coboundary can reach, or a count of classes modulo B^2.  Criteria 5 and 6 of
# tests/test_acceptance.py assert these values (report.CERTIFIED); the rows
# of criteria 3 and 8 still fail on their recorded targets.


def _cr_classes(g, cochains) -> int:
    """Check that each cochain is a CR-cocycle; return the dimension of
    their span modulo B^2."""
    idx = CochainIndex(g.dim)
    bred = RowReducer(idx.size)
    for vec in coboundary_image_vectors(g):
        bred.add(vec)
    quot = RowReducer(idx.size)
    for phi in cochains:
        assert chevalley_delta2(g, phi).is_zero()
        assert r_delta2(g, phi).is_zero()
        res = bred.residual(idx.to_flat(phi))
        if res:
            quot.add(res)
    return quot.rank


def test_h8_has_nontrivial_class():
    g = families.rigid_2step("h8")
    # phi(X4, X6) = X3 is a T-cocycle ...
    phi = single(8, (3, 5), 2)
    assert ch_delta2(g, phi).is_zero()
    # ... but delta f (X4, X6) lies in span{X5, X7, X8} for every f, so the
    # class is not exact; confirmed by reduction against all of B^2:
    idx = CochainIndex(8)
    bred = RowReducer(idx.size)
    for vec in coboundary_image_vectors(g):
        bred.add(vec)
    assert bred.residual(idx.to_flat(phi))
    assert space_dims(g, "ch").h2_dim == 1
    # the matching valid deformation changes an isomorphism invariant
    check = check_linear_deformation(g, phi, 2)
    assert check.passes_all
    moved = deformed_bracket(g, phi)
    assert derivation_algebra_dim(moved) != derivation_algebra_dim(g)


def test_h10_h2_value():
    g = families.rigid_2step("h10")
    assert space_dims(g, "ch").h2_dim == 1


def test_g12_dimension_pair():
    # dim-4 model with one 2-block: full kernel has the two extra classes
    # phi(X1,X4) = X4 and phi(X2,X4) = X4 (values outside every coboundary)
    g = families.g_p12(2)
    r = space_dims(g, "ch")
    assert (r.z2_dim, r.b2_dim, r.h2_dim) == (8, 6, 2)
    assert brute_z2(g, "ch") == 8 and brute_b2(g) == 6
    idx = CochainIndex(4)
    bred = RowReducer(idx.size)
    for vec in coboundary_image_vectors(g):
        bred.add(vec)
    for pair in ((0, 3), (1, 3)):
        phi = single(4, pair, 3)
        assert ch_delta2(g, phi).is_zero()
        assert bred.residual(idx.to_flat(phi))


def test_g102_cr_dimension():
    # the scaling direction phi(X1, X5) = X5 is a CR-cocycle that no
    # coboundary reaches (delta f(X1, X5) lies in span{X3, X4})
    g = families.g_k3k2k1(1, 0, 2)
    phi = single(5, (0, 4), 4)
    assert chevalley_delta2(g, phi).is_zero()
    assert r_delta2(g, phi).is_zero()
    idx = CochainIndex(5)
    bred = RowReducer(idx.size)
    for vec in coboundary_image_vectors(g):
        bred.add(vec)
    assert bred.residual(idx.to_flat(phi))
    assert space_dims(g, "cr").h2_dim == 4


def test_rigid7_cr_class():
    g = families.rigid_3step_7()
    phi = single(7, (0, 2), 3)  # phi(X1, X3) = X4
    assert chevalley_delta2(g, phi).is_zero()
    assert r_delta2(g, phi).is_zero()
    idx = CochainIndex(7)
    bred = RowReducer(idx.size)
    for vec in coboundary_image_vectors(g):
        bred.add(vec)
    assert bred.residual(idx.to_flat(phi))
    check = check_linear_deformation(g, phi, 3)
    assert check.passes_all
    moved = deformed_bracket(g, phi)
    assert derivation_algebra_dim(moved) != derivation_algebra_dim(g)
    assert space_dims(g, "cr").h2_dim == 1


def _template_directions(family: str, p: int) -> list[Cochain]:
    template = families.normalized_cocycle_template(family, p)
    return [template.instantiate({name: 1}) for name in template.free]


def test_g201_template_overlaps_coboundaries():
    # all ten pattern directions are cocycles, but they span only 8
    # classes modulo B^2
    g = families.g_p01(2)
    directions = _template_directions("p01", 2)
    assert len(directions) == 10
    assert _cr_classes(g, directions) == 8
    assert space_dims(g, "cr").h2_dim == 8


def test_g301_template_overlaps_coboundaries():
    # as at p = 2: the recorded C06 all-3-blocks targets (10 and 36) count
    # the p01 template, p of whose directions are coboundaries; the rest
    # span H^2_CR
    g = families.g_p01(3)
    directions = _template_directions("p01", 3)
    assert len(directions) == 36
    assert _cr_classes(g, directions) == 36 - 3
    assert space_dims(g, "cr").h2_dim == 33


@pytest.mark.parametrize("p,h2", [(2, 4), (3, 15), (4, 36)])
def test_clas3111_template_misses_x1_classes(p, h2):
    # the recorded C06 single-3-block targets (3, 11, 27) count the clas3111
    # template on the dim n = 3 + p model; its directions are independent
    # modulo B^2, but its gauge phi(X1,-) = 0 misses the (n-4)^2 classes
    # phi(X1,Xk) = Xl with k, l >= 5, which complete a basis of H^2_CR
    g = families.g_k3k2k1(1, 0, p)
    n = g.dim
    directions = _template_directions("clas3111", p)
    assert _cr_classes(g, directions) == len(directions)
    extra = [single(n, (0, k), l) for k in range(4, n) for l in range(4, n)]
    assert _cr_classes(g, directions + extra) == len(directions) + (n - 4) ** 2 == h2
    assert space_dims(g, "cr").h2_dim == h2


# --- linear deformation checks ------------------------------------------------------

def test_deformation_2step_zero_passes():
    g = families.g_p1(3)
    assert check_linear_deformation(g, Cochain.zero(2, g.dim), 2).passes_all


def test_deformation_2step_template_passes():
    rng = rng_for(29)
    template = families.normalized_cocycle_template("221", 3)
    g = families.g_p1(3)
    for _ in range(5):
        phi = template.instantiate(random_coeffs(template, rng))
        assert check_linear_deformation(g, phi, 2).passes_all


def test_deformation_3step_worked_example():
    # phi(X2,X3) = a X5, phi(X2,X5) = b X4 + c X5 on the dim-5 model:
    # valid iff a*b = 0 and c = 0
    g = families.g_k3k2k1(1, 0, 2)

    def make(a, b, c):
        return Cochain(2, 5, {
            (1, 2): {4: Q(a)},
            (1, 4): {3: Q(b), 4: Q(c)},
        })

    ok = check_linear_deformation(g, make(1, 0, 0), 3)
    assert ok.passes_all
    ok = check_linear_deformation(g, make(0, 1, 0), 3)
    assert ok.passes_all
    bad = conditions(check_linear_deformation(g, make(1, 1, 0), 3))
    ok, witness = bad["mixed_quadratic"]
    assert not ok
    assert witness is not None and len(witness) == 4
    bad_c = conditions(check_linear_deformation(g, make(0, 1, 1), 3))
    assert not bad_c["cubic"][0]
    assert bad_c["r_cocycle"][0]


def test_deformation_3step_zero_passes():
    g = families.g_p01(2)
    chk = check_linear_deformation(g, Cochain.zero(2, 7), 3)
    assert chk.passes_all and [name for name, ok, _ in chk.conditions if not ok] == []


@pytest.mark.parametrize("steps", [1, 4, "3", None, 2.0, 3.0, True])
def test_deformation_check_rejects_bad_steps(steps):
    g = families.g_k3k2k1(1, 0, 2)
    with pytest.raises(ValueError, match=r"^steps must be 2 or 3, got [^\n]*$"):
        check_linear_deformation(g, Cochain.zero(2, g.dim), steps)


def test_deformation_checks_reject_non_lie_base():
    # [X1,X2] = X4, [X3,X4] = -X5: Jacobi fails at (X1,X2,X3), while every
    # triple bracket vanishes
    g = LieAlgebra(5, {(0, 1): {3: 1}, (2, 3): {4: -1}})
    assert three_step_defect(g) == []
    zero = Cochain.zero(2, 5)
    for steps in (2, 3):
        with pytest.raises(ValueError, match=re.escape(
                "not a Lie algebra: Jacobi fails at (X1,X2,X3)")):
            check_linear_deformation(g, zero, steps)


# --- attached multiplications: the mixed quadratic condition ---------------------------

def test_attached_examples():
    # phi is attached to mu when mu o1 phi o1 phi + phi o1 phi o1 mu
    # + phi o1 mu o1 phi = 0, the "mixed_quadratic" condition
    g = families.g_p01(2)

    def attached(phi):
        return conditions(check_linear_deformation(g, phi, 3))["mixed_quadratic"][0]

    assert attached(Cochain.zero(2, 7))
    assert attached(Cochain(2, 7, dict(g.constants)))
    rng = rng_for(31)
    template = families.normalized_cocycle_template("p01", 2)
    for _ in range(5):
        assert attached(template.instantiate(random_coeffs(template, rng)))


# --- Jordan identities ----------------------------------------------------------------

def matrix_jordan():
    def unit(i):
        m = [[0, 0], [0, 0]]
        m[i // 2][i % 2] = 1
        return m

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    coeffs = {}
    for i in range(4):
        for j in range(4):
            p = mul(unit(i), unit(j))
            q = mul(unit(j), unit(i))
            coeffs[(i, j)] = {k: Q(p[k // 2][k % 2] + q[k // 2][k % 2], 2) for k in range(4)}
    return MultiMap(2, 4, coeffs)


def test_jordan_matrix_algebra():
    a = matrix_jordan()
    assert jordan_linearized_defect(a).is_zero()
    assert jordan_cocycle_defect(a, a).is_zero()


def test_jordan_commutative_associative():
    rng = rng_for(37)
    for _ in range(3):
        a = random_commutative_associative(rng, rng.randint(2, 4))
        assert jordan_linearized_defect(a).is_zero()
        assert jordan_cocycle_defect(a, a).is_zero()


def test_jordan_rejects_nonsymmetric():
    skew = MultiMap(2, 2, {(0, 1): {1: Q(1)}, (1, 0): {1: Q(-1)}})
    with pytest.raises(ValueError, match="symmetric|commutative"):
        jordan_linearized_defect(skew)


def test_jordan_detects_non_jordan():
    # x*x = y, y*y = x, x*y = 0 is commutative but not Jordan
    a = MultiMap(2, 2, {(0, 0): {1: Q(1)}, (1, 1): {0: Q(1)}})
    assert not jordan_linearized_defect(a).is_zero()


def test_perm_combination_action():
    n = 2
    coeffs = {t: e(n, 0) for t in [(0, 1, 0, 1)]}
    f = MultiMap(4, n, coeffs)
    out = _combine(4, n, False, [(1, perm, _cleared(f)) for perm in JORDAN_V])
    # (2341): F(x2,x3,x4,x1) hits (0,1,0,1) when (x2,x3,x4,x1) = (0,1,0,1),
    # i.e. the output tuple (1,0,1,0) receives a contribution
    assert value(out, (1, 0, 1, 0)) == e(n, 0)
