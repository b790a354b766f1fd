import re
from fractions import Fraction as Q

import pytest

from nilrig import families, operads, report
from nilrig.cohom import ch_delta2, check_linear_deformation
from nilrig.liealg import (
    center_dim,
    characteristic_sequence,
    jacobi_defect,
    nilindex,
    three_step_defect,
    two_step_defect,
)
from nilrig.sampling import rng_for

from helpers import bracket_vec_basis, dense, random_coeffs, value


def e(n, i):
    """X_i of an n-dimensional space as a value {coordinate: Fraction}."""
    assert 0 <= i < n
    return {i: Q(1)}


# --- model constructors -------------------------------------------------------

def test_heisenberg():
    h3 = families.heisenberg(1)
    assert h3.dim == 3 and h3.constants[(0, 1)] == e(3, 2)
    for p in (1, 2, 3, 4):
        h = families.heisenberg(p)
        assert nilindex(h) == 2
        assert characteristic_sequence(h).parts == (2,) + (1,) * (2 * p - 1)
    with pytest.raises(ValueError):
        families.heisenberg(0)


def test_g_p1():
    g5 = families.g_p1(2)
    assert g5.dim == 5
    assert two_step_defect(g5) == []
    assert center_dim(g5) == 2
    assert characteristic_sequence(g5).parts == (2, 2, 1)
    assert characteristic_sequence(families.g_p1(4)).parts == (2, 2, 2, 2, 1)


def test_g_p12():
    g = families.g_p12(2)
    assert g.dim == 4
    assert characteristic_sequence(g).parts == (2, 1, 1)
    assert characteristic_sequence(families.g_p12(4)).parts == (2, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        families.g_p12(1)


def test_rigid_2step_tables():
    g7 = families.rigid_2step("g7")
    assert g7.constants[(1, 3)] == e(7, 6)      # [X2,X4] = X7
    assert g7.constants[(1, 5)] == e(7, 4)      # [X2,X6] = X5
    assert g7.constants[(3, 5)] == e(7, 2)      # [X4,X6] = X3
    h6 = families.rigid_2step("h6")
    assert h6.constants[(1, 3)] == e(6, 5)      # [X2,X4] = X6
    dims = {"g7": 7, "g9": 9, "g6": 6, "g8": 8, "h6": 6, "h8": 8, "h10": 10}
    for name, dim in dims.items():
        g = families.rigid_2step(name)
        assert g.dim == dim
        assert jacobi_defect(g) == []
        assert two_step_defect(g) == []
    with pytest.raises(ValueError):
        families.rigid_2step("g11")


def test_g_k3k2k1():
    g = families.g_k3k2k1(1, 0, 2)
    assert g.dim == 5
    assert g.constants[(0, 1)] == e(5, 2) and g.constants[(0, 2)] == e(5, 3)
    assert characteristic_sequence(families.g_k3k2k1(2, 1, 3)).parts == (3, 3, 2, 1, 1, 1)
    assert families.g_k3k2k1(2, 0, 1) == families.g_p01(2)
    assert families.g_k3k2k1(2, 0, 1).dim == 7
    with pytest.raises(ValueError):
        families.g_k3k2k1(0, 1, 1)


def test_g_p01():
    g = families.g_p01(2)
    assert g.dim == 7
    assert three_step_defect(g) == []
    assert two_step_defect(g) != []
    assert nilindex(g) == 3


def test_rigid_3step_7():
    g = families.rigid_3step_7()
    assert g.dim == 7
    assert g.constants[(1, 4)] == e(7, 5)  # [X2,X5] = X6
    assert jacobi_defect(g) == []
    assert characteristic_sequence(g).parts == (3, 3, 1)


#: 1-based bracket tables [X_i, X_j] = X_k as {(i, j): k}, written out
#: from each model's block pattern and, for the rigid laws, their extra
#: brackets
_G9_EXTRA = {(2, 4): 7, (2, 8): 5, (4, 6): 9, (6, 8): 3}
_R7_EXTRA = {(2, 3): 4, (3, 5): 7, (5, 6): 4, (2, 5): 6}


@pytest.mark.parametrize("make,dim,table", [
    pytest.param(lambda: families.g_p1(2), 5, {(1, 2): 3, (1, 4): 5}, id="g_p1-2"),
    pytest.param(lambda: families.g_p1(4), 9, {(1, 2): 3, (1, 4): 5, (1, 6): 7, (1, 8): 9},
                 id="g_p1-4"),
    pytest.param(lambda: families.g_p12(2), 4, {(1, 2): 3}, id="g_p12-2"),
    pytest.param(lambda: families.g_p12(4), 8, {(1, 2): 3, (1, 4): 5, (1, 6): 7},
                 id="g_p12-4"),
    pytest.param(lambda: families.g_k3k2k1(2, 1, 2), 10,
                 {(1, 2): 3, (1, 3): 4, (1, 5): 6, (1, 6): 7, (1, 8): 9}, id="g_k3k2k1-2-1-2"),
    pytest.param(lambda: families.rigid_2step("g9"), 9,
                 {(1, 2): 3, (1, 4): 5, (1, 6): 7, (1, 8): 9, **_G9_EXTRA}, id="rigid-g9"),
    pytest.param(families.rigid_3step_7, 7,
                 {(1, 2): 3, (1, 3): 4, (1, 5): 6, (1, 6): 7, **_R7_EXTRA}, id="rigid7"),
])
def test_block_model_bracket_tables(make, dim, table):
    """The full structure constants of the block models, entry by entry."""
    g = make()
    assert g.dim == dim
    assert g.constants == {(i - 1, j - 1): e(dim, k - 1) for (i, j), k in table.items()}


def test_every_constructor_is_lie_and_advertised_step():
    cases = [
        (families.heisenberg(2), 2),
        (families.g_p1(3), 2),
        (families.g_p12(3), 2),
        (families.rigid_2step("g9"), 2),
        (families.rigid_2step("h10"), 2),
        (families.g_k3k2k1(1, 1, 1), 3),
        (families.g_k3k2k1(2, 0, 2), 3),
        (families.g_p01(3), 3),
        (families.rigid_3step_7(), 3),
    ]
    for g, step in cases:
        assert jacobi_defect(g) == []
        assert nilindex(g) == step


@pytest.mark.parametrize("make,error,text", [
    pytest.param(lambda: families.normalized_cocycle_template("p01", True), TypeError,
                 "p must be an int, got True", id="template-p-True"),
    pytest.param(lambda: families.g_k3k2k1(1, -1, 1), ValueError, "k2 must be nonnegative",
                 id="g_k3k2k1-k2-minus-1"),
    pytest.param(lambda: operads.two_nilp_dims(True), TypeError,
                 "order must be an int, got True", id="two_nilp_dims-True"),
    pytest.param(lambda: operads.dual_dims_2nilp(2.0), TypeError,
                 "order must be an int, got 2.0", id="dual_dims_2nilp-2.0"),
    pytest.param(lambda: operads.count_commutative_binary_trees(True), TypeError,
                 "n must be an int, got True", id="count_trees-True"),
])
def test_family_and_operad_sizes_are_checked(make, error, text):
    """A family size or an operad order is an int, not a bool, and in range."""
    with pytest.raises(error, match=re.escape(text)):
        make()


# --- templates ------------------------------------------------------------------

def test_template_221_counts():
    assert len(families.normalized_cocycle_template("221", 2).free) == 0
    assert len(families.normalized_cocycle_template("221", 3).free) == 6
    assert len(families.normalized_cocycle_template("221", 4).free) == 20


def test_template_p01_counts_and_couplings():
    t = families.normalized_cocycle_template("p01", 2)
    assert len(t.free) == 10
    # coupled entry: phi(X2,X5) contains (a_{3,5}^1 + a_{2,6}^1) X3
    phi = t.instantiate({"a_{3,5}^1": 2, "a_{2,6}^1": 5})
    assert value(phi, (1, 4))[2] == Q(7)


def test_template_z2kk_shape():
    t = families.normalized_cocycle_template("Z2kk", 2)
    assert "a" in t.free
    phi = t.instantiate({"a": 3})
    assert value(phi, (0, 3)) == {3: Q(3)}  # phi(X1, X4) = 3 X4


def test_template_clas3111_counts():
    # free-coefficient count matches q(q^2+2q+3)/2 with q = n - 4
    for p in (2, 3, 4):
        n = p + 3
        q = n - 4
        t = families.normalized_cocycle_template("clas3111", p)
        assert len(t.free) == q * (q * q + 2 * q + 3) // 2


def test_template_free_order_and_relations_are_pinned():
    # the order of `free` decides which name a seeded rng.choice draws
    template = families.normalized_cocycle_template
    assert template("p01", 2).free == (
        "a_{2,3}^1", "a_{2,3}^2", "a_{2,6}^1", "a_{2,6}^2", "a_{5,6}^1",
        "a_{5,6}^2", "a_{3,5}^1", "a_{3,5}^2", "a_{2,5}^1", "a_{2,5}^2")
    assert template("221", 3).free == (
        "a_{2,4}^7", "a_{2,6}^5", "a_{2,6}^7", "a_{4,6}^3", "a_{4,6}^5", "a_{4,6}^7")
    assert template("clas3111", 2).free == ("a_{2,3}^5", "a_{2,5}^4", "a_{2,5}^5")


def test_template_unknown_names_rejected():
    t = families.normalized_cocycle_template("221", 3)
    with pytest.raises(ValueError, match="unknown coefficient"):
        t.instantiate({"a_{9,9}^9": 1})
    with pytest.raises(ValueError, match="unknown template family"):
        families.normalized_cocycle_template("nope", 2)


def test_template_instances_are_cocycles():
    rng = rng_for(41)
    for p in (2, 3, 4):
        g = families.g_p1(p)
        t = families.normalized_cocycle_template("221", p)
        for _ in range(3):
            phi = t.instantiate(random_coeffs(t, rng))
            assert ch_delta2(g, phi).is_zero()
    for p, fam in ((2, "C1"), (3, "C1"), (3, "C2"), (4, "C2")):
        g = families.g_p12(p)
        t = families.normalized_cocycle_template(fam, p)
        for _ in range(3):
            phi = t.instantiate(random_coeffs(t, rng))
            assert ch_delta2(g, phi).is_zero()


@pytest.mark.parametrize("bad", [0.1, True])
def test_bracket_data_and_template_coefficients_reject_float_and_bool(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        families.algebra_from_brackets(3, {(1, 2): {3: bad}})
    t = families.normalized_cocycle_template("221", 3)
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        t.instantiate({t.free[0]: bad})


def test_bracket_data_rejects_image_out_of_range():
    with pytest.raises(ValueError, match="image index 4 out of range"):
        families.algebra_from_brackets(3, {(1, 2): {4: 1}})


def test_bracket_data_and_template_coefficients_give_fractions():
    g = families.algebra_from_brackets(3, {(1, 2): {3: "-2/4"}, (1, 3): {3: 2}})
    assert g.constants == {(0, 1): {2: Q(-1, 2)}, (0, 2): {2: Q(2)}}
    t = families.normalized_cocycle_template("221", 3)
    phi = t.instantiate({name: (3 if k % 2 else "1/3") for k, name in enumerate(t.free)})
    assert phi == t.instantiate({name: (Q(3) if k % 2 else Q(1, 3))
                                 for k, name in enumerate(t.free)})
    assert phi.coeffs and all(type(x) is Q for vec in phi.coeffs.values() for x in vec.values())


# --- deformed members -------------------------------------------------------------

def test_deformed_2step_zero_is_base():
    g = families.deformed_2step("g_p1", families.FamilyParams("221", p=3))
    assert g == families.g_p1(3)


def test_deformed_2step_g7_brackets():
    # the 221 coefficients reproducing the dim-7 rigid member
    coeffs = {"a_{2,4}^7": 1, "a_{2,6}^5": 1, "a_{4,6}^3": 1}
    g = families.deformed_2step("g_p1", families.FamilyParams("221", p=3, coeffs=coeffs))
    assert g == families.rigid_2step("g7")


def test_deformed_2step_passes_checks():
    rng = rng_for(43)
    for fam, base, p in (("221", "g_p1", 3), ("221", "g_p1", 4),
                         ("C1", "g_p12", 3), ("C2", "g_p12", 4)):
        t = families.normalized_cocycle_template(fam, p)
        for _ in range(3):
            params = families.FamilyParams(fam, p=p, coeffs=random_coeffs(t, rng))
            g = families.deformed_2step(base, params)
            assert jacobi_defect(g) == []
            assert two_step_defect(g) == []
            base_alg = families.g_p1(p) if base == "g_p1" else families.g_p12(p)
            phi = t.instantiate(params.coeffs)
            assert check_linear_deformation(base_alg, phi, 2).passes_all


def test_deformed_2step_c2_center_contains_x2p():
    rng = rng_for(47)
    p = 4
    t = families.normalized_cocycle_template("C2", p)
    params = families.FamilyParams("C2", p=p, coeffs=random_coeffs(t, rng))
    g = families.deformed_2step("g_p12", params)
    # X_{2p} central: brackets never involve it as an argument
    x = dense(e(2 * p, 2 * p - 1), 2 * p)
    for k in range(2 * p):
        assert all(v == 0 for v in bracket_vec_basis(g, x, k))


def test_deformed_2step_validation():
    with pytest.raises(ValueError, match="does not match"):
        families.deformed_2step("g_p1", families.FamilyParams("C1", p=3))
    with pytest.raises(ValueError, match="unknown base"):
        families.deformed_2step("nope", families.FamilyParams("221", p=3))
    with pytest.raises(ValueError, match=re.escape("unknown base model: ['g_p1']")):
        families.deformed_2step(["g_p1"], families.FamilyParams("221", p=3))


def test_seven_dim_subfamily_fixtures():
    # the five bracket patterns on X2..X7 inside the dim-7 deformation family
    patterns = [
        {"a_{2,4}^7": 1, "a_{2,6}^5": 1, "a_{4,6}^3": 1},
        {"a_{2,6}^5": 1, "a_{4,6}^3": 1},
        {"a_{2,4}^7": 1},
        {"a_{2,6}^7": 1},
        {},
    ]
    for coeffs in patterns:
        g = families.deformed_2step("g_p1", families.FamilyParams("221", p=3, coeffs=coeffs))
        assert jacobi_defect(g) == []
        assert two_step_defect(g) == []
        assert characteristic_sequence(g).parts == (2, 2, 2, 1)


# --- the sixteen-member list --------------------------------------------------------

def test_classification_list():
    algs = families.classification_F731()
    assert len(algs) == 16
    assert algs[0] == families.g_p01(2)
    for a in algs:
        assert jacobi_defect(a) == []
        assert three_step_defect(a) == []
        assert characteristic_sequence(a).parts == (3, 3, 1)


def test_classification_contains_the_rigid_member():
    # tuple (1,0,0,1,0,0,1,0,0,0) reproduces the distinguished algebra
    idx = families.F731_TUPLES.index((1, 0, 0, 1, 0, 0, 1, 0, 0, 0))
    assert families.classification_F731()[idx] == families.rigid_3step_7()


def test_classification_member_example():
    idx = families.F731_TUPLES.index((1, 0, 0, 0, 0, 1, 0, 0, 1, 0))
    a = families.classification_F731()[idx]
    assert jacobi_defect(a) == []
    # [X2,X3] = a1 X4 + b1 X7 = X4 + X7
    assert a.constants[(1, 2)] == {3: Q(1), 6: Q(1)}


def test_report_three_step_fixtures_are_f731_members():
    """The report builds only the two F731 members it checks, equal to
    the members of the full list."""
    from nilrig import report
    algs = families.classification_F731()
    assert report._three_step_fixtures() == [
        ("g_102", families.g_k3k2k1(1, 0, 2)), ("g_201", families.g_p01(2)),
        ("rigid7", families.rigid_3step_7()), ("F731[6]", algs[6]), ("F731[11]", algs[11])]


# --- pattern-space dimension ----------------------------------------------------------

def test_cocycle_space_dim_221():
    for p, want in ((2, 0), (3, 6), (4, 20), (5, 45), (6, 84)):
        lin, closed = families.cocycle_space_dim_221(p)
        assert lin == closed == want == p * (p + 1) * (p - 2) // 2
