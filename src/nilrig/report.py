"""Claim registry for the verification report.

Every numeric target of the workbench is recomputed here as a claim row
with an `expected` string, a `computed` string, and pass defined as exact
string equality.  The CLI command `paper-report` and the acceptance test
suite both run this registry; rows are deterministic for a fixed seed.

A row whose recorded target is proven wrong asserts the certified value
from `CERTIFIED` instead and keeps the recorded target as
`detail["recorded"]`, so the divergence stays visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable

from . import families, operads, sampling
from .cohom import (
    Cochain,
    MultiMap,
    ch_delta2,  # noqa: F401 -- a name that perfbench/tracer.py wraps
    ch_kernel_contained_in_chevalley,
    check_linear_deformation,
    chevalley_and_cr_dims,
    chevalley_delta1,
    chevalley_delta2,  # noqa: F401 -- a name that perfbench/tracer.py wraps
    coboundary_rank,
    deformed_bracket,
    derivation_algebra_dim,  # noqa: F401 -- a name that perfbench/tracer.py wraps
    jordan_cocycle_defect,
    jordan_linearized_defect,
    r_delta2,  # noqa: F401 -- a name that perfbench/tracer.py wraps
    space_dims,
    _after_delta1,
    _format_tuple,
)
from .liealg import (
    DEFAULT_SEED,
    LieAlgebra,
    basis_change,
    center_dim,
    characteristic_sequence,
    jacobi_defect,
    lower_central_series,
    nilindex,
    three_step_defect,
    two_step_defect,
    _characteristic_sequence,
    _nilindex,
)

ClaimFn = Callable[[int], tuple[str, str, dict | None]]


@dataclass(frozen=True)
class ClaimSpec:
    id: str
    criterion: int
    description: str
    fn: ClaimFn


CLAIMS: list[ClaimSpec] = []


def _claim(cid: str, criterion: int, description: str):
    def register(fn: ClaimFn) -> ClaimFn:
        CLAIMS.append(ClaimSpec(cid, criterion, description, fn))
        return fn

    return register


def _two_step_fixtures() -> list[tuple[str, LieAlgebra]]:
    return [
        ("h3", families.heisenberg(1)),
        ("h5", families.heisenberg(2)),
        ("g5", families.g_p1(2)),
        ("g_p12(2)", families.g_p12(2)),
        ("g6", families.rigid_2step("g6")),
        ("h6", families.rigid_2step("h6")),
        ("g8", families.rigid_2step("g8")),
    ]


def _three_step_fixtures() -> list[tuple[str, LieAlgebra]]:
    base = families.g_p01(2)  # the base of `families.classification_F731`
    return [
        ("g_102", families.g_k3k2k1(1, 0, 2)),
        ("g_201", base),
        ("rigid7", families.rigid_3step_7()),
        *((f"F731[{i}]", deformed_bracket(base, families.f731_cochain(families.F731_TUPLES[i])))
          for i in (6, 11)),
    ]


# --- criterion 1: Heisenberg CH dimensions --------------------------------

def _make_heisenberg_claim(p: int) -> None:
    @_claim(f"C01.heisenberg-ch.p{p}", 1,
            f"CH dimensions of the {2 * p + 1}-dim Heisenberg algebra")
    def run(seed: int):
        r = space_dims(families.heisenberg(p), "ch")
        want = p * (2 * p + 1)
        return (f"z2={want},h2=0", f"z2={r.z2_dim},h2={r.h2_dim}",
                {"b2": r.b2_dim})


for _p in (1, 2, 3, 4):
    _make_heisenberg_claim(_p)


# --- criterion 2: pattern-space counts ------------------------------------

def _make_mp_claim(p: int, want: int) -> None:
    @_claim(f"C02.m-count.p{p}", 2,
            f"221-pattern cocycle space dimension at p={p}")
    def run(seed: int):
        lin, closed = families.cocycle_space_dim_221(p)
        computed = str(lin) if lin == closed else f"lin={lin},closed={closed}"
        return str(want), computed, None


for _p, _want in ((2, 0), (3, 6), (4, 20)):
    _make_mp_claim(_p, _want)


# --- criterion 3: rigid 2-step algebras -----------------------------------

def _h2_claim(cid: str, criterion: int, description: str, make, kind: str, want: int) -> None:
    """Register a claim that H^2 of `make()` in complex `kind` is `want`
    (criteria 3, 5 and 6)."""
    @_claim(cid, criterion, description)
    def run(seed: int):
        r = space_dims(make(), kind)
        return f"h2={want}", f"h2={r.h2_dim}", {"z2": r.z2_dim, "b2": r.b2_dim}


_h2_claim("C03.rigid-2step.g5", 3, "H^2_CH of g5 vanishes", lambda: families.g_p1(2), "ch", 0)
for _name in ("g7", "g9", "g6", "g8", "h6", "h8", "h10"):
    _h2_claim(f"C03.rigid-2step.{_name}", 3, f"H^2_CH of {_name} vanishes",
              lambda _n=_name: families.rigid_2step(_n), "ch", 0)


# --- criterion 4: non-rigidity at p = 5 -----------------------------------

@_claim("C04.nonrigid-p5", 4, "H^2_CH of the 11-dim model is nonzero")
def _c04(seed: int):
    r = space_dims(families.g_p1(5), "ch")
    return "h2>0", "h2>0" if r.h2_dim > 0 else f"h2={r.h2_dim}", {"h2": r.h2_dim}


# --- criterion 5: the (2,..,2,1,1) family ---------------------------------

for _p in (2, 3, 4, 5):
    _h2_claim(f"C05.h2-ch-2p-family.p{_p}", 5, f"H^2_CH of the 2p-dim model at p={_p}",
              lambda _p=_p: families.g_p12(_p), "ch", (_p ** 3 - _p ** 2 - 2 * _p + 2) // 2)


# --- criterion 6: CR dimensions -------------------------------------------

for _n in (5, 6, 7):
    _h2_claim(f"C06.h2-cr-one-3-block.n{_n}", 6, f"H^2_CR of the dim-{_n} single-3-block model",
              lambda _n=_n: families.g_k3k2k1(1, 0, _n - 3), "cr",
              (_n - 3) * (_n * _n - 7 * _n + 14) // 2 - 1)
for _p in (2, 3):
    _h2_claim(f"C06.h2-cr-3p1.p{_p}", 6, f"H^2_CR of the dim-{3 * _p + 1} all-3-blocks model",
              lambda _p=_p: families.g_p01(_p), "cr", _p * _p * (3 * _p - 1) // 2)


# --- criterion 7: coboundary bound ----------------------------------------

@_claim("C07.b2-bound.p2-family", 7,
        "dim B^2_CR <= 21 across the dim-7 family fixtures")
def _c07(seed: int):
    fixtures = [("base", families.g_p01(2)), ("rigid7", families.rigid_3step_7())]
    fixtures += [(f"F731[{k}]", a) for k, a in enumerate(families.classification_F731())]
    bound = 21
    for name, a in fixtures:
        if jacobi_defect(a) or three_step_defect(a):
            raise ValueError(f"C07 fixture {name} is not a 3-step Lie algebra")
    # B^2 is the image of delta^1 in every complex; B^2 in Z^2_cr is
    # certified for these fixtures by C06.p2 (base), C08 (rigid7) and C09
    values = {name: coboundary_rank(a) for name, a in fixtures}
    worst = max(values.values())
    computed = "all<=21" if worst <= bound else f"max b2={worst}"
    return "all<=21", computed, {"b2": values}


# --- criterion 8: the rigid 7-dim 3-step algebra --------------------------

@_claim("C08.rigid-3step-7", 8,
        "validity, block pattern and H^2_CR of the rigid 7-dim model")
def _c08(seed: int):
    g = families.rigid_3step_7()
    jac = not jacobi_defect(g)
    steps = nilindex(g)
    charseq = characteristic_sequence(g)
    cs = "(" + ",".join(map(str, charseq.parts)) + ")"
    rch, rcr = chevalley_and_cr_dims(g)
    expected = "jacobi;3-step;(3,3,1);h2_cr=0"
    computed = (f"{'jacobi' if jac else 'jacobi-fails'};{steps}-step;"
                f"{cs};h2_cr={rcr.h2_dim}")
    detail = {"cr": {"z2": rcr.z2_dim, "b2": rcr.b2_dim, "h2": rcr.h2_dim},
              "charseq_certified": charseq.certified}
    if rcr.h2_dim != 0:
        # divergent value: report both complexes, as required
        computed += f" (chevalley h2={rch.h2_dim})"
        detail["chevalley"] = {"z2": rch.z2_dim, "b2": rch.b2_dim, "h2": rch.h2_dim}
    return expected, computed, detail


# --- criterion 9: the 16-member classification ----------------------------

def _invariant_vector(g: LieAlgebra, dims: tuple[int, ...]) -> tuple:
    chevalley, cr = chevalley_and_cr_dims(g)
    return (
        dims,
        center_dim(g),
        g.dim ** 2 - cr.b2_dim,   # dim Der = n^2 - rank delta^1
        cr.h2_dim,
        chevalley.h2_dim,
    )


@_claim("C09.classification-F731", 9,
        "the 16 dim-7 members are valid; invariant-vector separation reported")
def _c09(seed: int):
    algs = families.classification_F731()
    valid = 0
    vectors = {}
    certified = True
    for k, a in enumerate(algs):
        chain = lower_central_series(a)
        charseq = _characteristic_sequence(a, chain)
        certified = certified and charseq.certified
        valid += (not jacobi_defect(a) and _nilindex(chain) == 3
                  and charseq.parts == (3, 3, 1))
        vectors[k] = _invariant_vector(a, chain.dims)
    groups: dict[tuple, list[int]] = {}
    for k, v in vectors.items():
        groups.setdefault(v, []).append(k)
    collisions = sorted(members for members in groups.values() if len(members) > 1)
    detail = {
        "invariant_vectors": {str(k): repr(v) for k, v in vectors.items()},
        "indistinguishable_groups": collisions,
        "distinguished_pairs": f"{len(groups)} distinct vectors over 16 members",
        "charseq_certified": certified,
    }
    return "16 valid", f"{valid} valid" if len(algs) == 16 else f"count={len(algs)}", detail


# --- criterion 10: operad dimensions and duality --------------------------

@_claim("C10.dual-dims", 10, "dual dimension sequence starts (1, 1, 3, 15)")
def _c10a(seed: int):
    dims = operads.dual_dims_2nilp(4)
    return "(1, 1, 3, 15)", str(dims), None


@_claim("C10.tree-oracle", 10,
        "recurrence agrees with commutative-binary-tree enumeration, n <= 6")
def _c10b(seed: int):
    rec = operads.dual_dims_2nilp(6)
    enum = tuple(operads.count_commutative_binary_trees(n) for n in range(1, 7))
    return "match", "match" if rec == enum else f"recurrence={rec},trees={enum}", \
        {"values": list(rec)}


@_claim("C10.koszul-residual", 10, "duality functional equation to order 8")
def _c10c(seed: int):
    order = 8
    primal = operads.gen_function(operads.two_nilp_dims(order), order)
    dual = operads.gen_function(operads.dual_dims_2nilp(order), order)
    res = operads.koszul_check(primal, dual)
    coeffs = [str(c) for c in res]
    return "residual=0", "residual=" + (", ".join(coeffs) if any(res) else "0"), \
        {"coeffs": coeffs}


# --- criterion 11: structural property suites -----------------------------

def _vanishes_after_d1(fixtures, p) -> tuple[str, str, dict | None]:
    # outer o delta^1 (outer: `cohom._degree2`) is linear, so zero at every E_ab is zero
    first = {}
    for name, g in fixtures:
        for r, m in enumerate(_after_delta1(g, p)):
            if not m.is_zero():
                args = _format_tuple(m.first_nonzero()[0])
                first[name] = f"E_({r // g.dim + 1},{r % g.dim + 1}) at {args}"
                break
    return "all zero", f"fails on {list(first)}" if first else "all zero", first or None


@_claim("C11.d2-after-d1", 11, "degree-2 after degree-1 vanishes (Chevalley)")
def _c11a(seed: int):
    return _vanishes_after_d1(_two_step_fixtures() + _three_step_fixtures(), None)


@_claim("C11.t-after-d1", 11, "T after degree-1 vanishes on 2-step fixtures")
def _c11b(seed: int):
    return _vanishes_after_d1(_two_step_fixtures(), 2)


@_claim("C11.r2-after-d1", 11, "delta_R^2 after degree-1 vanishes on 3-step fixtures")
def _c11c(seed: int):
    return _vanishes_after_d1(_three_step_fixtures(), 3)


@_claim("C11.t-kernel-in-chevalley-kernel", 11,
        "rank containment of the two degree-2 kernels on 2-step fixtures")
def _c11d(seed: int):
    bad = [name for name, g in _two_step_fixtures()
           if not ch_kernel_contained_in_chevalley(g)]
    return "contained", "contained" if not bad else f"fails on {bad}", None


def _brute_deformation_ok(g: LieAlgebra, phi: Cochain, steps: int) -> bool:
    # with phi = 0 every mu + t phi is g itself: check it once
    algebras = ((g,) if phi.is_zero()
                else (deformed_bracket(g, phi, Q(t)) for t in (1, 2, 3, 5)))
    for gt in algebras:
        if jacobi_defect(gt):
            return False
        defect = two_step_defect(gt) if steps == 2 else three_step_defect(gt)
        if defect:
            return False
    return True


@_claim("C11.deform-equivalence", 11,
        "condition checks match brute-force scalar sampling, 100 seeded pairs")
def _c11e(seed: int):
    rng = sampling.rng_for(seed + 3)
    mismatches = 0
    passes = 0
    g3 = families.g_k3k2k1(1, 0, 2)
    for trial in range(100):
        if trial % 2 == 0:
            dim = rng.randint(3, 5)
            g = sampling.random_two_step(rng, dim)
            if two_step_defect(g):
                continue
            phi, steps = _random_phi_2step(rng, g), 2
        else:
            g = g3
            phi, steps = _random_phi_3step(rng, g), 3
        ok_checked = check_linear_deformation(g, phi, steps).passes_all
        mismatches += ok_checked != _brute_deformation_ok(g, phi, steps)
        passes += ok_checked
    detail = {"valid_deformations_seen": passes}
    return "equivalent", "equivalent" if mismatches == 0 else f"{mismatches} mismatches", detail


def _random_phi_2step(rng, g: LieAlgebra) -> Cochain:
    kind = rng.randrange(3)
    if kind == 0:
        return Cochain.zero(2, g.dim)
    if kind == 1:
        return chevalley_delta1(g, sampling.random_endomorphism(g.dim, rng, -1, 1))
    return sampling.random_skew_cochain(g.dim, rng, entries=2, lo=-1, hi=1)


def _random_phi_3step(rng, g: LieAlgebra) -> Cochain:
    kind = rng.randrange(3)
    if kind == 0:
        return Cochain.zero(2, g.dim)
    if kind == 1:
        template = families.normalized_cocycle_template("clas3111", 2)
        name = rng.choice(template.free)
        return template.instantiate({name: rng.randint(-2, 2)})
    return sampling.random_skew_cochain(g.dim, rng, entries=2, lo=-1, hi=1)


@_claim("C11.basis-change-invariance", 11,
        "cohomology dimensions are invariant under 5 seeded basis changes")
def _c11f(seed: int):
    rng = sampling.rng_for(seed + 4)
    cases = [
        ("h5", families.heisenberg(2), "ch"),
        ("g_p12(2)", families.g_p12(2), "ch"),
        ("g_p12(2)", families.g_p12(2), "chevalley"),
        ("g6", families.rigid_2step("g6"), "ch"),
        ("g_102", families.g_k3k2k1(1, 0, 2), "cr"),
        ("g_103", families.g_k3k2k1(1, 0, 3), "cr"),
    ]
    bad = []
    for name, g, kind in cases:
        base = space_dims(g, kind)
        for _ in range(5):
            f = (sampling.random_unipotent(g.dim, rng)
                 if rng.random() < 0.5 else sampling.random_invertible(g.dim, rng, -2, 2))
            moved = space_dims(basis_change(g, f), kind)
            if (moved.z2_dim, moved.b2_dim, moved.h2_dim) != (base.z2_dim, base.b2_dim, base.h2_dim):
                bad.append(f"{name}/{kind}")
                break
    return "invariant", "invariant" if not bad else f"fails on {bad}", None


# --- criterion 12: Jordan identities --------------------------------------

def _matrix_jordan_algebra():
    """2x2 matrices under x * y = (xy + yx) / 2 on the units E_11, E_12,
    E_21, E_22, where E_ab is basis vector 2a + b and E_ab E_cd = [b = c] E_ad."""
    coeffs: dict[tuple[int, int], dict[int, Q]] = {}
    for i in range(4):
        for j in range(4):
            vec = coeffs[(i, j)] = {}
            for (a, b), (c, d) in ((divmod(i, 2), divmod(j, 2)), (divmod(j, 2), divmod(i, 2))):
                if b == c:
                    vec[2 * a + d] = vec.get(2 * a + d, 0) + Q(1, 2)
    return MultiMap(2, 4, coeffs)


@_claim("C12.jordan-matrix", 12,
        "symmetrized 2x2 matrix product satisfies the linearized identity")
def _c12a(seed: int):
    a = _matrix_jordan_algebra()
    lin = jordan_linearized_defect(a)
    coc = jordan_cocycle_defect(a, a)
    ok = lin.is_zero() and coc.is_zero()
    return "defects=0", "defects=0" if ok else "nonzero defect", None


@_claim("C12.jordan-random-assoc", 12,
        "three seeded commutative associative algebras, dim <= 4")
def _c12b(seed: int):
    rng = sampling.rng_for(seed + 5)
    bad = 0
    for k in range(3):
        a = sampling.random_commutative_associative(rng, rng.randint(2, 4))
        if not jordan_linearized_defect(a).is_zero():
            bad += 1
    return "defects=0", "defects=0" if bad == 0 else f"{bad} nonzero", None


# ---------------------------------------------------------------------------
# certified values that replace refuted recorded targets
#
# A recorded target is replaced only when a certificate in tests/test_cohom.py
# proves it wrong for the complex defined in cohom.py, and the dense oracle of
# tests/helpers.py agrees with the new value (test_space_dims_against_brute_force).

CERTIFIED: dict[str, str] = {
    # the closed form fails at p = 2: phi(X1,X4) = X4 and
    # phi(X2,X4) = X4 are classes that no coboundary reaches
    # (test_g12_dimension_pair)
    "C05.h2-ch-2p-family.p2": "h2=2",
    # the recorded values count the clas3111 template, whose gauge
    # phi(X1,-) = 0 misses the (n-4)^2 classes phi(X1,Xk) = Xl with k, l >= 5
    # (test_clas3111_template_misses_x1_classes)
    "C06.h2-cr-one-3-block.n5": "h2=4",
    "C06.h2-cr-one-3-block.n6": "h2=15",
    "C06.h2-cr-one-3-block.n7": "h2=36",
    # the recorded values count the p01 template, p of whose directions are
    # coboundaries (test_g201_ and test_g301_template_overlaps_coboundaries)
    "C06.h2-cr-3p1.p2": "h2=8",
    "C06.h2-cr-3p1.p3": "h2=33",
}


def row_line(row: dict) -> str:
    """One-line summary of a report row: id, expected, computed, and the
    recorded target where a certified value replaced it."""
    line = f"{row['id']}: expected {row['expected']!r}, computed {row['computed']!r}"
    recorded = (row.get("detail") or {}).get("recorded")
    if recorded is not None:
        line += f", recorded {recorded!r}"
    return line


# ---------------------------------------------------------------------------
# runner

def select_claims(only: str | None = None) -> list[ClaimSpec]:
    """The registry entries whose id starts with `only` (all when None).

    A prefix that matches no id is a ValueError, so a mistyped prefix
    cannot pass as an empty, successful run.
    """
    specs = [spec for spec in CLAIMS if only is None or spec.id.startswith(only)]
    if not specs:
        raise ValueError(f"no claim id starts with {only!r}")
    return specs


def run_claims(seed: int = DEFAULT_SEED, only: str | None = None) -> dict:
    """Run the registry (optionally filtered by id prefix, see
    `select_claims`) and build the report document."""
    rows = []
    for spec in select_claims(only):
        t0 = time.perf_counter()
        expected, computed, detail = spec.fn(seed)
        if spec.id in CERTIFIED:
            detail = {**(detail or {}), "recorded": expected}
            expected = CERTIFIED[spec.id]
        row = {
            "id": spec.id,
            "criterion": spec.criterion,
            "description": spec.description,
            "expected": expected,
            "computed": computed,
            "pass": expected == computed,
            "runtime_ms": round(1000 * (time.perf_counter() - t0), 1),
        }
        if detail:
            row["detail"] = detail
        rows.append(row)
    rows.sort(key=lambda r: r["id"])
    passed = sum(r["pass"] for r in rows)
    return {
        "seed": seed,
        "claims": rows,
        "summary": {"total": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
    }
