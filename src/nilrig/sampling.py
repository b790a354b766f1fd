"""Seeded random generators used by the verification report and the tests.

Everything takes an explicit `random.Random`; results are deterministic
for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

from . import families
from .cohom import Cochain, MultiMap
from .exactlin import RationalMatrix, invert
from .liealg import LieAlgebra, _columns, _lincomb, abelian


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_matrix(n: int, rng: random.Random, lo: int = -3, hi: int = 3) -> RationalMatrix:
    entries = {}
    for i in range(n):
        for j in range(n):
            v = rng.randint(lo, hi)
            if v:
                entries[(i, j)] = Q(v)
    return RationalMatrix(n, n, entries)


def random_invertible(n: int, rng: random.Random, lo: int = -3, hi: int = 3) -> RationalMatrix:
    while True:
        m = random_matrix(n, rng, lo, hi)
        try:
            invert(m)
            return m
        except ValueError:
            continue


def arbitrary_basis_inputs() -> list[tuple[str, str, LieAlgebra, RationalMatrix]]:
    """Seven model algebras, each with one dense basis change: (name,
    complex, g in its model basis, a random_invertible(dim, rng, -2, 2)
    matrix), the matrices drawn from one rng_for(5) in this order.
    `scripts/basis_change_table.py` times `space_dims` on them."""
    rng = rng_for(5)
    return [(name, kind, g, random_invertible(g.dim, rng, -2, 2))
            for name, kind, g in (("g_p01(2)", "cr", families.g_p01(2)),
                                  ("g_p01(3)", "cr", families.g_p01(3)),
                                  ("g_p01(4)", "cr", families.g_p01(4)),
                                  ("g_p1(4)", "ch", families.g_p1(4)),
                                  ("g_p1(6)", "ch", families.g_p1(6)),
                                  ("rigid7", "cr", families.rigid_3step_7()),
                                  ("h10", "ch", families.rigid_2step("h10")))]


def random_unipotent(n: int, rng: random.Random, extra: int = 3) -> RationalMatrix:
    """Sparse upper-triangular unipotent matrix; always invertible and
    keeps transported structure constants sparse."""
    entries = {(i, i): Q(1) for i in range(n)}
    for _ in range(extra):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i < j:
            entries[(i, j)] = Q(rng.randint(-2, 2))
    return RationalMatrix(n, n, entries)


def random_skew_cochain(n: int, rng: random.Random, entries: int = 4,
                        lo: int = -2, hi: int = 2) -> Cochain:
    coeffs: dict[tuple[int, ...], dict[int, Q]] = {}
    for _ in range(entries):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        vec = coeffs.setdefault((min(i, j), max(i, j)), {})
        m = rng.randrange(n)
        vec[m] = vec.get(m, 0) + Q(rng.randint(lo, hi))
    return Cochain(2, n, coeffs)


def random_endomorphism(n: int, rng: random.Random, lo: int = -3, hi: int = 3) -> Cochain:
    return Cochain(1, n, {(b,): {m: Q(rng.randint(lo, hi)) for m in range(n)}
                          for b in range(n)})


def random_two_step(rng: random.Random, dim: int) -> LieAlgebra:
    """Random bracket V x V -> Z with Z central: automatically Lie and
    at most 2-step."""
    if dim < 2:
        return abelian(dim)
    nz = rng.randint(1, max(1, dim // 2))
    nv = dim - nz
    constants = {}
    for i in range(nv):
        for j in range(i + 1, nv):
            vec = {}
            for k in range(nv, dim):
                v = rng.randint(-2, 2)
                if v and rng.random() < 0.6:
                    vec[k] = Q(v)
            constants[(i, j)] = vec
    return LieAlgebra(dim, constants)


def random_commutative_associative(rng: random.Random, dim: int) -> MultiMap:
    """Commutative associative multiplication on dim <= 4: a truncated
    polynomial algebra t^i * t^j = t^(i+j) (zero past degree dim-1),
    conjugated by a random invertible basis change."""
    f = random_invertible(dim, rng, -2, 2)
    cols, inv_cols = _columns(f), _columns(invert(f))

    def base_mul(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                if i + j < dim:
                    out[i + j] = out.get(i + j, 0) + a * b
        return out

    return MultiMap(2, dim, {
        (i, j): _lincomb((c, inv_cols[s]) for s, c in base_mul(cols[i], cols[j]).items())
        for i in range(dim) for j in range(dim)})
