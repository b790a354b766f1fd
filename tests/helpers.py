"""Independent oracles for the test suite.

Everything here deliberately reimplements the checked functionality with
different machinery (dense Fraction elimination, direct operator
application) so that agreement with the package is a two-route check.
Vectors here are dense length-n tuples; `dense` and `sparse` convert
from and to the package's {coordinate: Fraction} values.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations, product

from nilrig import families
from nilrig.cohom import Cochain, CochainIndex, MultiMap, ch_delta2, chevalley_delta1, chevalley_delta2, r_delta2
from nilrig.exactlin import RationalMatrix
from nilrig.liealg import CharSeq, LieAlgebra, abelian, basis_change
from nilrig.sampling import random_invertible, random_two_step, random_unipotent


def dense(vec, n: int) -> tuple[Q, ...]:
    """A sparse value {m: x} as a length-n tuple."""
    return tuple(vec.get(m, Q(0)) for m in range(n))


def sparse(vec) -> dict[int, Q]:
    """A dense vector as {m: x}, nonzero entries only."""
    return {m: x for m, x in enumerate(vec) if x}


def vzero(n: int) -> tuple[Q, ...]:
    return (Q(0),) * n


def vadd(a, b) -> tuple[Q, ...]:
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, v) -> tuple[Q, ...]:
    return tuple(c * x for x in v)


def vec_is_zero(v) -> bool:
    return all(x == 0 for x in v)


def bracket_basis(g, i: int, j: int) -> tuple[Q, ...]:
    """[X_i, X_j] as a dense vector, read from the stored i < j constants."""
    if i < j:
        return dense(g.constants.get((i, j), {}), g.dim)
    return vscale(-1, dense(g.constants.get((j, i), {}), g.dim))


def bracket(g, x, y) -> tuple[Q, ...]:
    """[x, y] for dense coordinate vectors, expanded over the stored pairs."""
    if len(x) != g.dim or len(y) != g.dim:
        raise ValueError("vector length mismatch")
    acc = [Q(0)] * g.dim
    for (i, j), vec in g.constants.items():
        coef = Q(x[i]) * Q(y[j]) - Q(x[j]) * Q(y[i])
        if coef != 0:
            for k, v in enumerate(dense(vec, g.dim)):
                acc[k] += coef * v
    return tuple(acc)


def bracket_vec_basis(g, v, k: int) -> tuple[Q, ...]:
    """[v, X_k] for a dense coordinate vector v and basis index k."""
    acc = [Q(0)] * g.dim
    for s, c in enumerate(v):
        if c:
            acc = [a + c * w for a, w in zip(acc, bracket_basis(g, s, k))]
    return tuple(acc)


def dense_inverse(f: RationalMatrix) -> list[list[Q]]:
    """The dense rows of f^(-1), read off the RREF of [f | I]."""
    n = f.nrows
    rows = [row + [Q(int(c == r)) for c in range(n)] for r, row in enumerate(dense_rows(f))]
    rref = dense_rref(rows)
    return [[rref[r].get(n + c, Q(0)) for c in range(n)] for r in range(n)]


def dense_basis_change(g, f: RationalMatrix):
    """f^(-1) [f X_i, f X_j] with dense columns of f and a dense inverse
    read off the RREF of [f | I]."""
    n = g.dim
    inv = dense_inverse(f)
    cols = list(zip(*dense_rows(f)))
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = bracket(g, cols[i], cols[j])
            w = tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in inv)
            constants[(i, j)] = sparse(w)
    return LieAlgebra(n, constants)


def dense_transport_back(phi: Cochain, f: RationalMatrix) -> Cochain:
    """The 2-cochain (x, y) -> f phi(f^(-1) x, f^(-1) y): phi read as a
    skew bracket and moved by the dense basis change of f^(-1)."""
    n = phi.dim
    finv = RationalMatrix(n, n, {(r, c): x for r, row in enumerate(dense_inverse(f))
                                 for c, x in enumerate(row) if x})
    return Cochain(2, n, dense_basis_change(LieAlgebra(n, phi.coeffs), finv).constants)


def dense_rref(rows: list[list[Q]]) -> dict[int, dict[int, Q]]:
    """Plain dense Gauss-Jordan over Fractions, one row at a time: pivot
    column -> nonzero entries of its reduced row (leading entry 1, zero at
    every other pivot column)."""
    table: dict[int, list[Q]] = {}
    for row in rows:
        row = list(map(Q, row))
        for c, prow in table.items():
            f = row[c]
            if f != 0:
                row = [a - f * b if b else a for a, b in zip(row, prow)]
        lead = next((c for c, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        pv = row[lead]
        row = [x / pv for x in row]
        for c, prow in table.items():
            f = prow[lead]
            if f != 0:
                table[c] = [a - f * b if b else a for a, b in zip(prow, row)]
        table[lead] = row
    return {c: {k: x for k, x in enumerate(r) if x != 0} for c, r in table.items()}


def dense_rank(rows: list[list[Q]]) -> int:
    """Number of pivots of the dense Gauss-Jordan table of `rows`."""
    return len(dense_rref(rows))


def dense_rows(m: RationalMatrix) -> list[list[Q]]:
    return [[m.entries.get((r, c), Q(0)) for c in range(m.ncols)] for r in range(m.nrows)]


def dense_matvec(m: RationalMatrix, v: list[Q]) -> list[Q]:
    """Dense matrix times vector: entry r is row r of m dotted with v."""
    if len(v) != m.ncols:
        raise ValueError("vector length mismatch")
    return [sum((x * y for x, y in zip(row, v) if x and y), Q(0)) for row in dense_rows(m)]


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Dense matrix product: entry (r, c) is row r of a dotted with column c of b."""
    if a.ncols != b.nrows:
        raise ValueError("inner dimension mismatch")
    cols = list(zip(*dense_rows(b)))
    return RationalMatrix(a.nrows, b.ncols, {
        (r, c): sum((x * y for x, y in zip(row, col) if x and y), Q(0))
        for r, row in enumerate(dense_rows(a)) for c, col in enumerate(cols)})


def ad_matrix(g, x) -> RationalMatrix:
    """Matrix of y -> [x, y]: column j is the dense bracket [x, X_j]."""
    n = g.dim
    if len(x) != n:
        raise ValueError("vector length mismatch")
    entries = {}
    for j in range(n):
        unit = [Q(int(k == j)) for k in range(n)]
        for i, v in enumerate(bracket(g, x, unit)):
            entries[(i, j)] = v
    return RationalMatrix(n, n, entries)


def power_ranks(m: RationalMatrix) -> list[int]:
    """[rank m, rank m^2, ..., 0] from dense matrix powers."""
    ranks = []
    power = m
    while True:
        r = dense_rank(dense_rows(power))
        if r == (ranks[-1] if ranks else m.nrows):
            raise ValueError("matrix is not nilpotent")
        ranks.append(r)
        if r == 0:
            return ranks
        power = matmul(power, m)


def jordan_partition(m: RationalMatrix) -> CharSeq:
    """Jordan block sizes of a nilpotent matrix: the number of blocks of
    size exactly k is r_(k-1) - 2 r_k + r_(k+1), with r_k = rank m^k."""
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    r = [m.nrows] + power_ranks(m) + [0]
    parts = []
    for k in range(len(r) - 2, 0, -1):
        parts += [k] * (r[k - 1] - 2 * r[k] + r[k + 1])
    return CharSeq(tuple(parts))


def span_dim(vectors: list[list[Q]]) -> int:
    return dense_rank(vectors) if vectors else 0


def value(m, idx) -> dict[int, Q]:
    """m(X_idx[0], ..) as a sparse value, {} for zero.  A Cochain stores
    increasing keys only: another ordering of distinct indices takes the
    sign of the parity of its inversions, and a repeated index gives zero.
    A MultiMap is read as stored."""
    idx = tuple(idx)
    if len(idx) != m.arity:
        raise ValueError("wrong number of arguments")
    if not isinstance(m, Cochain):
        return m.coeffs.get(idx, {})
    vec = m.coeffs.get(tuple(sorted(idx)), {})
    inversions = sum(a > b for a, b in combinations(idx, 2))
    return vec if inversions % 2 == 0 else {k: -x for k, x in vec.items()}


def basis_cochains(n: int):
    idx = CochainIndex(n)
    out = []
    for (i, j) in idx.pairs:
        for m in range(n):
            out.append(Cochain(2, n, {(i, j): {m: Q(1)}}))
    return out


def bracket_map(g) -> MultiMap:
    """The bracket of `g` as an arity-2 MultiMap on every ordered pair,
    read by `bracket_basis` from the stored i < j constants, not from the
    package's cached tables."""
    n = g.dim
    return MultiMap(2, n, {(i, j): sparse(bracket_basis(g, i, j)) for i in range(n) for j in range(n)})


def brute_comp1(f, h, slot: int = 0) -> MultiMap:
    """(f o h)(x_1..) = f(x_1, .., x_slot, h(x_{slot+1}, .., x_{slot+b}), ..),
    evaluated on every one of the n^arity basis tuples."""
    if f.dim != h.dim:
        raise ValueError("dimension mismatch")
    n = f.dim
    arity = f.arity + h.arity - 1
    coeffs = {}
    for mid in product(range(n), repeat=h.arity):
        hv = dense(value(h, mid), n)
        if vec_is_zero(hv):
            continue
        nz = [(s, c) for s, c in enumerate(hv) if c != 0]
        for rest in product(range(n), repeat=f.arity - 1):
            before, after = rest[:slot], rest[slot:]
            acc = None
            for s, c in nz:
                fv = dense(value(f, before + (s,) + after), n)
                if not vec_is_zero(fv):
                    acc = vscale(c, fv) if acc is None else vadd(acc, vscale(c, fv))
            if acc is not None and not vec_is_zero(acc):
                coeffs[before + mid + after] = sparse(acc)
    return MultiMap(arity, n, coeffs)


def operator_rows(g, ops) -> list[dict[int, Q]]:
    """Rows read off the concrete operators `ops` applied to every basis
    cochain: one row per output coordinate of each operator, one column per
    basis cochain (flat order)."""
    rows: dict[tuple, dict[int, Q]] = {}
    for u, bc in enumerate(basis_cochains(g.dim)):
        for tag, op in enumerate(ops):
            for t, vec in op(g, bc).coeffs.items():
                for m, x in vec.items():
                    rows.setdefault((tag, t, m), {})[u] = x
    return list(rows.values())


def brute_z2(g, kind: str) -> int:
    """Kernel dimension of the degree-2 cocycle conditions, built by
    applying the concrete operators to every basis cochain (column route)
    and eliminating densely."""
    ops = {"ch": [ch_delta2], "chevalley": [chevalley_delta2]}.get(
        kind, [chevalley_delta2, r_delta2])
    ncols = CochainIndex(g.dim).size
    dense = [[row.get(c, Q(0)) for c in range(ncols)] for row in operator_rows(g, ops)]
    return ncols - dense_rank(dense)


def brute_b2(g) -> int:
    n = g.dim
    idx = CochainIndex(n)
    imgs = []
    for a in range(n):
        for b in range(n):
            f = Cochain(1, n, {(b,): {a: Q(1)}})
            flat = idx.to_flat(chevalley_delta1(g, f))
            imgs.append([flat.get(u, Q(0)) for u in range(idx.size)])
    return dense_rank(imgs)


def brute_jacobi_defect(g) -> list[tuple[int, int, int]]:
    """Every triple i < j < k whose dense Jacobiator is nonzero."""
    n = g.dim
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            if not vec_is_zero(jacobiator(g, i, j, k))]


def brute_two_step_defect(g) -> list[tuple[int, int, int]]:
    """Basis tuples (i, j, k) with [[X_i, X_j], X_k] != 0, from dense vectors."""
    bad = []
    for (i, j) in sorted(g.constants):
        vec = bracket_basis(g, i, j)
        for k in range(g.dim):
            if not vec_is_zero(bracket_vec_basis(g, vec, k)):
                bad.append((i, j, k))
    return bad


def brute_three_step_defect(g) -> list[tuple[int, int, int, int]]:
    """Basis tuples (i, j, k, l) with [[[X_i, X_j], X_k], X_l] != 0, from
    dense vectors."""
    bad = []
    for (i, j) in sorted(g.constants):
        vec = bracket_basis(g, i, j)
        for k in range(g.dim):
            w = bracket_vec_basis(g, vec, k)
            if vec_is_zero(w):
                continue
            for l in range(g.dim):
                if not vec_is_zero(bracket_vec_basis(g, w, l)):
                    bad.append((i, j, k, l))
    return bad


def jacobiator(g, i: int, j: int, k: int) -> tuple[Q, ...]:
    """Direct expansion of [[x,y],z] + [[y,z],x] + [[z,x],y] reading the
    structure constants straight from the table."""
    total = [Q(0)] * g.dim
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        term = bracket_vec_basis(g, bracket_basis(g, a, b), c)
        total = [p + q for p, q in zip(total, term)]
    return tuple(total)


# --- test inputs ---------------------------------------------------------------

def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """g1 + g2 with the basis of g2 placed after that of g1."""
    n1 = g1.dim
    constants = dict(g1.constants)
    for (i, j), vec in g2.constants.items():
        constants[(i + n1, j + n1)] = {m + n1: x for m, x in vec.items()}
    return LieAlgebra(n1 + g2.dim, constants)


def random_nilpotent(rng, max_dim: int = 6) -> LieAlgebra:
    """Random nilpotent Lie algebra of dim <= max_dim: a model algebra or
    direct sum thereof, disguised by a random invertible basis change, so
    validity (Jacobi, nilindex) holds by construction rather than by
    rejection."""
    choices = []
    if max_dim >= 1:
        choices.append(abelian(rng.randint(1, max_dim)))
    if max_dim >= 3:
        choices.append(families.heisenberg(1))
    if max_dim >= 4:
        choices.append(families.g_p12(2))
        choices.append(direct_sum(families.heisenberg(1), abelian(1)))
    if max_dim >= 5:
        choices.append(families.g_p1(2))
        choices.append(families.g_k3k2k1(1, 0, 2))
        choices.append(random_two_step(rng, 5))
    if max_dim >= 6:
        choices.append(families.g_p12(3))
        choices.append(families.g_k3k2k1(1, 1, 1))
        choices.append(families.g_k3k2k1(1, 0, 3))
        choices.append(direct_sum(families.g_p1(1), abelian(3)))
        choices.append(random_two_step(rng, 6))
    g = rng.choice(choices)
    if rng.random() < 0.5:
        f = random_unipotent(g.dim, rng)
    else:
        f = random_invertible(g.dim, rng, -2, 2)
    return basis_change(g, f)


def random_coeffs(template, rng, lo: int = -3, hi: int = 3) -> dict[str, Q]:
    """A random integer value in [lo, hi] for each free name of a
    `CocycleTemplate`, drawn in the order of `template.free`."""
    return {name: Q(rng.randint(lo, hi)) for name in template.free}


def criterion_rows(doc: dict, criterion: int) -> list[dict]:
    """The rows of a `run_claims` document that belong to `criterion`."""
    return [r for r in doc["claims"] if r["criterion"] == criterion]


#: one member of every family of `nilrig.families`
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
