"""Cochains, coboundary operators and second-cohomology dimensions.

Three complexes are supported on a structure-constant algebra:

* ``chevalley`` -- the classical adjoint-coefficient complex;
* ``ch``        -- the 2-step deformation complex, whose degree-2 cocycle
  condition is the full vanishing of T(phi)(x,y,z) =
  mu(phi(x,y),z) + phi(mu(x,y),z);
* ``cr``        -- the 3-step deformation complex, pairing the Chevalley
  branch with the associativity chain
  delta_R(phi) = mu o1 mu o1 phi + mu o1 phi o1 mu + phi o1 mu o1 mu.

T and delta_R are the parts linear in phi of the 3-fold and 4-fold
combs [[x1,x2],x3] and [[[x1,x2],x3],x4] of mu + phi, so one comb
generator, `_comb_rows`, gives the ``ch`` and ``cr`` Z rows.

On every Lie algebra and for every 2-cochain phi, with T as above,
delta^2 phi = -sum_cyc T and delta_R phi(x,y,z,w) = [T(x,y,z), w] +
phi([[x,y],z], w); summed over the cyclic orders of (x,y,z), Jacobi
kills the phi term:

    sum_cyc delta_R phi(x,y,z,w) = -[delta^2 phi(x,y,z), w].

So delta_R phi = 0 puts every value of delta^2 phi in the centre z(g).
With P the columns that are not pivots of `liealg._center_reducer(g)`
(|P| = dim z(g)), a central vector that is zero at P is zero, so

    ker delta_R & ker delta^2 = ker delta_R & {phi : (delta^2 phi)_m = 0, m in P}.

The ``cr`` Z rows therefore hold the Chevalley rows at the output
coordinates in P only, then the delta_R rows (`_z_rows`); both systems
have one row space, so the reduced Z table is the same.

In every case the degree-2 coboundary space is the image of the common
degree-1 operator  f |-> [f x, y] + [x, f y] - f [x, y].  Dimensions are
exact; H^2 is reported as dim Z^2 - dim B^2 after verifying the
containment B^2 in Z^2.  `space_dims` reports one complex.
`chevalley_and_cr_dims` reports the Chevalley and ``cr`` complexes of
one algebra from one elimination of every Chevalley row and then the
delta_R rows, with one B^2 and containment check.  `coboundary_rank`,
for a caller that needs only dim B^2, runs the same body with no Z rows,
so delta^1 is ranked in one place, after the basis step below.

The dimensions do not depend on the basis, so every Z elimination
(`_dims`) runs on h = basis_change(g, f) for the generator basis f of
`liealg.adapted_basis`: generators, central ones first, then their
brackets layer by layer, each chosen bracket one basis vector of h.  A
dense basis change of a model algebra then has 2-3 nonzero structure
constants of at most 2 bits, about as few as the model itself.

A cochain's value on a basis tuple is a sparse dict {coordinate:
Fraction} of its nonzero entries, the layout of `LieAlgebra.constants`.
The bracket is read only in its cleared form, kept on the algebra:
`LieAlgebra.integer_table` (L times mu) and `LieAlgebra.double_brackets`
(L^2 times mu o1 mu), with `int` entries.  The Z rows and the delta^1
images are integer rows built from them.  The concrete operators run on
integers too: each input map is cleared once per call (`_cleared`), mu
enters as the integer table, and one `Fraction` is made per nonzero
output entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, reduce
from itertools import permutations, product
from math import lcm
from operator import itemgetter, lt
from typing import Callable, Iterator, Mapping, Sequence

from . import liealg
from .exactlin import (Q, QONE, RationalMatrix, RowReducer, _integer_row,
                       _integer_rows, as_rational, as_sparse_vector, insertion_order,
                       inverse_columns)
from .liealg import LieAlgebra, jacobi_defect, three_step_defect, two_step_defect


# ---------------------------------------------------------------------------
# cochains and raw multilinear maps

def _perm_sign(idx: Sequence[int]) -> int:
    sign = 1
    lst = list(idx)
    for a in range(len(lst)):
        for b in range(a + 1, len(lst)):
            if lst[a] > lst[b]:
                sign = -sign
    return sign


class _Multilinear:
    """Storage shared by Cochain and MultiMap: the nonzero values of a
    k-linear map on basis index tuples, each key checked by the
    subclass's `_check` and each value by `as_sparse_vector` (a
    `Fraction` entry is stored as given)."""

    __slots__ = ("arity", "dim", "coeffs")

    def __init__(self, arity: int, dim: int,
                 coeffs: Mapping[tuple[int, ...], Mapping[int, object]] | None = None):
        self.arity = arity
        self.dim = dim
        clean: dict[tuple[int, ...], dict[int, Q]] = {}
        for idx, vec in (coeffs or {}).items():
            idx = tuple(idx)
            self._check(idx)
            v = as_sparse_vector(vec, dim)
            if v:
                clean[idx] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, arity: int, dim: int):
        return cls(arity, dim, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_nonzero(self) -> tuple[tuple[int, ...], dict[int, Q]] | None:
        if not self.coeffs:
            return None
        key = min(self.coeffs)
        return key, self.coeffs[key]

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.arity == other.arity
                and self.dim == other.dim and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(arity={self.arity}, dim={self.dim}, "
                f"entries={len(self.coeffs)})")


class Cochain(_Multilinear):
    """Skew k-linear map (k = 1, 2, 3) with values in the algebra.

    Coefficients are stored on strictly increasing index tuples only;
    the value on any other ordering is the stored one times the
    permutation sign, and repeated arguments give zero.
    """

    __slots__ = ()

    def __init__(self, arity: int, dim: int,
                 coeffs: Mapping[tuple[int, ...], Sequence] | None = None):
        if arity < 1:
            raise ValueError("arity must be positive")
        super().__init__(arity, dim, coeffs)

    def _check(self, idx: tuple[int, ...]) -> None:
        if len(idx) != self.arity:
            raise ValueError(f"index tuple {idx} has wrong arity")
        if any(not 0 <= i < self.dim for i in idx):
            raise ValueError(f"index tuple {idx} out of range")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index tuple {idx} must be strictly increasing")


class MultiMap(_Multilinear):
    """Plain k-linear map on basis tuples; no symmetry assumed."""

    __slots__ = ()

    def _check(self, idx: tuple[int, ...]) -> None:
        if len(idx) != self.arity or any(not 0 <= i < self.dim for i in idx):
            raise ValueError(f"bad index tuple {idx}")


def _accumulate(acc: dict, key: tuple[int, ...], coef, vec: Mapping[int, Q]) -> None:
    # acc[key] += coef * vec; a coef of 1 or -1 needs no product, and a
    # coordinate's first contribution is stored as it is
    if coef != 1:
        vec = ({m: -x for m, x in vec.items()} if coef == -1
               else {m: coef * x for m, x in vec.items()})
    row = acc.get(key)
    if row is None:
        acc[key] = dict(vec) if coef == 1 else vec
        return
    for m, x in vec.items():
        y = row.get(m)
        row[m] = x if y is None else y + x


# A cleared map is a pair (values, L): L times the values of a
# multilinear map on ordered basis tuples, as int dicts.  The concrete
# operators compose and place cleared maps and make `Fraction`s only in
# their outputs; a composed map may keep entries that cancelled to 0,
# and the placement step drops them.

def _cleared(m) -> tuple[dict[tuple[int, ...], dict[int, int]], int]:
    """m as a cleared map, L the lcm of the denominators of its values;
    a Cochain gives each ordering of a stored key, with its sign."""
    stored, scale = _integer_rows(m.coeffs)
    if isinstance(m, MultiMap):
        return stored, scale
    values: dict[tuple[int, ...], dict[int, int]] = {}
    for key, ints in stored.items():
        neg = {c: -x for c, x in ints.items()}
        for idx in permutations(key):
            values[idx] = ints if _perm_sign(idx) == 1 else neg
    return values, scale


def _compose(f, h, slot: int):
    """f o_slot h on cleared maps; its scale is the product of theirs.
    Walks the stored values of h and, for each coordinate X_s of such a
    value, the stored values of f whose argument `slot` is X_s."""
    (fvalues, fscale), (hvalues, hscale) = f, h
    by_slot: dict[int, list[tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]]] = {}
    for idx, vec in fvalues.items():
        by_slot.setdefault(idx[slot], []).append((idx[:slot], idx[slot + 1:], vec))
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for mid, hv in hvalues.items():
        for s, c in hv.items():
            for before, after, fv in by_slot.get(s, ()):
                _accumulate(acc, before + mid + after, c, fv)
    return acc, fscale * hscale


def comp1(f, h, slot: int = 0) -> MultiMap:
    """Partial composition: h substituted into argument `slot` of f,

        (f o h)(x_1..) = f(x_1, .., x_slot, h(x_{slot+1}, .., x_{slot+b}), ..),

    so slot 0 is (f o1 h)(x_1..) = f(h(x_1,..,x_b), x_{b+1}, ..).  The
    one-shot form of the composition step of the concrete operators: f
    and h are cleared, composed on integers and returned in `Fraction`s.
    """
    if f.dim != h.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= slot < f.arity:
        raise ValueError("slot out of range")
    arity = f.arity + h.arity - 1
    return _combine(arity, f.dim, False,
                    [(1, tuple(range(arity)), _compose(_cleared(f), _cleared(h), slot))])


def _combine(arity: int, dim: int, skew: bool, terms) -> Cochain | MultiMap:
    """The sum over (coef, perm, m) in `terms`, m a cleared map, of the
    maps (x_1..x_k) |-> coef * m(x_perm[0], .., x_perm[k-1]): a Cochain
    of its values on increasing tuples when `skew`, else a MultiMap.  The
    terms are brought to the lcm of their scales and summed on integers;
    each nonzero entry of the sum is divided by that lcm once."""
    scale = lcm(*(s for _, _, (_, s) in terms))
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for coef, perm, (values, s) in terms:
        values = values.items()
        if list(perm) != sorted(perm):
            # t[perm[r]] = u[r]; every perm places at least two arguments,
            # so `pick` returns a tuple
            pick = itemgetter(*(perm.index(p) for p in range(len(perm))))
            values = ((pick(u), vec) for u, vec in values)
        coef *= scale // s
        for t, vec in values:
            if not skew or all(map(lt, t, t[1:])):
                _accumulate(acc, t, coef, vec)
    return (Cochain if skew else MultiMap)(arity, dim, {
        t: {m: Q(x, scale) for m, x in row.items() if x} for t, row in acc.items()})


# ---------------------------------------------------------------------------
# identities F(nu) of a bilinear law nu and their graded pieces
#
# An identity is a list of words (coef, perm, tree): a tree is a comp1
# tree over the placeholder leaf _NU, a node (f, h, slot) standing for
# comp1(f, h, slot), and the word is the map tree(x_perm[0], ..) (see
# `_combine`).  When nu is a sum of leaves, each of some multidegree,
# F(nu) splits into pieces by multidegree; `_graded_pieces` computes them.

_NU = "nu"
_SQUARE = (_NU, _NU, 0)   # nu o1 nu: nu(nu(x1,x2),x3)
_CUBE = (_NU, _SQUARE, 0)   # nu o1 (nu o1 nu): nu(nu(nu(x1,x2),x3),x4)
_SPLIT = (_SQUARE, _NU, 2)   # nu(nu(x1,x2),nu(x3,x4))

#: the cyclic orderings (x,y,z), (y,z,x), (z,x,y) of three arguments
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

#: v = (2341) + (3142) + tau_34 in one-line notation, zero-based images.
JORDAN_V = ((1, 2, 3, 0), (2, 0, 3, 1), (0, 1, 3, 2))


@dataclass(frozen=True, eq=False)
class _Identity:
    arity: int
    skew: bool   # the values are those of a fully skew map, kept as a Cochain
    words: tuple[tuple[int, tuple[int, ...], object], ...]


_COMB = {2: _Identity(3, False, ((1, (0, 1, 2), _SQUARE),)),   # keyed by step
         3: _Identity(4, False, ((1, (0, 1, 2, 3), _CUBE),))}
#: the Jacobiator: the cyclic sum of nu o1 nu
_JACOBI = _Identity(3, True, tuple((1, p, _SQUARE) for p in _CYCLIC))
#: (nu o1 (nu o1 nu) - nu(nu(x1,x2),nu(x3,x4))) o Phi_v, the linearised
#: degree-4 Jordan identity of a commutative multiplication nu
_JORDAN = _Identity(4, False, tuple((c, p, tree) for p in JORDAN_V
                                    for c, tree in ((1, _CUBE), (-1, _SPLIT))))


@lru_cache(maxsize=None)
def _expansion(degrees: tuple[tuple[int, ...], ...], pieces: tuple) -> tuple:
    """(nodes, terms) for the (identity, degree) pieces when leaf k has
    multidegree degrees[k].  A labelled tree puts a leaf on each _NU of a
    word's tree, the degree of a node split exactly between its two
    subtrees; the leaves' multidegrees sum to the piece's degree.  Value
    k is leaf k for k < len(degrees), and after them come the distinct
    labelled nodes in `nodes`, as (f, h, slot) with f and h earlier
    values.  terms[i] lists (coef, perm, value) for pieces[i]."""
    index: dict[tuple[int, int, int], int] = {}

    def label(tree, d: tuple[int, ...]) -> list[int]:
        if tree == _NU:
            return [k for k, dk in enumerate(degrees) if dk == d]
        f, h, slot = tree
        out = []
        for df in product(*(range(x + 1) for x in d)):
            dh = tuple(x - y for x, y in zip(d, df))
            for node in ((a, b, slot) for a in label(f, df) for b in label(h, dh)):
                out.append(index.setdefault(node, len(degrees) + len(index)))
        return out

    terms = tuple(tuple((coef, perm, k) for coef, perm, tree in identity.words
                        for k in label(tree, degree)) for identity, degree in pieces)
    return tuple(index), terms


def _graded_pieces(dim: int, leaves: Mapping[tuple[int, ...], tuple], pieces,
                   sign: int = 1) -> list[Cochain | MultiMap]:
    """sign times the part of multidegree `degree` of identity(nu), for
    each (identity, degree) in `pieces`, where nu is the sum of the maps
    in `leaves` {multidegree: cleared map} on a `dim`-dimensional space.
    Each labelled node is composed once, for all the pieces, and stays
    cleared until the placement step."""
    nodes, terms = _expansion(tuple(leaves), tuple(pieces))
    values = list(leaves.values())
    for f, h, slot in nodes:
        values.append(_compose(values[f], values[h], slot))
    return [_combine(identity.arity, dim, identity.skew,
                     [(sign * coef, perm, values[k]) for coef, perm, k in piece])
            for (identity, _), piece in zip(pieces, terms)]


# ---------------------------------------------------------------------------
# coboundary operators (concrete form)
#
# Each degree-2 operator is the part of degree 1 in phi of an identity at
# nu = mu + phi, with mu the cleared map g.integer_table(), the only way
# this route reads the bracket.

def chevalley_delta1(g: LieAlgebra, f: Cochain) -> Cochain:
    """delta f (x, y) = [f x, y] + [x, f y] - f [x, y]; kernel = derivations.

    With A = mu o1 f and B = f o1 mu this is A(x,y) - A(y,x) - B(x,y).
    """
    if f.arity != 1:
        raise ValueError("expected an arity-1 cochain")
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    mu, f = g.integer_table(), _cleared(f)
    a = _compose(mu, f, 0)
    return _combine(2, g.dim, True, [(1, (0, 1), a), (-1, (1, 0), a),
                                     (-1, (0, 1), _compose(f, mu, 0))])


def _along(g: LieAlgebra, phi: Cochain) -> dict[tuple[int, ...], tuple]:
    """The cleared leaves of nu = mu + t*phi: mu in degree 0, phi in degree 1."""
    if phi.arity != 2 or phi.dim != g.dim:
        raise ValueError("expected an arity-2 cochain of matching dimension")
    return {(0,): g.integer_table(), (1,): _cleared(phi)}


def chevalley_delta2(g: LieAlgebra, phi: Cochain) -> Cochain:
    """Classical degree-2 coboundary with adjoint coefficients.

    delta phi (x,y,z) = [x,phi(y,z)] - [y,phi(x,z)] + [z,phi(x,y)]
                        - phi([x,y],z) + phi([x,z],y) - phi([y,z],x),
    i.e. minus the cyclic sum of (mu o1 phi + phi o1 mu)(x,y,z): minus
    the part of the Jacobiator of mu + t*phi linear in t.
    """
    return _graded_pieces(g.dim, _along(g, phi), [(_JACOBI, (1,))], -1)[0]


def _format_tuple(idx: Sequence[int]) -> str:
    return "(" + ",".join(f"X{i + 1}" for i in idx) + ")"


def _require_steps(g: LieAlgebra, p: int) -> None:
    """Raise unless g is p-step (p = 2 or 3), naming the first nonzero
    (p+1)-fold bracket [[X_i, X_j], ..] in the error."""
    bad = (two_step_defect if p == 2 else three_step_defect)(g)
    if bad:
        comb = reduce(lambda a, x: f"[{a},{x}]", (f"X{i + 1}" for i in bad[0]))
        raise ValueError(f"not {p}-step: {comb} != 0")


def _comb_delta2(g: LieAlgebra, phi: Cochain, p: int) -> MultiMap:
    leaves = _along(g, phi)
    _require_steps(g, p)
    return _graded_pieces(g.dim, leaves, [(_COMB[p], (1,))])[0]


def ch_delta2(g: LieAlgebra, phi: Cochain) -> MultiMap:
    """T(phi)(x,y,z) = mu(phi(x,y),z) + phi(mu(x,y),z) on a 2-step algebra,
    the part of (mu + t*phi) o1 (mu + t*phi) linear in t.

    The output is skew in (x, y) only; its full vanishing is the degree-2
    cocycle condition of the 2-step deformation complex.
    """
    return _comb_delta2(g, phi, 2)


def r_delta2(g: LieAlgebra, phi: Cochain) -> MultiMap:
    """Associativity-chain coboundary on a 3-step algebra:

    mu o1 mu o1 phi + mu o1 phi o1 mu + phi o1 mu o1 mu, i.e. the 4-linear
    map [[phi(x1,x2),x3],x4] + [phi([x1,x2],x3),x4] + phi([[x1,x2],x3],x4),
    the part of nu o1 (nu o1 nu) at nu = mu + t*phi linear in t.
    """
    return _comb_delta2(g, phi, 3)


def deformed_bracket(g: LieAlgebra, phi: Cochain, t: Q = QONE) -> LieAlgebra:
    """Structure constants of mu + t*phi (not validated as a Lie bracket)."""
    if phi.arity != 2 or phi.dim != g.dim:
        raise ValueError("expected an arity-2 cochain of matching dimension")
    t = as_rational(t)
    constants = {key: dict(vec) for key, vec in g.constants.items()}
    for key, vec in phi.coeffs.items():
        _accumulate(constants, key, t, vec)
    return LieAlgebra(g.dim, constants)


# ---------------------------------------------------------------------------
# flat coordinates on the space of 2-cochains

class CochainIndex:
    """Flat coordinates: unknown (pair p, coord m) at index p*dim + m."""

    def __init__(self, dim: int):
        self.dim = dim
        self.pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        self.pidx = {pair: k for k, pair in enumerate(self.pairs)}
        self.size = len(self.pairs) * dim

    def flat(self, i: int, j: int, m: int) -> tuple[int, int]:
        """Flat index and sign for the coefficient of phi(X_i, X_j) on X_m."""
        if i < j:
            return self.pidx[(i, j)] * self.dim + m, 1
        return self.pidx[(j, i)] * self.dim + m, -1

    def to_flat(self, phi: Cochain) -> dict[int, Q]:
        return {self.pidx[pair] * self.dim + m: x
                for pair, val in phi.coeffs.items() for m, x in val.items()}

    def to_cochain(self, vec: Mapping[int, Q]) -> Cochain:
        coeffs: dict[tuple[int, int], dict[int, Q]] = {}
        for u, x in vec.items():
            p, m = divmod(u, self.dim)
            coeffs.setdefault(self.pairs[p], {})[m] = x
        return Cochain(2, self.dim, coeffs)


def _chain_images(g: LieAlgebra) -> dict[tuple[int, ...], list[tuple[int, dict[int, int]]]]:
    """images[chain] lists (t, R(X_t)) for every t with R(X_t) != 0, where
    R is a chain of right brackets: () is the identity, (k,) is
    x |-> [x, X_k] and (k, l) is x |-> [[x, X_k], X_l], scaled by L and
    L^2 like `LieAlgebra.integer_table` and `LieAlgebra.double_brackets`,
    whose rows the lists share."""
    n = g.dim
    images: dict[tuple[int, ...], list[tuple[int, dict[int, int]]]] = {
        (): [(t, {t: 1}) for t in range(n)]}
    for k in range(n):
        images[(k,)] = []
        for l in range(n):
            images[(k, l)] = []
    for (t, k), sp in sorted(g.integer_table()[0].items()):
        images[(k,)].append((t, sp))
    # the double brackets hold i < j only; [[X_j, X_i], X_l] = -[[X_i, X_j], X_l]
    for (i, j, l), w in g.double_brackets().items():
        images[(j, l)].append((i, w))
        images[(i, l)].append((j, {m: -x for m, x in w.items()}))
    return images


def _term_rows(idx: CochainIndex, terms) -> Iterator[dict[int, int]]:
    """Rows of sum coef * R(phi(u, X_c)) over the terms (coef, u, c, images),
    u a sparse vector and images the list of a chain R (`_chain_images`,
    possibly cut by `_support_split` or followed by functionals, `_through`),
    as linear functionals of the flat unknowns: one row per output
    coordinate of R, in sorted order, with zero entries dropped.  The T
    and delta_R generators build their rows here."""
    rows: dict[int, dict[int, int]] = {}
    for coef, u, c, images in terms:
        for s, us in u.items():
            if s == c:
                continue
            base, sg = idx.flat(s, c, 0)
            f = coef * us * sg
            for t, img in images:
                col = base + t
                for m, val in img.items():
                    row = rows.setdefault(m, {})
                    row[col] = row.get(col, 0) + f * val
    for m in sorted(rows):
        row = {col: v for col, v in rows[m].items() if v}
        if row:
            yield row


def _integer_basis(red: RowReducer) -> list[dict[int, int]]:
    """The RREF rows of `red`, each times the lcm of its denominators."""
    return [_integer_row(row)[0] for row in red.pivots.values()]


def _zero_pair_block(idx: CochainIndex, chains) -> list[dict[int, int]]:
    """A basis of the rows R(phi(X_0, X_1)) over the chains R (image
    lists, see `_chain_images`), on the n columns of pair (0, 1), as
    integer rows.

    For a pair with [X_i, X_j] = 0 the T and delta_R terms reduce to
    R(phi(X_i, X_j)), which depend on (i, j) only through the flat base of
    the pair, so this block shifted by that base spans the pair's rows.
    """
    if not idx.pairs:
        return []
    red = RowReducer(idx.dim)
    red.add_rows(row for images in chains
                 for row in _term_rows(idx, ((1, {0: 1}, 1, images),)))
    return _integer_basis(red)


def _shifted(block: list[dict[int, int]], base: int) -> Iterator[dict[int, int]]:
    for row in block:
        yield {base + c: v for c, v in row.items()}


def _support_split(images, n: int) -> tuple[list, list]:
    """The identity chain cut at the support M_c of x |-> [x, X_c], for
    each c: (inside, outside), inside[c] the (m, e_m) for m in M_c and
    outside[c] the rest.  A term R(v) whose chain ends in [., X_c] is
    zero at every coordinate outside M_c."""
    inside, outside = [], []
    for c in range(n):
        support = {m for _, img in images[(c,)] for m in img}
        inside.append([ident for ident in images[()] if ident[0] in support])
        outside.append([ident for ident in images[()] if ident[0] not in support])
    return inside, outside


def _span_rows(idx: CochainIndex, vectors, outside, table,
               block: list[dict[int, int]]) -> Iterator[dict[int, int]]:
    """The rows phi(b, X_c)_m for b in a basis of the span of `vectors`,
    every c and every m outside M_c (`_support_split`): they span the
    rows phi(v, X_c)_m of every v in `vectors`.

    A basis vector e_s gives the unit rows phi(X_s, X_c)_m, and two kinds
    of them are in the stream already, so they are skipped: at a c with
    [X_s, X_c] = 0 (no key (s, c) in `table`), the m whose e_m is a row
    of the zero-pair `block`; at a c whose e_c came earlier in the basis,
    the m outside M_s, which that pass gave as phi(X_c, X_s)_m."""
    red = RowReducer(idx.dim)
    red.add_rows(vectors)
    units = {m for row in block if len(row) == 1 for m in row}
    passed: set[int] = set()   # the s of the basis vectors e_s done so far
    for b in _integer_basis(red):
        if len(b) != 1:
            for c, chain in enumerate(outside):
                yield from _term_rows(idx, ((1, b, c, chain),))
            continue
        (s, v), = b.items()
        for c, chain in enumerate(outside):
            if c == s:
                continue
            skip = units if (s, c) not in table else set()
            if c in passed:
                skip = skip | {m for m, _ in outside[s]}
            # the rows `_term_rows` makes for v e_s on the identity chain,
            # built directly: phi(v X_s, X_c)_m is v times one flat unknown
            base, sg = idx.flat(s, c, 0)
            for m, _ in chain:
                if m not in skip:
                    yield {base + m: sg * v}
        passed.add(s)


def _through(images, functionals) -> list[tuple[int, dict[int, int]]]:
    """The chain of `images` followed by the functionals b_r: the
    (t, {r: b_r . R(X_t)}) with a nonzero entry."""
    out = []
    for t, img in images:
        row = {}
        for r, b in enumerate(functionals):
            v = sum(x * img[m] for m, x in b.items() if m in img)
            if v:
                row[r] = v
        if row:
            out.append((t, row))
    return out


def _comb_rows(g: LieAlgebra, p: int) -> Iterator[dict[int, int]]:
    """Integer rows spanning L^(p-1) times the constraint rows of
    D_(p+1)(phi) = 0 over the flat 2-cochain coordinates, for p = 2 (T)
    and p = 3 (delta_R); L as in `LieAlgebra.integer_table`.

    D_(p+1) is the part linear in phi of the (p+1)-fold comb A_(p+1) of
    mu + phi, where A_1 = x_1 and A_(d+1) = [A_d, x_(d+1)]:
    D_2 = phi(x_1, x_2) and D_(d+1) = phi(A_d, x_(d+1)) + [D_d, x_(d+1)].
    The walk over (X_i, X_j, x_3, .., x_(p+1)) carries L^(d-1) A_d (the
    values of `integer_table` for d = 2 and of `double_brackets` for
    d = 3) and the terms (u, c, R) of D_d, each R(phi(u, X_c)) with R a
    chain of right brackets (`_chain_images`).
    * A pair with A_2 = [X_i, X_j] = 0 gives the shared block of
      `_zero_pair_block` over the chains of length p - 1.
    * At the last argument X_c, the rows at the m in M_c
      (`_support_split`).
    * When A_p = 0 with p > 2, D_(p+1) = [D_p, x_(p+1)], and over all
      (x_(p+1), m) its rows span b . D_p for b in a basis of the
      annihilator of the centre (the rows of `liealg._center_reducer`).
    * At m outside M_c the row is phi(A_p, X_c)_m, and over the whole
      walk these span phi(b, X_c)_m for b in a basis of g^(p-1): they
      come once, after the pairs (`_span_rows`).
    """
    idx, n = CochainIndex(g.dim), g.dim
    table, images = g.integer_table()[0], _chain_images(g)
    combs = {2: table, 3: g.double_brackets()}   # d -> {(x_1, .., x_d): L^(d-1) A_d}
    block = _zero_pair_block(idx, (images[chain] for chain in product(range(n), repeat=p - 1)))
    inside, outside = _support_split(images, n)
    # a zero A_p past the pair needs p > 2
    ann = _integer_basis(liealg._center_reducer(g)) if p > 2 else []

    @lru_cache(maxsize=None)
    def through(chain):
        return _through(images[chain], ann)

    for (i, j) in idx.pairs:
        if (i, j) not in table:
            yield from _shifted(block, idx.pidx[(i, j)] * n)
            continue
        # (x_1, .., x_d) with the terms of D_d, from d = 2 up to p
        states = [((i, j), [({i: 1}, j, ())])]
        for d in range(2, p):
            states = [(args + (x,), [(u, c, chain + (x,)) for u, c, chain in terms]
                       + [(combs[d][args], x, ())]) for args, terms in states for x in range(n)]
        for args, terms in states:
            a = combs[p].get(args)
            if not a:
                yield from _term_rows(idx, [(1, u, c, through(chain)) for u, c, chain in terms])
                continue
            for x in range(n):
                if inside[x]:
                    yield from _term_rows(idx, [(1, u, c, images[chain + (x,)])
                                                for u, c, chain in terms]
                                          + [(1, a, x, inside[x])])
    yield from _span_rows(idx, combs[p].values(), outside, table, block)


def t_operator_rows(g: LieAlgebra) -> Iterator[dict[int, int]]:
    """`_comb_rows` at p = 2: rows spanning L times the constraint rows of
    T(phi)(X_i, X_j, X_k) = [phi(X_i, X_j), X_k] + phi([X_i, X_j], X_k) = 0."""
    return _comb_rows(g, 2)


def r2_rows(g: LieAlgebra) -> Iterator[dict[int, int]]:
    """`_comb_rows` at p = 3: rows spanning L^2 times the constraint rows
    of delta_R^2(phi)(X_i, X_j, X_k, X_l) = [T phi(X_i, X_j, X_k), X_l]
    + phi([[X_i, X_j], X_k], X_l) = 0."""
    return _comb_rows(g, 3)


def chevalley2_rows(g: LieAlgebra, _outputs: Sequence[int] | None = None
                    ) -> Iterator[dict[int, int]]:
    """Constraint rows of the classical degree-2 coboundary, each L times
    a row of delta^2 (L as in `LieAlgebra.integer_table`): the row of
    (i < j < k, m) is phi |-> L delta^2 phi(X_i, X_j, X_k)_m, in the order
    of (i, j, k, m), zero rows left out, and only the m in `_outputs`
    (every m by default).

    The rows are built term by term, for each pair (a, b) and each x
    outside it, the triple {a, b, x}, with sign + iff a < x < b: each
    entry L [X_t, X_x]_m goes, signed, to the unknown
    phi(X_a, X_b)_t of the row at m, and each entry L [X_a, X_b]_s goes,
    signed and oriented, to the unknown phi(X_s, X_x)_m of the row at
    every m.

    The ``cr`` stream of `_z_rows` keeps only the m in P, the columns
    that are not pivots of `liealg._center_reducer`: sum_cyc delta_R
    phi(x,y,z,w) = -[delta^2 phi(x,y,z), w] makes delta^2 phi central on
    ker delta_R, and a central vector that is zero at P is zero (module
    docstring)."""
    n = g.dim
    idx = CochainIndex(n)
    table = g.integer_table()[0]
    outputs = range(n) if _outputs is None else set(_outputs)
    # right[x] lists (t, the entries at kept m of L [X_t, X_x])
    right: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(n)]
    for (t, x), sp in table.items():
        hits = [(m, v) for m, v in sp.items() if m in outputs]
        if hits:
            right[x].append((t, hits))
    rows: dict[int, dict[int, int]] = {}   # (i, j, k, m) as ((i n + j) n + k) n + m

    def put(key: int, col: int, v: int) -> None:
        row = rows.get(key)
        if row is None:
            rows[key] = {col: v}
        else:
            row[col] = row.get(col, 0) + v

    for (a, b) in idx.pairs:
        base, w = idx.pidx[(a, b)] * n, table.get((a, b), {})
        for x in range(n):
            if x == a or x == b or not (right[x] or w):
                continue
            i, j, k = sorted((a, b, x))
            key, sign = ((i * n + j) * n + k) * n, 1 if a < x < b else -1
            for t, hits in right[x]:
                for m, v in hits:
                    put(key + m, base + t, sign * v)
            for s, ws in w.items():
                if s != x:
                    col, sg = idx.flat(s, x, 0)
                    for m in outputs:
                        put(key + m, col + m, sign * sg * ws)
    for key in sorted(rows):
        row = {col: v for col, v in rows[key].items() if v}
        if row:
            yield row


# ---------------------------------------------------------------------------
# complexes, reports, dimensions

class ComplexKind(Enum):
    CHEVALLEY = "chevalley"
    CH = "ch"
    CR = "cr"

    @classmethod
    def coerce(cls, kind) -> "ComplexKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind).lower())
        except ValueError:
            raise ValueError(f"unknown complex kind: {kind!r}") from None


@dataclass(frozen=True)
class CohomologyReport:
    z2_dim: int
    b2_dim: int
    h2_dim: int
    rigid_candidate: bool
    representatives: tuple[Cochain, ...] | None = None


def coboundary_image_vectors(g: LieAlgebra) -> list[dict[int, int]]:
    """Flat images L * delta^1(E_ab), as int dicts, spanning B^2, one per
    matrix unit, in (a, b) order; E_ab maps X_b to X_a and every other
    X_k to 0, and L is that of `LieAlgebra.integer_table`.

    Read off that table: delta E_ab (X_i, X_j) gets [X_a, X_j] when
    i = b (and, by skew symmetry, -[X_a, X_i] when j = b), plus
    -c_ij^b X_a from the term -E_ab [X_i, X_j].
    """
    n = g.dim
    idx = CochainIndex(n)
    table, _ = g.integer_table()
    # left[a] = [(j, L [X_a, X_j])]; down[b] = [(flat base of (i, j), L c_ij^b)]
    left: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(n)]
    down: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), sp in table.items():
        left[i].append((j, sp))
        if i < j:
            for m, c in sp.items():
                down[m].append((idx.pidx[(i, j)] * n, c))
    out = []
    for a in range(n):
        for b in range(n):
            vec: dict[int, int] = {}
            for j, sp in left[a]:
                if j != b:
                    for m, c in sp.items():
                        u, sg = idx.flat(b, j, m)
                        vec[u] = c if sg > 0 else -c
            for base, c in down[b]:
                u = base + a
                s = vec.get(u, 0) - c
                if s:
                    vec[u] = s
                else:
                    vec.pop(u, None)
            out.append(vec)
    return out


def coboundary_rank(g: LieAlgebra) -> int:
    """dim B^2, the rank of the delta^1 images; the same in every complex,
    so it is the b2 of `_dims` for the Chevalley complex with one empty Z
    stream, after the same basis step.  g is validated as by `space_dims`:
    a bracket that fails Jacobi raises its ValueError."""
    return _dims(g, ComplexKind.CHEVALLEY, (lambda h: (),))[0].b2_dim


def derivation_algebra_dim(g: LieAlgebra) -> int:
    """Dimension of the derivation algebra, the kernel of delta^1 on the
    n^2-dimensional space of linear maps; g is validated as by
    `coboundary_rank`."""
    return g.dim * g.dim - coboundary_rank(g)


def _validate_kind(g: LieAlgebra, kind: ComplexKind) -> None:
    bad = jacobi_defect(g)
    if bad:
        raise ValueError(f"not a Lie algebra: Jacobi fails at {_format_tuple(bad[0])}")
    if kind is not ComplexKind.CHEVALLEY:
        _require_steps(g, 2 if kind is ComplexKind.CH else 3)


def _z_rows(g: LieAlgebra, kind: ComplexKind) -> Iterator[dict[int, int]]:
    if kind is ComplexKind.CHEVALLEY:
        yield from chevalley2_rows(g)
    elif kind is ComplexKind.CH:
        yield from t_operator_rows(g)
    else:
        pivots = set(liealg._center_reducer(g).pivot_cols())
        yield from chevalley2_rows(g, [m for m in range(g.dim) if m not in pivots])
        yield from r2_rows(g)


def space_dims(g: LieAlgebra, kind, *, with_representatives: bool = False,
               progress: Callable[[int, int, float], None] | None = None) -> CohomologyReport:
    """Exact Z^2/B^2/H^2 dimensions of the requested complex.

    The dimensions do not depend on the basis, so they are computed on
    h = basis_change(g, f) for the generator basis f of
    `liealg.adapted_basis`, adapted to the lower central series, where
    each chosen bracket of generators is one basis vector and the
    structure constants are sparse (module docstring); f is None, and h
    is g, when g's basis is already adapted.  Representatives are
    returned in the basis of g.  B^2 is
    contained in Z^2 for every legal input; this is re-verified on each
    call, on the delta^1 images that raise the rank of B^2 (they span
    it, see `_dims`), so h2 = z2 - b2 is the actual quotient dimension.

    The Z rows go through `RowReducer.add_rows`, which sets rows with a
    single nonzero entry (most rows in a model basis) aside as unit
    pivots and eliminates the rest once the stream ends, by decreasing
    first column so that back-substitution has almost nothing to do.
    For `cr` the stream is the Chevalley rows at the centre's
    coordinates P only, then the delta_R rows: sum_cyc delta_R
    phi(x,y,z,w) = -[delta^2 phi(x,y,z), w] makes delta^2 phi central on
    ker delta_R, and a central vector that is zero at P is zero (module
    docstring), so the rows span what every Chevalley row and the
    delta_R rows span.
    `progress` gets (Z rows read, rank so far, rows per second) every
    `exactlin._PROGRESS_ROWS` rows; every row read counts, repeats too.
    """
    kind = ComplexKind.coerce(kind)
    return _dims(g, kind, (lambda h: _z_rows(h, kind),),
                 with_representatives=with_representatives, progress=progress)[0]


def chevalley_and_cr_dims(g: LieAlgebra) -> tuple[CohomologyReport, CohomologyReport]:
    """The reports of `space_dims(g, "chevalley")` and `space_dims(g, "cr")`
    from one run, with the errors of the second on an input that is not
    a 3-step Lie algebra.  One Z reducer takes every Chevalley row, whose
    rank gives the Chevalley Z^2, and then the delta_R rows; Z^2_cr lies
    in Z^2_chevalley, so one B^2 and one containment pass serve both."""
    chevalley, cr = _dims(g, ComplexKind.CR, (chevalley2_rows, r2_rows))
    return chevalley, cr


def _dims(g: LieAlgebra, kind: ComplexKind, streams, *, with_representatives: bool = False,
          progress: Callable[[int, int, float], None] | None = None) -> list[CohomologyReport]:
    """The one body of `space_dims`, `chevalley_and_cr_dims`,
    `ch_kernel_contained_in_chevalley` and `coboundary_rank`, so of every
    Z elimination and every ranking of delta^1: the
    basis step, the validation of `kind`, one Z reducer that takes the
    rows of each stream (a function of h) in turn, one B^2 reducer and one
    containment pass against the final Z reducer.  Z^2 only shrinks as
    streams are added, so that pass certifies a report for the rank
    after each stream; representatives go with the last.

    The nonzero delta^1 images go to the B^2 reducer one `add` at a time
    in the order of `RowReducer.add_rows`, and only the images whose
    `add` made a pivot are tested against the Z reducer: each other
    image is a combination of those before it, so the tested ones span
    B^2, and `in_kernel` is linear, so B^2 in Z^2 is still proved.  With
    no Z row fed (`coboundary_rank`) Z^2 is every cochain and the test is
    skipped."""
    f = liealg.adapted_basis(g)
    h = g if f is None else liealg.basis_change(g, f)
    try:
        _validate_kind(h, kind)
    except ValueError:
        _validate_kind(g, kind)  # the error names a witness in the basis of g
        raise
    idx = CochainIndex(h.dim)
    red = RowReducer(idx.size, progress=progress)
    z2s = []
    for rows in streams:
        red.add_rows(rows(h))
        z2s.append(idx.size - red.rank)
    bred = RowReducer(idx.size)
    for vec in insertion_order(coboundary_image_vectors(h)):
        if bred.add(vec) and red.rank and not red.in_kernel(vec):
            raise RuntimeError("coboundary fell outside the cocycle space")
    b2 = bred.rank
    reports = [CohomologyReport(z2, b2, z2 - b2, z2 == b2) for z2 in z2s]
    if with_representatives:
        kernel = red.kernel_basis_sparse()
        reports[-1] = replace(reports[-1], representatives=(
            tuple(map(idx.to_cochain, kernel)) if f is None
            else _transport_back(idx, kernel, f)))
    return reports


def _transport_back(idx: CochainIndex, kernel, f: RationalMatrix) -> tuple[Cochain, ...]:
    """The cochains phi(x, y) = f phi'(f^-1 x, f^-1 y) of g, for the flat
    vectors of cochains phi' of basis_change(g, f), all moved by one
    `liealg._transport`: vector r, cleared of denominators by its own
    factor, holds the value keys r n + m of one integer table."""
    n = idx.dim
    table: dict[tuple[int, int], dict[int, int]] = {}
    scales = []
    for r, vec in enumerate(kernel):
        ints, scale = _integer_row(vec)
        scales.append(scale)
        for u, x in ints.items():
            p, m = divmod(u, n)
            i, j = idx.pairs[p]
            table.setdefault((i, j), {})[r * n + m] = x
            table.setdefault((j, i), {})[r * n + m] = -x
    cols = _integer_rows(dict(enumerate(liealg._columns(f))))
    moved = liealg._transport(table, scales, inverse_columns(f), cols)
    return tuple(Cochain(2, n, coeffs) for coeffs in moved)


def ch_kernel_contained_in_chevalley(g: LieAlgebra) -> bool:
    """Rank test: ker T contained in ker(delta^2) on a 2-step algebra, that
    is, the Chevalley rows added to the T rows leave Z^2 as it was."""
    ch, both = _dims(g, ComplexKind.CH, (t_operator_rows, chevalley2_rows))
    return ch.z2_dim == both.z2_dim


# ---------------------------------------------------------------------------
# linear deformation checks

@dataclass(frozen=True)
class DeformationCheck:
    """Per-condition exact zero tests for a linear one-parameter family."""

    conditions: tuple[tuple[str, bool, tuple[int, ...] | None], ...]

    @property
    def passes_all(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)


def _zero_condition(name: str, defect) -> tuple[str, bool, tuple[int, ...] | None]:
    hit = defect.first_nonzero()
    return (name, hit is None, None if hit is None else hit[0])


#: (name, identity, power of t) of each condition, by number of steps
_DEFORMATION_CONDITIONS = {
    2: (("ch_cocycle", _COMB[2], 1), ("quadratic", _COMB[2], 2)),
    3: (("chevalley_cocycle", _JACOBI, 1), ("jacobiator_square", _JACOBI, 2),
        ("r_cocycle", _COMB[3], 1), ("mixed_quadratic", _COMB[3], 2),
        ("cubic", _COMB[3], 3)),
}


def check_linear_deformation(g: LieAlgebra, phi: Cochain, steps: int) -> DeformationCheck:
    """mu + t*phi stays a Lie bracket that is `steps`-step or less (2 or
    3) for every scalar t iff every recorded condition vanishes: the
    pieces in t of (mu + t*phi) o1 (mu + t*phi) for 2 steps, and of the
    Jacobiator and of nu o1 (nu o1 nu) for 3.  mu itself is checked
    first, so the t^0 pieces vanish.  A condition's witness is its first
    argument tuple with a nonzero value."""
    if type(steps) is not int or steps not in _DEFORMATION_CONDITIONS:
        raise ValueError(f"steps must be 2 or 3, got {steps!r}")
    _validate_kind(g, ComplexKind.CH if steps == 2 else ComplexKind.CR)
    conditions = _DEFORMATION_CONDITIONS[steps]
    pieces = _graded_pieces(g.dim, _along(g, phi),
                            [(identity, (k,)) for _, identity, k in conditions])
    return DeformationCheck(tuple(_zero_condition(name, piece)
                                  for (name, _, _), piece in zip(conditions, pieces)))


# ---------------------------------------------------------------------------
# Jordan-type identities

def _require_symmetric(m: MultiMap, what: str) -> None:
    if m.arity != 2:
        raise ValueError(f"{what} must be bilinear")
    for (a, b), vec in m.coeffs.items():
        if m.coeffs.get((b, a)) != vec:
            raise ValueError(f"{what} must be symmetric")


def jordan_linearized_defect(a: MultiMap) -> MultiMap:
    """Six-term linearized defect (a o1 (a o1 a) - a o (a x a)) o Phi_v;
    identically zero iff the commutative multiplication satisfies the
    degree-4 Jordan identity."""
    _require_symmetric(a, "multiplication")
    return _graded_pieces(a.dim, {(0,): _cleared(a)}, [(_JORDAN, (0,))])[0]


def jordan_cocycle_defect(a: MultiMap, phi: MultiMap) -> MultiMap:
    """Linearization of the Jordan identity along a symmetric perturbation,
    the part of the Jordan defect of a + t*phi linear in t:

    (phi o1 a o1 a + a o1 phi o1 a + a o1 a o1 phi
       - a o (a x phi) - a o (phi x a) - phi o (a x a)) o Phi_v.
    """
    _require_symmetric(a, "multiplication")
    _require_symmetric(phi, "cochain")
    return _graded_pieces(a.dim, {(0,): _cleared(a), (1,): _cleared(phi)},
                          [(_JORDAN, (1,))])[0]
