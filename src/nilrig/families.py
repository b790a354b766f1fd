"""Constructors for the named nilpotent algebras and parametrized families.

Bracket data is written 1-based, matching the conventional X_1..X_n basis
labels, and converted to the 0-based internal representation here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Mapping, Sequence

from .cohom import Cochain, CochainIndex, ch_delta2, deformed_bracket
from .exactlin import Q, QZERO, RowReducer, as_rational, as_size
from .liealg import LieAlgebra


def algebra_from_brackets(dim: int,
                          brackets: Mapping[tuple[int, int], Mapping[int, object]]
                          ) -> LieAlgebra:
    """Build an algebra from 1-based bracket data {(i, j): {k: coeff}}."""
    constants: dict[tuple[int, int], dict[int, object]] = {}
    for (i, j), image in brackets.items():
        if not (type(i) is type(j) is int and 1 <= i < j <= dim):
            raise ValueError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= dim")
        for k in image:
            if type(k) is not int or not 1 <= k <= dim:
                raise ValueError(f"image index {k!r} out of range")
        constants[(i - 1, j - 1)] = {k - 1: c for k, c in image.items()}
    return LieAlgebra(dim, constants)


# ---------------------------------------------------------------------------
# model algebras

def heisenberg(p: int) -> LieAlgebra:
    """Dim 2p+1: [X_1,X_2] = ... = [X_{2p-1},X_{2p}] = X_{2p+1}."""
    n = 2 * as_size(p, "p", 1) + 1
    return algebra_from_brackets(
        n, {(2 * i - 1, 2 * i): {n: 1} for i in range(1, p + 1)})


def _blocks(sizes: Sequence[int]) -> dict[tuple[int, int], dict[int, int]]:
    """1-based brackets [X_1, X_a] = X_{a+1} along consecutive blocks of
    the given sizes after X_1: a block X_b..X_{b+s-1} gives a = b..b+s-2."""
    return {(1, a): {a + 1: 1} for b, s in zip(accumulate(sizes, initial=2), sizes)
            for a in range(b, b + s - 1)}


def g_p1(p: int) -> LieAlgebra:
    """Dim 2p+1 model with blocks (2,..,2,1): [X_1, X_{2i}] = X_{2i+1}."""
    return algebra_from_brackets(2 * as_size(p, "p", 1) + 1, _blocks((2,) * p))


def g_p12(p: int) -> LieAlgebra:
    """Dim 2p model with blocks (2,..,2,1,1): [X_1, X_{2i}] = X_{2i+1}, i < p."""
    return algebra_from_brackets(2 * as_size(p, "p", 2), _blocks((2,) * (p - 1)))


_RIGID_2STEP: dict[str, tuple[int, int, dict[tuple[int, int], dict[int, int]]]] = {
    # name: (dim, number of [X1, X_{2i}] = X_{2i+1} rows, extra brackets)
    "g7": (7, 3, {(2, 4): {7: 1}, (2, 6): {5: 1}, (4, 6): {3: 1}}),
    "g9": (9, 4, {(2, 4): {7: 1}, (2, 8): {5: 1}, (4, 6): {9: 1}, (6, 8): {3: 1}}),
    "g6": (6, 2, {(2, 6): {5: 1}, (4, 6): {3: 1}}),
    "g8": (8, 3, {(2, 4): {7: 1}, (4, 8): {3: 1}, (6, 8): {5: 1}}),
    "h6": (6, 2, {(2, 4): {6: 1}}),
    "h8": (8, 3, {(2, 6): {5: 1}, (2, 4): {8: 1}}),
    "h10": (10, 4, {(2, 4): {10: 1}, (2, 6): {5: 1}, (2, 8): {3: 1},
                    (4, 6): {9: 1}, (4, 8): {7: 1}, (6, 8): {3: 1}}),
}


def rigid_2step(which: str) -> LieAlgebra:
    """One of the distinguished rigid 2-step algebras g7/g9/g6/g8/h6/h8/h10."""
    try:
        dim, rows, extra = _RIGID_2STEP[which]
    except KeyError:
        raise ValueError(f"unknown rigid 2-step algebra: {which!r}") from None
    return algebra_from_brackets(dim, _blocks((2,) * rows) | extra)


def g_k3k2k1(k3: int, k2: int, k1: int) -> LieAlgebra:
    """3-step model of dimension 3*k3 + 2*k2 + k1 with block sizes
    (3,..,3,2,..,2,1,..,1) of multiplicities (k3, k2, k1)."""
    n = 3 * as_size(k3, "k3", 1) + 2 * as_size(k2, "k2") + as_size(k1, "k1", 1)
    return algebra_from_brackets(n, _blocks((3,) * k3 + (2,) * k2))


def g_p01(p: int) -> LieAlgebra:
    """Dim 3p+1: [X_1, X_{3i-1}] = X_{3i}, [X_1, X_{3i}] = X_{3i+1}."""
    return g_k3k2k1(as_size(p, "p", 1), 0, 1)


def rigid_3step_7() -> LieAlgebra:
    """The distinguished rigid 7-dimensional 3-step algebra."""
    return algebra_from_brackets(7, _blocks((3, 3)) | {
        (2, 3): {4: 1}, (3, 5): {7: 1}, (5, 6): {4: 1}, (2, 5): {6: 1}})


# ---------------------------------------------------------------------------
# normalized cocycle templates

def _coeff_name(i: int, j: int, k: int) -> str:
    return f"a_{{{i},{j}}}^{k}"


#: a 1-based pair (i, j) and its terms (name, k)
_Entry = tuple[tuple[int, int], tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class CocycleTemplate:
    """Normal form of a cocycle space: the linear pattern tying free
    coefficient names to cochain entries.

    `entries` maps a 1-based pair (i, j) to terms (name, k) meaning: the
    coefficient of X_k in phi(X_i, X_j) picks up value(name).  A name may
    appear under several pairs, which encodes the fixed linear couplings
    of the family.  `free` lists the names in order of first appearance.
    """

    dim: int
    free: tuple[str, ...] = field(init=False)
    entries: tuple[_Entry, ...]

    def __post_init__(self):
        names = dict.fromkeys(name for _, terms in self.entries for name, _ in terms)
        object.__setattr__(self, "free", tuple(names))

    def instantiate(self, coeffs: Mapping[str, object]) -> Cochain:
        unknown = set(coeffs) - set(self.free)
        if unknown:
            raise ValueError(f"unknown coefficient names: {sorted(unknown)}")
        values = {name: as_rational(v) for name, v in coeffs.items()}
        data: dict[tuple[int, int], dict[int, Q]] = {}
        for (i, j), terms in self.entries:
            vec = data.setdefault((i - 1, j - 1), {})
            for name, k in terms:
                c = values.get(name, QZERO)
                if c != 0:
                    vec[k - 1] = vec.get(k - 1, QZERO) + c
        return Cochain(2, self.dim, data)


def _free(i: int, j: int, images: Sequence[int],
          labels: Sequence[int] | None = None) -> _Entry:
    """Entry (i, j) with its own coefficient a_{i,j}^label on each X_k in
    `images`; the labels default to the images."""
    labels = images if labels is None else labels
    return ((i, j), tuple((_coeff_name(i, j, label), k) for label, k in zip(labels, images)))


def _template_221(p: int) -> CocycleTemplate:
    as_size(p, "p", 2)
    odd = [2 * k + 1 for k in range(1, p + 1)]   # X_3, X_5, .., X_{2p+1}
    entries = [_free(2, 4, odd[2:])]
    entries += [_free(2, 2 * i, odd[1:]) for i in range(3, p + 1)]
    for i in range(2, p + 1):
        entries += [_free(2 * i, 2 * j, odd) for j in range(i + 1, p + 1)]
    return CocycleTemplate(2 * p + 1, tuple(e for e in entries if e[1]))


def _template_p12(family: str, p: int) -> CocycleTemplate:
    """Z2kk, C1 and C2 on g_p12(p): phi(X_2i, X_2j) for 2 <= i < j <= last
    has a free coefficient on each odd X_3 .. X_{2p-1} and on X_{2p}.
    C2 stops at last = p - 1, C1 has no X_{2p} term, and Z2kk adds
    phi(X_1, X_{2p}) = a X_{2p}."""
    as_size(p, "p", 2)
    last = p - 1 if family == "C2" else p
    images = [2 * k + 1 for k in range(1, p)] + ([] if family == "C1" else [2 * p])
    entries = [((1, 2 * p), (("a", 2 * p),))] if family == "Z2kk" else []
    for i in range(2, last + 1):
        entries += [_free(2 * i, 2 * j, images) for j in range(i + 1, last + 1)]
    return CocycleTemplate(2 * p, tuple(entries))


def _template_p01(p: int) -> CocycleTemplate:
    """The free coefficient a_{i,j}^k of block k sits on X_{3k+1}."""
    as_size(p, "p", 1)
    blocks = range(1, p + 1)
    tops = [3 * k + 1 for k in blocks]
    entries = []
    for i in blocks:
        entries += [_free(3 * i - 1, 3 * j, tops, blocks) for j in range(i, p + 1)]
    for i in blocks:
        entries += [_free(3 * i, 3 * j - 1, tops, blocks) for j in range(i + 1, p + 1)]
    for i in blocks:
        for j in range(i + 1, p + 1):
            terms = []
            for k in blocks:
                # coupled part: coefficient of X_{3k} is a_{3i,3j-1}^k + a_{3i-1,3j}^k
                terms.append((_coeff_name(3 * i, 3 * j - 1, k), 3 * k))
                terms.append((_coeff_name(3 * i - 1, 3 * j, k), 3 * k))
                terms.append((_coeff_name(3 * i - 1, 3 * j - 1, k), 3 * k + 1))
            entries.append(((3 * i - 1, 3 * j - 1), tuple(terms)))
    return CocycleTemplate(3 * p + 1, tuple(entries))


def _template_clas3111(p: int) -> CocycleTemplate:
    """Normal form on the dim n = 3 + p algebra with one 3-block; p >= 2."""
    as_size(p, "p", 2)
    n = 3 + p
    entries = [_free(2, 3, range(5, n + 1))]
    entries += [_free(2, k, range(4, n + 1)) for k in range(5, n + 1)]
    for l in range(5, n + 1):
        entries += [_free(l, k, range(4, n + 1)) for k in range(l + 1, n + 1)]
    return CocycleTemplate(n, tuple(entries))


_TEMPLATES = {
    "221": _template_221,
    "Z2kk": partial(_template_p12, "Z2kk"),
    "C1": partial(_template_p12, "C1"),
    "C2": partial(_template_p12, "C2"),
    "p01": _template_p01,
    "clas3111": _template_clas3111,
}


def normalized_cocycle_template(family: str, p: int) -> CocycleTemplate:
    """Normal-form cocycle pattern for one of the families
    221 / Z2kk / C1 / C2 / p01 / clas3111."""
    try:
        builder = _TEMPLATES[family]
    except KeyError:
        raise ValueError(f"unknown template family: {family!r}") from None
    return builder(p)


# ---------------------------------------------------------------------------
# deformed members and classification list

@dataclass(frozen=True)
class FamilyParams:
    """Identifies a family member: template name, size, coefficient values."""

    name: str
    p: int = 0
    coeffs: Mapping[str, object] = field(default_factory=dict)


#: base model name -> (constructor, templates it carries)
_BASES = {"g_p1": (g_p1, {"221"}), "g_p12": (g_p12, {"C1", "C2", "Z2kk"})}


def deformed_2step(base: str, params: FamilyParams) -> LieAlgebra:
    """Member of the 2-step family over g_p1 (template 221) or g_p12
    (templates C1 / C2) with the given template coefficients."""
    try:
        model, allowed = _BASES[base]
    except (KeyError, TypeError):
        raise ValueError(f"unknown base model: {base!r}") from None
    g0 = model(params.p)
    if params.name not in allowed:
        raise ValueError(f"template {params.name!r} does not match base {base!r}")
    phi = normalized_cocycle_template(params.name, params.p).instantiate(params.coeffs)
    return deformed_bracket(g0, phi)


#: Coefficient tuples (a1..a5, b1..b5) of the sixteen 7-dimensional
#: 3-step members with block pattern (3,3,1).
F731_TUPLES: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 1, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 1, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
)

#: (a_m, b_m) tuple entry -> template coefficient name at p = 2.
_F731_NAMES = (
    _coeff_name(2, 3, 1), _coeff_name(3, 5, 1), _coeff_name(2, 6, 1),
    _coeff_name(5, 6, 1), _coeff_name(2, 5, 1),
    _coeff_name(2, 3, 2), _coeff_name(3, 5, 2), _coeff_name(2, 6, 2),
    _coeff_name(5, 6, 2), _coeff_name(2, 5, 2),
)


def f731_cochain(tup: Sequence[int]) -> Cochain:
    template = normalized_cocycle_template("p01", 2)
    return template.instantiate(
        {name: v for name, v in zip(_F731_NAMES, tup) if v != 0})


def classification_F731() -> list[LieAlgebra]:
    """The sixteen 7-dimensional 3-step members with block pattern (3,3,1)."""
    base = g_p01(2)
    return [deformed_bracket(base, f731_cochain(tup)) for tup in F731_TUPLES]


# ---------------------------------------------------------------------------
# cocycle space counting

def cocycle_space_dim_221(p: int) -> tuple[int, int]:
    """Dimension of the 221-pattern cocycle space on g_p1, twice over, as
    (linear, closed): once by exact linear algebra on the instantiated
    pattern (verifying along the way that every pattern cochain is a
    T-cocycle), and once by the closed form p(p+1)(p-2)/2."""
    as_size(p, "p", 2)
    template = normalized_cocycle_template("221", p)
    g = g_p1(p)
    idx = CochainIndex(g.dim)
    red = RowReducer(idx.size)
    for name in template.free:
        phi = template.instantiate({name: 1})
        if not ch_delta2(g, phi).is_zero():
            raise RuntimeError(f"pattern coefficient {name} is not a cocycle")
        red.add(idx.to_flat(phi))
    return red.rank, p * (p + 1) * (p - 2) // 2
