"""Dimension sequences and generating functions for the quadratic/cubic
operads attached to nilpotency, and the duality functional-equation check.

The dual dimension sequence is computed twice: by the binomial recurrence
(`dual_dims_2nilp`) and by brute-force enumeration of commutative binary
trees with labeled leaves (`count_commutative_binary_trees`); the two are
compared in the test suite and in the verification report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .exactlin import Q, TruncatedSeries


@dataclass(frozen=True)
class DimSequence:
    """Arity-indexed dimensions d_1, d_2, ...; entries are >= 0."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be nonnegative")

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, k: int) -> int:
        return self.dims[k]


def two_nilp_dims(order: int) -> DimSequence:
    """Dimensions 1, 1, 0, 0, ... of the quadratic nilpotency operad."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return DimSequence((1, 1)[:order] + (0,) * max(0, order - 2))


def gen_function(dims: DimSequence, order: int) -> TruncatedSeries:
    """Exponential generating function sum_a dims[a]/a! x^a, truncated."""
    if order > len(dims):
        raise ValueError("order exceeds the available dimension sequence")
    coeffs = [Q(0)] + [Q(dims[a - 1], factorial(a)) for a in range(1, order + 1)]
    return TruncatedSeries.from_coeffs(coeffs, order)


def dual_dims_2nilp(order: int) -> DimSequence:
    """Dual dimension sequence from the binomial recurrence

    d_1 = d_2 = 1,
    d_{2k+1} = sum_{i=1..k}  C(2k+1, i) d_i d_{2k+1-i},
    d_{2k}   = sum_{i=1..k-1} C(2k, i) d_i d_{2k-i} + C(2k, k) d_k^2 / 2.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    d = [0, 1, 1]  # 1-based
    for m in range(3, order + 1):
        if m % 2 == 1:
            k = (m - 1) // 2
            total = sum(comb(m, i) * d[i] * d[m - i] for i in range(1, k + 1))
        else:
            k = m // 2
            total = sum(comb(m, i) * d[i] * d[m - i] for i in range(1, k))
            half = Q(comb(m, k) * d[k] * d[k], 2)
            if half.denominator != 1:
                raise ArithmeticError("recurrence produced a non-integer dimension")
            total += int(half)
        d.append(total)
    return DimSequence(tuple(d[1:]))


def count_commutative_binary_trees(n: int) -> int:
    """Number of binary commutative (non-planar) trees with n labeled
    leaves, by explicit enumeration of canonical tree shapes.

    A tree is a leaf label or a frozenset of its two subtrees; subtrees
    carry disjoint leaf sets, so the two children are always distinct and
    the frozenset representation is canonical under commutativity.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cache: dict[frozenset[int], set] = {}

    def trees(leaves: frozenset[int]) -> set:
        if leaves in cache:
            return cache[leaves]
        if len(leaves) == 1:
            out: set = {next(iter(leaves))}
        else:
            out = set()
            anchor = min(leaves)
            rest = sorted(leaves - {anchor})
            # each unordered split appears once: the anchor stays left
            for mask in range(2 ** len(rest) - 1):
                left = {anchor}
                right = set()
                for pos, leaf in enumerate(rest):
                    (left if mask >> pos & 1 else right).add(leaf)
                for lt in trees(frozenset(left)):
                    for rt in trees(frozenset(right)):
                        out.add(frozenset((lt, rt)))
        cache[leaves] = out
        return out

    return len(trees(frozenset(range(n))))


def koszul_check(g_primal: TruncatedSeries, g_dual: TruncatedSeries) -> TruncatedSeries:
    """Residual g_primal(-g_dual(-x)) - x; identically zero up to the
    truncation order certifies the duality functional equation."""
    if g_primal.coeffs[0] != 0 or g_dual.coeffs[0] != 0:
        raise ValueError("composition requires zero constant term")
    inner = -g_dual.scale_argument(-1)
    order = min(g_primal.order, g_dual.order)
    return g_primal.compose(inner) - TruncatedSeries.x(order)


@dataclass(frozen=True)
class StaticDim:
    operad: str
    arity: int
    dim: int
    note: str = ""


def static_dims_table() -> tuple[StaticDim, ...]:
    """Fixed component dimensions recorded as data, not recomputed."""
    return (
        StaticDim("2Nilp", 2, 1, "skew generator"),
        StaticDim("2Nilp", 3, 0, "all triple products vanish"),
        StaticDim("2Nilp!", 1, 1),
        StaticDim("2Nilp!", 2, 1),
        StaticDim("2Nilp!", 3, 3),
        StaticDim("2Nilp!", 4, 15),
        StaticDim("AssCubic", 2, 2, "regular representation"),
        StaticDim("AssCubic", 3, 6, "regular representation"),
        StaticDim("AssCubic", 4, 24, "left-combed words survive"),
        StaticDim("3Nilp", 2, 1, "skew generator"),
        StaticDim("3Nilp", 3, 2, "binary Lie words"),
        StaticDim("3Nilp", 4, 0, "all quadruple products vanish"),
        StaticDim("Jord-free", 4, 15, "free commutative words"),
        StaticDim("Jord-relations", 4, 4, "span of the permuted identity"),
        StaticDim("Jord", 4, 11, "15 - 4"),
    )
