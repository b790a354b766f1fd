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

from .exactlin import Q, as_rational


def two_nilp_dims(order: int) -> tuple[int, ...]:
    """Dimensions 1, 1, 0, 0, ... of the quadratic nilpotency operad."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return (1, 1)[:order] + (0,) * max(0, order - 2)


def gen_function(dims, order: int) -> tuple[Q, ...]:
    """Coefficients of the exponential generating function
    sum_a dims[a - 1]/a! x^a up to x^order; entry k multiplies x^k."""
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool):
            raise TypeError(f"not an integer dimension: {d!r}")
        if d < 0:
            raise ValueError("dimensions must be nonnegative")
    if order > len(dims):
        raise ValueError("order exceeds the available dimension sequence")
    return (Q(0),) + tuple(Q(dims[a - 1], factorial(a)) for a in range(1, order + 1))


def dual_dims_2nilp(order: int) -> tuple[int, ...]:
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
    return tuple(d[1:])


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


def koszul_check(g_primal, g_dual) -> tuple[Q, ...]:
    """Residual g_primal(-g_dual(-x)) - x of two coefficient sequences, to
    the shorter one's order; all zero certifies the duality equation."""
    a = [as_rational(c) for c in g_primal]
    b = [as_rational(c) for c in g_dual]
    if not (a and b) or a[0] or b[0]:
        raise ValueError("composition requires zero constant term")
    n = min(len(a), len(b))
    inner = [c if k % 2 else -c for k, c in enumerate(b[:n])]  # -g_dual(-x)
    acc = [Q(0)] * n
    for c in reversed(a[:n]):  # Horner: acc <- acc * inner + c mod x^n
        prod = [c] + [Q(0)] * (n - 1)
        for i, p in enumerate(acc):
            for j, q in enumerate(inner[: n - i]):
                prod[i + j] += p * q
        acc = prod
    if n > 1:
        acc[1] -= 1
    return tuple(acc)


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
