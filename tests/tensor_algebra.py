"""Tensor algebra the package itself never runs: the Kronecker delta, sums,
index raising and lowering, and alternation.

The geometry builds each object from its own component formula, so these
operations serve the tests only, as references computed by another route.
"""

from __future__ import annotations

from finslercalc.expr import Context
from finslercalc.poly import iter_indices
from finslercalc.tensor import (
    DOWN, UP, Tensor, TensorError, VarianceMismatch, antisymmetric,
)


def kronecker(ctx: Context, dim: int, name: str = "delta") -> Tensor:
    comp = {}
    for idx in iter_indices(dim, 2):
        comp[idx] = ctx.one if idx[0] == idx[1] else ctx.zero
    return Tensor(name, ctx, dim, (UP, DOWN), comp)


def tensor_add(a: Tensor, b: Tensor, name: str | None = None, symmetries=()) -> Tensor:
    if a.sig != b.sig or a.dim != b.dim:
        raise TensorError("tensor addition needs matching signatures")
    comp = {idx: a[idx] + b[idx] for idx, _ in a.components()}
    return Tensor(name or a.name, a.ctx, a.dim, a.sig, comp, symmetries)


def move_index(t: Tensor, pos: int, g: Tensor, g_inv: Tensor) -> Tensor:
    """Lower (Up -> Down, with g) or raise (Down -> Up, with g_inv) the
    index at 1-based position ``pos``; symmetries touching it are dropped."""
    if not 1 <= pos <= t.rank:
        raise ValueError("position outside rank")
    metric = g if t.sig[pos - 1] is UP else g_inv
    new_sig = list(t.sig)
    new_sig[pos - 1] = DOWN if t.sig[pos - 1] is UP else UP
    p = pos - 1
    comp = {}
    for idx in iter_indices(t.dim, t.rank):
        acc = t.ctx.zero
        for r in range(1, t.dim + 1):
            inner = idx[:p] + (r,) + idx[p + 1 :]
            term = t[inner]
            if term.is_zero_expr():
                continue
            acc = acc + metric[(idx[p], r)] * term
        comp[idx] = acc
    kept = tuple(s for s in t.symmetries if pos not in s.positions)
    return Tensor(t.name, t.ctx, t.dim, tuple(new_sig), comp, kept)


def alternate(t: Tensor, j: int, k: int, name: str | None = None) -> Tensor:
    """T minus T with slots j,k swapped; the result is antisymmetric there.

    The operator is order-sensitive in its position arguments, so
    alternate(t, k, j) == -alternate(t, j, k)."""
    if t.sig[j - 1] is not t.sig[k - 1]:
        raise VarianceMismatch("alternation needs slots of equal variance")
    sign = 1 if j < k else -1
    a, b = j - 1, k - 1
    comp = {}
    for idx in iter_indices(t.dim, t.rank):
        swapped = list(idx)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        value = t[idx] - t[tuple(swapped)]
        comp[idx] = value if sign == 1 else -value
    return Tensor(
        name or t.name, t.ctx, t.dim, t.sig, comp, (antisymmetric(j, k),)
    )
