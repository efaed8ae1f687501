"""Dense tensor components with variance signatures and symmetries.

Components are canonical expressions indexed by 1-based multi-indices
over [1..dim]^rank.  Declared symmetries are trusted: they cut generation
work to one generator call per orbit.  The test suite checks them
exactly, on every orbit, and the oracle compares full component tables
that assume no symmetry.  The orbits of one (dim, rank, symmetries)
shape are found once per ``Context`` (``_orbit_plan``), and that one plan
drives both ``define`` and ``nonzero_components``.  All tensors are
immutable after construction.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .expr import Context, Expr, ZeroStatus
from .poly import iter_indices


class TensorError(Exception):
    pass


class VarianceMismatch(TensorError):
    pass


class Variance(enum.Enum):
    UP = "up"
    DOWN = "down"


UP = Variance.UP
DOWN = Variance.DOWN


class Symmetry(NamedTuple("Symmetry", [("kind", str), ("positions", tuple[int, ...])])):
    """Pairwise or set symmetry between index positions (1-based); ``kind``
    is "symmetric" or "antisymmetric"."""

    __slots__ = ()

    def __new__(cls, kind: str, positions: tuple[int, ...]):
        if kind not in ("symmetric", "antisymmetric"):
            raise ValueError("symmetry kind must be symmetric or antisymmetric")
        if len(positions) < 2 or len(set(positions)) != len(positions):
            raise ValueError("symmetry needs at least two distinct positions")
        return super().__new__(cls, kind, positions)


def symmetric(*positions: int) -> Symmetry:
    return Symmetry("symmetric", tuple(positions))


def antisymmetric(*positions: int) -> Symmetry:
    return Symmetry("antisymmetric", tuple(positions))


def _validate_symmetries(sig: Sequence[Variance], symmetries: Iterable[Symmetry]):
    rank = len(sig)
    for sym in symmetries:
        for p in sym.positions:
            if not 1 <= p <= rank:
                raise ValueError(f"symmetry position {p} outside rank {rank}")
        variances = {sig[p - 1] for p in sym.positions}
        if len(variances) > 1:
            raise VarianceMismatch("symmetry positions must share a variance")


def _transpositions(symmetries: Iterable[Symmetry]) -> list[tuple[int, int, int]]:
    """Generators (pos_a, pos_b, sign) as 0-based position pairs."""
    gens = []
    for sym in symmetries:
        sign = -1 if sym.kind == "antisymmetric" else 1
        ps = sorted(sym.positions)
        for a, b in zip(ps, ps[1:]):
            gens.append((a - 1, b - 1, sign))
    return gens


def _orbit(idx: tuple[int, ...], gens) -> dict[tuple[int, ...], int]:
    """Map from reachable index to sign relative to ``idx``; sign 0 marks a
    contradiction (index equal to itself with sign -1)."""
    seen = {idx: 1}
    frontier = [idx]
    contradiction = False
    while frontier:
        cur = frontier.pop()
        s = seen[cur]
        for a, b, sign in gens:
            nxt = list(cur)
            nxt[a], nxt[b] = nxt[b], nxt[a]
            nxt = tuple(nxt)
            ns = s * sign
            if nxt in seen:
                if seen[nxt] != ns:
                    contradiction = True
            else:
                seen[nxt] = ns
                frontier.append(nxt)
    if contradiction:
        return {k: 0 for k in seen}
    return seen


def _orbit_plan(ctx: Context, dim: int, rank: int, symmetries: Sequence[Symmetry]) -> tuple:
    """The orbits of [1..dim]^rank under ``symmetries``, in lexicographic
    order of their least members, each as ``(least member, ((member,
    sign), ...))``.  The least member comes first with sign 1, or every
    sign is 0 where antisymmetry forces the orbit to zero.  Built once
    per shape and kept in ``ctx._orbit_plans``, so it lives as long as
    the ``Context`` and no longer."""
    key = (dim, rank, tuple(symmetries))
    plan = ctx._orbit_plans.get(key)
    if plan is None:
        gens = _transpositions(symmetries)
        orbits, seen = [], set()
        for idx in iter_indices(dim, rank):
            if idx not in seen:
                orbit = _orbit(idx, gens) if gens else {idx: 1}
                seen.update(orbit)
                orbits.append((idx, tuple(orbit.items())))
        plan = ctx._orbit_plans[key] = tuple(orbits)
    return plan


class Tensor:
    """Immutable dense tensor over [1..dim]^rank with Expr components."""

    def __init__(
        self,
        name: str,
        ctx: Context,
        dim: int,
        sig: Sequence[Variance],
        components: dict[tuple[int, ...], Expr],
        symmetries: Sequence[Symmetry] = (),
    ):
        _validate_symmetries(sig, symmetries)
        self.name = name
        self.ctx = ctx
        self.dim = dim
        self.sig = tuple(sig)
        self.symmetries = tuple(symmetries)
        self._comp = components

    @property
    def rank(self) -> int:
        return len(self.sig)

    def __getitem__(self, idx) -> Expr:
        if isinstance(idx, int):
            idx = (idx,)
        return self._comp[tuple(idx)]

    def components(self):
        return self._comp.items()

    def is_zero_tensor(self) -> bool:
        return all(e.is_zero_expr() for e in self._comp.values())

    def equals(self, other: "Tensor") -> bool:
        if self.sig != other.sig or self.dim != other.dim:
            return False
        return self._comp == other._comp  # canonical forms: equal iff identical

    def __repr__(self) -> str:
        kinds = "".join("u" if v is UP else "d" for v in self.sig)
        return f"Tensor({self.name!r}, dim={self.dim}, sig={kinds!r})"


def define(
    name: str,
    ctx: Context,
    dim: int,
    sig: Sequence[Variance],
    generator: Callable[[tuple[int, ...]], Expr],
    symmetries: Sequence[Symmetry] = (),
) -> Tensor:
    """Populate a tensor from a component generator.

    The generator is called once per symmetry orbit, on its
    lexicographically least index, and the value is propagated with the
    declared signs; orbits that antisymmetry forces to zero are never
    generated.  The orbits come from the context's plan for this shape
    (``_orbit_plan``), found once per ``Context``.  The symmetries are
    trusted here: the tests check them exactly on every orbit, and the
    oracle compares full tables.
    """
    _validate_symmetries(sig, symmetries)
    comp: dict[tuple[int, ...], Expr] = {}
    for idx, orbit in _orbit_plan(ctx, dim, len(sig), symmetries):
        if orbit[0][1] == 0:  # antisymmetry forces the orbit to zero
            for member, _ in orbit:
                comp[member] = ctx.zero
            continue
        value = generator(idx)
        for member, sign in orbit:
            comp[member] = value if sign == 1 else -value
    return Tensor(name, ctx, dim, sig, comp, symmetries)


def zero_tensor(name: str, ctx: Context, dim: int, sig: Sequence[Variance]) -> Tensor:
    comp = {idx: ctx.zero for idx in iter_indices(dim, len(sig))}
    return Tensor(name, ctx, dim, sig, comp)


def contract_product(
    a: Tensor, b: Tensor, pairs: Sequence[tuple[int, int]], name: str | None = None
) -> Tensor:
    """Contract paired slots of a tensor product; the result keeps A's free
    slots then B's, in order.  Pairs are 1-based (posA, posB) and must have
    opposite variances."""
    for pa, pb in pairs:
        if not (1 <= pa <= a.rank and 1 <= pb <= b.rank):
            raise ValueError("contraction position outside rank")
        if a.sig[pa - 1] is b.sig[pb - 1]:
            raise VarianceMismatch(
                f"cannot contract slot {pa} of {a.name} with slot {pb} of {b.name}"
            )
    if len({p for p, _ in pairs}) != len(pairs) or len({p for _, p in pairs}) != len(pairs):
        raise ValueError("contraction positions must be distinct")
    a_dummy = [p - 1 for p, _ in pairs]
    b_dummy = [p - 1 for _, p in pairs]
    a_free = [i for i in range(a.rank) if i not in a_dummy]
    b_free = [i for i in range(b.rank) if i not in b_dummy]
    sig = tuple(a.sig[i] for i in a_free) + tuple(b.sig[i] for i in b_free)
    dim = a.dim
    ctx = a.ctx
    comp = {}
    for idx in iter_indices(dim, len(sig)):
        a_part = idx[: len(a_free)]
        b_part = idx[len(a_free) :]
        acc = ctx.zero
        for dummy in iter_indices(dim, len(pairs)):
            ia = [0] * a.rank
            for slot, v in zip(a_free, a_part):
                ia[slot] = v
            for slot, v in zip(a_dummy, dummy):
                ia[slot] = v
            ea = a[tuple(ia)]
            if ea.is_zero_expr():
                continue
            ib = [0] * b.rank
            for slot, v in zip(b_free, b_part):
                ib[slot] = v
            for slot, v in zip(b_dummy, dummy):
                ib[slot] = v
            eb = b[tuple(ib)]
            if eb.is_zero_expr():
                continue
            acc = acc + ea * eb
        comp[idx] = acc
    return Tensor(name or f"{a.name}.{b.name}", ctx, dim, sig, comp)


class ComponentEntry(NamedTuple):
    index: tuple[int, ...]
    expr: Expr
    status: ZeroStatus


def nonzero_components(
    t: Tensor,
    full_table: bool = False,
    constraints: Iterable = (),
    seed: int = 0,
) -> list[ComponentEntry]:
    """Nonvanishing entries in lexicographic index order.

    By default one representative per symmetry orbit is reported (the
    lexicographically least index, read from the context's orbit plan
    for the tensor's shape); ``full_table`` lists every index.
    Canonically zero entries are dropped.  Each other entry carries the
    status of ``Expr.is_zero``: ``NON_ZERO`` for a rational expression,
    decided by the canonical form, and for a radical expression sampled
    at points that satisfy ``constraints``; a radical entry that is only
    numerically zero is kept and flagged ``NUMERICALLY_ZERO``.
    """
    if full_table:
        indices = iter_indices(t.dim, t.rank)
    else:
        indices = (idx for idx, _ in _orbit_plan(t.ctx, t.dim, t.rank, t.symmetries))
    out = []
    for idx in indices:
        e = t[idx]
        if not e.is_zero_expr():
            out.append(ComponentEntry(idx, e, e.is_zero(constraints=constraints, seed=seed)))
    return out
