"""Numeric cross-check of the symbolic pipeline.

Every geometric object is recomputed at sample points from one truncated
multivariate Taylor jet of F**2 per point, over the 2n coordinates
(x, y) and of order ``JET_ORDER`` (Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  Derivatives are exact up to rounding; nothing is
approximated by finite differences.  The same definitional chain is followed
on jets: metric from fiber derivatives, inverse by Gaussian elimination,
Christoffel symbols, spray, nonlinear connection, horizontal derivatives,
connection coefficients and torsions.  Each derivative lowers a jet's
order by one.  A table's values and first partials at the point are its
order-0 and order-1 coefficients, and covariant derivatives and curvatures
read those alone (``slope``, ``delta_values``).  So each table is built only
to the order that is read: the tables read only at the point and by one
derivative (l, lup, h, Cmixed, gamma, Gamma) at order 1, through one factor
truncated to order 1 before each product, and the tables deeper chains
differentiate at the orders those need.  No symbolic derivative or
simplification is involved.

Each plain object id of ``registry`` names one jet table of a point, and
every id, compound ones included, is read through ``registry.parse`` by
one lookup, ``_PointJets.table``.

F**2 is evaluated on jets by the evaluator of ``expr`` (``Context.values_at``,
``Poly.eval``, ``real_root``), for which ``Jet`` has ``__float__`` and ``__pow__``.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from operator import add, mul, sub
from typing import NamedTuple

from .expr import DomainError, NumericPoint, check_tol_and_box, draw_points, real_root
from .geometry import Classification, ConnectionKind, FinslerStructure, Geometry, _memo
from . import registry

# The deepest chain in the registry takes five derivatives of F**2: the
# delta-derivative of G^i_jk (for R:berwald) and hcov of a torsion.
JET_ORDER = 5


class SingularMetricAt(Exception):
    def __init__(self, point: NumericPoint):
        super().__init__(f"metric is numerically singular at {point}")
        self.point = point


# -- truncated Taylor jets ----------------------------------------------------


class _Basis:
    """The monomials of total degree <= ``order`` in ``nvars`` variables,
    sorted by degree (so the monomials of degree <= d are a prefix of
    length ``size[d]``), and the index tables that products and
    derivatives read."""

    def __init__(self, nvars: int, order: int):
        mons = self.mons = []
        for d in range(order + 1):
            for combo in itertools.combinations_with_replacement(range(nvars), d):
                mons.append(tuple(combo.count(v) for v in range(nvars)))
        index = self.index = {m: i for i, m in enumerate(mons)}
        self.size = [math.comb(nvars + d, d) for d in range(order + 1)]
        # pairs[k]: the indices (I, J) of every factor pair of monomial k,
        # I in lexicographic order of the factor's exponents
        self.pairs = []
        for k in mons:
            factors = list(itertools.product(*(range(e + 1) for e in k)))
            self.pairs.append((
                [index[i] for i in factors],
                [index[tuple(a - b for a, b in zip(k, i))] for i in factors],
            ))
        # work[d]: the factor pairs of a product truncated to order d
        pair_counts = list(itertools.accumulate(len(i) for i, _ in self.pairs))
        self.work = [pair_counts[s - 1] for s in self.size]
        self._shifts: dict[int, list[int]] = {}
        # deriv[v]: for each monomial m of degree < order, the index of
        # m * x_v and the exponent of x_v in it
        lower = mons[: self.size[order - 1]] if order else []
        self.deriv = []
        for v in range(nvars):
            up = [m[:v] + (m[v] + 1,) + m[v + 1 :] for m in lower]
            self.deriv.append(([index[m] for m in up], [float(m[v]) for m in up]))

    def shift(self, i: int) -> list[int]:
        """For each monomial k, the index of k divided by monomial i, or
        -1 where i does not divide k; built on first use."""
        got = self._shifts.get(i)
        if got is None:
            m = self.mons[i]
            got = self._shifts[i] = [
                self.index.get(tuple(a - b for a, b in zip(k, m)), -1) for k in self.mons
            ]
        return got


@cache
def _basis(nvars: int, order: int) -> _Basis:
    return _Basis(nvars, order)


class Jet:
    """Truncated Taylor polynomial: ``coeffs[m]`` is the coefficient of the
    m-th monomial of ``basis`` (the derivative divided by the factorials of
    its exponents), for every monomial of total degree <= ``order``.

    Floats, ints and Fractions act as constants on either side of ``+``,
    ``-``, ``*`` and ``/``, so ``Poly.eval`` runs unchanged on jets.  The
    product of two jets is truncated to the smaller order.  It skips zero
    coefficients: when one factor has so few nonzero ones that summing
    over them takes fewer operations than over every factor pair, it is
    summed over those alone (``_sparse_product``).  ``diff`` lowers the
    order by one."""

    __slots__ = ("coeffs", "order", "basis")

    def __init__(self, coeffs: list, order: int, basis: _Basis):
        self.coeffs = coeffs
        self.order = order
        self.basis = basis

    @staticmethod
    def variables(values, order: int) -> list["Jet"]:
        """One jet of order >= 1 per variable: its value plus the variable itself."""
        basis = _basis(len(values), order)
        out = []
        for v, value in enumerate(values):
            coeffs = [0.0] * basis.size[order]
            coeffs[0] = float(value)
            coeffs[1 + v] = 1.0  # the degree-1 monomials follow the constant
            out.append(Jet(coeffs, order, basis))
        return out

    def _like(self, coeffs) -> "Jet":
        return Jet(coeffs, self.order, self.basis)

    def __add__(self, other):
        if isinstance(other, Jet):  # zip truncates to the smaller order
            return Jet(list(map(add, self.coeffs, other.coeffs)),
                       min(self.order, other.order), self.basis)
        coeffs = self.coeffs.copy()
        coeffs[0] += float(other)
        return self._like(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(list(map(sub, self.coeffs, other.coeffs)),
                       min(self.order, other.order), self.basis)
        return self + (-float(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            s = float(other)
            return self._like([c * s for c in self.coeffs])
        order = min(self.order, other.order)
        basis, a, b = self.basis, self.coeffs, other.coeffs
        nonzero_a, nonzero_b = len(a) - a.count(0.0), len(b) - b.count(0.0)
        if min(nonzero_a, nonzero_b) * basis.size[order] < basis.work[order]:
            coeffs = _sparse_product(basis, order, a, b, nonzero_b < nonzero_a)
        else:
            coeffs = _dense_product(basis, order, a, b)
        return Jet(coeffs, order, basis)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def truncate(self, order: int) -> "Jet":
        return Jet(self.coeffs[: self.basis.size[order]], order, self.basis)

    def diff(self, v: int) -> "Jet":
        """The partial derivative along variable ``v``, one order lower."""
        if self.order == 0:
            raise ValueError("an order-0 jet has no derivative")
        size = self.basis.size[self.order - 1]
        src, exps = self.basis.deriv[v]
        coeffs = list(map(mul, map(self.coeffs.__getitem__, src[:size]), exps[:size]))
        return Jet(coeffs, self.order - 1, self.basis)

    def series(self, taylor: list) -> "Jet":
        """f(self) for f(c + u) = sum_m taylor[m] * u**m, where c is the
        constant term; ``taylor`` holds at least ``order + 1`` terms."""
        u = self.coeffs.copy()
        u[0] = 0.0
        u = self._like(u)
        out = taylor[self.order]
        for m in range(self.order - 1, -1, -1):
            out = u * out + taylor[m]
        return out if isinstance(out, Jet) else self._like([out])

    def reciprocal(self) -> "Jet":
        c = self.coeffs[0]
        if c == 0:
            raise ZeroDivisionError("jet with zero constant term")
        r = 1.0 / c
        return self.series([(-r) ** m * r for m in range(self.order + 1)])

    def __pow__(self, a: float) -> "Jet":
        """The binomial series of ``self ** a`` about a positive constant term."""
        c = self.coeffs[0]
        taylor = [c**a]  # binom(a, m) * c**(a - m)
        for m in range(1, self.order + 1):
            taylor.append(taylor[-1] * (a - (m - 1)) / (m * c))
        return self.series(taylor)

    def __float__(self) -> float:
        """The constant term: the value at the expansion point."""
        return self.coeffs[0]


def _dense_product(basis: _Basis, order: int, a: list, b: list) -> list:
    """The coefficients of a product to ``order``: for each monomial, the
    sum over its factor pairs."""
    ga, gb = a.__getitem__, b.__getitem__
    return [sum(map(mul, map(ga, i), map(gb, j))) for i, j in basis.pairs[: basis.size[order]]]


def _sparse_product(basis: _Basis, order: int, a: list, b: list, b_sparse: bool) -> list:
    """The product of ``_dense_product``, summed over the nonzero
    coefficients of one factor only: each times the other factor shifted
    by its monomial.  The terms are added in the order the dense sum adds
    them, a's monomials in ascending lexicographic order (so b's in
    descending order), so where ``sum`` adds floats one by one (up to
    Python 3.11) the result is the same to the bit."""
    size = basis.size[order]
    sparse, dense = (b, a) if b_sparse else (a, b)
    nonzero = sorted(
        itertools.compress(range(size), sparse), key=basis.mons.__getitem__, reverse=b_sparse
    )
    padded = dense + [0.0]  # index -1 reads 0.0
    out = [0.0] * size
    for i in nonzero:
        shifted = map(padded.__getitem__, basis.shift(i))
        out = list(map(add, out, map(mul, itertools.repeat(sparse[i]), shifted)))
    return out


def mat_inv(m):
    """Gauss-Jordan inverse over floats or jets (pivot on the constant term).
    A pivot counts as zero when it is at most 1e-12 times the largest
    magnitude in its column of ``m``, so the test does not depend on scale."""
    n = len(m)
    a = [list(row) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    scale = [max(abs(float(row[col])) for row in m) for col in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(float(a[r][col])))
        if abs(float(a[pivot][col])) <= 1e-12 * scale[col]:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                if isinstance(f, (int, float)) and f == 0:
                    continue
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# -- numeric geometry ---------------------------------------------------------


def _map(fn, *trees):
    """``fn`` applied leafwise to nested lists of equal shape."""
    if isinstance(trees[0], list):
        return [_map(fn, *sub) for sub in zip(*trees)]
    return fn(*trees)


def _values(tree):
    """The order-0 parts of a nested list of jets, as floats."""
    return _map(float, tree)


def _order_1(tree):
    """A nested list of jets truncated to order 1: a factor of a leaf table,
    whose products are read only at the point and by one derivative."""
    return _map(lambda e: e.truncate(1), tree)


def _christoffel(ginv, dg, n):
    """(1/2) g^{ir} (d_j g_kr + d_k g_jr - d_r g_jk) from the derivative
    tables ``dg[j] = d_j g``."""
    return [
        [
            [
                sum(ginv[i][r] * (dg[j][k][r] + dg[k][j][r] - dg[r][j][k]) for r in range(n))
                * 0.5
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


class _PointJets:
    """The objects at one point: a jet table per plain object id, named by
    the id and built on first use, and ``table``, the order-0 component
    tree of any object id.  ``table``, ``derivative``, ``delta``, ``slope``
    and ``delta_values`` are ``_memo`` methods, built once per point and
    arguments."""

    def __init__(self, numgeom: "NumericGeometry", coords):
        n = self.n = numgeom.n
        self.y = Jet.variables(coords, JET_ORDER)[n:]
        self.f2 = numgeom.f2(coords)
        self._cache: dict = {}

    @_memo
    def table(self, object_id: str):
        """The order-0 component tree (nested lists of floats) of a registry
        object id, kept per id and shared by every caller."""
        op, *rest = registry.parse(object_id)
        if op == "classify":
            raise ValueError("classify is not a tensor")
        if op == "base":
            return _values(getattr(self, object_id))
        if op == "curvature":
            return self._curvature(*rest)
        entry, kind = rest
        return self._cov_derivative(object_id.split(":")[1], entry.sig, kind, op == "hcov")

    @_memo
    def derivative(self, object_id: str, v: int):
        """d/dx_v (v < n) or d/dy_{v-n} of an object's jet table."""
        return _map(lambda e: e.diff(v), getattr(self, object_id))

    @_memo
    def delta(self, object_id: str, k: int):
        """delta_k = d/dx_k - N^r_k d/dy_r of an object's jet table, to
        order 1: its callers, Gamma and Rtorsion, are leaf tables."""
        out = _order_1(self.derivative(object_id, k))
        for r in range(self.n):
            nrk, dy = self.N[r][k], _order_1(self.derivative(object_id, self.n + r))
            out = _map(lambda a, b: a - nrk * b, out, dy)
        return out

    @_memo
    def slope(self, object_id: str, v: int):
        """The values of d/dx_v (v < n) or d/dy_{v-n} of an object's jet
        table: the coefficients of the degree-1 monomial x_v."""
        return _map(lambda e: e.coeffs[1 + v], getattr(self, object_id))

    @_memo
    def delta_values(self, object_id: str, k: int):
        """The values of ``delta(object_id, k)``, from slopes and N's values,
        subtracted in the order ``delta`` subtracts."""
        out = self.slope(object_id, k)
        n_values = self.table("N")
        for r in range(self.n):
            nrk = n_values[r][k]
            out = _map(lambda a, b: a - nrk * b, out, self.slope(object_id, self.n + r))
        return out

    # jet tables, one per plain object id -----------------------------------------

    @cached_property
    def g(self):
        n = self.n
        dy = [self.f2.diff(n + i) for i in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = dy[i].diff(n + j) * 0.5
        return out

    @cached_property
    def ginv(self):
        return mat_inv(self.g)

    @cached_property
    def finsler(self):
        return real_root(self.f2.truncate(1), 2)  # only the leaf tables l and lup read F

    @cached_property
    def l(self):
        g, y = self.g, self.y
        return [
            sum(g[i][j].truncate(1) * y[j] for j in range(self.n)) / self.finsler
            for i in range(self.n)
        ]

    @cached_property
    def lup(self):
        return [yi / self.finsler for yi in self.y]

    @cached_property
    def h(self):
        g, l = self.g, self.l
        return [[g[i][j] - l[i] * l[j] for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def C(self):
        n = self.n
        gk = [self.derivative("g", n + k) for k in range(n)]
        return [[[gk[k][i][j] * 0.5 for k in range(n)] for j in range(n)] for i in range(n)]

    @cached_property
    def Cmixed(self):
        n, ginv, cd = self.n, self.ginv, _order_1(self.C)
        return [
            [[sum(ginv[i][r] * cd[r][j][k] for r in range(n)) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]

    @cached_property
    def gamma(self):
        dg = [_order_1(self.derivative("g", j)) for j in range(self.n)]
        return _christoffel(self.ginv, dg, self.n)

    @cached_property
    def Gspray(self):
        """G^i = (1/4) g^{ir} (y^j d_j dot-d_r F2 - d_r F2)."""
        n, y = self.n, self.y
        rhs = []
        for r in range(n):
            dyr = self.f2.diff(n + r)
            rhs.append(sum(dyr.diff(j) * y[j] for j in range(n)) - self.f2.diff(r))
        ginv = self.ginv
        return [sum(ginv[i][r] * rhs[r] for r in range(n)) * 0.25 for i in range(n)]

    @cached_property
    def N(self):
        n = self.n
        return [[self.Gspray[i].diff(n + j) for j in range(n)] for i in range(n)]

    @cached_property
    def Gberwald(self):
        n = self.n
        return [[[self.N[i][j].diff(n + k) for k in range(n)] for j in range(n)] for i in range(n)]

    @cached_property
    def Gamma(self):
        return _christoffel(self.ginv, [self.delta("g", j) for j in range(self.n)], self.n)

    @cached_property
    def Rtorsion(self):
        n = self.n
        dn = [self.delta("N", k) for k in range(n)]
        return [[[dn[k][i][j] - dn[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]

    @cached_property
    def Ptorsion(self):
        return _map(sub, self.Gberwald, self.Gamma)

    # covariant derivatives and curvatures, from values and slopes ----------------

    def _cov_derivative(self, object_id: str, sig: str, kind: ConnectionKind, horizontal: bool):
        """Covariant derivative of a plain object whose slots have the
        variances ``sig``; the new (derivative) slot comes last."""
        n = self.n
        if horizontal:
            coeffs = self.table(_f_id(kind))
            deriv = [self.delta_values(object_id, k) for k in range(n)]
        else:
            coeffs = self.table("Cmixed") if kind.has_c else None
            deriv = [self.slope(object_id, n + k) for k in range(n)]
        base = self.table(object_id) if coeffs is not None else None

        def component(idx):
            idx, k = idx[:-1], idx[-1]
            val = _entry(deriv[k], idx)
            if coeffs is not None:
                for slot, variance in enumerate(sig):
                    for r in range(n):
                        comp = _entry(base, idx[:slot] + (r,) + idx[slot + 1 :])
                        if variance == "u":
                            val = val + comp * coeffs[idx[slot]][r][k]
                        else:
                            val = val - comp * coeffs[r][idx[slot]][k]
            return val

        return _tree(n, len(sig) + 1, component)

    def _curvature(self, kind: ConnectionKind, which: str):
        """The h-, hv- or v-curvature of a connection (F, N, C); the C-terms
        are left out when C is zero."""
        n = self.n
        f_id = _f_id(kind)
        cm = self.table("Cmixed") if kind.has_c else None
        if which == "h":
            f = self.table(f_id)
            df = [self.delta_values(f_id, k) for k in range(n)]
            rt = self.table("Rtorsion") if cm is not None else None

            def component(idx):
                i, h, j, k = idx
                val = df[k][i][h][j] - df[j][i][h][k]
                for m in range(n):
                    val = val + f[m][h][j] * f[i][m][k] - f[m][h][k] * f[i][m][j]
                if cm is not None:
                    for m in range(n):
                        val = val + cm[i][h][m] * rt[m][j][k]
                return val

        elif which == "hv":
            dfy = [self.slope(f_id, n + k) for k in range(n)]
            if cm is not None:
                hc = self.table(f"hcov:Cmixed:{kind.value}")
                # the P-torsion of F = G is zero by definition
                ptor = self.table("Ptorsion") if kind.uses_gamma else None

            def component(idx):
                i, h, j, k = idx
                val = dfy[k][i][h][j]
                if cm is not None:
                    val = val - hc[i][h][k][j]
                    if ptor is not None:
                        for m in range(n):
                            val = val + cm[i][h][m] * ptor[m][j][k]
                return val

        else:  # the v-curvature, of connections with C only

            def component(idx):
                i, h, j, k = idx
                val = 0.0
                for m in range(n):
                    val = val + cm[m][h][k] * cm[i][m][j] - cm[m][h][j] * cm[i][m][k]
                return val

        return _tree(n, 4, component)


def _f_id(kind: ConnectionKind) -> str:
    """The object id of a connection's horizontal coefficients F."""
    return "Gamma" if kind.uses_gamma else "Gberwald"


def _tree(n: int, rank: int, fn, idx: tuple = ()):
    """Nested lists of ``fn(idx)`` over every index tuple of length ``rank``."""
    if len(idx) == rank:
        return fn(idx)
    return [_tree(n, rank, fn, idx + (i,)) for i in range(n)]


def _entry(tree, idx):
    for i in idx:
        tree = tree[i]
    return tree


class NumericGeometry:
    """Evaluates the whole definitional chain from F**2 jets.

    Coordinates are passed as one flat list of floats (base then fiber
    values).  The jet tables of each point are kept, keyed by its
    coordinate values, so objects at the same point share them and F**2 is
    evaluated once per point.
    """

    def __init__(self, structure: FinslerStructure):
        self.structure = structure
        self.ctx = structure.ctx
        self.n = structure.dim
        self._points: dict[tuple, _PointJets] = {}

    def _at(self, coords) -> _PointJets:
        key = tuple(coords)
        got = self._points.get(key)
        if got is None:
            got = self._points[key] = _PointJets(self, key)
        return got

    def eval_expr(self, expr, coords):
        """``expr`` at coordinate values (floats or jets), radicals included."""
        return self.ctx.values_at(coords).quotient(expr)

    def f2(self, coords) -> Jet:
        """The order-``JET_ORDER`` jet of F**2 at a point."""
        return self.eval_expr(self.structure.f_squared, Jet.variables(coords, JET_ORDER))

    def object_table(self, object_id: str, coords):
        """The component tree (nested lists of floats) of a registry object
        id at a point."""
        return self._at(coords).table(object_id)


def numeric_object(geom: Geometry, object_id: str, point: NumericPoint):
    """Registry object computed from F**2 jets only, at one point."""
    if not geom.structure.point_ok(point):
        raise DomainError(f"point violates the structure's domain constraints: {point}")
    return _point_table(NumericGeometry(geom.structure), point, object_id)


def _point_table(numgeom: NumericGeometry, point: NumericPoint, object_id: str):
    """The component tree of ``object_id`` at a sample point: the one way
    into a point's jets.  g is inverted first.  A point where F is not
    defined raises a DomainError and one where g is numerically singular a
    SingularMetricAt, each naming the point."""
    coords = [float(v) for v in point.x] + [float(v) for v in point.y]
    try:
        try:
            numgeom._at(coords).ginv
        except ZeroDivisionError:
            raise SingularMetricAt(point) from None
        return numgeom.object_table(object_id, coords)
    except DomainError as exc:
        raise DomainError(f"F is not defined at the sample point {point}: {exc}") from None


# -- sampling and verification ---------------------------------------------------


def sample_points(
    structure: FinslerStructure,
    n_points: int,
    seed: int,
    box: tuple[float, float] = (1.0, 2.0),
) -> list[NumericPoint]:
    """The first ``n_points`` points of ``expr.draw_points`` for the
    structure's constraints; deterministic for a given seed."""
    draws = draw_points(structure.dim, structure.constraints, seed, box)
    return list(itertools.islice(draws, n_points))


class ComponentCheck(NamedTuple):
    index: tuple[int, ...]
    max_abs_deviation: float
    max_rel_deviation: float
    passed: bool
    worst_point: NumericPoint | None = None  # where max_rel_deviation occurs


class VerificationReport:
    """Symbolic-vs-numeric comparison of one object across sample points."""

    def __init__(self, object_id: str, seed: int, tolerance: float, points: list[NumericPoint],
                 components: dict[tuple[int, ...], ComponentCheck] | None = None,
                 classification: Classification | None = None):
        self.object_id = object_id
        self.seed = seed
        self.tolerance = tolerance
        self.points = points
        self.components = {} if components is None else components
        self.classification = classification  # set for ``classify`` only

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components.values())

    @property
    def max_rel_deviation(self) -> float:
        return max((c.max_rel_deviation for c in self.components.values()), default=0.0)

    @property
    def worst_component(self) -> tuple[int, ...] | None:
        """The index with the largest relative deviation (the first one on a tie)."""
        worst = max(self.components.values(), key=lambda c: c.max_rel_deviation, default=None)
        return None if worst is None else worst.index

    @property
    def worst_point(self) -> NumericPoint | None:
        """The sample point where the worst component deviates most."""
        idx = self.worst_component
        return None if idx is None else self.components[idx].worst_point

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        cls = self.classification
        if cls is None:
            detail = f"max rel dev {self.max_rel_deviation:.3e}, tol {self.tolerance:g}"
        else:
            detail = (f"{'' if cls.riemannian else 'not '}riemannian, "
                      f"{'' if cls.berwaldian else 'not '}berwaldian")
        return (
            f"{self.object_id}: {verdict} over {len(self.points)} points "
            f"({detail}, seed {self.seed})"
        )

    def failing_components(self) -> list[tuple[int, ...]]:
        return sorted(idx for idx, c in self.components.items() if not c.passed)


def verify(
    geom: Geometry,
    object_id: str,
    n_points: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
    box: tuple[float, float] = (1.0, 2.0),
) -> VerificationReport:
    """Compare every component of the symbolic object against the jet
    oracle at seeded sample points; deviation is measured relative to
    max(1, |numeric value|)."""
    return verify_many(geom, [object_id], n_points, tol, seed, box)[object_id]


def verify_many(
    geom: Geometry,
    object_ids,
    n_points: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
    box: tuple[float, float] = (1.0, 2.0),
) -> dict[str, VerificationReport]:
    """Verify several objects over one shared set of sample points; the
    oracle's intermediate jets are shared between objects."""
    if n_points < 1:
        raise ValueError("need at least one sample point")
    check_tol_and_box(tol, box)
    points = sample_points(geom.structure, n_points, seed, box)
    numgeom = NumericGeometry(geom.structure)
    exact_values = [geom.ctx.point_values(p) for p in points]
    out: dict[str, VerificationReport] = {}
    for object_id in object_ids:
        report = VerificationReport(object_id, seed, tol, points)
        if object_id == "classify":
            out[object_id] = _verify_classification(geom, report, numgeom)
            continue
        tensor = registry.resolve(geom, object_id)
        tables = [_point_table(numgeom, p, object_id) for p in points]
        for idx, expr in tensor.components():
            zero = expr.is_zero_expr()  # canonically zero: no evaluation
            max_abs = 0.0
            max_rel = 0.0
            worst = None
            ok = True
            for p, table, exact in zip(points, tables, exact_values):
                ref = table
                for i in idx:
                    ref = ref[i - 1]
                sym = 0.0 if zero else expr.eval_at(exact)
                dev = abs(sym - ref)
                rel = dev / max(1.0, abs(ref))
                max_abs = max(max_abs, dev)
                if worst is None or rel > max_rel:
                    worst, max_rel = p, rel
                if rel > tol:
                    ok = False
            report.components[idx] = ComponentCheck(idx, max_abs, max_rel, ok, worst)
        out[object_id] = report
    return out


def _verify_classification(
    geom: Geometry, report: VerificationReport, numgeom: NumericGeometry
) -> VerificationReport:
    """Check the classification flags against numeric magnitudes at the
    report's points: the Cartan tensor for Riemannian, fiber derivatives
    of the Berwald coefficients for Berwaldian (their vertical derivative
    in the Berwald connection, whose C is zero).  Components (1,) and (2,)
    hold the two flag checks."""
    cls = report.classification = geom.classify()
    max_c, max_dg = [], []
    for p in report.points:
        max_c.append(max(map(abs, _flat(_point_table(numgeom, p, "C")))))
        dg = _point_table(numgeom, p, "vcov:Gberwald:berwald")
        max_dg.append(max(map(abs, _flat(dg))))
    tol = report.tolerance
    report.components[(1,)] = _flag_check((1,), max_c, cls.riemannian, tol, report.points)
    report.components[(2,)] = _flag_check((2,), max_dg, cls.berwaldian, tol, report.points)
    return report


def _flat(tree) -> list[float]:
    return [v for sub in tree for v in _flat(sub)] if isinstance(tree, list) else [tree]


def _flag_check(
    idx: tuple[int, ...], magnitudes: list[float], vanishes: bool, tol: float, points
) -> ComponentCheck:
    """A flag asserts that a magnitude vanishes, or that it does not.  It
    deviates by the largest magnitude over the points in the first case;
    in the second by nothing when that magnitude exceeds ``tol``, and
    without bound when it does not.  The worst point is the one whose
    magnitude the check reads."""
    worst = max(range(len(points)), key=magnitudes.__getitem__)
    magnitude = magnitudes[worst]
    if vanishes:
        dev = magnitude
    else:
        dev = 0.0 if magnitude > tol else math.inf
    return ComponentCheck(idx, dev, dev, (magnitude <= tol) == vanishes, points[worst])
