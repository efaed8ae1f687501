"""Numeric cross-check of the symbolic pipeline.

Every geometric object is recomputed at sample points from one truncated
multivariate Taylor jet of F**2 per point, over the 2n coordinates
(x, y) and of order ``JET_ORDER`` (Griewank & Walther, *Evaluating
Derivatives*, ch. 13).  Derivatives are exact up to rounding; nothing is
approximated by finite differences.  The same definitional chain is followed
on jets: metric from fiber derivatives, inverse by Gaussian elimination,
Christoffel symbols, spray, nonlinear connection, horizontal derivatives,
connection coefficients and torsions.  Each derivative lowers a jet's
order by one, and the order-0 parts give covariant derivatives and
curvatures.  No symbolic derivative or simplification is involved.

F**2 is evaluated on jets by the evaluator of ``expr`` (``Context.values_at``,
``Poly.eval``, ``real_root``), for which ``Jet`` has ``__float__`` and ``__pow__``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import add, mul, sub

from .expr import DomainError, NumericPoint, SamplingExhausted, draw_points, real_root
from .geometry import Classification, ConnectionKind, FinslerStructure, Geometry
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
        mons = []
        for d in range(order + 1):
            for combo in itertools.combinations_with_replacement(range(nvars), d):
                mons.append(tuple(combo.count(v) for v in range(nvars)))
        index = {m: i for i, m in enumerate(mons)}
        self.size = [math.comb(nvars + d, d) for d in range(order + 1)]
        # pairs[k]: the indices (I, J) of every factor pair of monomial k
        self.pairs = []
        for k in mons:
            factors = list(itertools.product(*(range(e + 1) for e in k)))
            self.pairs.append((
                [index[i] for i in factors],
                [index[tuple(a - b for a, b in zip(k, i))] for i in factors],
            ))
        # deriv[v]: for each monomial m of degree < order, the index of
        # m * x_v and the exponent of x_v in it
        lower = mons[: self.size[order - 1]] if order else []
        self.deriv = []
        for v in range(nvars):
            up = [m[:v] + (m[v] + 1,) + m[v + 1 :] for m in lower]
            self.deriv.append(([index[m] for m in up], [float(m[v]) for m in up]))


@cache
def _basis(nvars: int, order: int) -> _Basis:
    return _Basis(nvars, order)


class Jet:
    """Truncated Taylor polynomial: ``coeffs[m]`` is the coefficient of the
    m-th monomial of ``basis`` (the derivative divided by the factorials of
    its exponents), for every monomial of total degree <= ``order``.

    Floats, ints and Fractions act as constants on either side of ``+``,
    ``-``, ``*`` and ``/``, so ``Poly.eval`` runs unchanged on jets.  The
    product of two jets is truncated to the smaller order; ``diff`` lowers
    the order by one."""

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
        ga, gb = self.coeffs.__getitem__, other.coeffs.__getitem__
        pairs = self.basis.pairs[: self.basis.size[order]]
        coeffs = [sum(map(mul, map(ga, i), map(gb, j))) for i, j in pairs]
        return Jet(coeffs, order, self.basis)

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


def mat_inv(m):
    """Gauss-Jordan inverse over floats or jets (pivot on the constant term)."""
    n = len(m)
    a = [list(row) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(float(a[r][col])))
        if abs(float(a[pivot][col])) < 1e-12:
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
    """Jet tables of the objects at one point, each built on first use.
    The attribute names are those of ``NumericGeometry``'s methods."""

    def __init__(self, numgeom: "NumericGeometry", coords):
        n = self.n = numgeom.n
        self.y = Jet.variables(coords, JET_ORDER)[n:]
        self.f2 = numgeom.f2(coords)
        self._derived: dict = {}

    def derivative(self, name: str, v: int):
        """d/dx_v (v < n) or d/dy_{v-n} of an object's table."""
        key = (name, v)
        if key not in self._derived:
            self._derived[key] = _map(lambda e: e.diff(v), getattr(self, name))
        return self._derived[key]

    def delta(self, name: str, k: int):
        """delta_k = d/dx_k - N^r_k d/dy_r of an object's table."""
        key = (name, "delta", k)
        if key not in self._derived:
            out = self.derivative(name, k)
            for r in range(self.n):
                nrk = self.n_mat[r][k]
                out = _map(lambda a, b: a - nrk * b, out, self.derivative(name, self.n + r))
            self._derived[key] = out
        return self._derived[key]

    @cached_property
    def g_mat(self):
        n = self.n
        dy = [self.f2.diff(n + i) for i in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = dy[i].diff(n + j) * 0.5
        return out

    @cached_property
    def ginv_mat(self):
        return mat_inv(self.g_mat)

    @cached_property
    def finsler(self):
        return real_root(self.f2.truncate(JET_ORDER - 2), 2)  # l, lup and h need no more than g

    @cached_property
    def l_down(self):
        g, y = self.g_mat, self.y
        return [sum(g[i][j] * y[j] for j in range(self.n)) / self.finsler for i in range(self.n)]

    @cached_property
    def l_up(self):
        return [yi / self.finsler for yi in self.y]

    @cached_property
    def h_mat(self):
        g, l = self.g_mat, self.l_down
        return [[g[i][j] - l[i] * l[j] for j in range(self.n)] for i in range(self.n)]

    @cached_property
    def cartan_down(self):
        n = self.n
        gk = [self.derivative("g_mat", n + k) for k in range(n)]
        return [[[gk[k][i][j] * 0.5 for k in range(n)] for j in range(n)] for i in range(n)]

    @cached_property
    def cartan_mixed(self):
        n, ginv, cd = self.n, self.ginv_mat, self.cartan_down
        return [
            [[sum(ginv[i][r] * cd[r][j][k] for r in range(n)) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]

    @cached_property
    def gamma(self):
        return _christoffel(self.ginv_mat, [self.derivative("g_mat", j) for j in range(self.n)], self.n)

    @cached_property
    def spray(self):
        """G^i = (1/4) g^{ir} (y^j d_j dot-d_r F2 - d_r F2)."""
        n, y = self.n, self.y
        rhs = []
        for r in range(n):
            dyr = self.f2.diff(n + r)
            rhs.append(sum(dyr.diff(j) * y[j] for j in range(n)) - self.f2.diff(r))
        ginv = self.ginv_mat
        return [sum(ginv[i][r] * rhs[r] for r in range(n)) * 0.25 for i in range(n)]

    @cached_property
    def n_mat(self):
        n = self.n
        return [[self.spray[i].diff(n + j) for j in range(n)] for i in range(n)]

    @cached_property
    def berwald(self):
        n = self.n
        return [[[self.n_mat[i][j].diff(n + k) for k in range(n)] for j in range(n)] for i in range(n)]

    @cached_property
    def big_gamma(self):
        return _christoffel(self.ginv_mat, [self.delta("g_mat", j) for j in range(self.n)], self.n)

    @cached_property
    def r_torsion(self):
        n = self.n
        dn = [self.delta("n_mat", k) for k in range(n)]
        return [[[dn[k][i][j] - dn[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]

    @cached_property
    def p_torsion(self):
        return _map(sub, self.berwald, self.big_gamma)


class NumericGeometry:
    """Evaluates the whole definitional chain from F**2 jets.

    Coordinates are passed as one flat list of floats (base then fiber
    values); the methods return nested lists of floats.  The jet tables of
    each point are kept, keyed by its coordinate values, so objects at the
    same point share them and F**2 is evaluated once per point.
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

    # F**2 and expression evaluation -------------------------------------

    def eval_expr(self, expr, coords):
        """``expr`` at coordinate values (floats or jets), radicals included."""
        values = self.ctx.values_at(coords)
        return expr.num.eval(values) * (1.0 / expr.den.eval(values))

    def f2(self, coords) -> Jet:
        """The order-``JET_ORDER`` jet of F**2 at a point."""
        return self.eval_expr(self.structure.f_squared, Jet.variables(coords, JET_ORDER))

    # connections ---------------------------------------------------------------

    def cov_derivative(self, fn, sig: str, kind: ConnectionKind, coords, horizontal: bool):
        """Covariant derivative of one of this class's tables (``fn`` is the
        bound method): the result has one extra (last) index; sig gives the
        variances of fn's slots."""
        n = self.n
        pt = self._at(coords)
        name = fn.__name__
        if horizontal:
            coeffs = _values(getattr(pt, _f_table(kind)))
            deriv = [_values(pt.delta(name, k)) for k in range(n)]
        else:
            coeffs = self.cartan_mixed(coords) if kind.has_c else None
            deriv = [_values(pt.derivative(name, n + k)) for k in range(n)]

        def entry(tree, idx):
            for i in idx:
                tree = tree[i]
            return tree

        result = _empty(n, len(sig) + 1)
        base_tree = fn(coords) if coeffs is not None else None
        for idx in _indices(n, len(sig)):
            for k in range(n):
                val = entry(deriv[k], idx)
                if coeffs is not None:
                    for slot, variance in enumerate(sig):
                        for r in range(n):
                            repl = idx[:slot] + (r,) + idx[slot + 1 :]
                            comp = entry(base_tree, repl)
                            if variance == "u":
                                val = val + comp * coeffs[idx[slot]][r][k]
                            else:
                                val = val - comp * coeffs[r][idx[slot]][k]
                _set(result, idx + (k,), val)
        return result

    # curvatures -----------------------------------------------------------------

    def curvature(self, kind: ConnectionKind, which: str, coords):
        n = self.n
        pt = self._at(coords)
        f_name = _f_table(kind)
        out = _empty(n, 4)
        cm = self.cartan_mixed(coords) if kind.has_c else None
        if which == "h":
            f = _values(getattr(pt, f_name))
            df = [_values(pt.delta(f_name, k)) for k in range(n)]
            rt = self.r_torsion(coords) if cm is not None else None
            for i, h, j, k in _indices(n, 4):
                val = df[k][i][h][j] - df[j][i][h][k]
                for m in range(n):
                    val = val + f[m][h][j] * f[i][m][k] - f[m][h][k] * f[i][m][j]
                if cm is not None:
                    for m in range(n):
                        val = val + cm[i][h][m] * rt[m][j][k]
                out[i][h][j][k] = val
        elif which == "hv":
            dfy = [_values(pt.derivative(f_name, n + k)) for k in range(n)]
            if cm is not None:
                hc = self.cov_derivative(self.cartan_mixed, "udd", kind, coords, horizontal=True)
                ptor = self.p_torsion(coords) if kind.uses_gamma else None
            for i, h, j, k in _indices(n, 4):
                val = dfy[k][i][h][j]
                if cm is not None:
                    val = val - hc[i][h][k][j]
                    if ptor is not None:
                        for m in range(n):
                            val = val + cm[i][h][m] * ptor[m][j][k]
                out[i][h][j][k] = val
        else:  # v-curvature
            for i, h, j, k in _indices(n, 4):
                val = 0.0
                if cm is not None:
                    for m in range(n):
                        val = val + cm[m][h][k] * cm[i][m][j] - cm[m][h][j] * cm[i][m][k]
                out[i][h][j][k] = val
        return out

    # registry objects ------------------------------------------------------------

    def object_table(self, object_id: str, coords):
        """Numeric component tree for a registry object id."""
        op, *rest = registry.parse(object_id)
        if op == "classify":
            raise ValueError("classify is not a tensor")
        if op == "base":
            return getattr(self, rest[0].numeric)(coords)
        if op == "curvature":
            kind, which = rest
            return self.curvature(kind, which, coords)
        entry, kind = rest
        return self.cov_derivative(
            getattr(self, entry.numeric), entry.sig, kind, coords, horizontal=op == "hcov"
        )


def _order0(name: str):
    def method(self, coords):
        return _values(getattr(self._at(coords), name))

    method.__name__ = name
    method.__qualname__ = f"NumericGeometry.{name}"
    method.__doc__ = f"Order-0 values of the ``{name}`` jet table at a point."
    return method


# every registry table is also a method returning its order-0 values
for _entry in registry._BASE.values():
    setattr(NumericGeometry, _entry.numeric, _order0(_entry.numeric))


def _f_table(kind: ConnectionKind) -> str:
    """The jet table of a connection's horizontal coefficients F."""
    return "big_gamma" if kind.uses_gamma else "berwald"


def _empty(n, rank):
    if rank == 1:
        return [None] * n
    return [_empty(n, rank - 1) for _ in range(n)]


def _indices(n, rank):
    if rank == 0:
        yield ()
        return
    for rest in _indices(n, rank - 1):
        for i in range(n):
            yield (i,) + rest


def _set(tree, idx, value):
    for i in idx[:-1]:
        tree = tree[i]
    tree[idx[-1]] = value


def numeric_object(geom: Geometry, object_id: str, point: NumericPoint):
    """Registry object computed from F**2 jets only, at one point."""
    if not geom.structure.point_ok(point):
        raise DomainError(f"point violates the structure's domain constraints: {point}")
    num = NumericGeometry(geom.structure)
    coords = [float(v) for v in point.x] + [float(v) for v in point.y]
    try:
        num.ginv_mat(coords)
    except ZeroDivisionError:
        raise SingularMetricAt(point) from None
    return num.object_table(object_id, coords)


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


@dataclass
class ComponentCheck:
    index: tuple[int, ...]
    max_abs_deviation: float
    max_rel_deviation: float
    passed: bool
    worst_point: NumericPoint | None = None  # where max_rel_deviation occurs


@dataclass
class VerificationReport:
    """Symbolic-vs-numeric comparison of one object across sample points."""

    object_id: str
    seed: int
    tolerance: float
    points: list[NumericPoint]
    components: dict[tuple[int, ...], ComponentCheck] = field(default_factory=dict)
    classification: Classification | None = None  # set for ``classify`` only

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
    points = sample_points(geom.structure, n_points, seed, box)
    numgeom = NumericGeometry(geom.structure)
    coord_lists = [[*p.x, *p.y] for p in points]
    out: dict[str, VerificationReport] = {}
    for object_id in object_ids:
        report = VerificationReport(object_id, seed, tol, points)
        if object_id == "classify":
            out[object_id] = _verify_classification(geom, report, numgeom, coord_lists)
            continue
        tensor = registry.resolve(geom, object_id)
        tables = [
            _at_point(p, numgeom.object_table, object_id, coords)
            for p, coords in zip(points, coord_lists)
        ]
        for idx, expr in tensor.components():
            max_abs = 0.0
            max_rel = 0.0
            worst = None
            ok = True
            for p, table in zip(points, tables):
                ref = table
                for i in idx:
                    ref = ref[i - 1]
                sym = expr.eval_at(p)
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
    geom: Geometry, report: VerificationReport, numgeom: NumericGeometry, coord_lists
) -> VerificationReport:
    """Check the classification flags against numeric magnitudes at the
    report's points: the Cartan tensor for Riemannian, fiber derivatives
    of the Berwald coefficients for Berwaldian.  Components (1,) and (2,)
    hold the two flag checks."""
    cls = report.classification = geom.classify()
    n = geom.dim
    max_c, max_dg = [], []
    for p, coords in zip(report.points, coord_lists):
        pt = _at_point(p, numgeom._at, coords)
        max_c.append(max(map(abs, _flat(_values(pt.cartan_down)))))
        dg = [_values(pt.derivative("berwald", n + m)) for m in range(n)]
        max_dg.append(max(map(abs, _flat(dg))))
    tol = report.tolerance
    report.components[(1,)] = _flag_check((1,), max_c, cls.riemannian, tol, report.points)
    report.components[(2,)] = _flag_check((2,), max_dg, cls.berwaldian, tol, report.points)
    return report


def _at_point(point: NumericPoint, fn, *args):
    """``fn(*args)``, with a ``DomainError`` reraised naming the sample point."""
    try:
        return fn(*args)
    except DomainError as exc:
        raise DomainError(f"F is not defined at the sample point {point}: {exc}") from None


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
