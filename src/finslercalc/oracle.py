"""Numeric cross-check of the symbolic pipeline.

Every geometric object is recomputed at sample points from jets of F**2
alone, using nested forward-mode dual numbers (derivatives are exact to
machine precision, no finite-difference truncation).  The same
definitional chain is followed numerically: metric from fiber jets,
inverse by Gaussian elimination, Christoffel symbols, spray, nonlinear
connection, horizontal derivatives, connection coefficients, torsions,
and curvatures; no symbolic derivative or simplification is involved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .expr import DomainError, NumericPoint
from .geometry import Classification, ConnectionKind, FinslerStructure, Geometry
from . import registry


class SamplingExhausted(Exception):
    """Domain constraints rejected too many candidate points."""


class SingularMetricAt(Exception):
    def __init__(self, point: NumericPoint):
        super().__init__(f"metric is numerically singular at {point}")
        self.point = point


# -- nested dual numbers -----------------------------------------------------


class Dual:
    """Forward-mode dual number; val/dot may themselves be Duals."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=0.0):
        self.val = val
        self.dot = dot

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        return Dual(self.val - other, self.dot)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val, self.dot * other.val + self.val * other.dot)
        return Dual(self.val * other, self.dot * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return self * _reciprocal(other)
        return Dual(self.val / other, self.dot / other)

    def __rtruediv__(self, other):
        return other * _reciprocal(self)

    def __pow__(self, n: int):
        if n == 0:
            return Dual(_one_like(self.val), 0.0 * scalar_part(self))
        base = self
        if n < 0:
            base = _reciprocal(self)
            n = -n
        out = base
        for _ in range(n - 1):
            out = out * base
        return out

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"


def _one_like(v):
    return 1.0


def _reciprocal(v):
    if isinstance(v, Dual):
        r = _reciprocal(v.val)
        return Dual(r, -1.0 * v.dot * r * r)
    return 1.0 / v


def scalar_part(v) -> float:
    while isinstance(v, Dual):
        v = v.val
    return v


def dpow(v, alpha: float):
    """v**alpha for real alpha > any nesting depth; assumes v > 0 apart
    from odd roots handled by droot."""
    if isinstance(v, Dual):
        return Dual(dpow(v.val, alpha), alpha * dpow(v.val, alpha - 1.0) * v.dot)
    return v**alpha


def droot(v, q: int):
    """Real q-th root with dual propagation."""
    if scalar_part(v) < 0:
        if q % 2 == 0:
            raise DomainError("negative radicand under an even root")
        return -dpow(-v, 1.0 / q)
    return dpow(v, 1.0 / q)


def mat_inv(m):
    """Gauss-Jordan inverse over floats or duals (pivot on float part)."""
    n = len(m)
    a = [list(row) + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(scalar_part(a[r][col])))
        if abs(scalar_part(a[pivot][col])) < 1e-12:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = _reciprocal(a[col][col]) if isinstance(a[col][col], Dual) else 1.0 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                if isinstance(f, (int, float)) and f == 0:
                    continue
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# -- numeric geometry ---------------------------------------------------------


def _lift(coords, seed_sym: int):
    return [Dual(v, 1.0 if i == seed_sym else 0.0) for i, v in enumerate(coords)]


def _dot_tree(t):
    if isinstance(t, list):
        return [_dot_tree(x) for x in t]
    return t.dot if isinstance(t, Dual) else 0.0


def _combine(a, b, coeff):
    """a - coeff*b elementwise over nested lists."""
    if isinstance(a, list):
        return [_combine(x, y, coeff) for x, y in zip(a, b)]
    return a - coeff * b


class NumericGeometry:
    """Evaluates the whole definitional chain from F**2 jets at a point.

    Coordinates are passed as one flat list (base then fiber values);
    entries may be duals so that any object can itself be differentiated.
    Intermediate tables are memoized per coordinate-list identity (the
    cache holds a strong reference to its key list, so ids stay unique).
    """

    def __init__(self, structure: FinslerStructure):
        self.structure = structure
        self.ctx = structure.ctx
        self.n = structure.dim
        self._memo: dict = {}
        self._atom_deps: dict = {}

    def _cached(self, name, coords, build):
        key = (name, id(coords))
        got = self._memo.get(key)
        if got is not None and got[0] is coords:
            return got[1]
        val = build()
        self._memo[key] = (coords, val)
        return val

    # F**2 and expression evaluation -------------------------------------

    def _atoms_needed(self, expr):
        got = self._atom_deps.get(id(expr))
        if got is not None:
            return got
        ctx = self.ctx
        needed: set[int] = set()
        frontier = [expr.num, expr.den]
        while frontier:
            poly = frontier.pop()
            for s in poly.symbols():
                if ctx.is_atom_sym(s) and s not in needed:
                    needed.add(s)
                    rad = ctx.atom_at(s).radicand
                    frontier.extend([rad.num, rad.den])
        deps = sorted(needed)
        self._atom_deps[id(expr)] = deps
        return deps

    def eval_expr(self, expr, coords):
        ctx = self.ctx
        width = 2 * self.n + len(ctx._atoms)
        values = list(coords) + [None] * (width - 2 * self.n)
        for s in self._atoms_needed(expr):
            atom = ctx.atom_at(s)
            rad_num = atom.radicand.num.eval(values)
            rad_den = atom.radicand.den.eval(values)
            values[s] = droot(rad_num * _reciprocal_any(rad_den), atom.q)
        num = expr.num.eval(values)
        den = expr.den.eval(values)
        return num * _reciprocal_any(den)

    def f2(self, coords):
        return self.eval_expr(self.structure.f_squared, coords)

    # fundamental objects --------------------------------------------------

    def g_mat(self, coords):
        return self._cached("g", coords, lambda: self._g_mat(coords))

    def _g_mat(self, coords):
        n = self.n
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            ci = _lift(coords, n + i)
            for j in range(i, n):
                cij = _lift(ci, n + j)
                val = self.f2(cij).dot.dot * 0.5
                out[i][j] = val
                out[j][i] = val
        return out

    def ginv_mat(self, coords):
        return self._cached("ginv", coords, lambda: mat_inv(self.g_mat(coords)))

    def l_down(self, coords):
        g = self.g_mat(coords)
        f = droot(self.f2(coords), 2)
        y = coords[self.n :]
        return [sum(g[i][j] * y[j] for j in range(self.n)) / f for i in range(self.n)]

    def l_up(self, coords):
        f = droot(self.f2(coords), 2)
        return [yi / f for yi in coords[self.n :]]

    def h_mat(self, coords):
        g = self.g_mat(coords)
        l = self.l_down(coords)
        return [[g[i][j] - l[i] * l[j] for j in range(self.n)] for i in range(self.n)]

    def _fiber_table(self, name, fn, coords, r):
        """dot-d_r of a tree-valued function, memoized."""
        key = (name, "fiber", r)
        return self._cached(key, coords, lambda: _dot_tree(fn(_lift(coords, self.n + r))))

    def _base_table(self, name, fn, coords, k):
        key = (name, "base", k)
        return self._cached(key, coords, lambda: _dot_tree(fn(_lift(coords, k))))

    def cartan_down(self, coords):
        def build():
            n = self.n
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for k in range(n):
                gk = self._fiber_table("g", self.g_mat, coords, k)
                for i in range(n):
                    for j in range(n):
                        out[i][j][k] = gk[i][j] * 0.5
            return out

        return self._cached("C", coords, build)

    def cartan_mixed(self, coords):
        def build():
            n = self.n
            ginv = self.ginv_mat(coords)
            cd = self.cartan_down(coords)
            return [
                [
                    [sum(ginv[i][r] * cd[r][j][k] for r in range(n)) for k in range(n)]
                    for j in range(n)
                ]
                for i in range(n)
            ]

        return self._cached("Cm", coords, build)

    def gamma(self, coords):
        def build():
            n = self.n
            ginv = self.ginv_mat(coords)
            dg = [self._base_table("g", self.g_mat, coords, j) for j in range(n)]
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        acc = 0.0
                        for r in range(n):
                            acc = acc + ginv[i][r] * (dg[j][k][r] + dg[k][j][r] - dg[r][j][k])
                        out[i][j][k] = acc * 0.5
            return out

        return self._cached("gamma", coords, build)

    def spray(self, coords):
        """G^i = (1/4) g^{ir} (y^j d_j dot-d_r F2 - d_r F2)."""

        def build():
            n = self.n
            ginv = self.ginv_mat(coords)
            y = coords[n:]
            rhs = []
            for r in range(n):
                cr = _lift(coords, n + r)
                acc = None
                for j in range(n):
                    term = self.f2(_lift(cr, j)).dot.dot * y[j]
                    acc = term if acc is None else acc + term
                acc = acc - self.f2(_lift(coords, r)).dot
                rhs.append(acc)
            return [
                sum(ginv[i][r] * rhs[r] for r in range(n)) * 0.25 for i in range(n)
            ]

        return self._cached("spray", coords, build)

    def n_mat(self, coords):
        def build():
            n = self.n
            out = [[None] * n for _ in range(n)]
            for j in range(n):
                sj = self._fiber_table("spray", self.spray, coords, j)
                for i in range(n):
                    out[i][j] = sj[i]
            return out

        return self._cached("N", coords, build)

    def berwald(self, coords):
        def build():
            n = self.n
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for k in range(n):
                nk = self._fiber_table("N", self.n_mat, coords, k)
                for i in range(n):
                    for j in range(n):
                        out[i][j][k] = nk[i][j]
            return out

        return self._cached("Gjk", coords, build)

    def delta_of(self, fn, coords, k, name=None):
        """delta_k applied elementwise to a tree-valued function."""
        name = name or getattr(fn, "__name__", repr(fn))

        def build():
            n = self.n
            base = self._base_table(name, fn, coords, k)
            nmat = self.n_mat(coords)
            for r in range(n):
                fiber = self._fiber_table(name, fn, coords, r)
                base = _combine(base, fiber, nmat[r][k])
            return base

        return self._cached((name, "delta", k), coords, build)

    def big_gamma(self, coords):
        def build():
            n = self.n
            ginv = self.ginv_mat(coords)
            dg = [self.delta_of(self.g_mat, coords, j, name="g") for j in range(n)]
            out = [[[None] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        acc = 0.0
                        for r in range(n):
                            acc = acc + ginv[i][r] * (dg[j][k][r] + dg[k][j][r] - dg[r][j][k])
                        out[i][j][k] = acc * 0.5
            return out

        return self._cached("Gamma", coords, build)

    def r_torsion(self, coords):
        def build():
            n = self.n
            dn = [self.delta_of(self.n_mat, coords, k, name="N") for k in range(n)]
            return [
                [[dn[k][i][j] - dn[j][i][k] for k in range(n)] for j in range(n)]
                for i in range(n)
            ]

        return self._cached("Rtor", coords, build)

    def p_torsion(self, coords):
        def build():
            n = self.n
            gjk = self.berwald(coords)
            gam = self.big_gamma(coords)
            return [
                [[gjk[i][j][k] - gam[i][j][k] for k in range(n)] for j in range(n)]
                for i in range(n)
            ]

        return self._cached("Ptor", coords, build)

    # connections ---------------------------------------------------------------

    def f_coeffs(self, kind: ConnectionKind, coords):
        if kind in (ConnectionKind.CARTAN, ConnectionKind.CHERN):
            return self.big_gamma(coords)
        return self.berwald(coords)

    def has_c(self, kind: ConnectionKind) -> bool:
        return kind in (ConnectionKind.CARTAN, ConnectionKind.HASHIGUCHI)

    def cov_derivative(
        self, fn, sig: str, kind: ConnectionKind, coords, horizontal: bool, name=None
    ):
        """Covariant derivative of a tree-valued function: the result has
        one extra (last) index; sig gives the variances of fn's slots."""
        n = self.n
        name = name or getattr(fn, "__name__", repr(fn))
        if horizontal:
            coeffs = self.f_coeffs(kind, coords)
        else:
            coeffs = self.cartan_mixed(coords) if self.has_c(kind) else None

        def entry(tree, idx):
            for i in idx:
                tree = tree[i]
            return tree

        out_rank = len(sig) + 1
        result = _empty(n, out_rank)
        if horizontal:
            deriv = [self.delta_of(fn, coords, k, name=name) for k in range(n)]
        else:
            deriv = [self._fiber_table(name, fn, coords, k) for k in range(n)]
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
        gamma_like = kind in (ConnectionKind.CARTAN, ConnectionKind.CHERN)
        f_fn = self.big_gamma if gamma_like else self.berwald
        f_name = "Gamma" if gamma_like else "Gjk"
        if which == "h":
            f = f_fn(coords)
            df = [self.delta_of(f_fn, coords, k, name=f_name) for k in range(n)]
            if self.has_c(kind):
                cm = self.cartan_mixed(coords)
                rt = self.r_torsion(coords)
            out = _empty(n, 4)
            for i in range(n):
                for h in range(n):
                    for j in range(n):
                        for k in range(n):
                            val = df[k][i][h][j] - df[j][i][h][k]
                            for m in range(n):
                                val = val + f[m][h][j] * f[i][m][k] - f[m][h][k] * f[i][m][j]
                            if self.has_c(kind):
                                for m in range(n):
                                    val = val + cm[i][h][m] * rt[m][j][k]
                            out[i][h][j][k] = val
            return out
        if which == "hv":
            dfy = [self._fiber_table(f_name, f_fn, coords, k) for k in range(n)]
            out = _empty(n, 4)
            if not self.has_c(kind):
                for i in range(n):
                    for h in range(n):
                        for j in range(n):
                            for k in range(n):
                                out[i][h][j][k] = dfy[k][i][h][j]
                return out
            hc = self.cov_derivative(
                self.cartan_mixed, "udd", kind, coords, horizontal=True, name="Cm"
            )
            cm = self.cartan_mixed(coords)
            pt = self.p_torsion(coords) if kind is ConnectionKind.CARTAN else None
            for i in range(n):
                for h in range(n):
                    for j in range(n):
                        for k in range(n):
                            val = dfy[k][i][h][j] - hc[i][h][k][j]
                            if pt is not None:
                                for m in range(n):
                                    val = val + cm[i][h][m] * pt[m][j][k]
                            out[i][h][j][k] = val
            return out
        # v-curvature
        out = _empty(n, 4)
        if not self.has_c(kind):
            for idx in _indices(n, 4):
                _set(out, idx, 0.0)
            return out
        cm = self.cartan_mixed(coords)
        for i in range(n):
            for h in range(n):
                for j in range(n):
                    for k in range(n):
                        val = 0.0
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
            getattr(self, entry.numeric),
            entry.sig,
            kind,
            coords,
            horizontal=op == "hcov",
            name=object_id,
        )


def _reciprocal_any(v):
    return _reciprocal(v) if isinstance(v, Dual) else 1.0 / float(v)


def _empty(n, rank):
    if rank == 0:
        return None
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
    g = num.g_mat(coords)
    try:
        mat_inv(g)
    except ZeroDivisionError:
        raise SingularMetricAt(point) from None
    return num.object_table(object_id, coords)


# -- sampling and verification ---------------------------------------------------


def sample_points(
    structure: FinslerStructure,
    n_points: int,
    seed: int,
    box: tuple[float, float] = (1.0, 2.0),
    retry_cap: int = 100,
) -> list[NumericPoint]:
    """Uniform draws from the box, rejection-sampled against the domain
    constraints; deterministic for a given seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_points):
        for _attempt in range(retry_cap):
            p = NumericPoint(
                x=tuple(rng.uniform(*box) for _ in range(structure.dim)),
                y=tuple(rng.uniform(*box) for _ in range(structure.dim)),
            )
            if structure.point_ok(p):
                out.append(p)
                break
        else:
            raise SamplingExhausted(
                f"could not draw a valid point in {retry_cap} attempts "
                f"(box {box}, {len(structure.constraints)} constraints)"
            )
    return out


@dataclass
class ComponentCheck:
    index: tuple[int, ...]
    max_abs_deviation: float
    max_rel_deviation: float
    passed: bool


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
    coord_lists = [
        [float(v) for v in p.x] + [float(v) for v in p.y] for p in points
    ]
    out: dict[str, VerificationReport] = {}
    for object_id in object_ids:
        report = VerificationReport(object_id, seed, tol, points)
        if object_id == "classify":
            out[object_id] = _verify_classification(geom, report)
            continue
        tensor = registry.resolve(geom, object_id)
        tables = [numgeom.object_table(object_id, coords) for coords in coord_lists]
        for idx, expr in tensor.components():
            max_abs = 0.0
            max_rel = 0.0
            ok = True
            for p, table in zip(points, tables):
                ref = table
                for i in idx:
                    ref = ref[i - 1]
                sym = expr.eval_at(p)
                dev = abs(sym - ref)
                rel = dev / max(1.0, abs(ref))
                max_abs = max(max_abs, dev)
                max_rel = max(max_rel, rel)
                if rel > tol:
                    ok = False
            report.components[idx] = ComponentCheck(idx, max_abs, max_rel, ok)
        out[object_id] = report
    return out


def _verify_classification(geom: Geometry, report: VerificationReport) -> VerificationReport:
    """Check the classification flags against numeric magnitudes: the
    Cartan tensor for Riemannian, fiber jets of the Berwald coefficients
    for Berwaldian.  Components (1,) and (2,) hold the two flag checks."""
    cls = report.classification = geom.classify()
    numgeom = NumericGeometry(geom.structure)
    n = geom.dim
    max_c = 0.0
    max_dg = 0.0
    for p in report.points:
        coords = [float(v) for v in p.x] + [float(v) for v in p.y]
        cd = numgeom.cartan_down(coords)
        for idx in _indices(n, 3):
            v = cd
            for i in idx:
                v = v[i]
            max_c = max(max_c, abs(v))
        for m in range(n):
            dg = _dot_tree(numgeom.berwald(_lift(coords, n + m)))
            for idx in _indices(n, 3):
                v = dg
                for i in idx:
                    v = v[i]
                max_dg = max(max_dg, abs(v))
    tol = report.tolerance
    report.components[(1,)] = _flag_check((1,), max_c, cls.riemannian, tol)
    report.components[(2,)] = _flag_check((2,), max_dg, cls.berwaldian, tol)
    return report


def _flag_check(
    idx: tuple[int, ...], magnitude: float, vanishes: bool, tol: float
) -> ComponentCheck:
    """A flag asserts that a magnitude vanishes, or that it does not.  It
    deviates by the magnitude in the first case; in the second by nothing
    when the magnitude exceeds ``tol``, and without bound when it does not."""
    if vanishes:
        dev = magnitude
    else:
        dev = 0.0 if magnitude > tol else math.inf
    return ComponentCheck(idx, dev, dev, (magnitude <= tol) == vanishes)
