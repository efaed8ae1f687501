"""From a Finsler function to connections, torsions, and curvatures.

Everything is derived from F**2: the metric g_ij = (1/2) d²F²/dy_i dy_j,
its inverse, the supporting element and angular metric, the Cartan
tensor, geodesic spray, nonlinear connection, Berwald and Cartan
connection coefficients, the torsion tensors, and the h-/hv-/v-curvature
tensors of the four fundamental connection triples.  Results are cached;
a cache hit returns the identical tensor a fresh computation would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .expr import Context, DomainError, Expr, Var
from .poly import iter_indices
from .tensor import (
    DOWN,
    UP,
    Tensor,
    antisymmetric,
    define,
    symmetric,
    tensor_add,
    zero_tensor,
    contract_product,
)


class GeometryError(Exception):
    pass


class NotHomogeneous(GeometryError):
    """F**2 failed the Euler degree-2 homogeneity check."""


class DegenerateMetric(GeometryError):
    """det(g) is identically zero."""


@dataclass(frozen=True)
class Constraint:
    """Domain restriction used by numeric sampling, e.g. x3 != 0."""

    expr: Expr
    relation: str  # "!=" | ">" | "<"

    _EPS = 1e-12

    def holds_at(self, point) -> bool:
        try:
            v = self.expr.eval_at(point)
        except DomainError:
            return False
        if self.relation == "!=":
            return abs(v) > self._EPS
        if self.relation == ">":
            return v > self._EPS
        return v < -self._EPS

    @staticmethod
    def parse(text: str, ctx: Context) -> "Constraint":
        for op in ("!=", ">", "<"):
            if op in text:
                lhs, rhs = text.split(op, 1)
                diff = ctx.parse(lhs) - ctx.parse(rhs)
                return Constraint(diff, op)
        raise ValueError(f"constraint needs one of !=, >, < : {text!r}")

    def __str__(self) -> str:
        return f"{self.expr} {self.relation} 0"


class FinslerStructure:
    """Dimension, coordinate names, F**2, and sampling constraints."""

    def __init__(
        self,
        dim: int,
        coord_names: Sequence[str],
        fiber_names: Sequence[str],
        f_squared: "Expr | str",
        constraints: Sequence["Constraint | str"] = (),
    ):
        if dim < 2:
            raise ValueError("Finsler structures need dimension >= 2")
        self.ctx = Context(dim, coord_names, fiber_names)
        self.dim = dim
        if isinstance(f_squared, str):
            f_squared = self.ctx.parse(f_squared)
        if f_squared.ctx is not self.ctx:
            raise ValueError("F**2 must be parsed in this structure's context")
        self.f_squared = f_squared
        self.constraints = tuple(
            c if isinstance(c, Constraint) else Constraint.parse(c, self.ctx)
            for c in constraints
        )

    @classmethod
    def from_f(
        cls,
        dim: int,
        coord_names: Sequence[str],
        fiber_names: Sequence[str],
        f_text: str,
        constraints: Sequence[str] = (),
    ) -> "FinslerStructure":
        """Square a user-supplied F textually; geometry always starts
        from F**2."""
        return cls(dim, coord_names, fiber_names, f"({f_text})^2", constraints)

    def point_ok(self, point) -> bool:
        return all(c.holds_at(point) for c in self.constraints)


class ConnectionKind(enum.Enum):
    CARTAN = "cartan"
    BERWALD = "berwald"
    CHERN = "chern"
    HASHIGUCHI = "hashiguchi"


_HAS_C = {ConnectionKind.CARTAN: True, ConnectionKind.BERWALD: False,
          ConnectionKind.CHERN: False, ConnectionKind.HASHIGUCHI: True}
_USES_GAMMA = {ConnectionKind.CARTAN: True, ConnectionKind.BERWALD: False,
               ConnectionKind.CHERN: True, ConnectionKind.HASHIGUCHI: False}


@dataclass(frozen=True)
class ConnectionTriple:
    """(horizontal coefficients, nonlinear connection, vertical
    coefficients) identifying one fundamental connection."""

    kind: ConnectionKind
    f_coeffs: Tensor
    n_coeffs: Tensor
    c_coeffs: Tensor


@dataclass(frozen=True)
class Classification:
    riemannian: bool
    berwaldian: bool


def build(structure: FinslerStructure) -> "Geometry":
    return Geometry(structure)


class Geometry:
    """Lazily computed geometric objects of one Finsler structure."""

    def __init__(self, structure: FinslerStructure):
        self.structure = structure
        self.ctx = structure.ctx
        self.dim = structure.dim
        self._cache: dict = {}
        self._validate()

    # -- caching -----------------------------------------------------------

    def _get(self, key, builder):
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = builder()
        return got

    # -- validation ---------------------------------------------------------

    def _validate(self):
        ctx = self.ctx
        f2 = self.structure.f_squared
        euler = ctx.zero
        for i in range(1, self.dim + 1):
            euler = euler + ctx.fiber(i) * f2.diff(Var("y", i))
        if euler != f2.scale(2):
            raise NotHomogeneous(
                "F**2 is not positively homogeneous of degree 2 in the fiber variables"
            )
        self.metric()  # raises DegenerateMetric on det(g) == 0

    # -- fundamental tensors ----------------------------------------------

    def metric(self) -> Tensor:
        def build_g():
            f2 = self.structure.f_squared
            half = Fraction(1, 2)

            def gen(idx):
                i, j = idx
                return f2.diff(Var("y", i)).diff(Var("y", j)).scale(half)

            g = define("g", self.ctx, self.dim, (DOWN, DOWN), gen, (symmetric(1, 2),))
            det = _det(self, g)
            if det.is_zero_expr():
                raise DegenerateMetric("det(g) is identically zero")
            self._cache["detg"] = det
            return g

        return self._get("g", build_g)

    def inverse_metric(self) -> Tensor:
        def build_ginv():
            g = self.metric()
            det = self._cache["detg"]
            n = self.dim

            def gen(idx):
                i, j = idx
                return _cofactor(self, g, j, i) / det

            return define("ginv", self.ctx, n, (UP, UP), gen, (symmetric(1, 2),))

        return self._get("ginv", build_ginv)

    def finsler_function(self) -> Expr:
        return self._get("F", lambda: self.ctx.sqrt(self.structure.f_squared))

    def supporting_and_angular(self) -> tuple[Tensor, Tensor, Tensor]:
        """(l_i, l^i, h_ij): normalized supporting element, its raised
        form y/F, and the angular metric g_ij - l_i l_j."""

        def build_all():
            ctx = self.ctx
            F = self.finsler_function()
            g = self.metric()

            def lup_gen(idx):
                return ctx.fiber(idx[0]) / F

            lup = define("l", ctx, self.dim, (UP,), lup_gen)

            def ldown_gen(idx):
                acc = ctx.zero
                for r in range(1, self.dim + 1):
                    acc = acc + g[(idx[0], r)] * ctx.fiber(r)
                return acc / F

            ldown = define("l", ctx, self.dim, (DOWN,), ldown_gen)

            def h_gen(idx):
                i, j = idx
                return g[(i, j)] - ldown[(i,)] * ldown[(j,)]

            h = define("h", ctx, self.dim, (DOWN, DOWN), h_gen, (symmetric(1, 2),))
            return ldown, lup, h

        return self._get("l_h", build_all)

    def cartan_tensor(self) -> tuple[Tensor, Tensor]:
        """(C_ijk, C^i_jk): the Cartan tensor and the (h)hv-torsion."""

        def build_c():
            g = self.metric()
            half = Fraction(1, 2)

            def gen(idx):
                i, j, k = idx
                return g[(i, j)].diff(Var("y", k)).scale(half)

            c_down = define(
                "C", self.ctx, self.dim, (DOWN, DOWN, DOWN), gen, (symmetric(1, 2, 3),)
            )
            ginv = self.inverse_metric()
            c_mixed = contract_product(ginv, c_down, [(2, 1)], name="C")
            c_mixed = Tensor(
                "C", self.ctx, self.dim, c_mixed.sig, dict(c_mixed.components()),
                (symmetric(2, 3),),
            )
            return c_down, c_mixed

        return self._get("cartan", build_c)

    def christoffel_gamma(self) -> Tensor:
        """Christoffel symbols of g with respect to the base derivatives."""
        return self._get(
            "gamma", lambda: self._christoffel("gamma", lambda e, j: e.diff(Var("x", j)))
        )

    def spray(self) -> Tensor:
        def build_spray():
            gamma = self.christoffel_gamma()
            ctx = self.ctx
            half = Fraction(1, 2)

            def gen(idx):
                acc = ctx.zero
                for j in range(1, self.dim + 1):
                    for k in range(1, self.dim + 1):
                        c = gamma[(idx[0], j, k)]
                        if not c.is_zero_expr():
                            acc = acc + c * ctx.fiber(j) * ctx.fiber(k)
                return acc.scale(half)

            return define("G", ctx, self.dim, (UP,), gen)

        return self._get("G", build_spray)

    def nonlinear_connection(self) -> Tensor:
        def build_n():
            G = self.spray()

            def gen(idx):
                i, j = idx
                return G[(i,)].diff(Var("y", j))

            return define("N", self.ctx, self.dim, (UP, DOWN), gen)

        return self._get("N", build_n)

    def berwald_coefficients(self) -> Tensor:
        def build_gjk():
            N = self.nonlinear_connection()

            def gen(idx):
                i, j, k = idx
                return N[(i, j)].diff(Var("y", k))

            return define(
                "G", self.ctx, self.dim, (UP, DOWN, DOWN), gen, (symmetric(2, 3),)
            )

        return self._get("Gjk", build_gjk)

    # -- horizontal calculus --------------------------------------------------

    def horizontal_derivative(self, e: Expr, k: int) -> Expr:
        """delta_k e = d_k e - N^r_k * (dot d)_r e."""
        N = self.nonlinear_connection()
        out = e.diff(Var("x", k))
        for r in range(1, self.dim + 1):
            coeff = N[(r, k)]
            if coeff.is_zero_expr():
                continue
            d = e.diff(Var("y", r))
            if not d.is_zero_expr():
                out = out - coeff * d
        return out

    def cartan_coefficients(self) -> Tensor:
        """Christoffel symbols of g with respect to the horizontal derivatives."""
        return self._get(
            "Gamma", lambda: self._christoffel("Gamma", self.horizontal_derivative)
        )

    def _christoffel(self, name: str, derivative: Callable[[Expr, int], Expr]) -> Tensor:
        """(1/2) g^ir (d_j g_kr + d_k g_jr - d_r g_jk) for the derivative
        ``derivative(e, j)`` along the j-th base direction."""
        g = self.metric()
        ginv = self.inverse_metric()
        n = self.dim
        half = Fraction(1, 2)
        dgs = {
            (j, k, r): derivative(g[(k, r)], j)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
            for r in range(k, n + 1)
        }

        def dg(j, k, r):
            return dgs[(j, k, r)] if r >= k else dgs[(j, r, k)]

        def gen(idx):
            i, j, k = idx
            acc = self.ctx.zero
            for r in range(1, n + 1):
                inner = dg(j, k, r) + dg(k, j, r) - dg(r, j, k)
                if not inner.is_zero_expr():
                    acc = acc + ginv[(i, r)] * inner
            return acc.scale(half)

        return define(name, self.ctx, n, (UP, DOWN, DOWN), gen, (symmetric(2, 3),))

    def torsions(self) -> tuple[Tensor, Tensor]:
        """(R^i_jk, P^i_jk): the (v)h- and (v)hv-torsions of the Cartan
        connection (the (h)hv-torsion is the mixed Cartan tensor)."""

        def build_torsions():
            N = self.nonlinear_connection()
            Gamma = self.cartan_coefficients()

            def r_gen(idx):
                i, j, k = idx
                return self.horizontal_derivative(N[(i, j)], k) - self.horizontal_derivative(
                    N[(i, k)], j
                )

            r_tor = define(
                "R", self.ctx, self.dim, (UP, DOWN, DOWN), r_gen, (antisymmetric(2, 3),)
            )

            def p_gen(idx):
                i, j, k = idx
                return N[(i, j)].diff(Var("y", k)) - Gamma[(i, j, k)]

            p_tor = define("P", self.ctx, self.dim, (UP, DOWN, DOWN), p_gen)
            return r_tor, p_tor

        return self._get("torsions", build_torsions)

    # -- connections ------------------------------------------------------------

    def connection(self, kind: ConnectionKind) -> ConnectionTriple:
        def build_triple():
            n_coeffs = self.nonlinear_connection()
            f_coeffs = self.cartan_coefficients() if _USES_GAMMA[kind] else self.berwald_coefficients()
            if _HAS_C[kind]:
                c_coeffs = self.cartan_tensor()[1]
            else:
                c_coeffs = zero_tensor("C", self.ctx, self.dim, (UP, DOWN, DOWN))
            return ConnectionTriple(kind, f_coeffs, n_coeffs, c_coeffs)

        return self._get(("triple", kind), build_triple)

    # -- covariant derivatives -----------------------------------------------------

    def h_cov_derivative(self, t: Tensor, triple: ConnectionTriple) -> Tensor:
        """Horizontal covariant derivative; the new slot comes last."""
        F = triple.f_coeffs
        return self._cov_derivative(t, F, horizontal=True)

    def v_cov_derivative(self, t: Tensor, triple: ConnectionTriple) -> Tensor:
        """Vertical covariant derivative; the new slot comes last."""
        return self._cov_derivative(t, triple.c_coeffs, horizontal=False)

    def _cov_derivative(self, t: Tensor, coeffs: Tensor, horizontal: bool) -> Tensor:
        n = self.dim
        ctx = self.ctx
        coeffs_zero = coeffs.is_zero_tensor()

        def gen(idx):
            base, k = idx[:-1], idx[-1]
            e = t[base]
            val = self.horizontal_derivative(e, k) if horizontal else e.diff(Var("y", k))
            if coeffs_zero:
                return val
            for slot, variance in enumerate(t.sig):
                for r in range(1, n + 1):
                    repl = base[:slot] + (r,) + base[slot + 1 :]
                    comp = t[repl]
                    if comp.is_zero_expr():
                        continue
                    if variance is UP:
                        c = coeffs[(base[slot], r, k)]
                        if not c.is_zero_expr():
                            val = val + comp * c
                    else:
                        c = coeffs[(r, base[slot], k)]
                        if not c.is_zero_expr():
                            val = val - comp * c
            return val

        sig = t.sig + (DOWN,)
        return define(t.name + ("|" if horizontal else "|v"), ctx, n, sig, gen, t.symmetries)

    # -- curvatures -----------------------------------------------------------------

    def curvature(self, kind: ConnectionKind, which: str) -> Tensor:
        """The h-, hv-, or v-curvature tensor of one fundamental
        connection, with the corrected hv index placement
        P^i_hjk = (dot d)_k F^i_hj - C^i_hk|j + C^i_hm P^m_jk."""
        if which not in ("h", "hv", "v"):
            raise ValueError("which must be one of h, hv, v")
        return self._get(("curv", kind, which), lambda: self._build_curvature(kind, which))

    def _build_curvature(self, kind: ConnectionKind, which: str) -> Tensor:
        ctx = self.ctx
        n = self.dim
        triple = self.connection(kind)
        F = triple.f_coeffs
        if which == "h":
            def r_gen(idx):
                i, h, j, k = idx
                val = self.horizontal_derivative(F[(i, h, j)], k)
                val = val - self.horizontal_derivative(F[(i, h, k)], j)
                for m in range(1, n + 1):
                    a = F[(m, h, j)]
                    b = F[(i, m, k)]
                    if not (a.is_zero_expr() or b.is_zero_expr()):
                        val = val + a * b
                    a = F[(m, h, k)]
                    b = F[(i, m, j)]
                    if not (a.is_zero_expr() or b.is_zero_expr()):
                        val = val - a * b
                return val

            base = define("R", ctx, n, (UP, DOWN, DOWN, DOWN), r_gen, (antisymmetric(3, 4),))
            if not _HAS_C[kind]:
                return base
            c_mixed = triple.c_coeffs
            r_tor = self.torsions()[0]
            cr = contract_product(c_mixed, r_tor, [(3, 1)], name="C.R")
            return tensor_add(base, cr, name="R", symmetries=(antisymmetric(3, 4),))
        if which == "hv":
            def p0_gen(idx):
                i, h, j, k = idx
                return F[(i, h, j)].diff(Var("y", k))

            if not _HAS_C[kind]:
                return define("P", ctx, n, (UP, DOWN, DOWN, DOWN), p0_gen)
            c_mixed = triple.c_coeffs
            hc = self.h_cov_derivative(c_mixed, triple)
            p_tor = self.torsions()[1] if kind is ConnectionKind.CARTAN else None

            def p_gen(idx):
                i, h, j, k = idx
                val = p0_gen(idx) - hc[(i, h, k, j)]
                if p_tor is not None:
                    for m in range(1, n + 1):
                        a = c_mixed[(i, h, m)]
                        b = p_tor[(m, j, k)]
                        if not (a.is_zero_expr() or b.is_zero_expr()):
                            val = val + a * b
                return val

            return define("P", ctx, n, (UP, DOWN, DOWN, DOWN), p_gen)
        # v-curvature
        if not _HAS_C[kind]:
            return zero_tensor("S", ctx, n, (UP, DOWN, DOWN, DOWN))
        c_mixed = triple.c_coeffs

        def s_gen(idx):
            i, h, j, k = idx
            val = ctx.zero
            for m in range(1, n + 1):
                a = c_mixed[(m, h, k)]
                b = c_mixed[(i, m, j)]
                if not (a.is_zero_expr() or b.is_zero_expr()):
                    val = val + a * b
                a = c_mixed[(m, h, j)]
                b = c_mixed[(i, m, k)]
                if not (a.is_zero_expr() or b.is_zero_expr()):
                    val = val - a * b
            return val

        return define("S", ctx, n, (UP, DOWN, DOWN, DOWN), s_gen, (antisymmetric(3, 4),))

    # -- classification ------------------------------------------------------------

    def classify(self) -> Classification:
        def build_classification():
            c_down = self.cartan_tensor()[0]
            riemannian = c_down.is_zero_tensor()
            gjk = self.berwald_coefficients()
            berwaldian = True
            for idx in iter_indices(self.dim, 3):
                e = gjk[idx]
                if e.is_zero_expr():
                    continue
                for m in range(1, self.dim + 1):
                    if not e.diff(Var("y", m)).is_zero_expr():
                        berwaldian = False
                        break
                if not berwaldian:
                    break
            return Classification(riemannian=riemannian, berwaldian=berwaldian)

        return self._get("classify", build_classification)


# -- symbolic determinants ---------------------------------------------------------


def _det(geom: Geometry, g: Tensor) -> Expr:
    n = geom.dim
    rows = tuple(range(1, n + 1))
    return _det_minor(geom, g, rows, rows)


def _cofactor(geom: Geometry, g: Tensor, i: int, j: int) -> Expr:
    n = geom.dim
    rows = tuple(r for r in range(1, n + 1) if r != i)
    cols = tuple(c for c in range(1, n + 1) if c != j)
    minor = _det_minor(geom, g, rows, cols)
    return minor if (i + j) % 2 == 0 else -minor


def _det_minor(geom: Geometry, g: Tensor, rows: tuple, cols: tuple) -> Expr:
    cache = geom._cache.setdefault("minors", {})
    key = (rows, cols)
    got = cache.get(key)
    if got is not None:
        return got
    ctx = geom.ctx
    if not rows:
        result = ctx.one
    else:
        result = ctx.zero
        r = rows[0]
        rest = rows[1:]
        for pos, c in enumerate(cols):
            e = g[(r, c)]
            if e.is_zero_expr():
                continue
            sub = _det_minor(geom, g, rest, cols[:pos] + cols[pos + 1 :])
            term = e * sub
            result = result + term if pos % 2 == 0 else result - term
    cache[key] = result
    return result
