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
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .expr import Context, DomainError, Expr, Var
from .poly import iter_indices
from .tensor import DOWN, UP, Tensor, antisymmetric, define, symmetric, zero_tensor


class GeometryError(Exception):
    pass


class NotHomogeneous(GeometryError):
    """F**2 failed the Euler degree-2 homogeneity check."""


class DegenerateMetric(GeometryError):
    """det(g) is identically zero."""


class Constraint(NamedTuple):
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
        for op in (">=", "<="):
            if op in text:
                raise ValueError(
                    f"constraint {text!r} uses {op}; the accepted relations are !=, > and <"
                )
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
    """The four fundamental connections, each declared by its triple
    (F, N, C): F is Gamma when ``uses_gamma`` and the Berwald G otherwise,
    C is the Cartan tensor when ``has_c`` and zero otherwise."""

    CARTAN = "cartan", True, True
    BERWALD = "berwald", False, False
    CHERN = "chern", True, False
    HASHIGUCHI = "hashiguchi", False, True

    def __new__(cls, value: str, uses_gamma: bool, has_c: bool):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.uses_gamma = uses_gamma
        kind.has_c = has_c
        return kind


class ConnectionTriple(NamedTuple):
    """(horizontal coefficients, nonlinear connection, vertical
    coefficients) identifying one fundamental connection."""

    kind: ConnectionKind
    f_coeffs: Tensor
    n_coeffs: Tensor
    c_coeffs: Tensor


class Classification(NamedTuple):
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
        euler = _dot(ctx, ((ctx.fiber(i), f2.diff(Var("y", i))) for i in range(1, self.dim + 1)))
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
                rs = range(1, self.dim + 1)
                return _dot(ctx, ((g[(idx[0], r)], ctx.fiber(r)) for r in rs)) / F

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

            def mixed_gen(idx):
                i, j, k = idx
                rs = range(1, self.dim + 1)
                return _dot(self.ctx, ((ginv[(i, r)], c_down[(r, j, k)]) for r in rs))

            c_mixed = define(
                "C", self.ctx, self.dim, (UP, DOWN, DOWN), mixed_gen, (symmetric(2, 3),)
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
                return _dot(ctx, (
                    (gamma[(idx[0], j, k)], ctx.fiber(j) * ctx.fiber(k))
                    for j in range(1, self.dim + 1)
                    for k in range(1, self.dim + 1)
                )).scale(half)

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
        return e.diff(Var("x", k)) - _dot(
            self.ctx, ((N[(r, k)], e.diff(Var("y", r))) for r in range(1, self.dim + 1))
        )

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
            return _dot(self.ctx, (
                (ginv[(i, r)], dg(j, k, r) + dg(k, j, r) - dg(r, j, k)) for r in range(1, n + 1)
            )).scale(half)

        return define(name, self.ctx, n, (UP, DOWN, DOWN), gen, (symmetric(2, 3),))

    def torsions(self) -> tuple[Tensor, Tensor]:
        """(R^i_jk, P^i_jk): the (v)h- and (v)hv-torsions of the Cartan
        connection (the (h)hv-torsion is the mixed Cartan tensor)."""

        def build_torsions():
            N = self.nonlinear_connection()

            def r_gen(idx):
                i, j, k = idx
                return self.horizontal_derivative(N[(i, j)], k) - self.horizontal_derivative(
                    N[(i, k)], j
                )

            r_tor = define(
                "R", self.ctx, self.dim, (UP, DOWN, DOWN), r_gen, (antisymmetric(2, 3),)
            )
            return r_tor, self._p_torsion()

        return self._get("torsions", build_torsions)

    def _p_torsion(self) -> Tensor:
        """P^i_jk = (dot d)_k N^i_j - Gamma^i_jk, the (v)hv-torsion of the
        connections with F = Gamma; built apart from R so that the
        hv-curvatures need no R.  With F = G it is zero by definition."""

        def build_p():
            N, F = self.nonlinear_connection(), self.cartan_coefficients()

            def gen(idx):
                i, j, k = idx
                return N[(i, j)].diff(Var("y", k)) - F[(i, j, k)]

            return define("P", self.ctx, self.dim, (UP, DOWN, DOWN), gen)

        return self._get("Ptorsion", build_p)

    # -- connections ------------------------------------------------------------

    def connection(self, kind: ConnectionKind) -> ConnectionTriple:
        def build_triple():
            f_coeffs = self.cartan_coefficients() if kind.uses_gamma else self.berwald_coefficients()
            if kind.has_c:
                c_coeffs = self.cartan_tensor()[1]
            else:
                c_coeffs = zero_tensor("C", self.ctx, self.dim, (UP, DOWN, DOWN))
            return ConnectionTriple(kind, f_coeffs, self.nonlinear_connection(), c_coeffs)

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
                a = base[slot]
                term = _dot(ctx, (
                    (t[base[:slot] + (r,) + base[slot + 1 :]],
                     coeffs[(a, r, k)] if variance is UP else coeffs[(r, a, k)])
                    for r in range(1, n + 1)
                ))
                val = val + term if variance is UP else val - term
            return val

        sig = t.sig + (DOWN,)
        return define(t.name + ("|" if horizontal else "|v"), ctx, n, sig, gen, t.symmetries)

    # -- curvatures -----------------------------------------------------------------

    def curvature(self, kind: ConnectionKind, which: str) -> Tensor:
        """The h-, hv-, or v-curvature tensor of one fundamental
        connection, with the corrected hv index placement
        P^i_hjk = (dot d)_k F^i_hj - C^i_hk|j + C^i_hm P^m_jk.  Chern and
        Berwald build theirs from F; Cartan and Hashiguchi add C-terms to it."""
        if which not in ("h", "hv", "v"):
            raise ValueError("which must be one of h, hv, v")
        return self._get(("curv", kind, which), lambda: self._build_curvature(kind, which))

    def _build_curvature(self, kind: ConnectionKind, which: str) -> Tensor:
        """Two layers.  With C = 0 (Chern, Berwald) the h-curvature is
        delta_k F - delta_j F + F.F - F.F and the hv-curvature (dot d)_k F.  With
        C (Cartan, Hashiguchi) it is the C = 0 one of the same F plus, by component,
        C^i_hm R^m_jk or -C^i_hk|j + C^i_hm P^m_jk (the P-torsion is 0 if F = G)."""
        ctx = self.ctx
        n = self.dim
        ms = range(1, n + 1)
        sig = (UP, DOWN, DOWN, DOWN)
        triple = self.connection(kind)
        F, C = triple.f_coeffs, triple.c_coeffs
        if kind.has_c and which != "v":
            sibling = ConnectionKind.CHERN if kind.uses_gamma else ConnectionKind.BERWALD
            c_free = self.curvature(sibling, which)
            if which == "h":
                hc, tor = None, self.torsions()[0]
            else:
                hc = self.h_cov_derivative(C, triple)
                tor = self._p_torsion() if kind.uses_gamma else None

            def gen(idx):
                i, h, j, k = idx
                val = c_free[idx] if hc is None else c_free[idx] - hc[(i, h, k, j)]
                if tor is not None:
                    val = val + _dot(ctx, ((C[(i, h, m)], tor[(m, j, k)]) for m in ms))
                return val

            return define(c_free.name, ctx, n, sig, gen, c_free.symmetries)
        if which == "h":
            def r_gen(idx):
                i, h, j, k = idx
                return (
                    self.horizontal_derivative(F[(i, h, j)], k)
                    - self.horizontal_derivative(F[(i, h, k)], j)
                    + _dot(ctx, ((F[(m, h, j)], F[(i, m, k)]) for m in ms))
                    - _dot(ctx, ((F[(m, h, k)], F[(i, m, j)]) for m in ms))
                )

            return define("R", ctx, n, sig, r_gen, (antisymmetric(3, 4),))
        if which == "hv":
            return define("P", ctx, n, sig, lambda idx: F[idx[:3]].diff(Var("y", idx[3])))

        def build_s():  # the v-curvature depends on C alone
            def s_gen(idx):
                i, h, j, k = idx
                return _dot(ctx, ((C[(m, h, k)], C[(i, m, j)]) for m in ms)) - _dot(
                    ctx, ((C[(m, h, j)], C[(i, m, k)]) for m in ms)
                )

            return define("S", ctx, n, sig, s_gen, (antisymmetric(3, 4),))

        return self._get(("S", kind.has_c), build_s)

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


def _dot(ctx: Context, pairs) -> Expr:
    """The sum of a * b over the (a, b) pairs, skipping pairs with a zero factor."""
    acc = ctx.zero
    for a, b in pairs:
        if not (a.is_zero_expr() or b.is_zero_expr()):
            acc = acc + a * b
    return acc


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
