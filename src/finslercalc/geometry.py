"""From a Finsler function to connections, torsions, and curvatures.

Everything is derived from F**2: the metric g_ij = (1/2) d²F²/dy_i dy_j,
its inverse, the supporting element and angular metric, the Cartan
tensor, geodesic spray, nonlinear connection, Berwald and Cartan
connection coefficients, the torsion tensors, and the h-/hv-/v-curvature
tensors of the four fundamental connection triples.

Each object is built once.  Every method that builds one, the
determinant minors of g and the covariant derivatives included, is a
``_memo`` method: its result is kept in the geometry's ``_cache`` under
``(method name, *arguments)``, and a later call returns that identical
object.  Tensors and connection triples key the cache by identity.

Connections that coincide share their objects by one rule: each curvature
and covariant derivative is built once per coefficient tensor it reads,
(F, C) for an h- or hv-curvature, C for a v-curvature, F for an
h-derivative and C for a v-derivative.  The two kinds with C = 0 share
one zero C, and on a Berwald space (G^i_jk free of y, ``_berwald_space``)
Gamma = G, so the kinds with F = Gamma take G itself as F: Chern is then
Berwald and Cartan is Hashiguchi.  There every hv-curvature is the zero
tensor, since a space is Berwald exactly when the Cartan tensor is
h-parallel, C_hij|k = 0 (Matsumoto, Foundations of Finsler Geometry, 1986;
Bao, Chern and Shen, An Introduction to Riemann-Finsler Geometry, 2000).
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .expr import Context, DomainError, Expr, Var
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


def _memo(method):
    """``method(self, *args)`` built once per owner: the result is kept in
    the owner's ``_cache`` dict under ``(method.__name__, *args)``, so a
    later call returns the identical object after one dict lookup."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, *args):
        k = (name, *args)
        got = self._cache.get(k)
        if got is None:
            got = self._cache[k] = method(self, *args)
        return got

    return memoized


class Geometry:
    """Lazily computed geometric objects of one Finsler structure."""

    def __init__(self, structure: FinslerStructure):
        self.structure = structure
        self.ctx = structure.ctx
        self.dim = structure.dim
        self._cache: dict = {}
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        ctx = self.ctx
        f2 = self.structure.f_squared
        euler = ctx.sum((), ((ctx.fiber(i), f2.diff(Var("y", i))) for i in range(1, self.dim + 1)))
        if euler != f2.scale(2):
            raise NotHomogeneous(
                "F**2 is not positively homogeneous of degree 2 in the fiber variables"
            )
        every = tuple(range(1, self.dim + 1))
        if self._minor(every, every).is_zero_expr():
            raise DegenerateMetric("det(g) is identically zero")

    # -- fundamental tensors ----------------------------------------------

    @_memo
    def metric(self) -> Tensor:
        f2 = self.structure.f_squared
        half = Fraction(1, 2)

        def gen(idx):
            i, j = idx
            return f2.diff(Var("y", i)).diff(Var("y", j)).scale(half)

        return define("g", self.ctx, self.dim, (DOWN, DOWN), gen, (symmetric(1, 2),))

    @_memo
    def _minor(self, rows: tuple, cols: tuple) -> Expr:
        """The determinant of g restricted to ``rows`` and ``cols``, by
        expansion along the first row."""
        if not rows:
            return self.ctx.one
        g = self.metric()
        r, rest = rows[0], rows[1:]
        plus, minus = [], []
        for pos, c in enumerate(cols):
            e = g[(r, c)]
            if not e.is_zero_expr():
                sub = self._minor(rest, cols[:pos] + cols[pos + 1 :])
                (minus if pos % 2 else plus).append((e, sub))
        return self.ctx.sum((), plus, minus)

    @_memo
    def inverse_metric(self) -> Tensor:
        every = tuple(range(1, self.dim + 1))
        det = self._minor(every, every)

        def gen(idx):
            i, j = idx  # the (j, i) cofactor over det(g)
            rows = tuple(r for r in every if r != j)
            cols = tuple(c for c in every if c != i)
            minor = self._minor(rows, cols)
            return (minor if (i + j) % 2 == 0 else -minor) / det

        return define("ginv", self.ctx, self.dim, (UP, UP), gen, (symmetric(1, 2),))

    @_memo
    def finsler_function(self) -> Expr:
        return self.ctx.sqrt(self.structure.f_squared)

    @_memo
    def supporting_and_angular(self) -> tuple[Tensor, Tensor, Tensor]:
        """(l_i, l^i, h_ij): normalized supporting element, its raised
        form y/F, and the angular metric g_ij - l_i l_j."""
        ctx = self.ctx
        inv_f = 1 / self.finsler_function()  # one inverse, not one per component
        g = self.metric()

        def lup_gen(idx):
            return ctx.fiber(idx[0]) * inv_f

        lup = define("l", ctx, self.dim, (UP,), lup_gen)

        def ldown_gen(idx):
            rs = range(1, self.dim + 1)
            return ctx.sum((), ((g[(idx[0], r)], ctx.fiber(r)) for r in rs)) * inv_f

        ldown = define("l", ctx, self.dim, (DOWN,), ldown_gen)

        def h_gen(idx):
            i, j = idx
            return g[(i, j)] - ldown[(i,)] * ldown[(j,)]

        h = define("h", ctx, self.dim, (DOWN, DOWN), h_gen, (symmetric(1, 2),))
        return ldown, lup, h

    @_memo
    def cartan_tensor(self) -> tuple[Tensor, Tensor]:
        """(C_ijk, C^i_jk): the Cartan tensor and the (h)hv-torsion."""
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
            return self.ctx.sum((), ((ginv[(i, r)], c_down[(r, j, k)]) for r in rs))

        c_mixed = define(
            "C", self.ctx, self.dim, (UP, DOWN, DOWN), mixed_gen, (symmetric(2, 3),)
        )
        return c_down, c_mixed

    @_memo
    def christoffel_gamma(self) -> Tensor:
        """Christoffel symbols of g with respect to the base derivatives."""
        return self._christoffel("gamma", lambda e, j: e.diff(Var("x", j)))

    @_memo
    def spray(self) -> Tensor:
        gamma = self.christoffel_gamma()
        ctx = self.ctx
        half = Fraction(1, 2)

        def gen(idx):
            return ctx.sum((), (
                (gamma[(idx[0], j, k)], ctx.fiber(j) * ctx.fiber(k))
                for j in range(1, self.dim + 1)
                for k in range(1, self.dim + 1)
            )).scale(half)

        return define("G", ctx, self.dim, (UP,), gen)

    @_memo
    def nonlinear_connection(self) -> Tensor:
        G = self.spray()

        def gen(idx):
            i, j = idx
            return G[(i,)].diff(Var("y", j))

        return define("N", self.ctx, self.dim, (UP, DOWN), gen)

    @_memo
    def berwald_coefficients(self) -> Tensor:
        N = self.nonlinear_connection()

        def gen(idx):
            i, j, k = idx
            return N[(i, j)].diff(Var("y", k))

        return define(
            "G", self.ctx, self.dim, (UP, DOWN, DOWN), gen, (symmetric(2, 3),)
        )

    # -- horizontal calculus --------------------------------------------------

    def horizontal_derivative(self, e: Expr, k: int) -> Expr:
        """delta_k e = d_k e - N^r_k * (dot d)_r e."""
        return self.ctx.sum((e.diff(Var("x", k)),), (), self._n_pairs(e, k))

    def _n_pairs(self, e: Expr, k: int) -> list:
        """The pairs (N^r_k, (dot d)_r e) that delta_k e subtracts."""
        N = self.nonlinear_connection()
        return [(N[(r, k)], e.diff(Var("y", r))) for r in range(1, self.dim + 1)]

    @_memo
    def _berwald_space(self) -> bool:
        """Whether G^i_jk is free of y: every fiber derivative of every
        component is zero, tested up to the first one that is not."""
        ys = [Var("y", m) for m in range(1, self.dim + 1)]
        return all(
            e.diff(y).is_zero_expr() for _, e in self.berwald_coefficients().components() for y in ys
        )

    @_memo
    def cartan_coefficients(self) -> Tensor:
        """Christoffel symbols of g with respect to the horizontal
        derivatives.  On a Berwald space (``_berwald_space``) they are the
        Berwald G^i_jk, so the tensor holds G's components."""
        if self._berwald_space():
            G = self.berwald_coefficients()
            return Tensor("Gamma", self.ctx, self.dim, G.sig, dict(G.components()), G.symmetries)
        return self._christoffel("Gamma", self.horizontal_derivative)

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

        # the Christoffel symbols of the first kind, symmetric in (j, k):
        # one sum per (j <= k, r), not one per i as well
        first = {
            (j, k, r): self.ctx.sum((dg(j, k, r), dg(k, j, r), -dg(r, j, k)))
            for j in range(1, n + 1)
            for k in range(j, n + 1)
            for r in range(1, n + 1)
        }

        def gen(idx):
            i, j, k = idx
            j, k = min(j, k), max(j, k)
            pairs = ((ginv[(i, r)], first[(j, k, r)]) for r in range(1, n + 1))
            return self.ctx.sum((), pairs).scale(half)

        return define(name, self.ctx, n, (UP, DOWN, DOWN), gen, (symmetric(2, 3),))

    @_memo
    def torsions(self) -> tuple[Tensor, Tensor]:
        """(R^i_jk, P^i_jk): the (v)h- and (v)hv-torsions of the Cartan
        connection (the (h)hv-torsion is the mixed Cartan tensor)."""
        N = self.nonlinear_connection()

        def r_gen(idx):
            i, j, k = idx  # delta_k N^i_j - delta_j N^i_k, as one sum
            nj, nk = N[(i, j)], N[(i, k)]
            terms = (nj.diff(Var("x", k)), -nk.diff(Var("x", j)))
            return self.ctx.sum(terms, self._n_pairs(nk, j), self._n_pairs(nj, k))

        r_tor = define(
            "R", self.ctx, self.dim, (UP, DOWN, DOWN), r_gen, (antisymmetric(2, 3),)
        )
        return r_tor, self._p_torsion()

    @_memo
    def _p_torsion(self) -> Tensor:
        """P^i_jk = (dot d)_k N^i_j - Gamma^i_jk, the (v)hv-torsion of the
        connections with F = Gamma; built apart from R so that the
        hv-curvatures need no R.  With F = G it is zero by definition."""
        N, F = self.nonlinear_connection(), self.cartan_coefficients()

        def gen(idx):
            i, j, k = idx
            return N[(i, j)].diff(Var("y", k)) - F[(i, j, k)]

        return define("P", self.ctx, self.dim, (UP, DOWN, DOWN), gen)

    # -- connections ------------------------------------------------------------

    @_memo
    def connection(self, kind: ConnectionKind) -> ConnectionTriple:
        """The triple of ``kind``.  On a Berwald space the kinds with F = Gamma
        take the Berwald G itself as F, and the two kinds with C = 0 share
        one zero C, so two kinds with the same coefficients hold the
        identical tensors."""
        if kind.uses_gamma and not self._berwald_space():
            f_coeffs = self.cartan_coefficients()
        else:
            f_coeffs = self.berwald_coefficients()
        return ConnectionTriple(kind, f_coeffs, self.nonlinear_connection(), self._c_coeffs(kind))

    def _c_coeffs(self, kind: ConnectionKind) -> Tensor:
        return self.cartan_tensor()[1] if kind.has_c else self._zero_c()

    @_memo
    def _zero_c(self) -> Tensor:
        return zero_tensor("C", self.ctx, self.dim, (UP, DOWN, DOWN))

    # -- covariant derivatives -----------------------------------------------------

    def h_cov_derivative(self, t: Tensor, triple: ConnectionTriple) -> Tensor:
        """Horizontal covariant derivative; the new slot comes last.  It
        reads F and N alone, and N is one for every kind."""
        return self._cov_derivative(t, triple.f_coeffs, True)

    def v_cov_derivative(self, t: Tensor, triple: ConnectionTriple) -> Tensor:
        """Vertical covariant derivative; the new slot comes last.  It reads
        C alone."""
        return self._cov_derivative(t, triple.c_coeffs, False)

    @_memo
    def _cov_derivative(self, t: Tensor, coeffs: Tensor, horizontal: bool) -> Tensor:
        n = self.dim
        ctx = self.ctx
        coeffs_zero = coeffs.is_zero_tensor()

        def gen(idx):
            base, k = idx[:-1], idx[-1]
            e = t[base]
            plus, minus = [], self._n_pairs(e, k) if horizontal else []
            for slot, variance in enumerate(() if coeffs_zero else t.sig):
                a = base[slot]
                for r in range(1, n + 1):
                    other = t[base[:slot] + (r,) + base[slot + 1 :]]
                    if variance is UP:
                        plus.append((other, coeffs[(a, r, k)]))
                    else:
                        minus.append((other, coeffs[(r, a, k)]))
            return ctx.sum((e.diff(Var("x" if horizontal else "y", k)),), plus, minus)

        sig = t.sig + (DOWN,)
        return define(t.name + ("|" if horizontal else "|v"), ctx, n, sig, gen, t.symmetries)

    # -- curvatures -----------------------------------------------------------------

    @_memo
    def curvature(self, kind: ConnectionKind, which: str) -> Tensor:
        """The h-, hv-, or v-curvature tensor of one fundamental
        connection, with the corrected hv index placement
        P^i_hjk = (dot d)_k F^i_hj - C^i_hk|j + C^i_hm P^m_jk.

        It is ``_curvature`` of the coefficient tensors it reads: F and C
        of ``connection(kind)``, or C alone for the v-curvature, so S:cartan
        builds no Gamma.  Kinds with identical coefficients (Chern and
        Berwald share the zero C; on a Berwald space F = G for all four)
        get the identical object; there each hv-curvature is zero."""
        if which not in ("h", "hv", "v"):
            raise ValueError("which must be one of h, hv, v")
        if which == "v":
            return self._curvature(which, None, self._c_coeffs(kind))
        triple = self.connection(kind)
        return self._curvature(which, triple.f_coeffs, triple.c_coeffs)

    @_memo
    def _curvature(self, which: str, F: "Tensor | None", C: Tensor) -> Tensor:
        """The curvature of coefficients (F, C), in two layers.  With the
        zero C the h-curvature is delta_k F - delta_j F + F.F - F.F (for
        F = G, the equal (dot d)_h R^i_jk of the (v)h-torsion) and the
        hv-curvature (dot d)_k F.  Otherwise it is the one of (F, 0) plus, by
        component, C^i_hm R^m_jk or -C^i_hk|j + C^i_hm P^m_jk, where the
        P-torsion is zero by definition if F = G.  On a Berwald space every
        hv-curvature is the zero tensor, with no term built: (dot d)_k G = 0
        is the test itself, F = G, and C^i_hk|j = 0 by the theorem that C is
        h-parallel there (module docstring)."""
        ctx = self.ctx
        n = self.dim
        ms = range(1, n + 1)
        sig = (UP, DOWN, DOWN, DOWN)
        if which == "hv" and self._berwald_space():
            return zero_tensor("P", ctx, n, sig)
        if which != "v" and C is not self._zero_c():
            c_free = self._curvature(which, F, self._zero_c())
            if which == "h":
                hc, tor = None, self.torsions()[0]
            else:
                hc = self._cov_derivative(C, F, True)
                tor = None if F is self.berwald_coefficients() else self._p_torsion()

            def gen(idx):
                i, h, j, k = idx
                pairs = () if tor is None else ((C[(i, h, m)], tor[(m, j, k)]) for m in ms)
                terms = (c_free[idx],) if hc is None else (c_free[idx], -hc[(i, h, k, j)])
                return ctx.sum(terms, pairs)

            return define(c_free.name, ctx, n, sig, gen, c_free.symmetries)
        if which == "h" and F is self.berwald_coefficients():
            # the Berwald curvature is the fiber derivative of the (v)h-torsion,
            # R^i_hjk = (dot d)_h R^i_jk: derivatives in place of G.G products
            rt = self.torsions()[0]
            return define(
                "R", ctx, n, sig, lambda idx: rt[(idx[0], idx[2], idx[3])].diff(Var("y", idx[1])),
                (antisymmetric(3, 4),),
            )
        if which == "h":
            def r_gen(idx):
                i, h, j, k = idx
                fj, fk = F[(i, h, j)], F[(i, h, k)]
                plus = self._n_pairs(fk, j) + [(F[(m, h, j)], F[(i, m, k)]) for m in ms]
                minus = self._n_pairs(fj, k) + [(F[(m, h, k)], F[(i, m, j)]) for m in ms]
                return ctx.sum((fj.diff(Var("x", k)), -fk.diff(Var("x", j))), plus, minus)

            return define("R", ctx, n, sig, r_gen, (antisymmetric(3, 4),))
        if which == "hv":
            return define("P", ctx, n, sig, lambda idx: F[idx[:3]].diff(Var("y", idx[3])))

        def s_gen(idx):
            i, h, j, k = idx
            return ctx.sum(
                (),
                ((C[(m, h, k)], C[(i, m, j)]) for m in ms),
                ((C[(m, h, j)], C[(i, m, k)]) for m in ms),
            )

        return define("S", ctx, n, sig, s_gen, (antisymmetric(3, 4),))

    # -- classification ------------------------------------------------------------

    @_memo
    def classify(self) -> Classification:
        """Riemannian: C = 0.  Berwaldian: G^i_jk free of y."""
        return Classification(self.cartan_tensor()[0].is_zero_tensor(), self._berwald_space())
