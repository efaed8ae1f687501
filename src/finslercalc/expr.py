"""Exact symbolic expressions over base/fiber coordinates.

An expression is kept permanently in canonical form ``c * N / D``: a
rational content c (a ``Fraction``) times a quotient of polynomials over
the integers in the coordinate symbols plus *radical atoms*.  A radical
atom stands for ``radicand**(1/q)``; its q-th power rewrites back to the
radicand, perfect q-th-power factors are pulled out of radicands at
creation, and denominators are always cleared of atoms.  N and D are
coprime and primitive (coprime integer coefficients).  D has a positive
leading coefficient under graded lex order with base coordinates before
fiber coordinates; N has a positive coefficient at its greatest packed
key, a rule that needs no sort.  Zero is ``0 * 0 / 1``.

So every ``Poly`` product, sum, exact division and gcd runs over the
integers: a sum scales the numerators by ints and takes one integer
content, a product multiplies the contents, and ``scale`` and negation
touch only c.  By Gauss's lemma a quotient of primitive integer
polynomials that is exact over the rationals is exact over the integers.

Two expressions that are equal as functions (within the supported
fragment of rational functions extended by radicals of rational
functions) therefore compare equal structurally, and the difference of
equal expressions canonicalizes to the zero constant.

Numerator and denominator stay expanded.  The gcds that keep them coprime
run against the context's factor base (``poly.FactorBase``): every
non-monomial denominator is a monomial times powers of small squarefree,
pairwise coprime polynomials, so the common multiple of denominators is
exponent arithmetic and the gcd of a numerator with a denominator is a
sequence of gcds against those factors.  Every such gcd reads the
denominator's whole factorization.  A sum of any number of terms and
products (``Context.sum``; ``a + b`` is the two-term case) goes over one
common denominator, with one gcd.  A product in a sum is not normalized
first: its denominator is the pair of its factors' denominators, factored
from their cached factorizations; ``a * b`` multiplies, then takes one
gcd over that pair.  The gcds return exactly what ``poly_gcd`` would; the
factorizations are derived data, outside equality and hashing.

Every denominator that a sum, a product or a derivative forms is built
from its factorization (``FactorBase.expand``): the common denominator,
a pair's product, D*R below, and what a gcd leaves of each.  Each
distinct factorization is expanded once per context and registered in
the factor base, so factoring it again is a lookup.

A derivative (``Expr.diff``) works over the factored denominator too.
With R the product of the parts of D that move with the variable s (s
itself and each factor f with f' = df/ds != 0), T = D' * R / D and
N' = A/B (B a radicand's denominator, brought by an atom's derivative,
else 1), d(N/D) = (A*R - N*T*B) / (B*D*R), so D is never squared, and
the one gcd reads the factorization of B*D*R, B's and D's added.

Numeric evaluation reads every symbol through one table per point,
``Context.values_at``, whose radical atoms ``real_root`` takes.  Floats and
Taylor jets go through ``Poly.eval``.  ``Expr.eval_at`` and the oracle's
check read the exact table of ``Context.point_values``: there a value stays
exact, in integers with c folded in, until the final conversion to float,
and only the terms with an atom are floats.
"""

from __future__ import annotations

import enum
import random
import warnings
from fractions import Fraction
from functools import reduce
from math import gcd, isfinite, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .poly import (
    FactorBase,
    Poly,
    int_power_extract,
    int_primitive,
    make_primitive,
    monomial_gcd,
    pack,
    power_free_extract,
    unpack,
)
from .poly import _BITS, _FIELD, _GUARD, _limit_error, _mono_min, _span  # packed keys
from .poly import _product_factors


_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExprError(Exception):
    """Base class for expression-layer failures."""


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unknown identifier: {name!r}")
        self.name = name


class DomainError(ExprError):
    """Numeric evaluation hit a zero denominator or an invalid radicand."""


class SamplingExhausted(Exception):
    """Domain constraints rejected too many candidate points."""


class ZeroStatus(enum.Enum):
    ZERO = "zero"
    NON_ZERO = "nonzero"
    NUMERICALLY_ZERO = "numerically-zero"


ZERO_TEST_POINTS = 8  # points ``Expr.is_zero`` samples at most
ZERO_TEST_TOL = 1e-9  # its relative threshold for a nonzero value
RETRY_CAP = 100  # rejections in a row before ``draw_points`` gives up


class Var(NamedTuple("Var", [("kind", str), ("index", int)])):
    """A declared coordinate: base ('x') or fiber ('y'), 1-based index."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int):
        if kind not in ("x", "y"):
            raise ValueError("Var kind must be 'x' or 'y'")
        if index < 1:
            raise ValueError("Var index is 1-based")
        return super().__new__(cls, kind, index)


class NumericPoint(NamedTuple):
    """A sample point on the slit tangent bundle."""

    x: tuple[float, ...]
    y: tuple[float, ...]


class _Atom(NamedTuple):
    sym: int
    q: int
    radicand: "Expr"  # canonical, involves only symbols below ``sym``
    powers: dict  # t: (terms of the integer radicand**t, their greatest fields)


class Context:
    """Symbol table for one (dimension, coordinate names) universe.

    Expressions are tied to the context that created them.  The context
    also memoizes derivatives, holds the denominator factor base, and keeps
    the printers' monomial texts, the zero tests' sample points and the
    tensors' symmetry orbits per shape.  It is single-threaded: radical
    atoms are numbered, and factor-base elements ordered, in the order
    they first arrive, so both depend on a deterministic order of
    operations (the canonical form itself does not depend on the element
    order).
    """

    def __init__(self, dim: int, coord_names: Sequence[str], fiber_names: Sequence[str]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if len(coord_names) != dim or len(fiber_names) != dim:
            raise ValueError("need exactly dim coordinate and fiber names")
        names = list(coord_names) + list(fiber_names)
        if len(set(names)) != len(names):
            raise ValueError("coordinate and fiber names must be distinct")
        self.dim = dim
        self.coord_names = tuple(coord_names)
        self.fiber_names = tuple(fiber_names)
        self._name_to_var = {n: Var("x", i + 1) for i, n in enumerate(coord_names)}
        self._name_to_var.update({n: Var("y", i + 1) for i, n in enumerate(fiber_names)})
        self._atoms: list[_Atom] = []
        self._atoms_by_key: dict[tuple, int] = {}
        self._diff_cache: dict[tuple["Expr", int], "Expr"] = {}
        self._atom_diff_cache: dict[tuple[int, int], "Expr"] = {}
        self.factors = FactorBase()
        self.printed: dict = {}  # what the printers keep (``parsing``)
        self._zero_test_points: dict[tuple, _ZeroTestPoints] = {}
        self._orbit_plans: dict[tuple, tuple] = {}  # per tensor shape (``tensor``)
        self.zero = Expr(self, Poly.zero(), Poly.one(), _ZERO, _normalized=True)
        self.one = Expr(self, Poly.one(), Poly.one(), _ONE, _normalized=True)

    # -- symbols ---------------------------------------------------------

    def sym_of(self, v: Var) -> int:
        if v.index > self.dim:
            raise UnknownIdentifierError(f"{v.kind}{v.index}")
        return (v.index - 1) if v.kind == "x" else (self.dim + v.index - 1)

    def var_named(self, name: str) -> Var:
        try:
            return self._name_to_var[name]
        except KeyError:
            raise UnknownIdentifierError(name) from None

    def sym_name(self, sym: int) -> str:
        if sym < self.dim:
            return self.coord_names[sym]
        if sym < 2 * self.dim:
            return self.fiber_names[sym - self.dim]
        raise ValueError("atom symbols have no coordinate name")

    def is_atom_sym(self, sym: int) -> bool:
        return sym >= 2 * self.dim

    def has_atoms(self, p: Poly) -> bool:
        return p.max_symbol() >= 2 * self.dim

    def atom_at(self, sym: int) -> _Atom:
        return self._atoms[sym - 2 * self.dim]

    def values_at(self, coords: Sequence) -> dict:
        """Symbol values at a point, base then fiber ``coords`` (Fractions,
        floats or jets); an atom is computed by ``real_root`` when first
        read, so one undefined at the point raises only where it is used."""
        if len(coords) != 2 * self.dim:
            raise ValueError("point dimension mismatch")
        return _SymbolValues(self, coords)

    def point_values(self, point: "NumericPoint | Mapping[str, object]") -> "_PointValues":
        """The exact table of one point (a ``NumericPoint`` or a mapping of
        coordinate names to numbers) for ``Expr.eval_at``; build it once
        and share it across the expressions evaluated at that point."""
        return _PointValues(self, _point_coord_values(self, point))

    # -- constructors ------------------------------------------------------

    def number(self, value) -> "Expr":
        value = Fraction(value)
        if not value:
            return self.zero
        return Expr(self, Poly.one(), Poly.one(), value, _normalized=True)

    def var(self, v: Var) -> "Expr":
        return Expr(self, Poly.variable(self.sym_of(v)), Poly.one())

    def base(self, index: int) -> "Expr":
        return self.var(Var("x", index))

    def fiber(self, index: int) -> "Expr":
        return self.var(Var("y", index))

    def parse(self, text: str) -> "Expr":
        from .parsing import parse

        return parse(text, self)

    def sum(self, terms: Iterable["Expr"], pairs=(), minus=()) -> "Expr":
        """The sum of ``terms`` and of a * b over the (a, b) ``pairs``, minus
        a * b over the ``minus`` pairs, over one common denominator (Knuth,
        TAOCP vol. 2, 4.5.1): the package's one addition.  A product is not
        normalized: its content is a.content * b.content, its numerator
        a.num * b.num with atom powers reduced, and its denominator the pair
        (a.den, b.den), factored from the two factorizations.  One over two
        monomial denominators, or alone in the sum, is ``a * b``
        (``_product``).  Numerators are scaled by their share of the common
        content and their cofactor (``FactorBase.common_denominator``) and
        added once; one gcd, against the whole factorization of the common
        denominator, keeps the result coprime."""
        terms = [t for t in terms if t.content]
        raw = [(sign, a, b) for sign, group in ((1, pairs), (-1, minus)) for a, b in group
               if a.content and b.content]
        fuse, products = len(terms) + len(raw) > 1, []
        for sign, a, b in raw:
            num = _reduce_atoms(self, a.num * b.num)
            da, db = a.den, b.den
            if fuse and len(da.terms) + len(db.terms) > 2:
                c = a.content * b.content
                ds = (da * db,) if _is_one(da) or _is_one(db) else (da, db)
                products.append((c if sign > 0 else -c, num, ds))
            else:
                p = _product(self, a, b, num)
                terms.append(p if sign > 0 else -p)
        if not products and len(terms) < 2:
            return terms[0] if terms else self.zero
        items = [(t.content, t.num, (t.den,)) for t in terms] + products
        c = items[0][0]
        scales = None
        if any(t[0] != c for t in items):
            top = gcd(*(t[0].numerator for t in items))
            low = lcm(*(t[0].denominator for t in items))
            c = Fraction(top, low)
            scales = [t[0].numerator // top * (low // t[0].denominator) for t in items]
        ds = items[0][2]
        if len(ds) == 1 and all(t[2] == ds for t in items):
            den, factored = ds[0], None
            nums = (t[1] for t in items)
        else:
            dens = dict.fromkeys(t[2] for t in items)
            den, cofactors, factored = self.factors.common_denominator(dens)
            nums = (num * cofactors[ds] for _, num, ds in items)
        if scales is not None:
            nums = (p.scale(s) for p, s in zip(nums, scales))
        num = sum(nums, Poly.zero())
        if num.is_zero():
            return self.zero
        c, num, den = _cancelled(self, c, num, den, factored)
        return Expr(self, num, den, c, _normalized=True)

    # -- radical atoms ------------------------------------------------------

    def root(self, e: "Expr", q: int) -> "Expr":
        """The real q-th root of ``e`` as a canonical expression.

        The radicand is cleared of denominators via root(n/d) =
        root(n*d**(q-1))/d.  Perfect q-th powers are pulled out of it
        (valid on the positive sampling domain): a monomial m**q (atoms
        too), a polynomial b**q and an integer; what is left is normalized
        to a primitive polynomial times a q-th-power-free integer, and
        structurally equal radicands share one atom.  The root is one
        expression, c * b*m*atom / d with c rational, normalized once.
        """
        if q < 2:
            if q == 1:
                return e
            raise ValueError("root index must be >= 1")
        if e.ctx is not self:
            raise ValueError("expression belongs to a different context")
        if not e.content:
            return self.zero
        radicand = e.num * e.den ** (q - 1)
        (low,) = monomial_gcd((radicand,)).terms
        m = pack([k // q for k in unpack(low)])
        if m:
            radicand = Poly({key - m * q: c for key, c in radicand.terms.items()})
        if self.has_atoms(radicand):
            # tower case: polynomial factor extraction would need atom-aware
            # derivatives, so normalize the sign only
            (sign, a_poly), b_poly = make_primitive(radicand), Poly.one()
        else:
            sign, a_poly, b_poly = power_free_extract(radicand, q)
        content = e.content * sign
        # content = sign * s/t; root(content*a) = (b2/t)*root(sign*a2*a)
        # with s*t**(q-1) = a2*b2**q and a2 q-th-power free
        sign = -1 if content < 0 else 1
        s, t = abs(content).numerator, abs(content).denominator
        a2, b2 = int_power_extract(s * t ** (q - 1), q)
        const_mult = Fraction(b2, t)
        if sign < 0 and q % 2 == 1:
            const_mult = -const_mult
            sign = 1
        rad_final = a_poly.scale(sign * a2)
        if not _is_one(rad_final):
            m += next(iter(Poly.variable(self._intern_atom(rad_final, q)).terms))
        return Expr(self, b_poly.mul_monomial(m), e.den, const_mult)

    def sqrt(self, e: "Expr") -> "Expr":
        return self.root(e, 2)

    def _intern_atom(self, rad_poly: Poly, q: int) -> int:
        key = (q, rad_poly)
        got = self._atoms_by_key.get(key)
        if got is not None:
            return got
        sym = 2 * self.dim + len(self._atoms)
        self._atoms.append(_Atom(sym, q, Expr(self, rad_poly, Poly.one()), {}))
        self._atoms_by_key[key] = sym
        return sym

    def _atom_derivative(self, sym: int, wrt: int) -> "Expr":
        got = self._atom_diff_cache.get((sym, wrt))
        if got is not None:
            return got
        atom = self.atom_at(sym)
        drad = atom.radicand._diff_sym(wrt)
        if drad.num.is_zero():
            result = self.zero
        else:
            root_expr = Expr(self, Poly.variable(sym), Poly.one())
            result = drad * root_expr / atom.radicand
            result = result.scale(Fraction(1, atom.q))
        self._atom_diff_cache[(sym, wrt)] = result
        return result


class Expr:
    """Canonical immutable expression ``content * num / den``; see module
    docstring.  The constructor takes ``num`` and ``den`` over the integers
    (``num`` may hold atoms) and a rational ``content``, and normalizes
    them unless ``_normalized`` says they are canonical already."""

    __slots__ = ("ctx", "content", "num", "den", "_hash")

    def __init__(
        self, ctx: Context, num: Poly, den: Poly, content: Fraction = _ONE, _normalized=False
    ):
        self.ctx = ctx
        if _normalized:
            self.content, self.num, self.den = content, num, den
        else:
            self.content, self.num, self.den = _normalize(ctx, content, num, den)
        self._hash: int | None = None

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            self.num == other.num and self.den == other.den and self.content == other.content
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.content, self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        return f"Expr({self})"

    def __str__(self) -> str:
        from .parsing import to_text

        return to_text(self)

    # -- predicates ------------------------------------------------------

    def is_zero_expr(self) -> bool:
        return not self.content

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ExprError("not a constant expression")
        return self.content

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Expr | None":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.number(other)
        return None

    def __add__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ctx.sum((self, o))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.ctx, self.num, self.den, -self.content, _normalized=True)

    def __sub__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.content and o.content):
            return self.ctx.zero
        return _product(self.ctx, self, o, _reduce_atoms(self.ctx, self.num * o.num))

    __rmul__ = __mul__

    def scale(self, c) -> "Expr":
        c = Fraction(c)
        if not c:
            return self.ctx.zero
        if c == 1:
            return self
        return Expr(self.ctx, self.num, self.den, self.content * c, _normalized=True)

    def __truediv__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n) -> "Expr":
        if not isinstance(n, (int, Fraction)):
            return NotImplemented
        if isinstance(n, Fraction):
            if n.denominator != 1:
                base = self.ctx.root(self, n.denominator)
                return base ** n.numerator
            n = n.numerator
        if n == 0:
            return self.ctx.one
        if n < 0:
            return self._inverse() ** (-n)
        num = self.num**n
        c = self.content**n
        # the greatest key's coefficient of num**n is a power of a positive one
        return Expr(self.ctx, num, self.den**n, c, _normalized=not self.ctx.has_atoms(num))

    def _inverse(self) -> "Expr":
        if not self.content:
            raise ZeroDivisionError("division by zero expression")
        ctx = self.ctx
        if not ctx.has_atoms(self.num):
            sign, den = make_primitive(self.num)
            c, num = _signed(sign / self.content, self.den)
            return Expr(ctx, num, den, c, _normalized=True)
        inv_num = _invert_atom_poly(ctx, self.num)
        return (inv_num * Expr(ctx, self.den, Poly.one())).scale(1 / self.content)

    # -- calculus ------------------------------------------------------------

    def diff(self, v: Var) -> "Expr":
        return self._diff_sym(self.ctx.sym_of(v))

    def _diff_sym(self, sym: int) -> "Expr":
        """d/ds over the factored denominator (Bronstein, Symbolic
        Integration I, 2.2).  With ``factor``, D = s**a * M * prod f**e_f
        for s = ``sym``, elements f and a monomial M free of s.  R is the
        product of the parts of D that move with s: s if a > 0, and each f
        with f' = df/ds != 0.  With T = a*R/s + sum e_f * f' * R/f, D' is
        D*T/R.  N' = (p/q) * A/B, where B is 1 unless an atom's derivative
        brings a radicand's denominator, so

            d(N/D)/ds = (p*A*R - q*N*T*B) / (q * B*D*R),

        over B*D*R, not D**2.  Its factorization is B's plus D's, with s
        and each moving f one power up, and one gcd against it keeps the
        quotient coprime."""
        ctx = self.ctx
        got = ctx._diff_cache.get((self, sym))
        if got is not None:
            return got
        # N' first: its atom derivatives may refine the factor base, and
        # factoring B may too; _factor_all names B's and D's factors alike
        dnum = _poly_total_diff(ctx, self.num, sym)
        (key, b_exps), (mono, exps) = ctx.factors._factor_all([dnum.den, self.den])
        a = Poly({mono: 1}).degree_in(sym)
        r, t = (Poly.variable(sym), Poly.const(a)) if a else (Poly.one(), Poly.zero())
        key += mono + next(iter(r.terms))
        bdr_exps = dict(b_exps)
        for i, e in exps.items():
            f = ctx.factors.elements[i]
            df = f.diff(sym)
            if not df.is_zero():
                r, t = r * f, t * f + (df * r).scale(e)  # T/R gains e*f'/f
                e += 1
            bdr_exps[i] = bdr_exps.get(i, 0) + e
        den = ctx.factors.expand(key, bdr_exps)
        p, q = dnum.content.numerator, dnum.content.denominator
        num = (dnum.num * r).scale(p) + (self.num * (t * dnum.den)).scale(-q)
        if num.is_zero():
            result = ctx.zero
        else:
            c, num, den = _cancelled(ctx, self.content / q, num, den, (key, bdr_exps))
            result = Expr(ctx, num, den, c, _normalized=True)
        ctx._diff_cache[(self, sym)] = result
        return result

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, point: "NumericPoint | Mapping[str, object] | _PointValues") -> float:
        """The value at a point, or at the table ``Context.point_values``
        built for it: exact up to the radical atoms until the final
        conversion to float (see ``_PointValues``)."""
        if not isinstance(point, _PointValues):
            point = self.ctx.point_values(point)
        elif point.ctx is not self.ctx:
            raise ValueError("point table belongs to a different context")
        return point.quotient(self)

    def is_zero(self, *, constraints: Iterable = (), seed: int = 0) -> ZeroStatus:
        """Decide zero-ness.

        A numerator with no radical atom (denominators never hold one) is
        decided by the canonical form: equal rational functions have the
        same coprime form.  Only atoms can hide a relation such as
        ``sqrt(y1)*sqrt(y2) = sqrt(y1*y2)``, so a radical expression is
        evaluated in floats at up to ``ZERO_TEST_POINTS`` points of
        ``draw_points``, skipping points where it is undefined:
        ``NON_ZERO`` at the first point where
        ``|value| > ZERO_TEST_TOL * max(1, max |term| / |den|)``, else
        ``NUMERICALLY_ZERO`` with a warning.  If no point could be drawn
        or evaluated, it is ``NON_ZERO`` with a warning.  The context
        draws the points of one ``(constraints, seed)``, and their value
        tables, once for all its zero tests (``_ZeroTestPoints``).
        """
        if not self.content:
            return ZeroStatus.ZERO
        ctx = self.ctx
        if not ctx.has_atoms(self.num):
            return ZeroStatus.NON_ZERO
        evaluated = 0
        key = (tuple(constraints), seed)
        points = ctx._zero_test_points.get(key)
        if points is None:
            points = ctx._zero_test_points[key] = _ZeroTestPoints(ctx, *key)
        try:
            for values in points:
                den_val = self.den.eval(values) / self.content
                if den_val == 0:
                    continue
                try:
                    terms = [float(t) for t in self.num.eval_terms(values)]
                except DomainError:
                    continue
                threshold = ZERO_TEST_TOL * max(1.0, max(map(abs, terms)) / abs(den_val))
                if abs(sum(terms) / den_val) > threshold:
                    return ZeroStatus.NON_ZERO
                evaluated += 1
        except SamplingExhausted:
            evaluated = 0
        if not evaluated:
            warnings.warn(
                "is_zero: sampling retry cap exhausted; reporting NonZero",
                stacklevel=2,
            )
            return ZeroStatus.NON_ZERO
        warnings.warn(
            "is_zero: expression is numerically zero at all sampled points "
            "but not canonically zero",
            stacklevel=2,
        )
        return ZeroStatus.NUMERICALLY_ZERO

    # -- reporting -------------------------------------------------------------

    def node_count(self) -> int:
        """Size of the canonical form: one node per coefficient, symbol and
        power, as the text form ``(a*N)/(b*D)`` for content a/b spells it."""
        total = _poly_nodes(self.num.scale(self.content.numerator))
        den = self.den.scale(self.content.denominator)
        if not _is_one(den):
            total += 1 + _poly_nodes(den)
        return total


def check_tol_and_box(tol: float, box: tuple[float, float]) -> None:
    """The rule on a check's tolerance and sampling box: a tolerance no
    deviation can exceed (NaN, infinity) passes everything, and a point
    drawn from a box with a non-finite bound has no exact value."""
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not all(map(isfinite, box)):
        raise ValueError(f"box bounds must be finite, got {box}")


def draw_points(
    dim: int,
    constraints: Iterable,
    seed: int,
    box: tuple[float, float] = (1.0, 2.0),
) -> Iterator[NumericPoint]:
    """Uniform draws from the box, rejection-sampled against the domain
    constraints, lazily and deterministically for a given seed; raises
    ``SamplingExhausted`` after ``RETRY_CAP`` rejections in a row."""
    constraints = tuple(constraints)
    rng = random.Random(seed)
    while True:
        for _attempt in range(RETRY_CAP):
            p = NumericPoint(
                x=tuple(rng.uniform(*box) for _ in range(dim)),
                y=tuple(rng.uniform(*box) for _ in range(dim)),
            )
            if all(c.holds_at(p) for c in constraints):
                yield p
                break
        else:
            raise SamplingExhausted(
                f"could not draw a valid point in {RETRY_CAP} attempts "
                f"(box {box}, {len(constraints)} constraints)"
            )


def real_root(v, q: int):
    """The real q-th root of a float, a Fraction or a Taylor jet (a float
    for a Fraction).  An odd root of a negative number takes its sign; an
    even one raises ``DomainError``."""
    if float(v) < 0:
        if q % 2 == 0:
            raise DomainError("negative radicand under an even root")
        return -((-v) ** (1.0 / q))
    return v ** (1.0 / q)


# -- internals -------------------------------------------------------------------


class _ZeroTestPoints:
    """The value tables of the first ``ZERO_TEST_POINTS`` points that
    ``draw_points`` gives for one (constraints, seed), drawn when first read
    and kept for every later zero test in the context.  A
    ``SamplingExhausted`` is kept at its position and raised there again."""

    def __init__(self, ctx: Context, constraints: tuple, seed: int):
        self._ctx = ctx
        self._draws = draw_points(ctx.dim, constraints, seed)
        self._tables: list = []

    def __iter__(self) -> Iterator["_SymbolValues"]:
        tables = self._tables
        for i in range(ZERO_TEST_POINTS):
            if i == len(tables):
                try:
                    p = next(self._draws)
                    tables.append(self._ctx.values_at([*p.x, *p.y]))
                except SamplingExhausted as exc:
                    tables.append(exc)
            if isinstance(tables[i], SamplingExhausted):
                raise tables[i].with_traceback(None)
            yield tables[i]


class _SymbolValues(dict):
    """The table of ``Context.values_at``: coordinates, then atoms as read."""

    def __init__(self, ctx: Context, coords: Sequence):
        super().__init__(enumerate(coords))
        self.ctx = ctx

    def __missing__(self, sym: int):
        atom = self.ctx.atom_at(sym)
        value = self[sym] = real_root(self.quotient(atom.radicand), atom.q)
        return value

    def quotient(self, e: "Expr"):
        """The value of ``e`` read through this table."""
        return e.num.eval(self) * e.content / e.den.eval(self)


class _PointValues(_SymbolValues):
    """The table of ``Context.point_values``.

    The 2n coordinates are written m_i / D over one common denominator D
    (a power of two for floats); the powers of each m_i, of D and of each
    atom are computed once per point.  For an expression's content a/b and
    its integer numerator, the atom-free terms of degree at most d in the
    coordinates sum to one int, a * sum c * prod m_i**k_i * D**(d - deg),
    over b * D**d.  A term with atoms is a float: its exact coordinate part
    a * c * prod m_i**k_i / (b * D**deg), rounded once, times the atom
    powers, and these terms are added in term order, as ``Poly.eval`` adds
    them."""

    def __init__(self, ctx: Context, coords: Sequence):
        super().__init__(ctx, coords)
        ratios = [v.as_integer_ratio() for v in coords]
        den = lcm(*(q for _, q in ratios))
        self._powers = [_Powers(p * (den // q)) for p, q in ratios]
        self._den_powers = _Powers(den)
        self._atom_powers: dict[tuple[int, int], float] = {}

    def _atom_power(self, sym: int, k: int) -> float:
        """The atom's value multiplied by itself k - 1 times, as in
        ``Poly.eval_terms``."""
        got = self._atom_powers.get((sym, k))
        if got is None:
            base = got = self[sym]
            for _ in range(k - 1):
                got = got * base
            self._atom_powers[sym, k] = got
        return got

    def _sums(self, p: Poly, content: Fraction = _ONE) -> tuple[int, int, float | None]:
        """(n, d, inexact): n / d is the sum of the atom-free terms of
        ``content * p``, and ``inexact`` the float sum of the others (None
        if none)."""
        a, b = content.numerator, content.denominator
        nsyms, den_powers = len(self._powers), self._den_powers
        exact, top, inexact = [], 0, None
        for key, c in p.terms.items():
            exps = unpack(key)
            mono = 1
            deg = 0
            for e, powers in zip(exps, self._powers):
                if e:
                    mono *= powers[e]
                    deg += e
            if len(exps) <= nsyms:
                exact.append((c, mono, deg))
                top = max(top, deg)
                continue
            term = (a * c * mono) / (b * den_powers[deg])
            for sym, e in enumerate(exps[nsyms:], nsyms):
                if e:
                    term = term * self._atom_power(sym, e)
            inexact = term if inexact is None else inexact + term
        n = sum(c * mono * den_powers[top - deg] for c, mono, deg in exact)
        return a * n, b * den_powers[top], inexact

    def quotient(self, e: "Expr") -> float:
        den, den_scale, _ = self._sums(e.den)  # denominators hold no atom
        if not den:
            raise DomainError("zero denominator at evaluation point")
        num, num_scale, inexact = self._sums(e.num, e.content)
        if inexact is None:
            return (num * den_scale) / (num_scale * den)
        if num:
            inexact = inexact + num / num_scale
        return inexact / (den / den_scale)


class _Powers(dict):
    """``base**k`` by k, computed when first read."""

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, k: int) -> int:
        value = self[k] = self.base**k
        return value


def _is_one(p: Poly) -> bool:
    return len(p.terms) == 1 and p.terms.get(0) == 1


def _signed(c: Fraction, p: Poly) -> tuple[Fraction, Poly]:
    """(±c, ±p) with a positive coefficient at the greatest key of ±p."""
    if p.terms[max(p.terms)] > 0:
        return c, p
    return -c, -p


def _primitive(c: Fraction, p: Poly) -> tuple[Fraction, Poly]:
    """``c * p`` for a nonzero p over the integers, as (content, canonical
    numerator)."""
    k, p = int_primitive(p)
    return _signed(c * k if k > 1 else c, p)


def _normalize(ctx: Context, c: Fraction, num: Poly, den: Poly) -> tuple[Fraction, Poly, Poly]:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in expression")
    if ctx.has_atoms(den):
        raise ExprError("internal: denominator carries radical atoms")
    num = _reduce_atoms(ctx, num)
    if num.is_zero() or not c:
        return _ZERO, Poly.zero(), Poly.one()
    k, den = make_primitive(den)
    return _cancelled(ctx, c / k, num, den)


def _cancelled(
    ctx: Context, c: Fraction, num: Poly, den: Poly, factored=None
) -> tuple[Fraction, Poly, Poly]:
    """``c * num / den`` for a nonzero num and a canonical den, as (content,
    numerator, denominator) in canonical form: num made primitive, then
    num and den divided by their gcd.  ``factored`` is den's whole
    factorization, if the caller holds it (``FactorBase.gcd_num_den``).
    The new den is ``FactorBase.expand`` of the factorization that the gcd
    leaves, so it is registered in the factor base."""
    c, num = _primitive(c, num)
    if _is_one(den):
        return c, num, den
    g, num_g, den_g = ctx.factors.gcd_num_den(num, den, factored)
    if not _is_one(g):
        c, num = _signed(c, num_g)
        den = ctx.factors.expand(*den_g)
    return c, num, den


def _product(ctx: Context, a: Expr, b: Expr, num: Poly) -> Expr:
    """a * b for nonzero a, b and ``num = _reduce_atoms(ctx, a.num * b.num)``:
    over a.den * b.den, with one gcd against the pair's factorization: the
    sum of their cached ones, of which the product is ``expand`` and is
    never factored, or for two monomials the key of their product."""
    x, y = a.content, b.content
    c = y if x == 1 else x if y == 1 else x * y
    da, db = a.den, b.den
    if len(da.terms) + len(db.terms) > 2:
        hint = _product_factors(ctx.factors._factor_all([da, db]))
        den = ctx.factors.expand(*hint)
    else:
        den = da * db
        hint = (next(iter(den.terms)), {})
    c, num, den = _cancelled(ctx, c, num, den, hint)
    return Expr(ctx, num, den, c, _normalized=True)


def _reduce_atoms(ctx: Context, p: Poly) -> Poly:
    """Rewrite atom powers >= q via atom**q -> radicand, in one pass over
    the terms per atom whose field in the span of the keys reaches q,
    highest atom first (a radicand holds lower symbols only).  A radicand
    is an integer polynomial (``Context.root`` clears its denominators), so
    the rewrite needs no denominator.  As in a ``Poly`` product, an
    exponent past the limit raises ``ExponentLimitError``."""
    terms = p.terms
    span = _span(terms)
    for sym in range((span.bit_length() - 1) // _BITS, 2 * ctx.dim - 1, -1):
        atom = ctx.atom_at(sym)
        q, shift = atom.q, _BITS * sym
        if span >> shift & _FIELD < q:
            continue
        powers, out, rewritten = atom.powers, {}, False
        for key, c in terms.items():
            e = key >> shift & _FIELD
            if e < q:
                out[key] = out.get(key, 0) + c
                continue
            t, r = divmod(e, q)
            got = powers.get(t)
            if got is None:
                rad = atom.radicand.num.scale(atom.radicand.content.numerator)
                rad_t = (rad**t).terms
                top = reduce(lambda a, b: a + b - _mono_min(a, b), rad_t, 0)  # greatest fields
                got = powers[t] = (tuple(rad_t.items()), top)
            key -= (e - r) << shift
            if (key + got[1]) & _GUARD:
                raise _limit_error()
            for k, d in got[0]:
                k += key
                out[k] = out.get(k, 0) + c * d
            rewritten = True
        if rewritten:
            terms = {key: c for key, c in out.items() if c}
            span = _span(terms)
    return p if terms is p.terms else Poly(terms)


def _poly_total_diff(ctx: Context, p: Poly, sym: int) -> Expr:
    """d/d(sym) of a polynomial, with chain rule through radical atoms."""
    atoms = (s for s in p.symbols() if ctx.is_atom_sym(s))
    pairs = ((Expr(ctx, p.diff(s), Poly.one()), ctx._atom_derivative(s, sym)) for s in atoms)
    return ctx.sum((Expr(ctx, p.diff(sym), Poly.one()),), pairs)


def _invert_atom_poly(ctx: Context, p: Poly) -> Expr:
    """Inverse of a polynomial containing radical atoms, as an expression
    with atom-free denominator (extended Euclid modulo t**q - radicand)."""
    atom_syms = [s for s in p.symbols() if ctx.is_atom_sym(s)]
    if not atom_syms:
        return Expr(ctx, Poly.one(), p)
    s = max(atom_syms)
    atom = ctx.atom_at(s)
    parts = p.split_by_symbol(s)
    deg = max(parts)
    u = [Expr(ctx, parts.get(i, Poly.zero()), Poly.one()) for i in range(deg + 1)]
    inv_coeffs = _ext_inverse(ctx, u, atom.q, atom.radicand)
    t = Expr(ctx, Poly.variable(s), Poly.one())
    return ctx.sum(c * t**i for i, c in enumerate(inv_coeffs) if not c.is_zero_expr())


def _ext_inverse(ctx: Context, u: list[Expr], q: int, radicand: Expr) -> list[Expr]:
    """Coefficients of u(t)^-1 modulo t**q - radicand over the expression
    field (whose elements involve only lower atoms)."""

    def trim(c: list[Expr]) -> list[Expr]:
        while c and c[-1].is_zero_expr():
            c.pop()
        return c

    def polymul(a: list[Expr], b: list[Expr]) -> list[Expr]:
        out = [ctx.zero] * (len(a) + len(b) - 1) if a and b else []
        for i, ca in enumerate(a):
            if ca.is_zero_expr():
                continue
            for j, cb in enumerate(b):
                if not cb.is_zero_expr():
                    out[i + j] = out[i + j] + ca * cb
        return trim(out)

    def polysub(a: list[Expr], b: list[Expr]) -> list[Expr]:
        out = list(a) + [ctx.zero] * (len(b) - len(a))
        for i, cb in enumerate(b):
            out[i] = out[i] - cb
        return trim(out)

    def polydivmod(a: list[Expr], b: list[Expr]) -> tuple[list[Expr], list[Expr]]:
        quo = [ctx.zero] * max(0, len(a) - len(b) + 1)
        rem = trim(list(a))
        while len(rem) >= len(b):
            k = len(rem) - len(b)
            c = rem[-1] / b[-1]
            quo[k] = quo[k] + c
            for i, cb in enumerate(b):
                rem[k + i] = rem[k + i] - c * cb
            rem.pop()
            rem = trim(rem)
        return trim(quo), rem

    m = [-radicand] + [ctx.zero] * (q - 1) + [ctx.one]
    r0, r1 = m, trim(list(u))
    y0, y1 = [ctx.zero], [ctx.one]
    while len(r1) > 1:
        quo, rem = polydivmod(r0, r1)
        r0, r1 = r1, rem
        y0, y1 = y1, polysub(y0, polymul(quo, y1))
    if not r1:
        raise ExprError("radical expression is a zero divisor; cannot invert")
    c = r1[0]
    return [yi / c for yi in y1]


def _point_coord_values(ctx: Context, point) -> list:
    if isinstance(point, NumericPoint):
        if len(point.x) != ctx.dim or len(point.y) != ctx.dim:
            raise ValueError("point dimension mismatch")
        raw = list(point.x) + list(point.y)
    elif isinstance(point, Mapping):
        names = ctx.coord_names + ctx.fiber_names
        missing = [name for name in names if name not in point]
        if missing:
            raise ValueError(f"point is missing a value for {missing[0]}")
        raw = [point[name] for name in names]
    else:
        raise TypeError("expected NumericPoint or mapping of names to values")
    return raw


def _poly_nodes(p: Poly) -> int:
    if p.is_zero():
        return 1
    total = len(p.terms) - 1
    for key, coeff in p.terms.items():
        factors = sum(1 + (e > 1) for e in unpack(key) if e)
        if factors == 0 or abs(coeff) != 1:
            factors += 1
        total += factors
    return total
