import math
import operator
import time
import warnings
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslercalc import (
    Constraint,
    Context,
    DomainError,
    NumericPoint,
    ParseError,
    UnknownIdentifierError,
    Var,
    ZeroStatus,
)

from finslercalc import DOWN, build, define, expr, nonzero_components, poly, registry
from finslercalc.expr import Expr, _point_coord_values, _poly_total_diff
from finslercalc.poly import FactorBase, Poly, div_exact, int_primitive

from atom_reduction import reduce_atoms_by_split
from conftest import STRUCTURE_NAMES, geometry_for, make_structure
from test_factor_base import factors, monomials, multiplied_out
from test_poly import small_polys


@pytest.fixture(scope="module")
def ctx():
    return Context(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"])


def zero_diff(a, b):
    return (a - b).is_zero_expr()


def assert_canonical(e):
    """``e`` is c * N / D with a reduced Fraction c and primitive N and D
    over the integers: D with a positive grlex leading coefficient, N with
    a positive coefficient at its greatest packed key; zero is 0 * 0 / 1."""
    c = e.content
    assert type(c) is Fraction and c.denominator > 0
    assert math.gcd(c.numerator, c.denominator) == 1
    for p in (e.num, e.den):
        assert all(type(k) is int for k in p.terms.values())
    assert int_primitive(e.den)[0] == 1 and e.den.leading()[1] > 0
    if not c:
        assert e.num.is_zero() and e.den == Poly.one()
        return
    assert int_primitive(e.num)[0] == 1
    assert e.num.terms[max(e.num.terms)] > 0


class TestParse:
    def test_worked_metric_function(self, ctx):
        e = ctx.parse("x3*y1^3/y2 + y3^2")
        manual = (
            ctx.base(3) * ctx.fiber(1) ** 3 / ctx.fiber(2) + ctx.fiber(3) ** 2
        )
        assert e == manual

    def test_atom(self, ctx):
        assert ctx.parse("y1") == ctx.var(Var("y", 1))

    def test_sqrt_square_cancels(self, ctx):
        assert str(ctx.parse("sqrt(y1^2)^2")) == "y1^2"

    def test_decimal_literals_exact(self, ctx):
        assert ctx.parse("0.5*y1").scale(2) == ctx.fiber(1)

    def test_rational_exponent(self, ctx):
        e = ctx.parse("y1^(1/2)")
        assert zero_diff(e * e, ctx.fiber(1))

    def test_negative_exponent(self, ctx):
        assert zero_diff(ctx.parse("y1^-2"), 1 / ctx.fiber(1) ** 2)

    def test_parenthesized_integer_exponent(self, ctx):
        assert ctx.parse("y2^(-2)") == ctx.parse("y2^-2")
        assert ctx.parse("y2^(3)") == ctx.parse("y2^3")

    def test_no_implicit_multiplication(self, ctx):
        with pytest.raises(ParseError):
            ctx.parse("2 y1")

    def test_syntax_error_position(self, ctx):
        with pytest.raises(ParseError) as err:
            ctx.parse("y1 + ")
        assert err.value.position == 5

    def test_unknown_identifier(self, ctx):
        with pytest.raises(UnknownIdentifierError) as err:
            ctx.parse("y1 + q7")
        assert err.value.name == "q7"

    def test_unary_minus(self, ctx):
        assert zero_diff(ctx.parse("-y1^2"), -(ctx.fiber(1) ** 2))


class TestParseLimits:
    """Oversized powers, radicands and products are refused before
    expansion; no case here expands anything beyond the limits."""

    @pytest.mark.parametrize(
        "text, words",
        [
            ("(x1+x2+y1+y2)^100", "176851 terms"),
            ("(x1+x2+y1+y2)^-100", "176851 terms"),
            ("(x1+x2+y1+y2)^(100/3)", "176851 terms"),
            ("y1^1001", "exponent 1001"),
            ("y1^(1/1001)", "exponent 1/1001"),
            ("((x1+x2+y1+y2)/(x1+y1+y2+1))^(1/600)", "radicand"),
            ("sqrt((x1+x2+y1+y2)^10*(x2+y3))", "radicand"),
            ("(x1+x2+y1+y2)^20*(x1+2*x2+y1+y2)^20", "product would expand to about 135751"),
            ("(x1+x2+y1+y2)^20/(x1+2*x2+y1+y2)^-20", "product would expand to about 135751"),
            ("((x1^1000)^1000)^1000", "power ^1000 would reach degree 1000000"),
            ("(y1^1000)^20*(y1^1000)^13", "product would reach degree 33000"),
            ("(y1^1000)^20/(y1^1000)^-13", "product would reach degree 33000"),
            ("(1/y1^1000)^(1/40)", "root radicand would reach degree 39000"),
        ],
    )
    def test_refused_fast(self, ctx, text, words):
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as err:
            ctx.parse(text)
        assert time.perf_counter() - t0 < 1.0
        assert words in str(err.value)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("y1^2+y2^(1/0)", 11),
            ("y1^2+y2^(0/0)", 11),
            ("y1^2+y2^(-3/0)", 12),
            ("0^-1", 1),
            ("(y1-y1)^-2", 7),
            ("sqrt(0)^-1", 7),
            ("y1^2+y2^2+0^(-1/2)", 11),
        ],
    )
    def test_division_by_zero(self, ctx, text, position):
        """A zero exponent denominator, and a zero base under a negative
        exponent, integer or not, are refused where they occur."""
        with pytest.raises(ParseError) as err:
            ctx.parse(text)
        assert str(err.value) == f"division by zero at position {position}"
        assert err.value.position == position

    def test_zero_base_under_positive_exponent(self, ctx):
        assert ctx.parse("0^(1/2)") == ctx.parse("0^3") == ctx.zero
        assert ctx.parse("0^0") == ctx.one

    def test_monomial_powers_pass(self, ctx):
        assert ctx.parse("y1^1000") == ctx.fiber(1) ** 1000
        # degree 32767 in one symbol is the most a polynomial can hold
        assert ctx.parse("(y1^1000)^32*y1^767").num.degree_in(ctx.sym_of(Var("y", 1))) == 32767
        assert len(ctx.parse("(x1+x2+y1+y2)^10").num.terms) == 286

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_standard_structures_parse(self, name):
        assert make_structure(name).f_squared is not None


class TestDifferentiate:
    def test_power_rule(self, ctx):
        e = ctx.parse("x3*y1^3/y2")
        assert str(e.diff(Var("y", 1))) == "3*x3*y1^2/y2"

    def test_metric_component(self, ctx):
        f0 = ctx.parse("x3*y1^3/y2 + y3^2")
        g11 = f0.diff(Var("y", 1)).diff(Var("y", 1)).scale(Fraction(1, 2))
        assert str(g11) == "3*x3*y1/y2"

    def test_sqrt_chain_rule(self, ctx):
        e = ctx.parse("x3*y1^3/y2 + y3^2")
        root = ctx.sqrt(e)
        v = Var("y", 1)
        assert zero_diff(root.diff(v) * root.scale(2), e.diff(v))

    def test_base_fiber_independent(self, ctx):
        e = ctx.parse("x1*y1")
        assert str(e.diff(Var("x", 1))) == "y1"
        assert str(e.diff(Var("y", 1))) == "x1"

    def test_derivatives_commute(self, ctx):
        e = ctx.parse("sqrt(x1*y1^3/y2 + y3^2)")
        for u in (Var("x", 1), Var("y", 1)):
            for v in (Var("y", 2), Var("y", 3)):
                assert e.diff(u).diff(v) == e.diff(v).diff(u)


class TestCanonical:
    def test_constant_fold(self, ctx):
        assert str(ctx.parse("4 - 3 + 0*y1")) == "1"

    def test_sign_rule_after_cancellation(self, ctx):
        """x1 - y1 has a positive grlex leading coefficient (at x1) but a
        negative one at its greatest packed key (at y1), so cancelling it
        flips the sign of a numerator; each result is made canonical
        again, by products, sums over one, two and coprime denominators,
        inverses and the normalizing constructor alike."""
        g = ctx.parse("x1 - y1")
        sym = ctx.sym_of
        g_poly = Poly.variable(sym(Var("x", 1))) - Poly.variable(sym(Var("y", 1)))
        y2_poly = Poly.variable(sym(Var("y", 2)))
        cases = [
            (g * ctx.fiber(2) * (1 / g), "y2"),
            (ctx.parse("y1/(x1-y1) - x1/(x1-y1)"), "-1"),
            (
                ctx.parse("(y1-x1+y2)/((x1-y1)*y2) + (y1-x1-x2)/((x1-y1)*x2)"),
                "-(x2+y2)/(x2*y2)",
            ),
            ((ctx.fiber(2) / g) ** -1, "(x1-y1)/y2"),
            (Expr(ctx, g_poly * y2_poly, g_poly.scale(3)), "y2/3"),
            ((1 / g).diff(Var("y", 1)), "1/(x1-y1)^2"),
        ]
        for got, text in cases:
            assert_canonical(got)
            assert got == ctx.parse(text), text

    def test_common_denominator(self, ctx):
        a = ctx.parse("y1^3*x3/y2 + y3^2")
        b = ctx.parse("(x3*y1^3 + y2*y3^2)/y2")
        assert (a - b).is_zero_expr()

    def test_inverse_metric_entry(self, ctx):
        # cross-multiplied form of the worked example's g^{11}
        e = ctx.parse("4*y2/(3*x3*y1)")
        assert zero_diff(e * ctx.parse("3*x3*y1"), ctx.parse("4*y2"))

    def test_idempotent_via_roundtrip(self, ctx):
        for text in (
            "x3*y1^3/y2 + y3^2",
            "sqrt(x3*y1^3/y2 + y3^2)",
            "(x1*y2^3+y1^2*y3)^(2/3)",
            "-3/2*x3*y1^2/y2^2",
        ):
            e = ctx.parse(text)
            assert ctx.parse(str(e)) == e
            assert str(ctx.parse(str(e))) == str(e)

    def test_equal_functions_same_structure(self, ctx):
        a = ctx.parse("(y1 + y2)^2/(y1 + y2)")
        b = ctx.parse("y1 + y2")
        assert a == b
        # distinct radicand spellings share one canonical atom
        c = ctx.parse("sqrt(y1/2)")
        d = ctx.parse("sqrt(2*y1)/2")
        assert c == d


# terms of a sum: numerators and denominators that share factors or none,
# monomial denominators, a radical atom, and x1^2 - 1 before x1 - 1, which
# splits a factor-base element while the sum factors its denominators (a
# monomial numerator leaves its denominator unfactored until then)
_SUM_NUMS = [
    "1", "y1*y2", "x1 + 1", "x2 + y1", "y1*y2 - x1", "x1 - 1",
    "sqrt(y1^2 + y2^2)", "y1 + sqrt(y1^2 + y2^2)",
]
_SUM_DENS = [
    "1", "y1", "x1^2*y2", "x1^2 - 1", "x1 - 1", "(x1 - 1)^2", "x1 + 1",
    "x2 + y1", "(x2 + y1)^2*(x1 - 1)",
]
_SUM_TERMS = st.lists(
    st.tuples(
        st.sampled_from(_SUM_NUMS),
        st.sampled_from(_SUM_DENS),
        st.fractions(-4, 4, max_denominator=6).filter(bool),
    ),
    min_size=1,
    max_size=6,
)


def _sum_context():
    return Context(2, ["x1", "x2"], ["y1", "y2"])


def _count_gcds(monkeypatch) -> list:
    """The argument tuples of every ``FactorBase.gcd_num_den`` call from now
    on; each call's (g, num / g, factorization of den / g) is passed on."""
    calls = []
    gcd_num_den = FactorBase.gcd_num_den

    def counted(self, *args):
        calls.append(args)
        return gcd_num_den(self, *args)

    monkeypatch.setattr(FactorBase, "gcd_num_den", counted)
    return calls


class TestSum:
    @given(_SUM_TERMS, st.booleans())
    @settings(max_examples=60, deadline=None)
    @example([("1", "x1^2 - 1", Fraction(1)), ("1", "x1 - 1", Fraction(2))], False)
    @example([("x1 + 1", "(x1 - 1)^2", Fraction(1)), ("y1*y2", "x1 + 1", Fraction(-1, 2))], True)
    @example([("1", "y1", Fraction(1, 3)), ("x1 + 1", "x1 - 1", Fraction(3, 2))], True)
    def test_sum_equals_the_folds(self, specs, cancel):
        """``Context.sum`` equals the left and the right fold of ``+``, is
        canonical, and has the value of the terms' sum; with ``cancel`` the
        first term comes again negated, so a one-term draw sums to zero."""
        ctx = _sum_context()
        terms = [ctx.parse(n).scale(c) / ctx.parse(d) for n, d, c in specs]
        if cancel:
            terms.append(-terms[0])
        total = ctx.sum(terms)
        assert_canonical(total)
        assert total == reduce(operator.add, terms)
        assert total == reduce(lambda acc, t: t + acc, reversed(terms))
        if cancel and len(specs) == 1:
            assert total.is_zero_expr()
        values = [t.eval_at(_POINT) for t in terms]
        scale = max(map(abs, values))
        assert math.isclose(total.eval_at(_POINT), math.fsum(values), abs_tol=1e-12 * scale)

    def test_one_gcd_per_sum(self, monkeypatch):
        ctx = _sum_context()
        terms = [
            ctx.parse(text)
            for text in (
                "(x1 + 1)/(x1 - 1)^2",
                "y1/((x1 - 1)*(x2 + y1))",
                "x2/(x2 + y1)^2",
                "(x1 - 1)/(x1 + 1)",
                "y2/x1^2",
                "(y1 - x2)/(x1 - 1)^2",
            )
        ]
        calls = _count_gcds(monkeypatch)
        total = ctx.sum(terms)
        assert len(calls) <= 1
        monkeypatch.undo()
        assert total == reduce(operator.add, terms)

    def test_add_is_the_two_term_sum(self, ctx):
        a, b = ctx.parse("x1/(x2 + y1)"), ctx.parse("y2/(x2 + y1)^2")
        assert a + b == ctx.sum([a, b]) == ctx.sum([ctx.zero, a, ctx.zero, b])
        assert ctx.sum([]) == ctx.zero and ctx.sum([a]) is a


    def test_sum_and_constructor_cancel_a_shared_factor(self, monkeypatch):
        ctx = _sum_context()
        f, g, h, y1 = (ctx.parse(t).num for t in ("x1 + y1", "y2", "x1 + y1 + y2", "y1"))
        calls = _count_gcds(monkeypatch)
        # 1/(f*g) - 1/(f*h) = (h - g)/(f*g*h) = 1/(g*h): the sum's gcd is f
        terms = [Expr(ctx, Poly.one(), f * g), -Expr(ctx, Poly.one(), f * h)]
        total = ctx.sum(terms)
        reduced = Expr(ctx, f * y1, f * g)
        assert calls
        assert (total.num, total.den) == (Poly.one(), g * h)
        assert (reduced.num, reduced.den) == (y1, g)


def _draw_quotient(draw, ctx, fs, monomial_den=None):
    """c * N / D over powers of the shared non-monomial factors ``fs``,
    with a numerator that may hold one of them; ``monomial_den`` True or
    False draws D a monomial or not, None either."""
    num = draw(st.sampled_from([Poly.one(), *fs])) * draw(
        small_polys(n_vars=3, max_terms=2, max_exp=1, max_coeff=3)
    )
    powers = [0 if monomial_den else draw(st.integers(0, 2)) for _ in fs]
    if monomial_den is False and not any(powers):
        powers[draw(st.integers(0, len(fs) - 1))] = draw(st.integers(1, 2))
    den = draw(monomials())
    for f, e in zip(fs, powers):
        den = den * f**e
    return Expr(ctx, num, den, draw(st.fractions(-3, 3, max_denominator=4)))


@st.composite
def _fused_sums(draw):
    """(context, terms, pairs, minus) for ``Context.sum``: expressions
    ``_draw_quotient`` over one to two shared non-monomial factors, and
    zero factors among them."""
    ctx = _sum_context()
    fs = draw(st.lists(factors(), min_size=1, max_size=2))

    def exprs(k):
        return [_draw_quotient(draw, ctx, fs) for _ in range(draw(st.integers(0, k)))]

    def pairs(k):
        return [
            (_draw_quotient(draw, ctx, fs), _draw_quotient(draw, ctx, fs))
            for _ in range(draw(st.integers(0, k)))
        ]

    return ctx, exprs(2), pairs(3), pairs(2)


@st.composite
def _products(draw):
    """(context, a, b): two ``_draw_quotient`` factors whose denominators
    are both monomials, one of each, or both not."""
    ctx = _sum_context()
    fs = draw(st.lists(factors(), min_size=1, max_size=2))
    kinds = draw(st.sampled_from([(True, True), (True, False), (False, True), (False, False)]))
    return (ctx, *(_draw_quotient(draw, ctx, fs, kind) for kind in kinds))


def assert_fused_sum(ctx, terms, pairs, minus):
    """The sum of terms and unnormalized products is canonical and equals
    the sum of the terms and the normalized products."""
    total = ctx.sum(terms, pairs, minus)
    assert_canonical(total)
    assert total == ctx.sum([*terms, *(a * b for a, b in pairs), *(-(a * b) for a, b in minus)])
    return total


class TestSumOfProducts:
    """``Context.sum(terms, pairs, minus)`` adds products a * b without
    normalizing them, over the denominator pairs (a.den, b.den)."""

    @given(_fused_sums())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_sum_of_normalized_products(self, drawn):
        assert_fused_sum(*drawn)

    @pytest.mark.parametrize(
        "terms, pairs, minus, expected",
        [
            # a numerator shares x1 + y1 with the other factor's denominator,
            # which only the product brings to its greatest exponent
            (["x2/(x1 + y1)"], [("(x1 + y1)/y2", "y1/(x1 + y1)^2")], [],
             "(x2*y2 + y1)/(y2*(x1 + y1))"),
            # the same for the monomial part: y2^2 in the denominator pair
            (["1/y2"], [("y2/(x1 + 1)", "x1/y2^2")], [], "(x1 + 1 + x1)/(y2*(x1 + 1))"),
            # atom powers reduce: sqrt(R)*sqrt(R) = R, over monomial denominators
            # (which normalize the product) and over others
            ([], [("sqrt(y1^2 + y2^2)", "sqrt(y1^2 + y2^2)")], [], "y1^2 + y2^2"),
            ([], [("sqrt(y1^2 + y2^2)/x1", "sqrt(y1^2 + y2^2)/(x1 + y1)")], [],
             "(y1^2 + y2^2)/(x1*(x1 + y1))"),
            (["x1"], [("sqrt(y1^2 + y2^2)/(x1 + y1)", "(x2 + sqrt(x1 + y2))/y1")], [],
             "x1 + sqrt(y1^2 + y2^2)*(x2 + sqrt(x1 + y2))/((x1 + y1)*y1)"),
            ([], [("x1/(x2 + y1)", "y2/(x1 + 1)")], [("y2/(x1 + 1)", "x1/(x2 + y1)")], "0"),
            (["x1*y2/((x2 + y1)*(x1 + 1))"], [], [("x1/(x2 + y1)", "y2/(x1 + 1)")], "0"),
            ([], [("(x1 + y1)/(x2 + y1)", "(x2 + y1)^2/(x1 + y1)")], [], "x2 + y1"),
            ([], [], [("y1/(x1 + 1)", "(x1 + 1)/(x2 + y2)")], "-y1/(x2 + y2)"),
            (["y1"], [("0", "1/(x1 + 1)"), ("x1/(x1 + 1)", "1/x2")], [("1/(x2 + 1)", "0")],
             "y1 + x1/((x1 + 1)*x2)"),
        ],
    )
    def test_examples(self, monkeypatch, terms, pairs, minus, expected):
        """Each is one sum with at most one gcd, that factors no product of
        two denominators."""
        ctx = _sum_context()
        terms = [ctx.parse(t) for t in terms]
        pairs, minus = ([tuple(map(ctx.parse, pair)) for pair in group] for group in (pairs, minus))
        one = Poly.one()
        products = {a.den * b.den for a, b in [*pairs, *minus] if one not in (a.den, b.den)}
        products -= {t.den for t in terms}
        factored = []
        factor = FactorBase.factor
        monkeypatch.setattr(
            FactorBase, "factor", lambda self, p: factored.append(p) or factor(self, p)
        )
        calls = _count_gcds(monkeypatch)
        total = ctx.sum(terms, pairs, minus)
        assert len(calls) <= 1
        assert not products.intersection(factored)
        monkeypatch.undo()
        assert total == ctx.parse(expected)
        assert assert_fused_sum(ctx, terms, pairs, minus) == total


def assert_product(ctx, a, b):
    """``a * b`` is canonical, is the one product ``Context.sum`` forms, and
    equals the constructor's normalization of the expanded quotient."""
    got = a * b
    assert_canonical(got)
    assert got == ctx.sum((), ((a, b),))
    assert got == Expr(ctx, a.num * b.num, a.den * b.den, a.content * b.content)
    return got


class TestProduct:
    """``a * b`` multiplies, then takes one gcd over the factored pair of
    denominators (``expr._product``, shared with ``Context.sum``)."""

    @given(_products())
    @settings(max_examples=80, deadline=None)
    def test_canonical_and_the_sum_of_one_product(self, drawn):
        assert_product(*drawn)

    @pytest.mark.parametrize(
        "dim, a, b, expected",
        [
            # a radical atom squared over a non-monomial denominator
            (2, "sqrt(x1/(y1 + 1))", "sqrt(x1/(y1 + 1))", "x1/(y1 + 1)"),
            (2, "sqrt(x1/(y1 + 1))", "(y1 + 1)/sqrt(x1/(y1 + 1))", "y1 + 1"),
            # a nested atom: berwald-4d's F, squared and times its inverse
            (4, "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))", "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))",
             "x1*y4*sqrt(y1^2+y2^2+y3^2)"),
            (4, "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))", "1/sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))", "1"),
            (4, "y1/sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))", "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))/(x1 + y4)",
             "y1/(x1 + y4)"),
        ],
    )
    def test_radical_examples(self, dim, a, b, expected):
        ctx = Context(dim, [f"x{i}" for i in range(1, dim + 1)], [f"y{i}" for i in range(1, dim + 1)])
        a, b = ctx.parse(a), ctx.parse(b)
        assert assert_product(ctx, a, b) == ctx.parse(expected)

    @pytest.mark.parametrize(
        "a, b",
        [
            ("(x2 + y1)/(x1 + y1)^2", "y2/((x1 + y1)*(x2 + 1))"),
            ("(x1 + y1)/(y2*(x2 + y1))", "(x2 + y1)^2/(x1^2*(x1 + y1))"),
            ("sqrt(y1^2 + y2^2)/(x1 + 1)", "sqrt(y1^2 + y2^2)/(x2 + y2)^2"),
        ],
    )
    def test_no_expanded_denominator_is_factored(self, monkeypatch, a, b):
        """Over two non-monomial denominators, both already factored, the
        gcd reads the pair's factorization: ``FactorBase.factor`` never
        sees the expanded product a.den * b.den."""
        ctx = _sum_context()
        a, b = ctx.parse(a), ctx.parse(b)
        ctx.factors._factor_all([a.den, b.den])
        factored = []
        factor = FactorBase.factor
        monkeypatch.setattr(
            FactorBase, "factor", lambda self, p: factored.append(p) or factor(self, p)
        )
        got = a * b
        assert a.den * b.den not in factored
        assert all(p in (a.den, b.den) for p in factored)
        monkeypatch.undo()
        assert got == assert_product(ctx, a, b)


# a quotient to differentiate: numerators with and without a radical atom
# (sqrt(x1 + 1) gives N' the denominator x1 + 1 under d/dx1), and nested
# radicals, whose N' has the denominator B of an inverted radicand that
# holds an atom (the last two, _NESTED_NUMS); denominators
# that are a monomial in the variable, free of it, a repeated element, and
# (x1 + 1)*(y1^2 + y2^2) expanded, which is squarefree but not primitive in
# y1 and splits when x1 + 1 arrives in the factor base
_DIFF_NUMS = [
    "1", "y1*y2 - x1", "x1 + 1", "x2 + y1", "y1^2 + y2^2",
    "sqrt(y1^2 + y2^2)", "y1 + sqrt(x1 + 1)", "x2*sqrt(y1^2 + y2^2) + y1",
    "sqrt(x1*y2*sqrt(y1^2 + y2^2))", "y1*sqrt(x2 + sqrt(x1 + 1))",
]
_NESTED_NUMS = _DIFF_NUMS[-2:]
_DIFF_DENS = [
    "1", "y1^2", "x1*y1", "x1 - 1", "(y1^2 + y2^2)^3", "(x2 + y1)^2*(x1 - 1)",
    "x1*y1^2 + x1*y2^2 + y1^2 + y2^2", "x1 + 1", "y1*(x1 + 1)^2*(y1^2 + y2^2)",
]


def _textbook_diff(e, sym):
    """(N'*D - N*D') / (D*D), from ``Context.sum`` and ``*``."""
    ctx = e.ctx
    num, den = Expr(ctx, e.num, Poly.one()), Expr(ctx, e.den, Poly.one())
    top = ctx.sum([_poly_total_diff(ctx, e.num, sym) * den,
                   -(num * _poly_total_diff(ctx, e.den, sym))])
    return (top / (den * den)).scale(e.content)


class TestQuotientDerivative:
    @given(
        st.sampled_from(_DIFF_NUMS), st.sampled_from(_DIFF_DENS),
        st.fractions(-4, 4, max_denominator=6).filter(bool),
        st.sampled_from(["x1", "y1", "y2"]), st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    @example("x1 + 1", "x1 - 1", Fraction(1), "y1", False)  # the derivative is 0
    @example("y1 + sqrt(x1 + 1)", "x1*y1^2 + x1*y2^2 + y1^2 + y2^2", Fraction(1), "x1", False)
    @example("y1*y2 - x1", "x1*y1^2 + x1*y2^2 + y1^2 + y2^2", Fraction(-2, 3), "y1", True)
    @example("x2*sqrt(y1^2 + y2^2) + y1", "(y1^2 + y2^2)^3", Fraction(1), "y1", False)
    def test_equals_the_textbook_quotient_rule(self, num, den, c, name, x1_first):
        """``diff`` over the factored denominator equals the quotient rule
        over D**2 and is canonical.  With ``x1_first``, x1 + 1 is a
        factor-base element before the quotient is built; without it, the
        expanded (x1 + 1)*(y1^2 + y2^2) enters whole and splits when a
        derivative meets x1 + 1 (the atom sqrt(x1 + 1) under d/dx1)."""
        ctx = _sum_context()
        if x1_first:
            ctx.factors.factor(ctx.parse("x1 + 1").num)
        e = ctx.parse(num).scale(c) / ctx.parse(den)
        v = ctx.var_named(name)
        got = e.diff(v)
        assert_canonical(got)
        assert got == _textbook_diff(e, ctx.sym_of(v))

    @pytest.mark.parametrize("num", _NESTED_NUMS)
    def test_nested_radicals(self, num):
        """Every denominator and variable with a nested-radical numerator:
        d/dx1 of sqrt(x2 + sqrt(x1 + 1)) divides by its radicand, which
        holds an atom, so B comes from ``_invert_atom_poly``; the one
        quotient over B*D*R equals the textbook rule."""
        for den in _DIFF_DENS:
            ctx = _sum_context()
            e = ctx.parse(num) / ctx.parse(den)
            for name in ("x1", "y1", "y2"):
                sym = ctx.var_named(name)
                got = e.diff(sym)
                assert_canonical(got)
                assert got == _textbook_diff(e, ctx.sym_of(sym)), (den, name)

    def test_no_square_of_the_denominator(self, monkeypatch):
        """d/dy1 of x1/(y1^2 + y2^2)^6 forms no product of degree 24 =
        deg D**2."""
        ctx = _sum_context()
        e = ctx.parse("x1/(y1^2 + y2^2)^6")
        degrees = []
        mul = Poly.__mul__

        def recorded_mul(a, b):
            product = mul(a, b)
            degrees.append(product.total_degree())
            return product

        monkeypatch.setattr(Poly, "__mul__", recorded_mul)
        got = e.diff(Var("y", 1))
        monkeypatch.undo()
        assert degrees and max(degrees) < 24
        assert got == ctx.parse("-12*x1*y1/(y1^2 + y2^2)^7")


def _named_products(calls: list):
    """A ``FactorBase.gcd_num_den`` that appends, for each call given a
    factorization, (den, the monomial times the element powers it names)
    to ``calls``, and for every call (den / g, the same for the
    factorization of den / g that it returns)."""
    gcd_num_den = FactorBase.gcd_num_den

    def recorded(fb, num, den, factored=None):
        if factored is not None:
            calls.append((den, multiplied_out(fb, factored)))
        g, num_g, den_g = gcd_num_den(fb, num, den, factored)
        calls.append((div_exact(den, g), multiplied_out(fb, den_g)))
        return g, num_g, den_g

    return recorded


class TestWholeFactorization:
    """Every gcd that a sum, a product or a derivative runs against a
    denominator reads that denominator's whole factorization."""

    @given(
        _SUM_TERMS, st.sampled_from(_DIFF_NUMS), st.sampled_from(_DIFF_DENS),
        st.sampled_from(["x1", "y1", "y2"]),
    )
    @settings(max_examples=40, deadline=None)
    @example([("x1 - 1", "x1^2*y2", Fraction(1)), ("y1*y2", "y1", Fraction(1))],
             "x1", "(y1^2 + y2^2)^3", "y1")
    @example([("x1 + 1", "(x2 + y1)^2*(x1 - 1)", Fraction(1)), ("1", "x1 - 1", Fraction(2))],
             "y1 + sqrt(x1 + 1)", "y1*(x1 + 1)^2*(y1^2 + y2^2)", "x1")
    def test_factorizations_multiply_out_to_the_denominator(self, specs, num, den, name):
        ctx = _sum_context()
        terms = [ctx.parse(n).scale(c) / ctx.parse(d) for n, d, c in specs]
        quotient = ctx.parse(num) / ctx.parse(den)
        calls = []
        with mock.patch.object(FactorBase, "gcd_num_den", _named_products(calls)):
            ctx.sum(terms)
            ctx.sum(terms[:1], list(zip(terms, terms[1:])))
            reduce(operator.mul, terms)
            for e in (*terms, quotient):
                e.diff(ctx.var_named(name))
        assert [(den, named) for den, named in calls if den != named] == []


def assert_registered(e: Expr) -> None:
    """A non-monomial denominator of e is in its context's factorization
    cache: ``factor`` of it runs no gcd and no division, and its
    factorization multiplies out to it."""
    if len(e.den.terms) == 1:
        return
    fb = e.ctx.factors
    assert e.den in fb._factored
    calls = []

    def spy(f):
        def counted(*args):
            calls.append(f.__name__)
            return f(*args)

        return counted

    with mock.patch.object(poly, "poly_gcd", spy(poly.poly_gcd)), mock.patch.object(
        poly, "div_exact", spy(poly.div_exact)
    ):
        factored = fb.factor(e.den)
    assert calls == []
    assert multiplied_out(fb, factored) == e.den


class TestRegisteredDenominators:
    """Every denominator that a sum, a product or a derivative forms is
    ``FactorBase.expand`` of its factorization, which enters it in the
    factorization cache: factoring it again is a lookup."""

    @given(
        _SUM_TERMS, st.sampled_from(_DIFF_NUMS), st.sampled_from(_DIFF_DENS),
        st.sampled_from(["x1", "y1", "y2"]),
    )
    @settings(max_examples=40, deadline=None)
    @example([("x1 + 1", "(x2 + y1)^2*(x1 - 1)", Fraction(1)), ("1", "x1^2 - 1", Fraction(2))],
             "y1 + sqrt(x1 + 1)", "y1*(x1 + 1)^2*(y1^2 + y2^2)", "x1")
    @example([("y1*y2", "x1 + 1", Fraction(1)), ("y1*y2", "x1 + 1", Fraction(-1, 2))],
             "x2 + y1", "x1*y1^2 + x1*y2^2 + y1^2 + y2^2", "y1")
    def test_every_formed_denominator_is_registered(self, specs, num, den, name):
        ctx = _sum_context()
        terms = [ctx.parse(n).scale(c) / ctx.parse(d) for n, d, c in specs]
        quotient = ctx.parse(num) / ctx.parse(den)
        assert_registered(quotient)
        if len(terms) > 1:
            assert_registered(ctx.sum(terms))
            assert_registered(ctx.sum(terms[:1], list(zip(terms, terms[1:]))))
        product = terms[0]
        for t in terms[1:]:
            product = product * t
            assert_registered(product)
        v = ctx.var_named(name)
        # each once: a second diff is read from the diff cache, and a
        # refinement since may have cleared its denominator's entry
        for e in dict.fromkeys((*terms, quotient)):
            assert_registered(e.diff(v))

    @pytest.mark.parametrize(
        "terms, pairs, quotient",
        [
            # one denominator: the numerator x1 + 1 is a proper factor of it
            (["x1/(x1^2 + 3*x1 + 2)", "1/(x1^2 + 3*x1 + 2)"], [],
             ("x1 + 1", "x1^2 + 3*x1 + 2")),
            # over the pair (x2 + y1, x1^2 + 3*x1 + 2): the numerator is
            # (x1 + 1)*(x2 + y1), so an element divides and one splits
            (["x1/(x1^2 + 3*x1 + 2)"], [("1/(x2 + y1)", "(x2 + y1)/(x1^2 + 3*x1 + 2)")],
             ("(x1 + 1)*(x2 + y1)", "(x2 + y1)*(x1^2 + 3*x1 + 2)")),
        ],
    )
    def test_a_gcd_that_splits_an_element(self, terms, pairs, quotient):
        """x1^2 + 3*x1 + 2 = (x1 + 1)*(x1 + 2) enters the factor base
        whole; a sum whose numerator shares x1 + 1 with it finds that by
        ``poly_gcd``, which splits the element at once: den / g is the
        factorization with x1 + 1 taken off, and the sum's denominator is
        registered."""
        ctx = _sum_context()
        terms = [ctx.parse(t) for t in terms]
        pairs = [tuple(map(ctx.parse, pair)) for pair in pairs]
        fb = ctx.factors
        assert ctx.parse("x1^2 + 3*x1 + 2").num in fb.elements
        refinements = fb._refinements
        total = ctx.sum(terms, pairs)
        assert fb._refinements == refinements + 1
        assert {ctx.parse("x1 + 1").num, ctx.parse("x1 + 2").num} <= set(fb.elements)
        assert_canonical(total)
        assert_registered(total)
        assert total == ctx.parse("1/(x1 + 2)")
        num, den = (ctx.parse(text).num for text in quotient)
        assert total == Expr(ctx, num, den)


class TestEvalAt:
    def test_arithmetic(self, ctx):
        e = ctx.parse("3*x3*y1/y2")
        assert e.eval_at({"x1": 1, "x2": 1, "x3": 2, "y1": 1, "y2": 3, "y3": 1}) == 2.0

    def test_numeric_point(self, ctx):
        e = ctx.parse("x1 + y2")
        assert e.eval_at(NumericPoint((1.0, 0.0, 0.0), (0.0, 2.5, 0.0))) == 3.5

    def test_zero_denominator(self, ctx):
        e = ctx.parse("1/y2")
        with pytest.raises(DomainError):
            e.eval_at({"x1": 1, "x2": 1, "x3": 1, "y1": 1, "y2": 0, "y3": 1})

    def test_negative_radicand(self, ctx):
        e = ctx.sqrt(ctx.base(1))
        with pytest.raises(DomainError):
            e.eval_at({"x1": -1, "x2": 1, "x3": 1, "y1": 1, "y2": 1, "y3": 1})

    def test_atom_free_expression_ignores_undefined_atoms(self, ctx):
        ctx.sqrt(ctx.parse("x1 - 3"))  # an atom of ctx, undefined where x1 < 3
        e = ctx.parse("x1*y1 + 1")
        assert e.eval_at({"x1": 1, "x2": 1, "x3": 1, "y1": 2, "y2": 1, "y3": 1}) == 3.0

    def test_exact_until_conversion(self, ctx):
        e = ctx.parse("(y1 + y2)^2 - y1^2 - 2*y1*y2 - y2^2 + 1/3")
        assert e.eval_at({"x1": 1, "x2": 1, "x3": 1, "y1": 0.1, "y2": 0.2, "y3": 1}) == (
            1.0 / 3.0
        )
        # coordinates that are not dyadic share one common denominator
        e = ctx.parse("(3*x1 - 1)*10^20 + y1")
        third = Fraction(1, 3)
        assert e.eval_at({"x1": third, "x2": 1, "x3": 1, "y1": 2, "y2": 1, "y3": 1}) == 2.0

    def test_radical_terms_are_added_to_the_exact_part(self, ctx):
        e = ctx.parse("sqrt(x1) + y1^2/3")
        assert e.eval_at({"x1": 2, "x2": 1, "x3": 1, "y1": 1, "y2": 1, "y3": 1}) == (
            2**0.5 + 1 / 3
        )

    def test_table_of_another_context_is_refused(self, ctx):
        other = Context(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        table = other.point_values(NumericPoint((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            ctx.parse("x1 + y2").eval_at(table)


class TestIsZero:
    def test_canonical_zero(self, ctx):
        e = ctx.parse("y1*y2 - y2*y1")
        assert e.is_zero() is ZeroStatus.ZERO

    def test_radical_normalization(self, ctx):
        e = ctx.parse("sqrt(y1^2*y2)*sqrt(y2) - y1*y2")
        assert e.is_zero() is ZeroStatus.ZERO

    def test_nonzero(self, ctx):
        assert ctx.parse("y1 - y2").is_zero(seed=3) is ZeroStatus.NON_ZERO

    def test_numerically_zero_flagged(self, ctx):
        # sqrt(y1)*sqrt(y2) - sqrt(y1*y2) vanishes on the positive box but
        # involves three distinct atoms, so it is not canonically zero
        e = ctx.parse("sqrt(y1)*sqrt(y2) - sqrt(y1*y2)")
        assert not e.is_zero_expr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = e.is_zero(seed=5)
        assert status is ZeroStatus.NUMERICALLY_ZERO
        assert any("numerically zero" in str(w.message) for w in caught)

    def test_rational_decided_without_sampling(self, ctx):
        # a rational expression is nonzero by its canonical form, however
        # small its values, and even where no point can be drawn
        never = [Constraint.parse("x1 > 3", ctx)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            small = ctx.parse("y1/10000000000").is_zero()
            undrawable = ctx.parse("y1 - y2").is_zero(constraints=never)
        assert small is ZeroStatus.NON_ZERO
        assert undrawable is ZeroStatus.NON_ZERO
        assert not caught

    def test_radical_with_no_drawable_point(self, ctx):
        e = ctx.parse("sqrt(y1^2 + y2^2) - y3")
        with pytest.warns(UserWarning, match="retry cap exhausted"):
            status = e.is_zero(constraints=[Constraint.parse("x1 > 3", ctx)])
        assert status is ZeroStatus.NON_ZERO

    def test_radical_undefined_at_every_point(self, ctx):
        # x1 - 3 < 0 on the sampling box, so no point evaluates
        e = ctx.parse("sqrt(x1 - 3)*y1")
        with pytest.warns(UserWarning, match="retry cap exhausted"):
            status = e.is_zero()
        assert status is ZeroStatus.NON_ZERO


class TestSharedZeroTestPoints:
    """A context draws the zero-test points of one (constraints, seed), and
    their value tables, once for every ``is_zero``; each status and
    warning is the one a fresh context gives."""

    @staticmethod
    def _count_draws(monkeypatch) -> list:
        calls = []
        draw_points = expr.draw_points

        def counted(*args):
            calls.append(args)
            return draw_points(*args)

        monkeypatch.setattr(expr, "draw_points", counted)
        return calls

    @staticmethod
    def _fresh_is_zero(text: str, constraints: list[str], seed: int):
        """(status, warning messages) of ``text`` in a context of its own."""
        fresh = Context(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        cons = [Constraint.parse(c, fresh) for c in constraints]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = fresh.parse(text).is_zero(constraints=cons, seed=seed)
        return status, [str(w.message) for w in caught]

    def test_one_draw_per_constraints_and_seed_on_berwald_4d(self, monkeypatch):
        geom = build(make_structure("berwald-4d"))
        constraints = geom.structure.constraints
        tensors = [registry.resolve(geom, oid) for oid in registry.verifiable_object_ids()]
        draws = self._count_draws(monkeypatch)
        radical = []
        for seed in (0, 1):
            for t in tensors:
                entries = nonzero_components(t, constraints=constraints, seed=seed)
                radical += [(seed, e) for e in entries if geom.ctx.has_atoms(e.expr.num)]
        assert len(draws) == 2  # one per seed, not one per radical component
        assert len(radical) > 50
        for seed, entry in radical:
            fresh = make_structure("berwald-4d")
            e = fresh.ctx.parse(str(entry.expr))
            assert e.is_zero(constraints=fresh.constraints, seed=seed) is entry.status

    def test_statuses_and_warnings_equal_fresh_contexts(self, monkeypatch):
        texts = ["sqrt(y1)*sqrt(y2) - sqrt(y1*y2)", "sqrt(y1^2 + y2^2) - y3", "y1 - y2",
                 "sqrt(y1*y3)*sqrt(y2) - sqrt(y1*y2*y3)", "sqrt(y1^2 + y3^2)/x1"]
        expected = [self._fresh_is_zero(text, ["x1 != 0"], 7) for text in texts]
        draws = self._count_draws(monkeypatch)
        ctx = Context(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        values = [ctx.parse(t) for t in texts]
        t = define("T", ctx, len(texts), (DOWN,), lambda idx: values[idx[0] - 1])
        constraints = [Constraint.parse("x1 != 0", ctx)]
        for _ in range(2):  # the second pass reads only kept tables
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                entries = nonzero_components(t, constraints=constraints, seed=7)
            assert [e.status for e in entries] == [status for status, _ in expected]
            assert [str(w.message) for w in caught] == [m for _, ms in expected for m in ms]
        statuses = [e.status for e in entries]
        assert statuses.count(ZeroStatus.NUMERICALLY_ZERO) == 2
        assert len(draws) == 1

    def test_sampling_exhausted_is_kept(self, monkeypatch):
        draws = self._count_draws(monkeypatch)
        ctx = Context(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"])
        values = [ctx.parse("sqrt(y1^2 + y2^2) - y3"), ctx.parse("sqrt(y1*y2)*x2")]
        t = define("T", ctx, 2, (DOWN,), lambda idx: values[idx[0] - 1])
        never = [Constraint.parse("x1 > 3", ctx)]
        checks = []
        holds_at = Constraint.holds_at
        monkeypatch.setattr(Constraint, "holds_at", lambda c, p: checks.append(p) or holds_at(c, p))
        for _ in range(2):
            with pytest.warns(UserWarning, match="retry cap exhausted") as caught:
                entries = nonzero_components(t, constraints=never, seed=0)
            assert [e.status for e in entries] == [ZeroStatus.NON_ZERO] * 2
            assert len(caught) == 2
        assert len(draws) == 1
        assert len(checks) == expr.RETRY_CAP  # the rejections run once, not per component
        fresh = self._fresh_is_zero("sqrt(y1*y2)*x2", ["x1 > 3"], 0)
        assert fresh == (ZeroStatus.NON_ZERO, ["is_zero: sampling retry cap exhausted; reporting NonZero"])


class TestRecords:
    """Var and NumericPoint are immutable value records."""

    @pytest.mark.parametrize(
        "kind, index, message",
        [("z", 1, "Var kind must be 'x' or 'y'"), ("x", 0, "Var index is 1-based")],
    )
    def test_var_validates(self, kind, index, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Var(kind, index)

    def test_equal_records_hash_alike(self):
        assert Var("y", 2) == Var(kind="y", index=2)
        assert hash(Var("y", 2)) == hash(Var(kind="y", index=2))
        assert Var("y", 2) != Var("x", 2)
        p, q = NumericPoint((1.0, 2.0), (3.0, 4.0)), NumericPoint(x=(1.0, 2.0), y=(3.0, 4.0))
        assert p == q and hash(p) == hash(q)
        assert p != NumericPoint((1.0, 2.0), (3.0, 5.0))

    def test_repr(self):
        assert repr(Var("x", 3)) == "Var(kind='x', index=3)"
        p = NumericPoint((1.0, -2.5), (0.125, 3.0))
        assert repr(p) == "NumericPoint(x=(1.0, -2.5), y=(0.125, 3.0))"
        assert f"{p}" == repr(p)

    def test_numeric_point_is_read_as_a_point(self, ctx):
        # not as a mapping of names, the other kind of point it takes
        point = NumericPoint((1, 2, 3), (4, 5, 6))
        assert _point_coord_values(ctx, point) == [1, 2, 3, 4, 5, 6]
        with pytest.raises(ValueError, match="point dimension mismatch"):
            _point_coord_values(ctx, NumericPoint((1, 2), (4, 5)))


class TestSoundness:
    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_canonical_zero_evaluates_to_zero(self, seed):
        ctx = Context(2, ["x1", "x2"], ["y1", "y2"])
        import random

        rng = random.Random(seed)
        a = ctx.parse("(x1*y1^2 + y2^3/y1)/(x2 + y2)")
        b = ctx.parse("(x1*y1^3 + y2^3)/(y1*(x2 + y2))")
        diff = a - b
        assert diff.is_zero_expr()
        point = {
            "x1": rng.uniform(1, 2),
            "x2": rng.uniform(1, 2),
            "y1": rng.uniform(1, 2),
            "y2": rng.uniform(1, 2),
        }
        assert abs(a.eval_at(point) - b.eval_at(point)) <= 1e-9 * max(
            1.0, abs(b.eval_at(point))
        )


# random expression trees: arithmetic on canonical forms agrees with
# float arithmetic on the same trees
_POINT = {"x1": Fraction(5, 4), "x2": Fraction(3, 2), "y1": Fraction(7, 4), "y2": Fraction(9, 8)}


def _expr_strategy(ctx):
    """(expression, its exact value at ``_POINT``) pairs: sums, differences
    and products of coordinates and small rational constants, and their
    quotients by nonzero constants."""
    constants = st.integers(-3, 3).map(Fraction) | st.fractions(-3, 3, max_denominator=6)
    coords = st.sampled_from(["x1", "x2", "y1", "y2"]).map(
        lambda name: (ctx.var(ctx.var_named(name)), _POINT[name])
    )
    leaves = coords | constants.map(lambda c: (ctx.number(c), c))

    def combine(children):
        (a, va), (b, vb) = children
        return st.sampled_from([(a + b, va + vb), (a - b, va - vb), (a * b, va * vb)])

    def extend(trees):
        quotients = st.tuples(trees, constants.filter(bool)).map(
            lambda t: (t[0][0] / t[1], t[0][1] / t[1])
        )
        return st.tuples(trees, trees).flatmap(combine) | quotients

    return st.recursive(leaves, extend, max_leaves=8)


class TestArithmeticAgainstFloats:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, data):
        ctx = Context(2, ["x1", "x2"], ["y1", "y2"])
        e, value = data.draw(_expr_strategy(ctx))
        # rebuild the value from the canonical form only: the point is
        # dyadic, so its floats are exact and the one rounding is the last
        point = {name: float(v) for name, v in _POINT.items()}
        assert e.eval_at(point) == float(value)
        # canonical equality and hashing are stable under printing
        back = ctx.parse(str(e))
        assert back == e and hash(back) == hash(e)
        assert (back - e).is_zero_expr()


@pytest.mark.parametrize(
    "name", ["worked-3d", "perturbed-flat-2d", "polar-flat-2d", "berwald-4d", "cuberoot-3d"]
)
def test_canonical_form_invariants(name):
    """Every component of every object, and every atom's radicand, is in
    canonical form (``assert_canonical``)."""
    geom = geometry_for(name)
    for atom in geom.ctx._atoms:
        assert_canonical(atom.radicand)
    for object_id in registry.verifiable_object_ids():
        for _, e in registry.resolve(geom, object_id).components():
            assert_canonical(e)


def _assert_integer_radicands(ctx):
    for atom in ctx._atoms:
        assert atom.radicand.den == Poly.one(), atom
        assert atom.radicand.content.denominator == 1, atom


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_radicands_are_integer_polynomials(name):
    """Every atom interned while all 25 objects are built has a radicand
    with denominator 1 and integer content, so rewriting atom**q as its
    radicand (``expr._reduce_atoms``) brings in no denominator."""
    geom = geometry_for(name)
    for object_id in registry.base_object_ids():
        registry.resolve(geom, object_id)
    _assert_integer_radicands(geom.ctx)


def test_root_clears_radicand_denominators():
    """Rational and nested radicands are cleared to integer polynomials,
    and an atom power at its root index reduces to the radicand."""
    ctx = Context(2, ["x1", "x2"], ["y1", "y2"])
    a = ctx.parse("sqrt(x1/3 + y1^2/(2*x2))")
    b = ctx.parse("(y1/(5*x2) + sqrt(x1/7))^(1/3)")
    assert len(ctx._atoms) == 3
    _assert_integer_radicands(ctx)
    assert a * a == ctx.parse("x1/3 + y1^2/(2*x2)")
    assert b * b * b == ctx.parse("y1/(5*x2) + sqrt(x1/7)")


# radicands for ``Context.root``, {q} standing for the index: a monomial
# q-th power, a monomial with a q-th power in it, an atom in the pulled-out
# monomial (the tower case: the radicand keeps an atom), a negative
# content, rational and integer contents, and denominators; each with its
# printed roots for q = 2, 3, 4
_ROOTS = {
    "x1^{q}*y1^{q2}": ("x1*y1^2", "x1*y1^2", "x1*y1^2"),
    "x1^{q1}*y1^{q}*y2": ("x1*y1*sqrt(x1*y2)", "x1*y1*(x1*y2)^(1/3)", "x1*y1*(x1*y2)^(1/4)"),
    "y1^{q}*((x1 + 1)^(1/5))^{q}*(y2 + (x1 + 1)^(1/5))": (
        "y1*(x1 + 1)^(1/5)*sqrt(y2 + (x1 + 1)^(1/5))",
        "y1*(x1 + 1)^(1/5)*(y2 + (x1 + 1)^(1/5))^(1/3)",
        "y1*(y2*((x1 + 1)^(1/5))^4 + x1 + 1)^(1/4)",
    ),
    "-8*x1^3*y1": ("2*x1*sqrt(-2*x1*y1)", "-2*x1*(y1)^(1/3)", "(-8*x1^3*y1)^(1/4)"),
    "4/9*y1^2*(x2 + y2)": (
        "2*y1*sqrt(x2 + y2)/3",
        "(12*x2*y1^2 + 12*y1^2*y2)^(1/3)/3",
        "(36*x2*y1^2 + 36*y1^2*y2)^(1/4)/3",
    ),
    "12*x1*y1^{q}": ("2*y1*sqrt(3*x1)", "y1*(12*x1)^(1/3)", "y1*(12*x1)^(1/4)"),
    "y1/(x1*(y2 + 1)^2)": (
        "sqrt(x1*y1)/(x1*y2 + x1)",
        "(x1^2*y1*y2 + x1^2*y1)^(1/3)/(x1*y2 + x1)",
        "(x1^3*y1*y2^2 + 2*x1^3*y1*y2 + x1^3*y1)^(1/4)/(x1*y2 + x1)",
    ),
    "x1^2*(y1 + y2)^{q}/(y1^3 + y2^3)": (
        "x1*sqrt(y1^3 + y2^3)/(y1^2 - y1*y2 + y2^2)",
        "(x1^2*y1^6 + 2*x1^2*y1^3*y2^3 + x1^2*y2^6)^(1/3)/(y1^2 - y1*y2 + y2^2)",
        "(x1^2*y1^9 + 3*x1^2*y1^6*y2^3 + 3*x1^2*y1^3*y2^6 + x1^2*y2^9)^(1/4)"
        "/(y1^2 - y1*y2 + y2^2)",
    ),
    "-27/8*(x1 + y1)^3/y2^2": (
        "(3*x1*sqrt(-6*x1 - 6*y1) + 3*y1*sqrt(-6*x1 - 6*y1))/(4*y2)",
        "(-3*x1*(y2)^(1/3) - 3*y1*(y2)^(1/3))/(2*y2)",
        "(-54*x1^3*y2^2 - 162*x1^2*y1*y2^2 - 162*x1*y1^2*y2^2 - 54*y1^3*y2^2)^(1/4)/(2*y2)",
    ),
}


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("radicand", list(_ROOTS))
def test_root(radicand, q, monkeypatch):
    """``Context.root`` builds one expression, with no product of
    expressions, whose q-th power is the radicand; the texts are pinned."""
    ctx = _sum_context()
    e = ctx.parse(radicand.format(q=q, q1=q + 1, q2=2 * q))
    products = []
    monkeypatch.setattr(Expr, "__mul__", lambda a, b: products.append((a, b)))
    root = ctx.root(e, q)
    monkeypatch.undo()
    assert not products
    assert_canonical(root)
    assert str(root) == _ROOTS[radicand][q - 2]
    assert root**q == e


def _atom_context(q1: int, q2: int | None):
    """A context with the atom a = (y1^2 + x1*y2)^(1/q1) at symbol 4 and,
    if q2 is given, the nested atom b = (y1 + x2*a)^(1/q2) at symbol 5."""
    ctx = Context(2, ["x1", "x2"], ["y1", "y2"])
    a = ctx.root(ctx.parse("y1^2 + x1*y2"), q1)
    if q2 is not None:
        ctx.root(ctx.parse("y1") + ctx.parse("x2") * a, q2)
    assert [atom.sym for atom in ctx._atoms] == list(range(4, 4 + len(ctx._atoms)))
    return ctx


def _reduced_or_limit(reduce_atoms, ctx, p):
    try:
        return reduce_atoms(ctx, p)
    except poly.ExponentLimitError:
        return "exponent limit"


class TestReduceAtoms:
    """The one-pass rewrite of atom powers gives what the split-based
    rewrite it replaced gives (``tests/atom_reduction.py``), and refuses an
    exponent past the limit in the same cases."""

    @given(
        st.sampled_from([2, 3, 4]),
        st.sampled_from([None, 2, 3, 4]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_split_rewrite(self, q1, q2, data):
        ctx = _atom_context(q1, q2)
        y1_exponents = st.one_of(
            st.integers(0, 3), st.integers(poly.EXPONENT_LIMIT - 6, poly.EXPONENT_LIMIT)
        )
        term = st.tuples(
            st.integers(-3, 3).filter(bool),
            st.integers(0, 2),
            y1_exponents,
            st.integers(0, 2 * q1 + 1),
            st.integers(0, 2 * (q2 or 0) + 1 if q2 else 0),
        )
        terms = data.draw(st.lists(term, min_size=1, max_size=6))
        p = sum(
            (Poly({poly.pack((ex, 0, ey, 0, ea, eb)): c}) for c, ex, ey, ea, eb in terms),
            Poly.zero(),
        )
        want = _reduced_or_limit(reduce_atoms_by_split, ctx, p)
        assert _reduced_or_limit(expr._reduce_atoms, ctx, p) == want

    def test_unchanged_below_every_root_index(self):
        ctx = _atom_context(3, 2)
        p = Poly({poly.pack((1, 0, 0, 0, 2, 1)): 1, poly.pack((0, 0, 1, 0, 1)): 2})
        assert expr._reduce_atoms(ctx, p) is p
