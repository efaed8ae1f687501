import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
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

from conftest import STRUCTURE_NAMES, make_structure


@pytest.fixture(scope="module")
def ctx():
    return Context(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"])


def zero_diff(a, b):
    return (a - b).is_zero_expr()


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


class TestSubstitute:
    def test_to_zero(self, ctx):
        e = ctx.parse("y3^2")
        assert e.substitute({Var("y", 3): ctx.zero}).is_zero_expr()

    def test_rescale(self, ctx):
        e = ctx.parse("x3*y1/y2")
        got = e.substitute({Var("x", 3): ctx.one, Var("y", 2): ctx.one})
        assert str(got) == "y1"

    def test_unknown_identifier(self, ctx):
        e = ctx.parse("x3*y1")
        with pytest.raises(UnknownIdentifierError):
            e.substitute({Var("x", 9): ctx.one})

    def test_through_radical(self, ctx):
        e = ctx.sqrt(ctx.parse("x3*y1^2"))
        got = e.substitute({Var("x", 3): ctx.number(4)})
        assert zero_diff(got, ctx.fiber(1).scale(2) * ctx.sqrt(ctx.one))


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
def _expr_strategy(ctx):
    atoms = st.sampled_from(
        [ctx.base(1), ctx.base(2), ctx.fiber(1), ctx.fiber(2)]
    ) | st.integers(-3, 3).map(ctx.number)

    def combine(children):
        a, b = children
        return st.sampled_from([a + b, a - b, a * b])

    return st.recursive(atoms, lambda s: st.tuples(s, s).flatmap(combine), max_leaves=8)


class TestArithmeticAgainstFloats:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, data):
        ctx = Context(2, ["x1", "x2"], ["y1", "y2"])
        e = data.draw(_expr_strategy(ctx))
        point = {"x1": 1.25, "x2": 1.5, "y1": 1.75, "y2": 1.125}
        # rebuild the float value from the canonical form only
        got = e.eval_at(point)
        assert got == pytest.approx(got, abs=0)  # finite
        # canonical equality is stable under printing
        assert ctx.parse(str(e)) == e
