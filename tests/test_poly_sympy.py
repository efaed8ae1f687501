"""Polynomial algorithms against sympy, on random products of small
polynomials.  sympy is a test-only witness; the module is skipped without it."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslercalc import Context, poly
from finslercalc.expr import Expr
from finslercalc.poly import (
    Poly,
    div_exact,
    make_primitive,
    poly_gcd,
    power_free_extract,
    squarefree_decomposition,
)

from test_poly import small_polys

sympy = pytest.importorskip("sympy")

SYMS = sympy.symbols("s0:3")


def to_sympy(p: Poly):
    """The same polynomial, over the integers when its coefficients are."""
    total = sympy.Integer(0)
    for exps, c in p.sorted_terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for sym, e in zip(SYMS, exps):
            term *= sym**e
        total += term
    return sympy.Poly(total, *SYMS)


def same_up_to_sign(ours: Poly, theirs) -> bool:
    """Equal to sympy's primitive polynomial over the integers, whose sign
    follows a different monomial order."""
    if not theirs.is_zero:
        theirs = theirs.primitive()[1]
    mine = to_sympy(ours)
    return mine == theirs or mine == -theirs


class TestAgainstSympy:
    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=30, deadline=None)
    def test_gcd(self, a, b, c):
        a, b = a * c, b * c
        g = poly_gcd(a, b)
        assert same_up_to_sign(g, sympy.gcd(to_sympy(a), to_sympy(b)))
        if not g.is_zero():
            assert make_primitive(g) == (1, g)

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=15, deadline=None)
    def test_gcd_prs_fallback(self, a, b, c):
        """With the heuristic gcd made to fail, every gcd runs the
        subresultant PRS fallback."""
        a, b = a * c, b * c
        with mock.patch.object(poly, "_heugcd", lambda *args: None):
            g = poly_gcd(a, b)
        assert same_up_to_sign(g, sympy.gcd(to_sympy(a), to_sympy(b)))

    @given(
        small_polys(), small_polys(), small_polys(),
        small_polys().filter(lambda p: len(p.terms) > 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_div_exact(self, a, b, c, m):
        """Division in Z[x]: any divisor, and a multi-term one (the heap
        division) also with its terms in ascending key order, so that its
        leading term is the last key; the dividends include multiples plus
        a remainder.  A divisor divides when it leaves no remainder and an
        integral quotient."""
        ascending = Poly(dict(sorted(m.terms.items())))
        for divisor in (b, m, ascending):
            if divisor.is_zero():
                continue
            for dividend in (a, a * divisor, a * divisor + c):
                # one divisor leaves no remainder exactly when it divides
                q, r = sympy.div(
                    to_sympy(dividend).as_expr(), to_sympy(divisor).as_expr(), *SYMS
                )
                got = div_exact(dividend, divisor)
                if r == 0 and all(c.is_Integer for c in sympy.Poly(q, *SYMS).coeffs()):
                    assert got is not None and to_sympy(got).as_expr() == q
                else:
                    assert got is None

    @given(small_polys(n_vars=2), small_polys(n_vars=2), small_polys(n_vars=2))
    @settings(max_examples=20, deadline=None)
    def test_squarefree_decomposition(self, a, b, c):
        p = a * b**2 * c**3
        if p.is_zero():
            return
        ours = squarefree_decomposition(p)
        product = Poly.one()
        for fac, mult in ours:
            product = product * fac**mult
        assert product == make_primitive(p)[1]
        _, theirs = sympy.sqf_list(to_sympy(p))
        by_mult: dict[int, object] = {}
        for fac, mult in theirs:
            by_mult[mult] = by_mult.get(mult, 1) * fac
        assert {m for _, m in ours} == set(by_mult)
        for fac, mult in ours:
            assert same_up_to_sign(fac, by_mult[mult])

    @given(small_polys(n_vars=2), small_polys(n_vars=2))
    @settings(max_examples=20, deadline=None)
    def test_power_free_extract(self, a, b):
        p = a * b**3
        if p.is_zero():
            return
        for q in (2, 3):
            content, rest, root = power_free_extract(p, q)
            assert (rest * root**q).scale(content) == p
            _, theirs = sympy.sqf_list(to_sympy(p))
            expected = sympy.Poly(1, *SYMS, domain="ZZ")
            for fac, mult in theirs:
                expected *= fac ** (mult // q)
            assert same_up_to_sign(root, expected)


class TestDerivativeAgainstSympy:
    @given(
        small_polys(max_terms=3),
        st.lists(small_polys(max_terms=2).filter(bool), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), min_size=3, max_size=3),
        st.integers(0, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_diff_of_a_quotient(self, num, factors, powers, k):
        """N/D with D a product of small polynomials at powers 1-3: ``diff``
        equals ``sympy.cancel`` of sympy's derivative, parsed back.  sympy
        gets D as the product, which it cancels faster than D expanded."""
        ctx = Context(2, ["x1", "x2"], ["y1", "y2"])
        names = dict(zip(SYMS, sympy.symbols("x1 x2 y1")))  # the context's symbols 0-2
        den, theirs = Poly.one(), to_sympy(num).as_expr()
        for f, p in zip(factors, powers):
            den = den * f**p
            theirs = theirs / to_sympy(f).as_expr() ** p
        ours = Expr(ctx, num, den).diff(ctx.var_named(str(names[SYMS[k]])))
        theirs = sympy.cancel(sympy.diff(theirs.subs(names), names[SYMS[k]]))
        assert ours == ctx.parse(str(theirs).replace("**", "^"))
