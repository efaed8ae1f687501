from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from finslercalc.poly import (
    EXPONENT_LIMIT,
    ExponentLimitError,
    Poly,
    div_exact,
    int_power_extract,
    int_primitive,
    iter_indices,
    make_primitive,
    pack,
    poly_gcd,
    power_free_extract,
    squarefree_decomposition,
    unpack,
    _interpolate,
)


x = Poly.variable(0)
y = Poly.variable(1)
z = Poly.variable(2)
one = Poly.one()


def small_polys(n_vars=3, max_terms=4, max_exp=2, max_coeff=5):
    monomial = st.tuples(*([st.integers(0, max_exp)] * n_vars))
    coeff = st.integers(-max_coeff, max_coeff).filter(lambda c: c != 0)

    def assemble(d):
        out = Poly.zero()
        for exps, c in d.items():
            out = out + Poly.monomial(exps, c)
        return out

    return st.dictionaries(monomial, coeff, min_size=0, max_size=max_terms).map(assemble)


class TestArithmetic:
    def test_add_cancel(self):
        assert (x + y - x - y).is_zero()

    def test_mul_distributes(self):
        assert (x + y) * (x - y) == x * x - y * y

    def test_pow(self):
        assert (x + one) ** 3 == x**3 + x * x * Poly.const(3) + x.scale(3) + one

    def test_diff(self):
        p = x**3 * y + y**2
        assert p.diff(0) == x * x * y * Poly.const(3)
        assert p.diff(1) == x**3 + y.scale(2)

    def test_eval_exact(self):
        p = x * y + Poly.const(3)
        assert p.eval([Fraction(1, 2), Fraction(3)]) == Fraction(9, 2)

    def test_leading_grlex(self):
        # total degree first, then lexicographic with x before y
        p = x * x + x * y * y
        exps, _ = p.leading()
        assert exps == (1, 2)
        p = x * x + x * y
        exps, _ = p.leading()
        assert exps == (2,)
        # degrees past 2**16 - 1 are summed field by field
        big = Poly.monomial((30000, 30000, 30000))
        p = big * (z + y.scale(-1)) + x
        assert p.leading() == ((30000, 30001, 30000), -1)
        p = Poly.monomial((30000, 30000, 5536), -1) + Poly.monomial((0, 30000))
        assert p.leading() == ((30000, 30000, 5536), -1)


class TestIntegralCoefficients:
    """A Poly is an element of Z[x]: arithmetic keeps int coefficients, and
    exact division gives an integral quotient or None."""

    def test_one_and_powers(self):
        assert all(type(c) is int for c in Poly.one().terms.values())
        assert all(type(c) is int for c in ((x + y) ** 3).terms.values())

    def test_primitive_part(self):
        content, prim = int_primitive(x.scale(6) - y.scale(4) + Poly.const(2))
        assert content == 2 and prim == x.scale(3) - y.scale(2) + one
        assert int_primitive(x.scale(3) + one) == (1, x.scale(3) + one)
        # make_primitive also fixes the sign of the grlex leading coefficient
        assert make_primitive(y.scale(4) - x.scale(6)) == (-2, x.scale(3) - y.scale(2))

    def test_products_and_sums(self):
        p = x.scale(2) + one
        for q in (
            p * p,
            p + x.scale(3),
            p.scale(4),
            (p * p).diff(0),
            p.mul_monomial(pack((0, 1)), 3),
            div_exact(p * p.scale(3), p),
            div_exact(p.scale(6), Poly.const(3)),
        ):
            assert all(type(c) is int for c in q.terms.values()), q
        # over the rationals these divide, over the integers they do not
        assert div_exact(p, Poly.const(2)) is None
        assert div_exact(p * p, p.scale(2)) is None


class TestPackedKeys:
    def test_pack_roundtrip(self):
        for exps in [(), (1,), (0, 3), (2, 0, 0, 7), (EXPONENT_LIMIT,) * 5]:
            assert unpack(pack(exps)) == exps
        assert pack((1, 0, 0)) == pack((1,)) == 1
        assert Poly.monomial((0, 2)) == y * y

    def test_product_key_is_the_sum(self):
        assert (x * y * y).terms == {pack((1, 2)): 1}
        assert Poly.monomial((3, 1)).mul_monomial(pack((1, 0, 2))) == Poly.monomial((4, 1, 2))

    def test_divisibility_near_the_limit(self):
        top = Poly.monomial((EXPONENT_LIMIT, 1))
        assert div_exact(top, Poly.monomial((EXPONENT_LIMIT,))) == y
        assert div_exact(top, Poly.monomial((0, 2))) is None
        # a borrow out of x's field must not look like a multiple
        assert div_exact(Poly.monomial((0, 1)), x) is None
        assert div_exact(Poly.monomial((0, 1)) + one, x + one) is None

    def test_exponent_limit(self):
        near = x**EXPONENT_LIMIT
        assert near.degree_in(0) == EXPONENT_LIMIT
        for make in (
            lambda: near * x,
            lambda: Poly.monomial((20000,)) ** 2,
            lambda: near.mul_monomial(pack((1,))),
            lambda: Poly.monomial((EXPONENT_LIMIT + 1,)),
            lambda: Poly.monomial((0, 1 << 16)),
        ):
            with pytest.raises(ExponentLimitError, match=str(EXPONENT_LIMIT)):
                make()


class TestDivision:
    def test_exact(self):
        a = (x + y) * (x * x + y)
        assert div_exact(a, x + y) == x * x + y

    def test_inexact_returns_none(self):
        assert div_exact(x * x + y, x + one) is None

    def test_by_constant(self):
        assert div_exact(x.scale(6), Poly.const(3)) == x.scale(2)

    def test_by_monomial(self):
        assert div_exact(x * x * y.scale(4) + x * y * z.scale(2), x * y.scale(2)) == (
            x.scale(2) + z
        )
        # the quotient 2*x + z/2 is not integral
        assert div_exact(x * x * y.scale(4) + x * y * z, x * y.scale(2)) is None
        assert div_exact(x * x + y, x) is None
        assert div_exact(x * z, z * z) is None

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_product_division_roundtrip(self, a, b):
        if b.is_zero():
            return
        q = div_exact(a * b, b)
        assert q == a


class TestGcd:
    def test_coprime(self):
        assert poly_gcd(x + one, y + one) == one

    def test_common_factor(self):
        g = x + y
        assert poly_gcd(g * (x + one), g * (y + one)) == g

    def test_monomials(self):
        assert poly_gcd(x * x * y, x * y * z) == x * y

    def test_content_normalization(self):
        g = poly_gcd((x + y).scale(4), (x + y).scale(6))
        assert g == x + y

    def test_sign(self):
        g = poly_gcd((x - y).scale(-1), (x - y) * (x + y))
        _, lead = g.leading()
        assert lead > 0

    @given(small_polys(n_vars=2), small_polys(n_vars=2), small_polys(n_vars=2))
    @settings(max_examples=40, deadline=None)
    @example(a=x + one, b=one - x, c=x * y + x)
    @example(a=x * z + y, b=z + one, c=one)
    def test_gcd_divides_and_catches_common_factor(self, a, b, c):
        if a.is_zero() or b.is_zero() or c.is_zero():
            return
        g = poly_gcd(a * c, b * c)
        assert div_exact(a * c, g) is not None
        assert div_exact(b * c, g) is not None
        assert div_exact(g, make_primitive(c)[1]) is not None

    def test_high_degree_gcd(self):
        # the heuristic gcd reconstructs (x^1000 + 1)^4 from 4001 digits
        p = (x**1000 + one) ** 5
        assert poly_gcd(p, p.diff(0)) == (x**1000 + one) ** 4

    def test_reconstruction_stops_past_the_degree(self):
        xi = 101
        h = Poly.const(1 + xi + xi**2 + xi**3)
        assert _interpolate(h, 0, xi, 3) == one + x + x**2 + x**3
        assert _interpolate(h, 0, xi, 2) is None


class TestSquarefree:
    def test_decomposition(self):
        p = (x + y) ** 2 * (x + one)
        decomp = dict()
        for fac, mult in squarefree_decomposition(p):
            decomp[mult] = fac
        assert decomp[2] == x + y
        assert decomp[1] == x + one

    def test_power_free_extract(self):
        content, a, b = power_free_extract((x + y) ** 2 * x.scale(12), 2)
        # 12*x*(x+y)^2 = 3 * (3x... content*: content = 12, a = x, b = (x+y)
        assert b == x + y
        assert a == x
        assert content == 12

    def test_int_power_extract(self):
        assert int_power_extract(72, 2) == (2, 6)
        assert int_power_extract(8, 3) == (1, 2)
        assert int_power_extract(7, 2) == (7, 1)


def test_iter_indices_order():
    got = list(iter_indices(2, 2))
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(iter_indices(3, 0)) == [()]
