"""The per-Context denominator factor base: its gcds equal ``poly_gcd``, and
its invariants hold after every registry object is built."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslercalc import registry
from finslercalc.poly import (
    FactorBase,
    Poly,
    make_primitive,
    poly_gcd,
    squarefree_decomposition,
)

from conftest import geometry_for
from test_poly import small_polys

x = Poly.variable(0)
y = Poly.variable(1)
z = Poly.variable(2)
one = Poly.one()


def check_factor_base(fb: FactorBase) -> None:
    """Elements are primitive, positive-leading, not divisible by a symbol,
    squarefree and pairwise coprime; every cached factorization multiplies
    back exactly to its denominator."""
    for i, f in enumerate(fb.elements):
        assert len(f.terms) > 1
        assert make_primitive(f) == (1, f)
        assert poly_gcd(f, Poly.monomial((1,) * (max(f.symbols()) + 1))) == one
        assert squarefree_decomposition(f) == [(f, 1)], f"element {i} is not squarefree"
        for h in fb.elements[:i]:
            assert poly_gcd(f, h) == one, "elements are not pairwise coprime"
    for den, (mono, exps) in fb._factored.items():
        product = Poly.monomial(mono)
        for i, e in exps.items():
            product = product * fb.elements[i] ** e
        assert product == den


def factors(n_vars=3):
    """Non-monomial primitive polynomials with positive leading coefficient."""
    return (
        small_polys(n_vars=n_vars, max_terms=3, max_exp=2, max_coeff=3)
        .filter(lambda p: len(p.terms) > 1)
        .map(lambda p: make_primitive(p)[1])
    )


def monomials(n_vars=3):
    return st.tuples(*([st.integers(0, 2)] * n_vars)).map(Poly.monomial)


class TestFactorBase:
    def test_refinement_split(self):
        fb = FactorBase()
        fb.factor((x + y) * (x + one))
        assert fb.elements == [(x + y) * (x + one)]
        # (x + y) is a proper factor of the element: it splits in two
        mono, exps = fb.factor(z * (x + y) ** 2 * (y + one))
        assert fb.elements == [x + y, x + one, y + one]
        assert fb._refinements == 1
        assert (mono, exps) == ((0, 0, 1), {0: 2, 2: 1})
        assert fb.gcd_dens((x + y) * (x + one), (x + y) ** 2) == x + y
        check_factor_base(fb)

    def test_num_den_proper_factor(self):
        fb = FactorBase()
        den = x * ((x + y) * (x + one)) ** 3
        num = x * y * (x + y) ** 2 * (y + one)
        assert fb.gcd_num_den(num, den) == poly_gcd(num, den) == x * (x + y) ** 2

    @given(
        factors(), factors(), factors(), factors(),
        monomials(), monomials(),
        st.lists(st.integers(0, 3), min_size=5, max_size=5),
    )
    @settings(max_examples=25, deadline=None)
    @example(
        f1=x + y, f2=x + one, f3=y + z, num_factor=x * y + z,
        m1=x, m2=y * z, powers=[2, 1, 3, 1, 2],
    )
    def test_gcds_equal_poly_gcd(self, f1, f2, f3, num_factor, m1, m2, powers):
        a1, a2, b1, b3, n1 = powers
        fb = FactorBase()
        # f1 * f2 enters as one element (when squarefree); the later
        # denominators hold f1 alone, which forces a refinement split
        reducible = make_primitive(f1 * f2)[1]
        fb.factor(reducible)
        a = make_primitive(m1 * f1**a1 * f2**a2)[1]
        b = make_primitive(m2 * f1**b1 * f3**b3)[1]
        nums = [m2 * num_factor * f1**n1, f3 * f2**n1 + m1, reducible]
        assert fb.gcd_dens(a, b) == poly_gcd(a, b)
        assert fb.gcd_dens(b, reducible) == poly_gcd(b, reducible)
        for num in nums:
            for den in (a, b, reducible):
                assert fb.gcd_num_den(num, den) == poly_gcd(num, den)
        check_factor_base(fb)


@pytest.mark.parametrize("name", ["perturbed-flat-2d", "worked-3d", "cuberoot-3d"])
def test_invariants_after_full_registry(name):
    geom = geometry_for(name)
    for object_id in registry.base_object_ids():
        registry.resolve(geom, object_id)
    fb = geom.ctx.factors
    check_factor_base(fb)
    if name == "perturbed-flat-2d":
        # the denominators there are not monomials: the base is in use
        assert fb.elements and fb._factored
