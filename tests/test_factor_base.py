"""The per-Context denominator factor base: its gcds equal ``poly_gcd``, and
its invariants hold after every registry object is built."""

import contextlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslercalc import poly, registry
from finslercalc.poly import (
    FactorBase,
    Poly,
    div_exact,
    make_primitive,
    poly_gcd,
    squarefree_decomposition,
    unpack,
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
    for den, factored in fb._factored.items():
        assert multiplied_out(fb, factored) == den


def multiplied_out(fb: FactorBase, factored) -> Poly:
    """The monomial of a factorization (key, {element: exponent}) times
    its element powers."""
    mono, exps = factored
    product = Poly({mono: 1})
    for i, e in exps.items():
        product = product * fb.elements[i] ** e
    return product


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
        assert (unpack(mono), exps) == ((0, 0, 1), {0: 2, 2: 1})
        assert_common_denominator(fb, (x + y) * (x + one), (x + y) ** 2)
        check_factor_base(fb)

    def test_num_den_proper_factor(self):
        fb = FactorBase()
        den = x * ((x + y) * (x + one)) ** 3
        num = x * y * (x + y) ** 2 * (y + one)
        g, cofactor, den_g = fb.gcd_num_den(num, den)
        assert g == poly_gcd(num, den) == x * (x + y) ** 2
        assert cofactor == y * (y + one)
        # (x + y)**2 is a proper factor of the element's cube: den / g is
        # divided out and factored, which splits the element
        assert set(fb.elements) == {x + y, x + one}
        assert multiplied_out(fb, den_g) == (x + y) * (x + one) ** 3

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
        assert_common_denominator(fb, a, b)
        assert_common_denominator(fb, b, reducible)
        for num in nums:
            for den in (a, b, reducible):
                assert_num_den_gcd(fb, num, den)
        check_factor_base(fb)

    @pytest.mark.parametrize("images", ["used", "certificate fails", "none"])
    @given(factors(), factors(), factors(), monomials(), st.integers(0, 2), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    @example(f1=x + y, f2=x * y + z, num_factor=x + one, m=x, n=1, e=2)
    def test_num_den_gcd_and_cofactor(self, images, f1, f2, num_factor, m, n, e):
        """The gcd and its cofactor equal ``poly_gcd`` and ``div_exact``.
        With the certificate made to fail, every gcd that trial division
        leaves falls back to ``poly_gcd``; with no images at all, every
        trial division is an exact division."""
        den = make_primitive(m * f1**e * f2)[1]
        nums = [num_factor * f1**n, num_factor.scale(3) + f2, f1 * f2 + m]
        fb = FactorBase()
        with contextlib.ExitStack() as stack:
            if images == "certificate fails":
                stack.enter_context(mock.patch.object(poly, "_gcd_degree_mod", lambda a, b: 1))
            elif images == "none":
                stack.enter_context(
                    mock.patch.object(FactorBase, "_element_image", lambda self, f: None)
                )
            for num in nums:
                assert_num_den_gcd(fb, num, den)


class TestExpand:
    """``expand`` multiplies a factorization out once, canonically, and
    enters it in the cache so that ``factor`` of it is a lookup."""

    @given(st.lists(factors(), min_size=1, max_size=3), monomials(),
           st.lists(st.integers(0, 3), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    @example(fs=[(x + y) * (x + one), x + y], m=x * y, powers=[2, 1, 3])
    def test_canonical_and_factored_back(self, fs, m, powers):
        fb = FactorBase()
        for f in fs:
            fb.factor(f)
        (key,) = m.terms
        exps = {i: powers[i % 3] for i in range(len(fb.elements)) if powers[i % 3]}
        p = fb.expand(key, exps)
        assert make_primitive(p) == (1, p)
        assert p == multiplied_out(fb, (key, exps))
        assert fb.factor(p) == (key, exps)
        # a base that holds the same elements and factors p from scratch
        fresh = FactorBase()
        fresh.elements = list(fb.elements)
        assert fresh.factor(p) == (key, exps)
        muls = []
        with mock.patch.object(Poly, "__mul__", lambda a, b: muls.append(1)):
            again = fb.expand(key, dict(exps))
        assert again == p and not muls
        if exps:
            assert again is p

    def test_refinement_renames_the_indices(self):
        """After (x + y)*(x + 1) splits, index 0 names x + y alone, and
        ``expand`` multiplies the new elements out."""
        fb = FactorBase()
        fb.factor((x + y) * (x + one))
        assert fb.expand(0, {0: 2}) == ((x + y) * (x + one)) ** 2
        fb.factor(x + y)
        assert fb.elements == [x + y, x + one]
        assert fb.expand(0, {0: 2}) == (x + y) ** 2
        (key,) = x.terms
        assert fb.expand(key, {0: 1, 1: 1}) == x * (x + y) * (x + one)
        check_factor_base(fb)


class TestCommonDenominatorMemo:
    """``common_denominator`` is kept per key set until a refinement renames
    the element indices its factorization names."""

    def test_second_call_multiplies_nothing(self):
        fb = FactorBase()
        dens = [((x + y) ** 2 * x,), ((x + one) * (x + y), y * (y + z)), (z,)]
        first = fb.common_denominator(dict.fromkeys(dens))
        muls = []
        mul = Poly.__mul__
        with mock.patch.object(Poly, "__mul__", lambda a, b: muls.append(1) or mul(a, b)):
            second = fb.common_denominator(dict.fromkeys(dens))
        assert not muls
        assert second == first
        assert first[0] == x * z * (x + y) ** 2 * (x + one) * y * (y + z)

    @given(factors(), factors(), factors(), monomials(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    @example(f1=x + y, f2=x + one, f3=y + z, m=x, e=2)
    def test_after_refinement_equals_a_fresh_base(self, f1, f2, f3, m, e):
        """f1 * f2 enters whole; f1 alone then splits it (when it is
        squarefree), and the key set's results, asked again, are those of
        a fresh base, with a factorization in the new indices."""
        dens = dict.fromkeys([
            (make_primitive(m * (f1 * f2) ** e)[1],),
            (make_primitive(f3 * f1 * f2)[1], f3),
        ])
        fb = FactorBase()
        before = fb.common_denominator(dens)
        refinements = fb._refinements
        fb.factor(f1)
        got = fb.common_denominator(dens)
        fresh = FactorBase().common_denominator(dens)
        assert got[:2] == fresh[:2] == before[:2]
        assert multiplied_out(fb, got[2]) == got[0]
        if (f1, f2, f3, m, e) == (x + y, x + one, y + z, x, 2):
            assert fb._refinements == refinements + 1


class TestPartialHint:
    """``gcd_num_den`` with a ``factored`` hint that names only a part of
    den: when g divides the named part, the result is ``poly_gcd``'s.  No
    caller passes such a hint (each passes den's whole factorization or
    none); these pin that the gcd reads the factors it is given and no
    others."""

    def test_named_part_only(self):
        fb = FactorBase()
        den = x * (x + y) ** 2 * (y + z) ** 3
        num = (x + y) * (x * z + one)  # shares x + y with den, nothing else
        mono, exps = fb.factor(den)
        i = fb.elements.index(x + y)
        hint = (0, {i: exps[i]})
        g, num_g = gcd_num_den_checked(fb, num, den, hint)
        assert (g, num_g) == (x + y, x * z + one) == (poly_gcd(num, den), div_exact(num, x + y))

    @given(
        factors(), factors(), factors(), factors(), monomials(), monomials(),
        st.lists(st.integers(1, 3), min_size=3, max_size=3),
        st.lists(st.booleans(), min_size=4, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    @example(
        f1=x + y, f2=y + z, f3=x * z + one, num_factor=x * y + z, m1=x, m2=y * z,
        powers=[2, 3, 1], named=[True, False, True, True],
    )
    @example(  # the second numerator's gcd splits y + 1 off the element (y + 1)(z - 1)
        f1=x * x * y * z + x * x * z, f2=z + one, f3=z - one,
        num_factor=Poly.const(2) * x * x * y * z * z + Poly.const(2) * x * x * z * z - x * z,
        m1=one, m2=x * z, powers=[2, 1, 2], named=[True, False, True, False],
    )
    def test_equals_poly_gcd(self, f1, f2, f3, num_factor, m1, m2, powers, named):
        """den = m1 * f1**a * f2**b * f3**c; the hint names its monomial
        (or not) and the factor-base elements the draw picks, at their
        exponents, and the numerator's gcd with den lies in that part.
        Each numerator gets a base of its own: a gcd that refines an
        element leaves the hint's indices naming other factors."""
        den = make_primitive(m1 * f1 ** powers[0] * f2 ** powers[1] * f3 ** powers[2])[1]
        for which in range(3):
            fb = FactorBase()
            mono, exps = fb.factor(den)
            picked = {i: e for k, (i, e) in enumerate(exps.items()) if named[1 + k % 3]}
            hint = (mono if named[0] else 0, picked)
            part = Poly({hint[0]: 1})
            for i, e in picked.items():
                part = part * fb.elements[i] ** e
            num = (num_factor * m2 * part, num_factor * f1 * m1, num_factor + m2)[which]
            g = poly_gcd(num, den)
            if num.is_zero() or div_exact(part, g) is None:
                continue  # g is not known to divide the named part
            assert gcd_num_den_checked(fb, num, den, hint) == (g, div_exact(num, g))


class TestCancel:
    """Cancelling a quotient is ``gcd_num_den`` and one ``div_exact`` of the
    denominator: the answer equals ``poly_gcd`` and two exact divisions,
    also after a refinement has renamed element indices."""

    @given(
        factors(), factors(), factors(), monomials(), monomials(),
        st.integers(0, 2), st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    @example(f1=x + y, f2=x + one, f3=y + z, m1=x, m2=y * z, n=1, e=2)
    def test_equals_poly_gcd(self, f1, f2, f3, m1, m2, n, e):
        fb = FactorBase()
        # f1 * f2 enters as one element (when squarefree); a later
        # denominator holding f1 alone splits it
        den = make_primitive(m1 * (f1 * f2) ** e)[1]
        nums = [m2 * f1**n * f3, f2 * m1 + f3, make_primitive(f1 * f2)[1]]
        for num in nums:
            assert_cancel(fb, num, den)
        fb.factor(make_primitive(m2 * f1 * f3)[1])
        for num in nums:
            assert_cancel(fb, num, den)
        assert_cancel(fb, f3 * f1**e, den)
        check_factor_base(fb)


def assert_cancel(fb: FactorBase, num: Poly, den: Poly) -> None:
    g = poly_gcd(num, den)
    expected = (num, den) if g.is_const() else (div_exact(num, g), div_exact(den, g))
    found, num_g = gcd_num_den_checked(fb, num, den)
    assert (num_g, div_exact(den, found)) == expected


def assert_common_denominator(fb: FactorBase, a: Poly, b: Poly) -> None:
    """The common denominator of a and b is a * b / ``poly_gcd(a, b)``,
    each cofactor times its denominator is that, and the factorization
    returned multiplies out to it; with the product's pair (a, b) beside
    a, it is a * b."""
    dens = dict.fromkeys([(a,), (b,)])
    common, cofactors, factored = fb.common_denominator(dens)
    assert common == div_exact(a * b, poly_gcd(a, b))
    assert all(cofactors[(d,)] * d == common for (d,) in dens)
    assert multiplied_out(fb, factored) == common
    common, cofactors, factored = fb.common_denominator(dict.fromkeys([(a,), (a, b)]))
    assert common == cofactors[(a,)] * a == cofactors[(a, b)] * a * b == a * b
    assert multiplied_out(fb, factored) == common


def assert_num_den_gcd(fb: FactorBase, num: Poly, den: Poly) -> None:
    g, cofactor = gcd_num_den_checked(fb, num, den)
    assert g == poly_gcd(num, den)
    assert cofactor == (num if g.is_const() else div_exact(num, g))


def gcd_num_den_checked(fb: FactorBase, num: Poly, den: Poly, factored=None):
    """``fb.gcd_num_den(num, den, factored)``, after checking that the
    factorization of den / g it returns (of the part of den that
    ``factored`` names, if given) multiplies out to it, and that
    ``expand`` gives it and enters it in the cache."""
    part = den if factored is None else multiplied_out(fb, factored)
    g, num_g, den_g = fb.gcd_num_den(num, den, factored)
    quotient = div_exact(part, g)
    assert multiplied_out(fb, den_g) == fb.expand(*den_g) == quotient
    if len(quotient.terms) > 1:
        assert fb._factored[quotient] == den_g
    return g, num_g


def certified(fb: FactorBase, a: Poly, f: Poly) -> bool:
    return fb._divide_or_certify(a, f)[1]


class TestCoprimalityCertificate:
    """The certificate is one-sided: it may fail on coprime inputs, but
    never passes on inputs with a common factor."""

    def test_unlucky_point_falls_back(self):
        # a and f are coprime, but at the point's value c of y both images
        # in x are x + c
        fb = FactorBase()
        c = Poly.const(fb._point_at(1))
        f = x + y
        a = x + y + (y - c) * z
        assert poly_gcd(a, f) == one
        assert not certified(fb, a, f)
        fb.factor(f)
        calls = []

        def counted_gcd(*args):
            calls.append(args)
            return poly_gcd(*args)

        with mock.patch.object(poly, "poly_gcd", counted_gcd):
            assert fb.gcd_num_den(a, f) == (one, a, fb.factor(f))
        assert calls, "the gcd did not fall back to poly_gcd"
        # at any other value of y the certificate holds
        assert certified(fb, x + y + (y - c - one) * z, f)

    def test_not_primitive_in_first_symbol(self):
        # h = (y + z) * (x + y) has content y + z in x, so x is skipped.
        # Had it been taken, the images in x of h and of a = (y + z) * (x + 2)
        # would be coprime although y + z divides both.
        fb = FactorBase()
        h = (y + z) * (x + y)
        a = (y + z) * (x + Poly.const(2))
        assert poly._gcd_degree_mod(fb._image(a, 0), fb._image(h, 0)) == 0
        assert fb._element_image(h)[0] == 1
        assert not certified(fb, a, h)
        assert gcd_num_den_checked(fb, a, h) == (y + z, x + Poly.const(2))

    def test_degree_drop_is_refused(self):
        # f = ((y - c) * x + 1) * (x + z), c the point's value of y: the
        # factor (y - c) * x + 1 has image 1 in x, so the images in x of f
        # and of a = ((y - c) * x + 1) * (x + 2) would be coprime
        fb = FactorBase()
        c = Poly.const(fb._point_at(1))
        h = (y - c) * x + one
        f = h * (x + z)
        a = h * (x + Poly.const(2))
        assert poly._gcd_degree_mod(fb._image(a, 0), fb._image(f, 0)) == 0
        # f is primitive in x alone, and x is refused
        assert fb._element_image(f) is None
        assert not certified(fb, a, f)


def assert_image_up_to_a_unit(image: list[int], want: list[int]) -> None:
    """``image`` is ``want`` times a nonzero constant modulo the prime."""
    assert len(image) == len(want)
    if want:
        unit = image[-1] * pow(want[-1], -1, poly._P) % poly._P
        assert unit and [unit * c % poly._P for c in want] == image


class TestImages:
    """The modular images behind trial division and the certificate."""

    @given(factors(), factors(), factors(), factors(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    @example(f=x + y, f1=x + one, f2=y + z, b=x * z + one, e=4)
    @example(f=x + one, f1=x + one, f2=y + z, b=y + one, e=2)
    def test_gcd_with_powers_of_an_element(self, f, f1, f2, b, e):
        """For a = f**k * b, k = 0..4, against a den holding f**e and the
        reducible element f1 * f2, the gcd is ``poly_gcd`` and the
        factorization of den / g multiplies out to it; b runs over a
        cofactor and over one that shares f1, a proper factor of an
        element."""
        fb = FactorBase()
        reducible = make_primitive(f1 * f2)[1]
        fb.factor(reducible)
        den = make_primitive(f**e * reducible)[1]
        for k in range(5):
            for cofactor in (b, f1 * b):
                assert_num_den_gcd(fb, f**k * cofactor, den)
        check_factor_base(fb)

    @given(factors(), factors(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    @example(f=x * y + z, b=x + Poly.const(2), k=3)
    def test_carried_image_is_the_quotient_image(self, f, b, k):
        """The image that one division by an element hands on is, up to a
        unit, a fresh image of the quotient, division after division."""
        fb = FactorBase()
        fb.factor(f)
        for element in list(fb.elements):
            a, image = element**k * b, None
            for _ in range(k):
                q, coprime, image = fb._divide_or_certify(a, element, image)
                assert q == div_exact(a, element) and not coprime
                a = q
                if fb._images[element] is None:
                    assert image is None
                    break
                assert image[0] == fb._images[element][0]
                assert_image_up_to_a_unit(image[1], fb._image(a, image[0]))

    def test_monomial_value_of_a_high_degree_key(self):
        """Degree-1000 keys, like those of a hostile sum, are valued by
        powers of one symbol each: no recursion and no entry per prefix."""
        fb = FactorBase()
        for exps in [(1000,), (0, 999, 1), (400, 300, 0, 300), (1,) * 40 + (960,)]:
            want = 1
            for sym, e in enumerate(exps):
                want = want * pow(fb._point_at(sym), e, poly._P) % poly._P
            assert fb._monomial_value(poly.pack(exps)) == want
        for key in fb._values:
            assert sum(1 for e in unpack(key) if e) == 1


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
