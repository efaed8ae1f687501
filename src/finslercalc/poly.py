"""Sparse multivariate polynomials over exact rationals.

Symbols are identified by nonnegative integers; a monomial is an exponent
tuple with trailing zeros stripped, so the same monomial always has the
same key regardless of how many symbols exist.  The monomial order used
throughout is graded lexicographic (total degree first, then lexicographic
with lower symbol index more significant).

Coefficients are ints wherever the value is integral and Fractions
otherwise; keeping ints as ints matters, since gcd work runs over
primitive integer polynomials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from typing import Iterable, Iterator


def _cnorm(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _cdiv(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _cnorm(a / b)


def _strip(exps: tuple[int, ...]) -> tuple[int, ...]:
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b + (0,) * (len(a) - len(b))))


def grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[tuple[int, ...], Fraction]):
        self.terms = terms
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(c) -> "Poly":
        c = _cnorm(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return Poly({(): c}) if c else _ZERO

    @staticmethod
    def variable(sym: int) -> "Poly":
        return Poly({(0,) * sym + (1,): 1})

    @staticmethod
    def monomial(exps: tuple[int, ...], coeff=1) -> "Poly":
        coeff = _cnorm(coeff)
        return Poly({_strip(exps): coeff}) if coeff else _ZERO

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[()])

    def symbols(self) -> set[int]:
        out: set[int] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    out.add(i)
        return out

    def degree_in(self, sym: int) -> int:
        d = 0
        for exps in self.terms:
            if sym < len(exps) and exps[sym] > d:
                d = exps[sym]
        return d

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"s{i}^{e}" if e != 1 else f"s{i}" for i, e in enumerate(exps) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = c
            else:
                acc = acc + c
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _ZERO
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            la = len(ea)
            for eb, cb in b.items():
                if la < len(eb):
                    key = tuple(
                        x + y for x, y in zip(ea + (0,) * (len(eb) - la), eb)
                    )
                else:
                    key = tuple(
                        x + y for x, y in zip(ea, eb + (0,) * (la - len(eb)))
                    )
                c = ca * cb
                acc = terms.get(key)
                if acc is None:
                    terms[key] = c
                else:
                    acc = acc + c
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
        return Poly(terms)

    def scale(self, c) -> "Poly":
        if not isinstance(c, int):
            c = _cnorm(Fraction(c))
        if not c:
            return _ZERO
        if c == 1:
            return self
        if isinstance(c, int):
            return Poly({e: k * c for e, k in self.terms.items()})
        return Poly({e: _cnorm(k * c) for e, k in self.terms.items()})

    def mul_monomial(self, exps: tuple[int, ...], coeff=1) -> "Poly":
        exps = _strip(exps)
        if not coeff:
            return _ZERO
        if not exps:
            return self.scale(coeff)
        if coeff == 1:
            return Poly({_mono_mul(e, exps): c for e, c in self.terms.items()})
        out = {}
        for e, c in self.terms.items():
            out[_mono_mul(e, exps)] = c * coeff
        return Poly(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power on Poly")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and evaluation ----------------------------------------

    def diff(self, sym: int) -> "Poly":
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if sym >= len(exps) or exps[sym] == 0:
                continue
            e = exps[sym]
            new = _strip(exps[:sym] + (e - 1,) + exps[sym + 1 :])
            acc = terms.get(new)
            nc = c * e
            terms[new] = acc + nc if acc is not None else nc
        return Poly({e: c for e, c in terms.items() if c})

    def eval(self, values) -> object:
        """Evaluate with ``values[i]`` substituted for symbol i.

        Values may be Fractions, floats, or any ring supporting * and +
        (e.g. Taylor jets); powers are computed by repeated squaring and
        cached per symbol.
        """
        power_cache: dict[tuple[int, int], object] = {}

        def power(sym: int, e: int):
            got = power_cache.get((sym, e))
            if got is None:
                base = values[sym]
                got = base
                for _ in range(e - 1):
                    got = got * base
                power_cache[(sym, e)] = got
            return got

        total = None
        for exps, c in self.terms.items():
            term: object = c
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    # -- structure helpers ----------------------------------------------

    def split_by_symbol(self, sym: int) -> dict[int, "Poly"]:
        """View as a univariate polynomial in ``sym``: degree -> coefficient."""
        parts: dict[int, dict] = {}
        for exps, c in self.terms.items():
            e = exps[sym] if sym < len(exps) else 0
            rest = _strip(exps[:sym] + (0,) + exps[sym + 1 :]) if e else exps
            parts.setdefault(e, {})[rest] = c
        return {e: Poly(d) for e, d in parts.items()}

    def coeff_of(self, sym: int, deg: int) -> "Poly":
        out = {}
        for exps, c in self.terms.items():
            e = exps[sym] if sym < len(exps) else 0
            if e == deg:
                out[_strip(exps[:sym] + (0,) + exps[sym + 1 :]) if e else exps] = c
        return Poly(out)


_ZERO = Poly({})
_ONE = Poly({(): 1})


# -- normalization ------------------------------------------------------


def frac_content(p: Poly) -> Fraction:
    """Positive rational c such that p/c has coprime integer coefficients."""
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, c.numerator)
        den = den * c.denominator // int_gcd(den, c.denominator)
    return Fraction(num, den) if num else Fraction(0)


def make_primitive(p: Poly) -> tuple[Fraction, Poly]:
    """Split into (content, primitive) with primitive having positive
    leading coefficient under grlex."""
    if p.is_zero():
        return Fraction(0), p
    c = frac_content(p)
    _, lead = p.leading()
    if lead < 0:
        c = -c
    return c, p.scale(1 / c)


# -- exact division ------------------------------------------------------


def div_exact(a: Poly, b: Poly) -> Poly | None:
    """Return a/b if b divides a exactly, else None.

    A constant or a monomial divides term by term.  Otherwise this is a
    heap division: the remainder's leading term is taken from a heap of
    its monomials, and the first one that the divisor's leading term does
    not divide ends the division with None."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_const():
        return a.scale(Fraction(1) / b.const_value())
    if len(b.terms) == 1:
        # a monomial divides term by term
        ((lb_exps, lb_c),) = b.terms.items()
        n = len(lb_exps)
        q = {}
        for exps, c in a.terms.items():
            if len(exps) < n:
                return None
            diff = tuple(x - y for x, y in zip(exps, lb_exps))
            if min(diff) < 0:
                return None
            q[_strip(diff + exps[n:])] = _cdiv(c, lb_c)
        return Poly(q)
    if len(a.terms) == 1:
        # the greatest and least terms of a multiple of b cannot cancel
        return None
    # Johnson, SIGSAM Bull. 8 (1974); Monagan & Pearce, JSC 46 (2011).
    # A cancelled monomial stays in the heap and is skipped when popped.
    lb_exps, lb_c = b.leading()
    n = len(lb_exps)
    b_rest = [(e, c) for e, c in b.terms.items() if e != lb_exps]
    r = dict(a.terms)
    heap = [_heap_key(e) for e in r]
    heapify(heap)
    q: dict[tuple[int, ...], object] = {}
    while heap:
        exps = heappop(heap)[2]
        c = r.pop(exps, None)
        if c is None:
            continue  # cancelled after it was pushed, or a duplicate entry
        if len(exps) < n:
            return None
        diff = tuple(x - y for x, y in zip(exps, lb_exps))
        if min(diff) < 0:
            return None
        diff = _strip(diff + exps[n:])
        coeff = _cdiv(c, lb_c)
        q[diff] = coeff
        for eb, cb in b_rest:
            key = _mono_mul(diff, eb)
            acc = r.get(key)
            if acc is None:
                r[key] = -coeff * cb
                heappush(heap, _heap_key(key))
            else:
                acc = acc - coeff * cb
                if acc:
                    r[key] = acc
                else:
                    del r[key]
    return Poly(q)


def _heap_key(exps: tuple[int, ...]) -> tuple:
    """Min-heap entry whose order is descending grlex.  Negating the
    exponents is enough: two monomials of equal degree whose stripped
    tuples differ are never prefixes of one another."""
    return (-sum(exps), tuple([-x for x in exps]), exps)


# -- gcd ------------------------------------------------------------------


def _monomial_gcd(polys: Iterable[Poly]) -> Poly:
    mins: list[int] | None = None
    for p in polys:
        for exps in p.terms:
            if mins is None:
                mins = list(exps)
            else:
                if len(exps) < len(mins):
                    del mins[len(exps) :]
                for i in range(len(mins)):
                    if exps[i] < mins[i]:
                        mins[i] = exps[i]
    return Poly.monomial(tuple(mins or ()))


def _prem(f: Poly, g: Poly, sym: int) -> Poly:
    """Pseudo-remainder of lc(g)**(deg f - deg g + 1) * f by g in sym."""
    df, dg = f.degree_in(sym), g.degree_in(sym)
    if df < dg:
        return f
    n = df - dg + 1
    lg = g.coeff_of(sym, dg)
    r = f
    while not r.is_zero():
        dr = r.degree_in(sym)
        if dr < dg:
            break
        lr = r.coeff_of(sym, dr)
        r = lg * r - (lr * g).mul_monomial((0,) * sym + (dr - dg,))
        n -= 1
    if n > 0 and not r.is_zero():
        r = lg**n * r
    return r


def _content_wrt(p: Poly, sym: int) -> Poly:
    cont: Poly | None = None
    for part in p.split_by_symbol(sym).values():
        cont = part if cont is None else poly_gcd(cont, part)
        if cont.is_const():
            return Poly.one()
    return cont if cont is not None else Poly.one()


def _eval_sym(p: Poly, sym: int, value: int) -> Poly:
    """Substitute an integer for one symbol (coefficients stay exact)."""
    out: dict[tuple[int, ...], object] = {}
    for exps, c in p.terms.items():
        e = exps[sym] if sym < len(exps) else 0
        if e:
            c = c * value**e
            exps = _strip(exps[:sym] + (0,) + exps[sym + 1 :])
        acc = out.get(exps)
        acc = c if acc is None else acc + c
        if acc:
            out[exps] = acc
        elif exps in out:
            del out[exps]
    return Poly(out)


def _interpolate(h: Poly, sym: int, xi: int) -> Poly:
    """Recover a polynomial in ``sym`` from its value at xi, digit by
    digit in the balanced base xi."""
    result = Poly.zero()
    power = 0
    half = xi // 2
    while not h.is_zero():
        digits = {}
        rest = {}
        for exps, c in h.terms.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                digits[exps] = r
            q = (c - r) // xi
            if q:
                rest[exps] = q
        if digits:
            result = result + Poly(digits).mul_monomial((0,) * sym + (power,))
        h = Poly(rest)
        power += 1
        if power > 4000:  # pragma: no cover - guards runaway reconstruction
            raise ArithmeticError("heuristic gcd reconstruction diverged")
    return result


def _max_abs_coeff(p: Poly) -> int:
    out = 1
    for c in p.terms.values():
        mag = abs(c if isinstance(c, int) else c.numerator)
        if mag > out:
            out = mag
    return out


def _int_primitive(p: Poly) -> tuple[int, Poly]:
    """Integer content and primitive part, with int coefficients, of an
    integer polynomial (the sign is left as it is)."""
    content = 0
    ints = True
    for c in p.terms.values():
        if type(c) is not int:
            ints = False
        content = int_gcd(content, c.numerator)
    if content == 1 and ints:
        return 1, p
    # integral Fractions become ints, so the evaluations stay int arithmetic
    return content, Poly({e: c.numerator // content for e, c in p.terms.items()})


def _heugcd(f: Poly, g: Poly, syms: list[int]) -> Poly | None:
    """Heuristic gcd of integer polynomials (strip the integer contents,
    evaluate at a big integer, recurse, reconstruct, verify by trial
    division, and put the gcd of the contents back)."""
    if not syms:
        value = int_gcd(int(f.const_value()), int(g.const_value()))
        return Poly.const(value)
    # the evaluated polynomials of the recursion are not primitive, and
    # the reconstructed candidate is, so the contents are handled here
    cf, f = _int_primitive(f)
    cg, g = _int_primitive(g)
    content = int_gcd(cf, cg)
    sym = syms[0]
    xi = 2 * min(_max_abs_coeff(f), _max_abs_coeff(g)) + 29
    for _ in range(6):
        ff = _eval_sym(f, sym, xi)
        gg = _eval_sym(g, sym, xi)
        if not (ff.is_zero() or gg.is_zero()):
            # every symbol left must be evaluated, also one that only
            # f or only g holds
            rest = sorted(ff.symbols() | gg.symbols(), reverse=True)
            h = _heugcd(ff, gg, rest)
            if h is not None:
                candidate = _interpolate(h, sym, xi)
                if not candidate.is_zero():
                    candidate = make_primitive(candidate)[1]
                    if div_exact(f, candidate) is not None and div_exact(g, candidate) is not None:
                        return candidate.scale(content)
        xi = xi * 73794 // 27011 + 17
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient (units dropped)."""
    if a.is_zero():
        return make_primitive(b)[1] if not b.is_zero() else Poly.zero()
    if b.is_zero():
        return make_primitive(a)[1]
    if a.is_const() or b.is_const():
        return Poly.one()
    if len(a.terms) == 1 or len(b.terms) == 1:
        return _monomial_gcd((a, b))
    _, a = make_primitive(a)
    _, b = make_primitive(b)
    if a == b:
        return a
    # split off monomial parts: no variable divides the cofactors, so
    # gcd(a, b) = gcd of monomial parts times gcd of cofactors
    mono_a = _monomial_gcd((a,))
    mono_b = _monomial_gcd((b,))
    if not mono_a.is_const():
        a = div_exact(a, mono_a)
    if not mono_b.is_const():
        b = div_exact(b, mono_b)
    mono_common = _monomial_gcd((mono_a, mono_b))
    common = a.symbols() & b.symbols()
    if not common:
        return mono_common
    rest = _nonmonomial_gcd(a, b, common)
    if rest.is_const():
        return mono_common
    return make_primitive(mono_common * rest)[1]


def _nonmonomial_gcd(a: Poly, b: Poly, common: set) -> Poly:
    heur = _heugcd(a, b, sorted(common, reverse=True))
    if heur is not None:
        return heur
    # subresultant PRS fallback
    sym = max(common)
    ca = _content_wrt(a, sym)
    cb = _content_wrt(b, sym)
    cont = poly_gcd(ca, cb)
    pa = div_exact(a, ca)
    pb = div_exact(b, cb)
    assert pa is not None and pb is not None
    if pa.degree_in(sym) < pb.degree_in(sym):
        pa, pb = pb, pa
    g = h = Poly.one()
    while True:
        delta = pa.degree_in(sym) - pb.degree_in(sym)
        r = _prem(pa, pb, sym)
        if r.is_zero():
            break
        if r.degree_in(sym) == 0:
            return make_primitive(cont)[1]
        divisor = g * h**delta
        pa, pb = pb, div_exact(r, divisor)
        assert pb is not None
        g = pa.coeff_of(sym, pa.degree_in(sym))
        if delta == 1:
            h = g
        elif delta > 1:
            h = div_exact(g**delta, h ** (delta - 1))
            assert h is not None
    if pb.degree_in(sym) == 0:
        return make_primitive(cont)[1]
    result = div_exact(pb, _content_wrt(pb, sym))
    assert result is not None
    return make_primitive(cont * result)[1]


# -- squarefree machinery -------------------------------------------------


def _gcd_with_partials(p: Poly) -> Poly:
    acc = p
    for sym in sorted(p.symbols()):
        acc = poly_gcd(acc, p.diff(sym))
        if acc.is_const():
            return Poly.one()
    return acc


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Musser decomposition p = c * prod f_i^i with the f_i squarefree,
    pairwise coprime, and primitive; the rational content is dropped."""
    _, p = make_primitive(p)
    if p.is_const():
        return []
    g = _gcd_with_partials(p)
    if g.is_const():
        return [(p, 1)]
    out: list[tuple[Poly, int]] = []
    w = div_exact(p, g)
    assert w is not None
    i = 1
    while not w.is_const():
        y = poly_gcd(w, g)
        fac = div_exact(w, y)
        assert fac is not None
        if not fac.is_const():
            out.append((fac, i))
        g2 = div_exact(g, y)
        assert g2 is not None
        w, g = y, g2
        i += 1
    return out


def int_nth_root(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + q - 1) // q + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**q < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**q == n else None


def int_power_extract(n: int, q: int) -> tuple[int, int]:
    """Write n > 0 as a * b**q with b maximal (by trial factorization)."""
    a, b = 1, 1
    d = 2
    m = n
    while d * d <= m and d < 100000:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            b *= d ** (e // q)
            a *= d ** (e % q)
        d += 1 if d == 2 else 2
    root = int_nth_root(m, q)
    if root is not None:
        b *= root
    else:
        a *= m
    return a, b


def power_free_extract(p: Poly, q: int) -> tuple[Fraction, Poly, Poly]:
    """Write p = c * a * b**q with b the maximal q-th-power polynomial
    factor; c is a rational constant with the same sign as p's content."""
    content, prim = make_primitive(p)
    b = Poly.one()
    a = prim
    for fac, mult in squarefree_decomposition(prim):
        if mult >= q:
            b = b * fac ** (mult // q)
    if not b.is_const():
        divided = div_exact(prim, b**q)
        assert divided is not None
        a = divided
    return content, a, b


# -- factored denominators -------------------------------------------------


# The prime and the seed of the evaluation point of the modular images in
# ``FactorBase``.  Any prime is sound; the seed only fixes which point is
# tried, so that the work done is the same on every run.
_P = 2147483647
_POINT_SEED = 1971


class FactorBase:
    """A gcd-free basis of denominator factors (factor refinement, Bach,
    Driscoll & Shallit, J. Algorithms 15, 1993).

    The elements are non-monomial, primitive with positive leading
    coefficient, squarefree and pairwise coprime; none is divisible by a
    symbol.  A denominator (primitive with positive leading coefficient)
    factors as a monomial times a product of element powers, so the gcd of
    two denominators is exponent arithmetic, and the gcd of a numerator
    with a denominator needs gcds against the elements only: a trial
    division, then a modular certificate of coprimality, and ``poly_gcd``
    only when both fail.  Both gcds equal what ``poly_gcd`` returns.

    Factorizations are cached per denominator; refining an element clears
    the cache, since the indices in it no longer name the same factors.
    The element order is the order factors arrive in.
    """

    __slots__ = ("elements", "_factored", "_refinements", "_images", "_point", "_powers", "_rng")

    def __init__(self):
        self.elements: list[Poly] = []
        self._factored: dict[Poly, tuple[tuple[int, ...], dict[int, int]]] = {}
        self._refinements = 0
        # for _divide_or_certify: per element, its main symbol and image
        # (or None); the evaluation point, drawn symbol by symbol in index
        # order; and its powers modulo _P
        self._images: dict[Poly, tuple[int, list[int]] | None] = {}
        self._point: list[int] = []
        self._powers: dict[tuple[int, int], int] = {}
        self._rng = random.Random(_POINT_SEED)

    def factor(self, p: Poly) -> tuple[tuple[int, ...], dict[int, int]]:
        """(monomial exponents, {element index: exponent}) of a polynomial
        that is primitive with positive leading coefficient."""
        got = self._factored.get(p)
        if got is not None:
            return got
        mono = _monomial_gcd((p,))
        rest = p if mono.is_const() else div_exact(p, mono)
        exps: dict[int, int] = {}
        i = 0
        while i < len(self.elements) and not rest.is_const():
            f = self.elements[i]
            g = poly_gcd(rest, f)
            if g.is_const():
                i += 1
                continue
            if g != f:
                # f = g * (f/g) with coprime parts, as f is squarefree
                self._refine(i, g)
                if i in exps:
                    exps[len(self.elements) - 1] = exps[i]
                f = g
            while True:
                q = div_exact(rest, f)
                if q is None:
                    break
                rest = q
                exps[i] = exps.get(i, 0) + 1
            # stay at i: a proper factor of f may still divide the rest
        if not rest.is_const():
            # the rest is coprime to every element
            for part, mult in squarefree_decomposition(rest):
                exps[len(self.elements)] = mult
                self.elements.append(part)
        got = (next(iter(mono.terms)), exps)
        self._factored[p] = got
        return got

    def _refine(self, i: int, g: Poly) -> None:
        cofactor = div_exact(self.elements[i], g)
        assert cofactor is not None
        self.elements[i] = g
        self.elements.append(cofactor)
        self._factored.clear()
        self._refinements += 1

    def _factor_pair(self, a: Poly, b: Poly):
        while True:
            seen = self._refinements
            fa = self.factor(a)
            fb = self.factor(b)
            if self._refinements == seen:
                return fa, fb

    def gcd_dens(self, a: Poly, b: Poly) -> Poly:
        """``poly_gcd(a, b)`` of two denominators (primitive, positive
        leading coefficient): the least exponent of every factor."""
        if len(a.terms) == 1 or len(b.terms) == 1:
            return poly_gcd(a, b)
        if a == b:
            return a
        (mono_a, fa), (mono_b, fb) = self._factor_pair(a, b)
        mono = _strip(tuple(min(x, y) for x, y in zip(mono_a, mono_b)))
        result = Poly.monomial(mono)
        for i, e in fa.items():
            if i in fb:
                result = result * self.elements[i] ** min(e, fb[i])
        return result

    def gcd_num_den(self, num: Poly, den: Poly) -> tuple[Poly, Poly]:
        """``(g, num / g)`` with ``g = poly_gcd(num, den)``, for a
        denominator ``den`` (primitive, positive leading coefficient).

        g is the monomial gcd times, for each factor f of den, the gcds of
        num with f, divided out while they divide num.  Each gcd with an
        element f is found by trial division first (if f divides, the gcd
        is f, as f is squarefree), then by a modular certificate that it
        is 1 (both in ``_divide_or_certify``), and only when both fail by
        ``poly_gcd``."""
        if len(num.terms) <= 1 or len(den.terms) == 1:
            g = poly_gcd(num, den)
            return g, (num if g.is_const() else div_exact(num, g))
        mono_den, factors = self.factor(den)
        result = _monomial_gcd((num, Poly.monomial(mono_den))) if mono_den else _ONE
        rest = num if result.is_const() else div_exact(num, result)
        for i, e in factors.items():
            # for squarefree f, gcd(num, f**e) = g_1 * ... * g_e with
            # g_1 = gcd(num, f), g_k+1 = gcd(num / (g_1 * ... * g_k), g_k)
            f = g = self.elements[i]
            k = 0
            while k < e:
                if g is f:
                    q, coprime = self._divide_or_certify(rest, f)
                    if coprime:
                        break
                else:
                    q = div_exact(rest, g)
                if q is not None:
                    rest = q
                    result = result * g
                    k += 1
                    continue
                g = poly_gcd(rest, g)
                if g.is_const():
                    break
        return result, rest

    def _divide_or_certify(self, a: Poly, f: Poly) -> tuple[Poly | None, bool]:
        """(a / f or None, True only if gcd(a, f) = 1) for an element f.

        Both come from one univariate image modulo the prime ``_P``: every
        symbol but a main symbol x of f is set to a fixed point.  If ``_P``
        divides no coefficient denominator of a, f can divide a only if its
        image divides the image of a, so the exact division is tried only
        then.  The coprimality certificate is Brown's (JACM 18, 1971): let
        also f be primitive in x and its image keep its degree in x.  A
        common factor h of a and f then has positive degree in x (f is
        primitive in x), an image of the same degree (its leading
        coefficient divides that of f), and that image divides the images
        of both a and f.  So an image gcd of degree 0 proves h = 1; any
        other image gcd proves nothing."""
        if f not in self._images:
            self._images[f] = self._element_image(f)
        image_f = self._images[f]
        image_a = None if image_f is None else self._image(a, image_f[0])
        if image_a is None:
            return div_exact(a, f), False
        rem = _rem_mod(image_a, image_f[1])
        if not rem:
            return div_exact(a, f), False
        return None, _gcd_degree_mod(image_f[1], rem) == 0

    def _element_image(self, f: Poly) -> tuple[int, list[int]] | None:
        """(x, image of f in x) for the first symbol x in which f is
        primitive and whose leading coefficient keeps its degree, or None."""
        for x in sorted(f.symbols()):
            lc = f.coeff_of(x, f.degree_in(x))
            if not lc.is_const() and not _content_wrt(f, x).is_const():
                continue
            image = self._image(f, x)
            if image is not None and len(image) == f.degree_in(x) + 1:
                return x, image
        return None

    def _image(self, p: Poly, x: int) -> list[int] | None:
        """Coefficients (low to high in x) of p modulo ``_P`` with every
        other symbol set to its point, or None if ``_P`` divides a
        coefficient denominator.  Leading zeros are trimmed."""
        powers = self._powers
        out: dict[int, int] = {}
        for exps, c in p.terms.items():
            if type(c) is int:
                v = c % _P
            else:
                if not c.denominator % _P:
                    return None
                v = c.numerator * pow(c.denominator, -1, _P) % _P
            d = 0
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i == x:
                    d = e
                    continue
                pw = powers.get((i, e))
                if pw is None:
                    pw = powers[(i, e)] = pow(self._point_at(i), e, _P)
                v = v * pw % _P
            out[d] = (out.get(d, 0) + v) % _P
        dense = [0] * (max(out, default=0) + 1)
        for d, v in out.items():
            dense[d] = v
        while dense and not dense[-1]:
            dense.pop()
        return dense

    def _point_at(self, sym: int) -> int:
        point = self._point
        while len(point) <= sym:
            point.append(self._rng.randrange(2, _P))
        return point[sym]


def _rem_mod(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by b in GF(_P)[x], for dense coefficient lists (low
    to high, no leading zeros, b not empty)."""
    inv = pow(b[-1], -1, _P)
    db = len(b) - 1
    a = list(a)
    while len(a) > db:
        c = a[-1] * inv % _P
        if c:
            shift = len(a) - 1 - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - c * b[j]) % _P
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _gcd_degree_mod(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) in GF(_P)[x]; the gcd of a and 0 is a."""
    while b:
        a, b = b, _rem_mod(a, b)
    return len(a) - 1


def iter_indices(dim: int, rank: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices in [1..dim]^rank in lexicographic order."""
    if rank == 0:
        yield ()
        return
    idx = [1] * rank
    while True:
        yield tuple(idx)
        pos = rank - 1
        while pos >= 0 and idx[pos] == dim:
            idx[pos] = 1
            pos -= 1
        if pos < 0:
            return
        idx[pos] += 1
