"""Sparse multivariate polynomials over the integers.

Symbols are identified by the integers 0 .. ``MAX_SYMBOLS`` - 1.  A
monomial is stored as one packed int key: the exponent of symbol i sits in
bits [16*i, 16*i + 16), so the same monomial has the same key however many
symbols exist, and the constant monomial is 0.  The top bit of each field
is a guard bit, and exponents stay at most ``EXPONENT_LIMIT`` (32767), so:

- the key of a product of monomials is the sum of their keys (no field
  carries into the next);
- a monomial e is divisible by a monomial m exactly when ``d = e - m`` is
  nonnegative with no guard bit set (a field that borrows sets its guard);
- a key with a guard bit set is an exponent past the limit, which
  ``__mul__`` and ``mul_monomial`` refuse with ``ExponentLimitError``.

``pack`` and ``unpack`` convert between keys and exponent tuples.

Two monomial orders are used.  Exact division orders its heap by the
plain int key: lexicographic with the highest symbol most significant,
which is a monomial order, so the quotient (or the refusal) is the same as
under any other.  The canonical order is graded lexicographic (total
degree first, then lexicographic with the lower symbol index more
significant): it fixes the sign in ``make_primitive``, the term order of
``sorted_terms`` and the printed term order (the printers keep each key's
order key per context, in ``parsing``).

Coefficients are nonzero ints: a ``Poly`` is an element of Z[x].  Exact
division means division in Z[x] (``div_exact`` refuses a quotient that is
not integral), which for the primitive divisors used here is the same as
division over the rationals (Gauss's lemma).  Rational values belong to
the expressions built on top (``expr``), which keep one rational content
apart from their primitive integer polynomials.
"""

from __future__ import annotations

import random
import sys
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from numbers import Rational
from operator import or_
from typing import Iterable, Iterator


# -- packed monomials ------------------------------------------------------

_BITS = 16  # field width per symbol; ``unpack`` reads fields as format "H"
_FIELD = (1 << _BITS) - 1
EXPONENT_LIMIT = (1 << (_BITS - 1)) - 1
MAX_SYMBOLS = 1024
# the guard bit of every field of every symbol
_GUARD = ((1 << (_BITS * MAX_SYMBOLS)) - 1) // _FIELD << (_BITS - 1)
_BIG_ENDIAN = sys.byteorder == "big"


def pack(exps: Iterable[int]) -> int:
    """The key of the monomial with exponent ``exps[i]`` on symbol i."""
    key = 0
    for i, e in enumerate(exps):
        if e:
            if e < 0:
                raise ValueError("negative exponent in a monomial")
            if e > EXPONENT_LIMIT:
                raise _limit_error()
            if i >= MAX_SYMBOLS:
                raise ValueError(f"more than {MAX_SYMBOLS} symbols")
            key |= e << (_BITS * i)
    return key


def unpack(key: int) -> tuple[int, ...]:
    """The exponent tuple of a key, without trailing zeros."""
    size = -(-key.bit_length() // _BITS) * (_BITS // 8)
    fields = memoryview(key.to_bytes(size, sys.byteorder)).cast("H")
    # big-endian bytes put the highest field first
    return tuple(fields[::-1] if _BIG_ENDIAN else fields)


class ExponentLimitError(ArithmeticError):
    """An exponent of a monomial would pass ``EXPONENT_LIMIT``."""


def _limit_error() -> ExponentLimitError:
    return ExponentLimitError(f"exponent beyond the limit {EXPONENT_LIMIT}")


def _span(terms) -> int:
    """OR of the keys: field i is nonzero exactly when symbol i occurs,
    and is at least every exponent of symbol i."""
    return reduce(or_, terms, 0)


def _check_limit(terms) -> None:
    if _span(terms) & _GUARD:
        raise _limit_error()


def _mono_min(a: int, b: int) -> int:
    """Key of the per-symbol least exponents of two keys."""
    # a field of (a | guards) - b keeps its guard bit exactly when a >= b
    # there; ``ge`` then covers the value bits of those fields
    guards = _GUARD & ((1 << (max(a, b).bit_length() + _BITS)) - 1)
    ge = ((a | guards) - b) & guards
    ge -= ge >> (_BITS - 1)
    return (b & ge) | (a & ~ge)


class Poly:
    """Immutable sparse polynomial: ``terms`` maps packed monomial keys to
    nonzero int coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, int]):
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
    def const(c: int) -> "Poly":
        return Poly({0: c}) if c else _ZERO

    @staticmethod
    def variable(sym: int) -> "Poly":
        if not 0 <= sym < MAX_SYMBOLS:
            raise ValueError(f"symbol {sym} is outside 0..{MAX_SYMBOLS - 1}")
        return Poly({1 << (_BITS * sym): 1})

    @staticmethod
    def monomial(exps: tuple[int, ...], coeff: int = 1) -> "Poly":
        return Poly({pack(exps): coeff}) if coeff else _ZERO

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> int:
        return self.terms.get(0, 0)

    def symbols(self) -> set[int]:
        return {sym for sym, e in enumerate(unpack(_span(self.terms))) if e}

    def max_symbol(self) -> int:
        """The highest symbol that occurs, or -1 for a constant."""
        return (_span(self.terms).bit_length() - 1) // _BITS

    def degree_in(self, sym: int) -> int:
        shift = _BITS * sym
        return max((key >> shift & _FIELD for key in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(unpack(key)) for key in self.terms), default=0)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """(exponents, coefficient) of the leading term under grlex."""
        terms = self.terms
        if sum(unpack(_span(terms))) < _FIELD:
            # no degree reaches 2**16 - 1, so a key modulo 2**16 - 1 is its
            # degree (2**16 is 1 modulo 2**16 - 1)
            degrees = [key % _FIELD for key in terms]
        else:
            degrees = [sum(unpack(key)) for key in terms]
        top = max(degrees)
        tied = [key for key, d in zip(terms, degrees) if d == top]
        key = tied[0] if len(tied) == 1 else max(tied, key=unpack)
        return unpack(key), terms[key]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponents, coefficient) pairs in descending grlex order."""
        items = [(unpack(key), c) for key, c in self.terms.items()]
        items.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return items

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
        for key, c in other.terms.items():
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

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _ZERO
        if self.terms == _ONE.terms:  # Polys are immutable, so 1 * p is p
            return other
        if other.terms == _ONE.terms:
            return self
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        # fields of a product never carry, but may reach a guard bit
        past_limit = (_span(a) + _span(b)) & _GUARD
        if len(a) == 1:
            # a monomial times b: no two products share a key
            ((ea, ca),) = a.items()
            terms = {ea + eb: ca * cb for eb, cb in b.items()}
        else:
            terms = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    key = ea + eb
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
        if past_limit:
            _check_limit(terms)
        return Poly(terms)

    def scale(self, c: int) -> "Poly":
        if not c:
            return _ZERO
        if c == 1:
            return self
        return Poly({e: k * c for e, k in self.terms.items()})

    def mul_monomial(self, key: int, coeff: int = 1) -> "Poly":
        """The product with the monomial of packed ``key`` times ``coeff``."""
        p = self.scale(coeff)
        if not key or not p.terms:
            return p
        terms = {e + key: c for e, c in p.terms.items()}
        _check_limit(terms)
        return Poly(terms)

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
        shift = _BITS * sym
        unit = 1 << shift
        # distinct keys stay distinct, so nothing is collected
        return Poly({
            key - unit: c * (key >> shift & _FIELD)
            for key, c in self.terms.items()
            if key >> shift & _FIELD
        })

    def eval(self, values) -> object:
        """The sum of ``eval_terms``.  The terms that stay exact (rational)
        are summed apart and added last, so a float or jet value of one
        symbol does not round the rational part."""
        exact = inexact = None
        for term in self.eval_terms(values):
            if isinstance(term, Rational):
                exact = term if exact is None else exact + term
            else:
                inexact = term if inexact is None else inexact + term
        if inexact is None:
            return 0 if exact is None else exact
        return inexact if exact is None else inexact + exact

    def eval_terms(self, values) -> Iterator[object]:
        """The value of each term, with ``values[i]`` (an int, rational,
        float, or ring element such as a Taylor jet) for symbol i.  Only
        the symbols that occur are read; powers are cached per symbol."""
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

        for key, c in self.terms.items():
            term: object = c
            sym = 0
            while key:
                e = key & _FIELD
                if e:
                    term = term * power(sym, e)
                key >>= _BITS
                sym += 1
            yield term

    # -- structure helpers ----------------------------------------------

    def split_by_symbol(self, sym: int) -> dict[int, "Poly"]:
        """View as a univariate polynomial in ``sym``: degree -> coefficient."""
        shift = _BITS * sym
        parts: dict[int, dict] = {}
        for key, c in self.terms.items():
            e = key >> shift & _FIELD
            parts.setdefault(e, {})[key - (e << shift)] = c
        return {e: Poly(d) for e, d in parts.items()}

    def coeff_of(self, sym: int, deg: int) -> "Poly":
        shift = _BITS * sym
        removed = deg << shift
        return Poly({
            key - removed: c for key, c in self.terms.items() if key >> shift & _FIELD == deg
        })


_ZERO = Poly({})
_ONE = Poly({0: 1})


# -- normalization ------------------------------------------------------


def int_primitive(p: Poly) -> tuple[int, Poly]:
    """(content, primitive part) of a nonzero polynomial: the content is
    the positive gcd of the coefficients, and the sign is left as it is."""
    content = int_gcd(*p.terms.values())
    if content == 1:
        return 1, p
    return content, Poly({e: c // content for e, c in p.terms.items()})


def make_primitive(p: Poly) -> tuple[int, Poly]:
    """Split into (content, primitive) with primitive having positive
    leading coefficient under grlex."""
    if p.is_zero():
        return 0, p
    c, p = int_primitive(p)
    if p.leading()[1] < 0:
        return -c, -p
    return c, p


# -- exact division ------------------------------------------------------


def div_exact(a: Poly, b: Poly) -> Poly | None:
    """Return a/b if b divides a in Z[x], else None.

    A monomial (a constant included) divides term by term.  Otherwise this
    is a heap division in the order of the int keys: the remainder's
    greatest key is taken from a heap of its keys, and the first one that
    the divisor's greatest term does not divide, in key or in coefficient,
    ends the division with None."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    if len(b.terms) == 1:
        ((lb, lb_c),) = b.terms.items()
        q = {}
        for key, c in a.terms.items():
            d = key - lb
            if d < 0 or d & _GUARD:
                return None
            qc, rc = divmod(c, lb_c)
            if rc:
                return None
            q[d] = qc
        return Poly(q)
    if len(a.terms) == 1:
        # the greatest and least terms of a multiple of b cannot cancel
        return None
    # Johnson, SIGSAM Bull. 8 (1974); Monagan & Pearce, JSC 46 (2011).
    # The heap holds negated keys; a cancelled key stays in the heap and
    # is skipped when popped.
    lb = max(b.terms)
    lb_c = b.terms[lb]
    b_rest = [(e, -c) for e, c in b.terms.items() if e != lb]
    r = dict(a.terms)
    heap = [-key for key in r]
    heapify(heap)
    q: dict[int, int] = {}
    while heap:
        key = -heappop(heap)
        c = r.pop(key, None)
        if c is None:
            continue  # cancelled after it was pushed, or a duplicate entry
        d = key - lb
        if d < 0 or d & _GUARD:
            return None
        if lb_c == 1:
            coeff = c
        else:
            coeff, rc = divmod(c, lb_c)
            if rc:
                return None
        q[d] = coeff
        for eb, cb in b_rest:
            key = d + eb
            acc = r.get(key)
            if acc is None:
                r[key] = coeff * cb
                heappush(heap, -key)
            else:
                acc = acc + coeff * cb
                if acc:
                    r[key] = acc
                else:
                    del r[key]
    return Poly(q)


# -- gcd ------------------------------------------------------------------


def monomial_gcd(polys: Iterable[Poly]) -> Poly:
    low: int | None = None
    for p in polys:
        if 0 in p.terms:
            return _ONE
        for key in p.terms:
            low = key if low is None else _mono_min(low, key)
            if not low:
                return _ONE
    return Poly({low or 0: 1})


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
        r = lg * r - (lr * g).mul_monomial((dr - dg) << (_BITS * sym))
        n -= 1
    if n > 0 and not r.is_zero():
        r = lg**n * r
    return r


def content_wrt(p: Poly, sym: int) -> Poly:
    """The gcd of p's coefficients as a polynomial in ``sym``."""
    cont: Poly | None = None
    for part in p.split_by_symbol(sym).values():
        cont = part if cont is None else poly_gcd(cont, part)
        if cont.is_const():
            return Poly.one()
    return cont if cont is not None else Poly.one()


def _eval_sym(p: Poly, sym: int, value: int) -> Poly:
    """Substitute an integer for one symbol (coefficients stay exact)."""
    shift = _BITS * sym
    out: dict[int, int] = {}
    for key, c in p.terms.items():
        e = key >> shift & _FIELD
        if e:
            c = c * value**e
            key -= e << shift
        acc = out.get(key)
        acc = c if acc is None else acc + c
        if acc:
            out[key] = acc
        elif key in out:
            del out[key]
    return Poly(out)


def _interpolate(h: Poly, sym: int, xi: int, degree: int) -> Poly | None:
    """Recover a polynomial in ``sym`` from its value at xi, digit by
    digit in the balanced base xi; None if it would pass ``degree``."""
    result = Poly.zero()
    power = 0
    half = xi // 2
    while not h.is_zero():
        digits = {}
        rest = {}
        for key, c in h.terms.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                digits[key] = r
            q = (c - r) // xi
            if q:
                rest[key] = q
        if digits:
            result = result + Poly(digits).mul_monomial(power << (_BITS * sym))
        h = Poly(rest)
        power += 1
        if h and power > degree:
            return None
    return result


def _max_abs_coeff(p: Poly) -> int:
    return max(map(abs, p.terms.values()))


def _heugcd(f: Poly, g: Poly, syms: list[int]) -> Poly | None:
    """Heuristic gcd of integer polynomials (strip the integer contents,
    evaluate at a big integer, recurse, reconstruct, verify by trial
    division, and put the gcd of the contents back)."""
    if not syms:
        return Poly.const(int_gcd(f.const_value(), g.const_value()))
    # the evaluated polynomials of the recursion are not primitive, and
    # the reconstructed candidate is, so the contents are handled here
    cf, f = int_primitive(f)
    cg, g = int_primitive(g)
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
                # the gcd has at most the lesser degree of the two in sym
                candidate = _interpolate(h, sym, xi, min(f.degree_in(sym), g.degree_in(sym)))
                if candidate:
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
        return monomial_gcd((a, b))
    _, a = make_primitive(a)
    _, b = make_primitive(b)
    if a == b:
        return a
    # split off monomial parts: no variable divides the cofactors, so
    # gcd(a, b) = gcd of monomial parts times gcd of cofactors
    mono_a = monomial_gcd((a,))
    mono_b = monomial_gcd((b,))
    if not mono_a.is_const():
        a = div_exact(a, mono_a)
    if not mono_b.is_const():
        b = div_exact(b, mono_b)
    mono_common = monomial_gcd((mono_a, mono_b))
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
    ca = content_wrt(a, sym)
    cb = content_wrt(b, sym)
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
    result = div_exact(pb, content_wrt(pb, sym))
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


def power_free_extract(p: Poly, q: int) -> tuple[int, Poly, Poly]:
    """Write p = c * a * b**q with b the maximal q-th-power polynomial
    factor; c is the content of p, signed as ``make_primitive`` signs it."""
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
    factors as a monomial times a product of element powers, so the least
    common multiple of denominators is exponent arithmetic, and the gcd of
    a numerator with a denominator needs gcds against the elements only: a
    trial division, then a modular certificate of coprimality, and
    ``poly_gcd`` only when both fail.  That gcd equals what ``poly_gcd``
    returns.  Both tests read univariate images modulo a prime: monomial
    values come from a table of powers by (symbol, exponent), and one gcd
    carries the image of the numerator's rest from one division to the
    next, exact up to a unit (``_divide_or_certify``).

    Factorizations are cached per denominator; refining an element clears
    the cache, since the indices in it no longer name the same factors.
    The element order is the order factors arrive in.  A product's
    denominator is never expanded to be factored: ``factor_product`` and
    ``common_denominator`` add the cached factorizations of its factors.
    The other way round, every denominator that a sum, a product or a
    derivative forms is ``expand`` of its factorization: each distinct
    factorization is multiplied out once per base and entered in the cache,
    so factoring it again is a lookup.
    """

    __slots__ = (
        "elements", "_factored", "_expanded", "_common", "_refinements",
        "_images", "_point", "_values", "_rng",
    )

    def __init__(self):
        self.elements: list[Poly] = []
        self._factored: dict[Poly, tuple[int, dict[int, int]]] = {}
        # expand's products by factorization, and common_denominator's
        # results by key set: both name element indices, as _factored does
        self._expanded: dict[tuple[int, frozenset], Poly] = {}
        self._common: dict[tuple, tuple] = {}
        self._refinements = 0
        # for _divide_or_certify: per element, its main symbol and image
        # (or None); the evaluation point, drawn symbol by symbol in index
        # order; and the values of monomials at it modulo _P, by key
        self._images: dict[Poly, tuple[int, list[int]] | None] = {}
        self._point: list[int] = []
        self._values: dict[int, int] = {}
        self._rng = random.Random(_POINT_SEED)

    def factor(self, p: Poly) -> tuple[int, dict[int, int]]:
        """(monomial key, {element index: exponent}) of a polynomial
        that is primitive with positive leading coefficient."""
        got = self._factored.get(p)
        if got is not None:
            return got
        mono = monomial_gcd((p,))
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
        if exps:
            self._expanded[(got[0], frozenset(exps.items()))] = p
        return got

    def _refine(self, i: int, g: Poly) -> None:
        cofactor = div_exact(self.elements[i], g)
        assert cofactor is not None
        self.elements[i] = g
        self.elements.append(cofactor)
        self._factored.clear()
        self._expanded.clear()
        self._common.clear()
        self._refinements += 1

    def expand(self, key: int, exps: dict[int, int]) -> Poly:
        """The polynomial of the factorization (monomial ``key``, {element
        index: positive exponent}), entered in the factorization cache
        (``factor`` enters each polynomial it factors here in turn).

        It is canonical as a denominator: every element is primitive with a
        positive leading coefficient, so by Gauss's lemma the product is
        primitive, and under grlex, a monomial order, a product's leading
        term is the product of its factors' leading terms, so its leading
        coefficient is positive too.  Each distinct factorization is
        multiplied out once, until a refinement renames the indices; ``exps``
        is kept as given, so the caller must not change it afterwards."""
        if not exps:
            return Poly({key: 1})
        index = (key, frozenset(exps.items()))
        p = self._expanded.get(index)
        if p is None:
            if key:
                p = self.expand(0, exps).mul_monomial(key)
            else:
                elements = self.elements
                p = reduce(Poly.__mul__, [elements[i] ** e for i, e in sorted(exps.items())])
            self._expanded[index] = p
            self._factored[p] = (key, exps)
        return p

    def _factor_all(self, dens: list[Poly]) -> list[tuple[int, dict[int, int]]]:
        """``factor`` of each, again until no refinement renames an index."""
        while True:
            seen = self._refinements
            got = [self.factor(d) for d in dens]
            if self._refinements == seen:
                return got

    def factor_product(self, dens: list[Poly]) -> tuple[int, dict[int, int]]:
        """``factor`` of the product of denominators, as the sum of their
        factorizations: the product is never expanded to be factored."""
        return _product_factors(self._factor_all(dens))

    def common_denominator(self, dens: dict[tuple[Poly, ...], None]):
        """(l, {ds: l / prod(ds)}, factorization of l) for denominators
        given as tuples ds of canonical factors, in the order they arrive.
        l is their least common multiple: each symbol and element at its
        greatest exponent, with the factorizations of a tuple's factors
        added.  l and each cofactor are ``expand`` of their exponents, and
        the result is kept per key set (until a refinement); the caller
        must not change it."""
        index = tuple(dens)
        got = self._common.get(index)
        if got is not None:
            return got
        polys = [d for ds in dens for d in ds if len(d.terms) > 1]
        factored = dict(zip(polys, self._factor_all(polys)))
        factored.update(
            (d, (next(iter(d.terms)), {})) for ds in dens for d in ds if len(d.terms) == 1
        )
        items = {
            ds: factored[ds[0]] if len(ds) == 1 else _product_factors(map(factored.get, ds))
            for ds in dens
        }
        top, exps = 0, {}
        for key, d_exps in items.values():
            top += key - _mono_min(top, key)  # max(a, b) is a + b - min(a, b)
            for i, e in d_exps.items():
                if e > exps.get(i, 0):
                    exps[i] = e
        cofactors = {
            ds: self.expand(
                top - key,
                {i: e - d_exps.get(i, 0) for i, e in exps.items() if e > d_exps.get(i, 0)},
            )
            for ds, (key, d_exps) in items.items()
        }
        got = self._common[index] = (self.expand(top, exps), cofactors, (top, exps))
        return got

    def gcd_num_den(
        self, num: Poly, den: Poly, factored=None
    ) -> tuple[Poly, Poly, tuple[int, dict[int, int]]]:
        """``(g, num / g, factorization of den / g)`` with ``g =
        poly_gcd(num, den)``, for a nonzero num and a denominator ``den``
        (primitive, positive leading coefficient).  ``factored`` is den's
        whole factorization, as ``factor`` gives it, when the caller holds
        it (a product's is the sum of its factors'); by default it is
        ``factor(den)``.

        g is the monomial gcd times, for each factor f of den, the gcds of
        num with f, divided out while they divide num.  Each gcd with an
        element f is found by trial division first (if f divides, the gcd
        is f, as f is squarefree), then by a modular certificate that it
        is 1 (both in ``_divide_or_certify``), and only when both fail by
        ``poly_gcd``.  So den / g is den's factorization with the monomial
        gcd and the elements that divided taken off, unless ``poly_gcd``
        found a proper factor of an element.  Then den / g is no product of
        elements: it is divided out, and factoring it refines the base.
        With a ``factored`` that names a part of den only, den / g stands
        for that part over g."""
        if len(den.terms) == 1:
            g = poly_gcd(num, den)
            quotient = num if g.is_const() else div_exact(num, g)
            return g, quotient, (next(iter(den.terms)) - next(iter(g.terms)), {})
        mono_den, factors = factored or self.factor(den)
        result = monomial_gcd((num, Poly({mono_den: 1}))) if mono_den else _ONE
        low = next(iter(result.terms))
        rest = num if not low else div_exact(num, result)
        if len(rest.terms) == 1:
            # an element is primitive and divisible by no symbol, so it
            # shares no factor with a monomial
            return result, rest, (mono_den - low, factors)
        taken: dict[int, int] = {}
        whole = True
        image = None  # (x, image of rest in x), carried while rest is divided by elements
        for i, e in factors.items():
            # for squarefree f, gcd(num, f**e) = g_1 * ... * g_e with
            # g_1 = gcd(num, f), g_k+1 = gcd(num / (g_1 * ... * g_k), g_k)
            f = g = self.elements[i]
            k = 0
            while k < e:
                if g is f:
                    q, coprime, image = self._divide_or_certify(rest, f, image)
                    if coprime:
                        break
                else:
                    q = div_exact(rest, g)
                if q is not None:
                    rest = q
                    result = result * g
                    k += 1
                    if g is f:
                        taken[i] = k
                    else:
                        whole = False
                        image = None
                    continue
                g = poly_gcd(rest, g)
                if g.is_const():
                    break
        if not whole:
            return result, rest, self.factor(div_exact(self.expand(mono_den, factors), result))
        if taken:
            factors = {i: e - taken.get(i, 0) for i, e in factors.items() if e > taken.get(i, 0)}
        return result, rest, (mono_den - low, factors)

    def _divide_or_certify(self, a: Poly, f: Poly, image: tuple | None = None) -> tuple:
        """(a / f or None, True only if gcd(a, f) = 1, (x, image of the
        rest)) for an element f; the rest is a / f if f divides a, else a.
        ``image`` is (x, image of a) when the caller holds it.

        All come from one univariate image modulo the prime ``_P``: every
        symbol but a main symbol x of f is set to a fixed point.  f can
        divide a only if its image divides the image of a, so the exact
        division is tried only then, and the image quotient is the image
        of a / f.  Images are exact up to a unit of GF(_P) (f's is kept
        monic), which changes neither divisibility nor the degree of a
        gcd.  The coprimality certificate is Brown's (JACM 18, 1971): let
        also f be primitive in x and its image keep its degree in x.  A
        common factor h of a and f then has positive degree in x (f is
        primitive in x), an image of the same degree (its leading
        coefficient divides that of f), and that image divides the images
        of both a and f.  So an image gcd of degree 0 proves h = 1; any
        other image gcd proves nothing."""
        if f not in self._images:
            self._images[f] = self._element_image(f)
        image_f = self._images[f]
        if image_f is None:
            return div_exact(a, f), False, None
        x, monic = image_f
        if image is None or image[0] != x:
            image = (x, self._image(a, x))
        quotient, rem = _divmod_mod(image[1], monic)
        if rem:
            return None, _gcd_degree_mod(monic, rem) == 0, image
        q = div_exact(a, f)
        return q, False, image if q is None else (x, quotient)

    def _element_image(self, f: Poly) -> tuple[int, list[int]] | None:
        """(x, monic image of f in x) for the first symbol x in which f is
        primitive and whose leading coefficient keeps its degree, or None."""
        for x in sorted(f.symbols()):
            lc = f.coeff_of(x, f.degree_in(x))
            if not lc.is_const() and not content_wrt(f, x).is_const():
                continue
            image = self._image(f, x)
            if len(image) == f.degree_in(x) + 1:
                return x, _monic(image)
        return None

    def _image(self, p: Poly, x: int) -> list[int]:
        """Coefficients (low to high in x) of p modulo ``_P`` with every
        other symbol set to its point, each reduced once.  Leading zeros
        are trimmed."""
        values = self._values
        sums: dict[int, int] = {}
        shift = _BITS * x
        for key, c in p.terms.items():
            d = key >> shift & _FIELD
            key -= d << shift
            if key:
                pw = values.get(key)
                if pw is None:
                    pw = values[key] = self._monomial_value(key)
                c *= pw
            sums[d] = sums.get(d, 0) + c
        dense = [sums.get(d, 0) % _P for d in range(max(sums, default=-1) + 1)]
        while dense and not dense[-1]:
            dense.pop()
        return dense

    def _monomial_value(self, key: int) -> int:
        """The monomial of ``key`` at the point, modulo ``_P``: a product
        of powers of one symbol each, which ``_values`` keeps under their
        own keys, as a power table by (symbol, exponent)."""
        values = self._values
        v = 1
        while key:
            shift = (key.bit_length() - 1) // _BITS * _BITS
            power = key >> shift << shift
            pw = values.get(power)
            if pw is None:
                pw = values[power] = pow(self._point_at(shift // _BITS), key >> shift, _P)
            v = v * pw % _P
            key -= power
        return v

    def _point_at(self, sym: int) -> int:
        point = self._point
        while len(point) <= sym:
            point.append(self._rng.randrange(2, _P))
        return point[sym]


def _product_factors(parts) -> tuple[int, dict[int, int]]:
    """The factorization of a product, from those of its factors."""
    key, exps = 0, {}
    for k, d_exps in parts:
        key += k
        for i, e in d_exps.items():
            exps[i] = exps.get(i, 0) + e
    return key, exps


def _monic(b: list[int]) -> list[int]:
    inv = pow(b[-1], -1, _P)
    return [c * inv % _P for c in b]


def _divmod_mod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by a monic b in GF(_P)[x], for dense
    coefficient lists (low to high, no leading zeros).  A coefficient is
    reduced once, when it is read as the quotient's or the remainder's."""
    db = len(b) - 1
    a, quotient = list(a), [0] * (len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = quotient[shift] = a[shift + db] % _P
        if c:
            for j, bj in enumerate(b, shift):
                a[j] -= c * bj
    rem = [v % _P for v in a[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return quotient, rem


def _gcd_degree_mod(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) in GF(_P)[x]; the gcd of a and 0 is a."""
    while b:
        a, b = b, _divmod_mod(a, _monic(b))[1]
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
