"""Expression text format: parser and printers.

Grammar (no implicit multiplication; decimals become exact rationals)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := number | ident | '(' expr ')' | 'sqrt' '(' expr ')' | '-' factor
    exponent := signed integer | '(' signed integer ('/' integer)? ')'
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import NamedTuple

from .expr import Context, Expr, ExprError
from .poly import EXPONENT_LIMIT, Poly, unpack

# Input limits, checked before anything is expanded: a power of a four-term
# sum at exponent 100 already has 176,851 terms.  Printed components stay
# far inside them (their powers are of single symbols).  Besides these,
# the degree in any one symbol stays within ``poly.EXPONENT_LIMIT``.
MAX_EXPONENT = 1000
MAX_TERMS = 2000
MAX_RADICAND_TERMS = 500


class ParseError(ExprError):
    def __init__(self, message: str, position: int, expected: str = ""):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class _Token(NamedTuple):
    kind: str  # number | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.next()
        raise ParseError(f"found {tok.text or 'end of input'!r}", tok.pos, repr(text))

    def parse_expr(self) -> Expr:
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                rhs = self.parse_term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> Expr:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.next()
                rhs = self.parse_factor()
                if tok.text == "*":
                    _check_product(value.num, rhs.num, value.den, rhs.den, tok.pos)
                    value = value * rhs
                else:
                    if rhs.is_zero_expr():
                        raise ParseError("division by zero", tok.pos)
                    _check_product(value.num, rhs.den, value.den, rhs.num, tok.pos)
                    value = value / rhs
            else:
                return value

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exponent = self.parse_exponent()
            _check_power(base, exponent, tok.pos)
            if base.is_zero_expr():
                if exponent < 0:
                    raise ParseError("division by zero", tok.pos)
                if exponent.denominator != 1:
                    return self.ctx.zero
            return base**exponent
        return base

    def parse_exponent(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            value = Fraction(self.parse_signed_integer())
            if self.peek().kind == "op" and self.peek().text == "/":
                self.next()
                q_pos = self.peek().pos
                q = self.parse_integer()
                if not q:
                    raise ParseError("division by zero", q_pos)
                value /= q
            self.expect(")")
            return value
        if tok.kind == "number" or (tok.kind == "op" and tok.text in "+-"):
            return Fraction(self.parse_signed_integer())
        raise ParseError(f"found {tok.text or 'end of input'!r}", tok.pos, "exponent")

    def parse_signed_integer(self) -> int:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            return -self.parse_integer() if tok.text == "-" else self.parse_integer()
        return self.parse_integer()

    def parse_integer(self) -> int:
        tok = self.next()
        if tok.kind != "number" or "." in tok.text:
            raise ParseError("bad exponent", tok.pos, "integer")
        return int(tok.text)

    def parse_base(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            if "." in tok.text:
                return self.ctx.number(Fraction(tok.text))
            return self.ctx.number(int(tok.text))
        if tok.kind == "ident":
            if tok.text == "sqrt":
                self.expect("(")
                inner = self.parse_expr()
                self.expect(")")
                _check_radicand(inner, 2, tok.pos)
                return self.ctx.sqrt(inner)
            return self.ctx.var(self.ctx.var_named(tok.text))
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "op" and tok.text == "-":
            return -self.parse_factor()
        raise ParseError(
            f"found {tok.text or 'end of input'!r}", tok.pos, "number, name, '(' or 'sqrt'"
        )


def _degrees(p: Poly) -> list[int]:
    """The degree of p in each symbol, indexed by symbol."""
    return [max(col) for col in zip_longest(*map(unpack, p.terms), fillvalue=0)]


def _product_degree(*factors: tuple[Poly, int]) -> int:
    """The greatest degree in one symbol of the product of p**n over the
    ``(p, n)`` factors: degrees in each symbol add."""
    columns = zip_longest(*(_degrees(p) for p, _ in factors), fillvalue=0)
    return max((sum(d * n for d, (_, n) in zip(col, factors)) for col in columns), default=0)


def _check_degree(degree: int, what: str, pos: int) -> None:
    if degree > EXPONENT_LIMIT:
        raise ParseError(
            f"{what} would reach degree {degree} in one symbol (limit {EXPONENT_LIMIT})", pos
        )


def _power_terms(p: Poly, n: int) -> int:
    """Upper bound on the number of terms of p**n: the multisets of n terms
    of p, and the monomials of degree at most n * deg p in its symbols."""
    t = len(p.terms)
    if n == 0:
        return 1
    if t <= 1 or n == 1:
        return t
    bound = comb(t + n - 1, n)
    if bound > MAX_TERMS:
        v = len(p.symbols())
        bound = min(bound, comb(v + n * p.total_degree(), v))
    return bound


def _product_terms(a: Poly, b: Poly) -> int:
    """Upper bound on the number of terms of a * b: the products of their
    terms, and the monomials of degree at most deg a + deg b."""
    bound = len(a.terms) * len(b.terms)
    if bound > MAX_TERMS:
        v = len(a.symbols() | b.symbols())
        bound = min(bound, comb(v + a.total_degree() + b.total_degree(), v))
    return bound


def _check_product(num_a: Poly, num_b: Poly, den_a: Poly, den_b: Poly, pos: int) -> None:
    degree = max(_product_degree((num_a, 1), (num_b, 1)), _product_degree((den_a, 1), (den_b, 1)))
    _check_degree(degree, "product", pos)
    terms = max(_product_terms(num_a, num_b), _product_terms(den_a, den_b))
    if terms > MAX_TERMS:
        raise ParseError(
            f"product would expand to about {terms} terms (limit {MAX_TERMS})", pos
        )


def _check_radicand(e: Expr, q: int, pos: int) -> None:
    # a root clears its denominator into the radicand: num * den**(q-1)
    _check_degree(_product_degree((e.num, 1), (e.den, q - 1)), "root radicand", pos)
    terms = len(e.num.terms) * _power_terms(e.den, q - 1)
    if terms > MAX_RADICAND_TERMS:
        raise ParseError(
            f"root radicand would have about {terms} terms "
            f"(limit {MAX_RADICAND_TERMS})", pos
        )


def _check_power(base: Expr, exponent: Fraction, pos: int) -> None:
    p, q = abs(exponent.numerator), exponent.denominator
    if max(p, q) > MAX_EXPONENT:
        raise ParseError(f"exponent {exponent} is beyond the limit {MAX_EXPONENT}", pos)
    if q > 1:
        _check_radicand(base, q, pos)
    # a root has no greater degree than its base: root(n/d) = root(n*d**(q-1))/d
    degree = p * max(_degrees(base.num) + _degrees(base.den), default=0)
    _check_degree(degree, f"power ^{exponent}", pos)
    terms = max(_power_terms(base.num, p), _power_terms(base.den, p))
    if terms > MAX_TERMS:
        raise ParseError(
            f"power ^{exponent} would expand to about {terms} terms (limit {MAX_TERMS})", pos
        )


def parse(text: str, ctx: Context) -> Expr:
    parser = _Parser(_tokenize(text), ctx)
    value = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.text!r}", tail.pos)
    return value


# -- printing ---------------------------------------------------------------
#
# What repeats across components is printed once per Context: the
# context's ``printed`` dict keeps, under ``(printer, key)``, a monomial
# key's grlex order key and its text without the coefficient, and under
# ``(printer, symbol)`` an atom's radicand.


def _printed(ctx: Context, printer, arg):
    """``printer(ctx, arg)``, computed once per Context."""
    got = ctx.printed.get((printer, arg))
    if got is None:
        got = ctx.printed[printer, arg] = printer(ctx, arg)
    return got


def _radicand_text(ctx: Context, sym: int) -> str:
    return to_text(ctx.atom_at(sym).radicand)


def _monomial_text(ctx: Context, key: int) -> tuple[tuple, str]:
    """(grlex order key, text without the coefficient) of a monomial."""
    exps = unpack(key)
    factors = []
    for i, e in enumerate(exps):
        if not e:
            continue
        if not ctx.is_atom_sym(i):
            factors.append(ctx.sym_name(i) if e == 1 else f"{ctx.sym_name(i)}^{e}")
            continue
        q = ctx.atom_at(i).q
        inner = _printed(ctx, _radicand_text, i)
        base = f"sqrt({inner})" if q == 2 else f"({inner})^(1/{q})"
        if e == 1:
            factors.append(base)
        elif q != 2:
            # keep p/q exponents unreduced on parse-back
            factors.append(f"({base})^{e}")
        else:
            factors.append(f"{base}^{e}")
    return (sum(exps), exps), "*".join(factors)


def _poly_form(ctx: Context, p: Poly, monomial, scale: int, times: str) -> str:
    """The terms of ``scale * p`` in printing order, joined with signs;
    ``monomial`` is the printer of one monomial key, and ``times`` joins a
    magnitude other than 1 to its text."""
    if p.is_zero():
        return "0"
    rows = [(_printed(ctx, monomial, key), coeff) for key, coeff in p.terms.items()]
    rows.sort(key=lambda row: row[0][0], reverse=True)  # by the kept order keys
    out = []
    for (_, body), coeff in rows:
        coeff *= scale
        if coeff < 0:
            out.append(" - ")
            coeff = -coeff
        else:
            out.append(" + ")
        out.append((f"{coeff}{times}{body}" if coeff != 1 else body) if body else str(coeff))
    out[0] = "-" if out[0] == " - " else ""  # the first term takes no "+" and no spaces
    return "".join(out)


def _den_needs_parens(den: Poly, scale: int) -> bool:
    """Whether ``scale * den`` is more than one symbol or one number."""
    if len(den.terms) != 1:
        return True
    ((key, coeff),) = den.terms.items()
    degree = sum(unpack(key))
    return degree > 1 or (degree == 1 and coeff * scale != 1)


def to_text(e: Expr) -> str:
    """Canonical text form ``(a*N)/(b*D)`` for content a/b; parses back
    to the same expression."""
    ctx, num, den = e.ctx, e.num, e.den
    a, b = e.content.numerator, e.content.denominator
    num_text = _poly_form(ctx, num, _monomial_text, a, "*")
    if b == 1 and den.is_const():
        return num_text
    if len(num.terms) > 1:
        num_text = f"({num_text})"
    den_text = _poly_form(ctx, den, _monomial_text, b, "*")
    if _den_needs_parens(den, b):
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


# -- LaTeX -------------------------------------------------------------------


def _radicand_latex(ctx: Context, sym: int) -> str:
    return to_latex(ctx.atom_at(sym).radicand)


def _monomial_latex(ctx: Context, key: int) -> tuple[tuple, str]:
    exps = unpack(key)
    factors = []
    for i, e in enumerate(exps):
        if not e:
            continue
        if not ctx.is_atom_sym(i):
            factors.append(ctx.sym_name(i) if e == 1 else f"{ctx.sym_name(i)}^{{{e}}}")
            continue
        q = ctx.atom_at(i).q
        inner = _printed(ctx, _radicand_latex, i)
        if e == 1 and q == 2:
            factors.append(rf"\sqrt{{{inner}}}")
        else:
            factors.append(rf"\left({inner}\right)^{{{e}/{q}}}")
    return (sum(exps), exps), " ".join(factors)


def to_latex(e: Expr) -> str:
    ctx, num, den = e.ctx, e.num, e.den
    a, b = e.content.numerator, e.content.denominator
    if b == 1 and den.is_const():
        return _poly_form(ctx, num, _monomial_latex, a, " ")
    # single-term numerators carry their sign outside the fraction
    sign = ""
    if len(num.terms) == 1 and next(iter(num.terms.values())) * a < 0:
        sign, a = "-", -a
    num_latex = _poly_form(ctx, num, _monomial_latex, a, " ")
    den_latex = _poly_form(ctx, den, _monomial_latex, b, " ")
    return rf"{sign}\frac{{{num_latex}}}{{{den_latex}}}"
