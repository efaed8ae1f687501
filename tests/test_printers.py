"""The text and LaTeX printers against a plain printer written here.

The printers keep each monomial's order key and text, and each atom's
radicand, per ``Context``, and apply the content to the magnitudes as they
print.  The plain printer below keeps nothing: it scales N and D by the
content and reads ``Poly.sorted_terms()`` for every term, as the printers
did before they kept anything.  Both must give the same string, in a fresh
context and in one whose cache other expressions have filled."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslercalc import Context
from finslercalc.expr import Expr
from finslercalc.parsing import to_latex, to_text
from finslercalc.poly import Poly, pack, unpack

# -- the plain printer ----------------------------------------------------------


def _plain_form(p: Poly, monomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.sorted_terms():
        text = monomial(exps, abs(coeff))
        if not parts:
            parts.append(("-" if coeff < 0 else "") + text)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + text)
    return " ".join(parts)


def _scaled(e: Expr) -> tuple[Poly, Poly]:
    return e.num.scale(e.content.numerator), e.den.scale(e.content.denominator)


def plain_text(e: Expr) -> str:
    ctx = e.ctx

    def symbol(i):
        if not ctx.is_atom_sym(i):
            return ctx.sym_name(i)
        atom = ctx.atom_at(i)
        inner = plain_text(atom.radicand)
        return f"sqrt({inner})" if atom.q == 2 else f"({inner})^(1/{atom.q})"

    def monomial(exps, mag):
        factors = []
        for i, k in enumerate(exps):
            if not k:
                continue
            base = symbol(i)
            if k == 1:
                factors.append(base)
            elif ctx.is_atom_sym(i) and ctx.atom_at(i).q != 2:
                factors.append(f"({base})^{k}")
            else:
                factors.append(f"{base}^{k}")
        if not factors:
            return str(mag)
        return "*".join(([str(mag)] if mag != 1 else []) + factors)

    num, den = _scaled(e)
    num_text = _plain_form(num, monomial)
    if den == Poly.one():
        return num_text
    if len(num.terms) > 1:
        num_text = f"({num_text})"
    den_text = _plain_form(den, monomial)
    if len(den.terms) != 1:
        return f"{num_text}/({den_text})"
    ((key, coeff),) = den.terms.items()
    exps = unpack(key)
    if sum(1 for k in exps if k) + (coeff != 1) > 1 or any(k > 1 for k in exps):
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


def plain_latex(e: Expr) -> str:
    ctx = e.ctx

    def monomial(exps, mag):
        factors = []
        for i, k in enumerate(exps):
            if not k:
                continue
            if ctx.is_atom_sym(i):
                atom = ctx.atom_at(i)
                inner = plain_latex(atom.radicand)
                if k == 1 and atom.q == 2:
                    factors.append(rf"\sqrt{{{inner}}}")
                else:
                    factors.append(rf"\left({inner}\right)^{{{k}/{atom.q}}}")
            else:
                name = ctx.sym_name(i)
                factors.append(name if k == 1 else f"{name}^{{{k}}}")
        if not factors:
            return str(mag)
        return f"{mag} {' '.join(factors)}" if mag != 1 else " ".join(factors)

    num, den = _scaled(e)
    if den == Poly.one():
        return _plain_form(num, monomial)
    sign = ""
    if len(num.terms) == 1 and next(iter(num.terms.values())) < 0:
        sign, num = "-", num.scale(-1)
    return rf"{sign}\frac{{{_plain_form(num, monomial)}}}{{{_plain_form(den, monomial)}}}"


# -- random expressions ---------------------------------------------------------

# F-like radicands: none, a square root, a cube root, and a square root over
# a square root (two atoms, the outer one's radicand holding the inner one)
_ATOMS = [None, "sqrt(y1^2 + y2^2)", "(x1*y2^3 + y1^2*y2)^(1/3)", "sqrt(x1*y2*sqrt(y1^2 + y2^2))"]

_EXPONENTS = st.lists(st.integers(0, 3), min_size=4, max_size=4)
_COEFF = st.integers(-40, 40).filter(bool)
_SPEC = st.tuples(
    st.lists(st.tuples(_EXPONENTS, st.integers(0, 3), _COEFF), min_size=1, max_size=5),
    st.lists(st.tuples(_EXPONENTS, _COEFF), min_size=1, max_size=3),
    st.fractions(-20, 20, max_denominator=12).filter(lambda c: c not in (0, 1)),
)


def _context() -> Context:
    return Context(2, ["x1", "x2"], ["y1", "y2"])


def _top_atom(ctx: Context, atom: "str | None") -> "int | None":
    """The symbol of the highest atom that parsing ``atom`` interns."""
    return None if atom is None else ctx.parse(atom).num.max_symbol()


def _build(ctx: Context, atom: "int | None", spec) -> Expr:
    """c * N / D with each numerator term carrying a power of ``atom``."""
    num_terms, den_terms, content = spec
    num: dict[int, int] = {}
    for exps, atom_power, coeff in num_terms:
        if atom is not None:
            exps = exps + [0] * (atom - len(exps)) + [atom_power]
        num[pack(exps)] = num.get(pack(exps), 0) + coeff
    den: dict[int, int] = {}
    for exps, coeff in den_terms:
        den[pack(exps)] = den.get(pack(exps), 0) + coeff
    num = {k: c for k, c in num.items() if c} or {0: 1}
    den = {k: c for k, c in den.items() if c} or {0: 1}
    return Expr(ctx, Poly(num), Poly(den), content)


@given(st.sampled_from(_ATOMS), _SPEC, st.lists(_SPEC, min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
# single-term numerators, negative and positive, over a monomial denominator
@example(None, ([([1, 0, 2, 0], 0, -3)], [([0, 0, 0, 1], 2)], Fraction(-5, 7)), [])
@example("sqrt(y1^2 + y2^2)", ([([0, 0, 1, 0], 1, -1)], [([0, 0, 0, 0], 1)], Fraction(3, 2)), [])
@example("(x1*y2^3 + y1^2*y2)^(1/3)",
         ([([0, 0, 0, 1], 2, 1)], [([1, 0, 0, 0], 1)], Fraction(-1, 4)), [])
def test_printers_equal_the_plain_printer(atom, spec, others):
    fresh = _context()
    e = _build(fresh, _top_atom(fresh, atom), spec)
    assert (to_text(e), to_latex(e)) == (plain_text(e), plain_latex(e))
    # the same expression after other expressions filled the cache
    filled = _context()
    top = _top_atom(filled, atom)
    for other in others:
        o = _build(filled, top, other)
        to_text(o)
        to_latex(o)
    again = _build(filled, top, spec)
    assert (to_text(again), to_latex(again)) == (plain_text(again), plain_latex(again))
    assert to_text(again) == to_text(e)
    assert str(again) == to_text(again)


def test_expressions_parse_back_after_the_cache_is_filled():
    """A printed expression parses back to itself, and printing it again
    from the cache gives the same string."""
    ctx = _context()
    texts = ["y1^2 - 2*x1*y1*y2/3", "-sqrt(y1^2 + y2^2)/(5*x1)",
             "(x1*y2^3 + y1^2*y2)^(2/3)*y1 - y2", "7/(2*x1^2*y2)"]
    exprs = [ctx.parse(t) for t in texts]
    printed = [to_text(e) for e in exprs]
    assert [to_text(e) for e in exprs] == printed
    assert [ctx.parse(t) for t in printed] == exprs
