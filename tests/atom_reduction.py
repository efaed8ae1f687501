"""The split-based rewrite of radical atom powers that ``expr._reduce_atoms``
replaced, kept as a reference computed by another route.

It splits the polynomial by the highest atom whose power reaches its root
index, rebuilds it from ``Poly`` products and sums, and starts again, until
no atom power reaches its index.
"""

from __future__ import annotations

from finslercalc.expr import Context
from finslercalc.poly import Poly, pack


def reduce_atoms_by_split(ctx: Context, p: Poly) -> Poly:
    """Rewrite atom powers >= q via atom**q -> radicand."""
    while ctx.has_atoms(p):
        target = -1
        # the highest atom whose power reaches its root index
        for s in sorted(p.symbols(), reverse=True):
            if not ctx.is_atom_sym(s):
                break
            if p.degree_in(s) >= ctx.atom_at(s).q:
                target = s
                break
        if target < 0:
            break
        atom = ctx.atom_at(target)
        q = atom.q
        rad_num = atom.radicand.num.scale(atom.radicand.content.numerator)
        acc = Poly.zero()
        for e, coeff in p.split_by_symbol(target).items():
            t, rem = divmod(e, q)
            piece = coeff * rad_num**t
            if rem:
                piece = piece.mul_monomial(pack((0,) * target + (rem,)))
            acc = acc + piece
        p = acc
    return p
