"""An exact witness: every component of the full tables, against sympy.

sympy computes each object from the textbook formula with ``diff``,
``cancel`` and a matrix inverse, independently of ``geometry.py``; the
spray comes from G^i = 1/4 g^ir (y^j d_j dot-d_r F^2 - d_r F^2), a formula
``geometry.py`` does not use.  sympy's result is parsed back and compared
through canonical equality, so a match is exact, not within a tolerance.

perturbed-flat-2d is left out: ``sympy.cancel`` alone takes over a minute
on its curvatures.  Radical structures wait for canonical radicals, since
two equal radical forms are not yet ``==``.  sympy is a test-only witness;
the module is skipped without it.
"""

from itertools import product

import pytest

from finslercalc import registry

from conftest import _structure_specs, geometry_for

sympy = pytest.importorskip("sympy")

STRUCTURES = ("worked-3d", "polar-flat-2d")
OBJECT_IDS = (
    "g", "ginv", "gamma", "Gspray", "N", "Gberwald", "Gamma",
    "R:cartan", "R:berwald", "R:hashiguchi", "P:cartan", "P:hashiguchi",
)


class Textbook:
    """The objects of one rational F^2, with 0-based indices, each entry
    brought to lowest terms by ``sympy.cancel``."""

    def __init__(self, dim: int, f2_text: str):
        self.n = n = dim
        self.xs = sympy.symbols(f"x1:{n + 1}")
        self.ys = sympy.symbols(f"y1:{n + 1}")
        f2 = sympy.sympify(f2_text.replace("^", "**"))
        xs, ys, ns = self.xs, self.ys, range(n)
        cancel = sympy.cancel

        self.g = g = sympy.Matrix(n, n, lambda i, j: cancel(sympy.diff(f2, ys[i], ys[j]) / 2))
        self.ginv = ginv = g.inv().applyfunc(cancel)
        gamma = self._christoffel(lambda e, j: sympy.diff(e, xs[j]))
        spray = [
            cancel(sum(
                ginv[i, r] * (sum(ys[j] * sympy.diff(f2, xs[j], ys[r]) for j in ns)
                              - sympy.diff(f2, xs[r]))
                for r in ns
            ) / 4)
            for i in ns
        ]
        self.N = N = {(i, j): cancel(sympy.diff(spray[i], ys[j])) for i in ns for j in ns}
        Gb = {
            (i, j, k): cancel(sympy.diff(N[i, j], ys[k])) for i in ns for j in ns for k in ns
        }
        Gamma = self._christoffel(self.delta)
        C = {
            (i, h, k): cancel(sum(ginv[i, r] * sympy.diff(g[r, h], ys[k]) for r in ns) / 2)
            for i, h, k in product(ns, repeat=3)
        }
        r_tor = {
            (m, j, k): self.delta(N[m, j], k) - self.delta(N[m, k], j)
            for m, j, k in product(ns, repeat=3)
        }
        p_tor = {
            (m, j, k): sympy.diff(N[m, j], ys[k]) - Gamma[m, j, k]
            for m, j, k in product(ns, repeat=3)
        }

        def h_curvature(F, c_terms):
            # R^i_hjk = delta_k F^i_hj - delta_j F^i_hk + F^m_hj F^i_mk
            # - F^m_hk F^i_mj (+ C^i_hm R^m_jk), each from its full formula
            return {
                (i, h, j, k): cancel(
                    self.delta(F[i, h, j], k) - self.delta(F[i, h, k], j)
                    + sum(F[m, h, j] * F[i, m, k] - F[m, h, k] * F[i, m, j]
                          + (C[i, h, m] * r_tor[m, j, k] if c_terms else 0)
                          for m in ns)
                )
                for i, h, j, k in product(ns, repeat=4)
            }

        def hv_curvature(F, tor):
            # P^i_hjk = dot-d_k F^i_hj - C^i_hk|j + C^i_hm P^m_jk, with the
            # h-covariant derivative of the connection whose F is given
            def c_bar(i, h, k, j):
                return self.delta(C[i, h, k], j) + sum(
                    C[r, h, k] * F[i, r, j] - C[i, r, k] * F[r, h, j]
                    - C[i, h, r] * F[r, k, j]
                    for r in ns
                )

            return {
                (i, h, j, k): cancel(
                    sympy.diff(F[i, h, j], ys[k]) - c_bar(i, h, k, j)
                    + sum(C[i, h, m] * tor[m, j, k] for m in ns)
                )
                for i, h, j, k in product(ns, repeat=4)
            }

        zero = {key: 0 for key in p_tor}
        self.tables = {
            "g": g, "ginv": ginv, "gamma": gamma, "Gspray": {(i,): spray[i] for i in ns},
            "N": N, "Gberwald": Gb, "Gamma": Gamma,
            "R:cartan": h_curvature(Gamma, True), "R:berwald": h_curvature(Gb, False),
            "R:hashiguchi": h_curvature(Gb, True),
            "P:cartan": hv_curvature(Gamma, p_tor), "P:hashiguchi": hv_curvature(Gb, zero),
        }

    def delta(self, e, j):
        """delta_j e = d_j e - N^r_j dot-d_r e."""
        return sympy.diff(e, self.xs[j]) - sum(
            self.N[r, j] * sympy.diff(e, self.ys[r]) for r in range(self.n)
        )

    def _christoffel(self, derivative):
        """1/2 g^ir (D_j g_kr + D_k g_jr - D_r g_jk) for the derivative D."""
        g, ginv, ns = self.g, self.ginv, range(self.n)
        return {
            (i, j, k): sympy.cancel(sum(
                ginv[i, r] * (derivative(g[k, r], j) + derivative(g[j, r], k)
                              - derivative(g[j, k], r))
                for r in ns
            ) / 2)
            for i, j, k in product(ns, repeat=3)
        }


_TEXTBOOKS: dict = {}


def textbook_for(name: str) -> Textbook:
    if name not in _TEXTBOOKS:
        dim, f2, _, f_text = _structure_specs()[name]
        assert f_text is None, "the witness takes a rational F^2"
        _TEXTBOOKS[name] = Textbook(dim, f2)
    return _TEXTBOOKS[name]


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("object_id", OBJECT_IDS)
def test_full_table_matches_sympy(name, object_id):
    geom = geometry_for(name)
    book = textbook_for(name)
    tensor = registry.resolve(geom, object_id)
    mismatches = []
    for idx in product(range(1, geom.dim + 1), repeat=tensor.rank):
        num, den = sympy.fraction(book.tables[object_id][tuple(i - 1 for i in idx)])
        theirs = geom.ctx.parse(f"({num})/({den})".replace("**", "^"))
        if theirs != tensor[idx]:
            mismatches.append((idx, str(tensor[idx]), f"({num})/({den})"))
    assert not mismatches
