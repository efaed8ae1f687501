import sys

import pytest

from finslercalc import (
    DOWN,
    UP,
    ConnectionKind,
    FinslerStructure,
    Var,
    build,
    contract_product,
    define,
)
from finslercalc import tensor

from tensor_algebra import move_index


def _structure_specs():
    euclid3 = ("euclidean-3d", 3, " + ".join(f"y{i}^2" for i in (1, 2, 3)), ())
    return {
        "worked-3d": (
            3,
            "x3*y1^3/y2 + y3^2",
            ("x3 != 0", "y2 != 0", "y1^2+y3^2 != 0"),
            None,
        ),
        "berwald-4d": (
            4,
            None,
            ("x1 != 0", "y4 != 0", "y1^2+y2^2+y3^2 != 0"),
            "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))",
        ),
        "cuberoot-3d": (
            3,
            None,
            ("y1 != 0", "y2 != 0", "y3 != 0"),
            "(x1*y2^3+y1^2*y3)^(1/3)",
        ),
        "euclidean-3d": (3, "y1^2 + y2^2 + y3^2", (), None),
        "perturbed-flat-2d": (2, "y1^2 + y2^2 + x1*y1^3/y2", ("y2 != 0",), None),
        "perturbed-flat-3d": (
            3,
            "y1^2 + y2^2 + y3^2 + x1*y1^3/y2",
            ("y2 != 0",),
            None,
        ),
        "polar-flat-2d": (2, "y1^2 + x1^2*y2^2", ("x1 != 0",), None),
        "quartic-riemannian-2d": (2, "y1^2 + x1^4*y2^2", ("x1 != 0",), None),
    }


STRUCTURE_NAMES = list(_structure_specs())

# Kept out of STRUCTURE_NAMES: the one structure whose parse refines the
# factor base.  x1^2 + 3*x1 + 2 = (x1 + 1)*(x1 + 2) enters it whole, and the
# next term's denominator x1 + 1 splits it; no structure above ever splits
# an element.
REFINING_2D = "refining-2d"
REFINING_2D_F2 = "y1^2 + y2^2 + x1*y1^3/((x1^2+3*x1+2)*y2) + y1*y2/(x1+1)"


def make_structure(name: str) -> FinslerStructure:
    specs = {**_structure_specs(), REFINING_2D: (2, REFINING_2D_F2, ("y2 != 0",), None)}
    dim, f2, constraints, f_text = specs[name]
    coords = [f"x{i}" for i in range(1, dim + 1)]
    fibers = [f"y{i}" for i in range(1, dim + 1)]
    if f_text is not None:
        return FinslerStructure.from_f(dim, coords, fibers, f_text, constraints)
    return FinslerStructure(dim, coords, fibers, f2, constraints)


_GEOMETRIES: dict = {}


def geometry_for(name: str):
    if name not in _GEOMETRIES:
        _GEOMETRIES[name] = build(make_structure(name))
    return _GEOMETRIES[name]


_LOWERED: dict = {}


def lowered_cartan_curvatures(name: str):
    """All-down v- and hv-curvatures (S, P) of the Cartan connection,
    from formulas where the metric enters each term at a safe site:

        S_ihjk = C^m_hk C_imj - C^m_hj C_imk
        P_ihjk = g_im (dot-d_k Gamma^m_hj) - C_ihk|j + C_ihm P^m_jk

    The metric may not slide through the derivative in the first term of
    P, so it contracts the whole derivative: that term is the Chern
    hv-curvature with slot 1 lowered.  The Cartan connection is metric,
    so the other terms are products of already-lowered tensors."""
    if name not in _LOWERED:
        geom = geometry_for(name)
        c_down, c_mixed = geom.cartan_tensor()
        cc = contract_product(c_down, c_mixed, [(2, 1)])  # C_imj C^m_hk at (i, j, h, k)
        s = define(
            "S", geom.ctx, geom.dim, (DOWN,) * 4,
            lambda idx: cc[(idx[0], idx[2], idx[1], idx[3])]
            - cc[(idx[0], idx[3], idx[1], idx[2])],
        )
        g, ginv = geom.metric(), geom.inverse_metric()
        dgamma = move_index(geom.curvature(ConnectionKind.CHERN, "hv"), 1, g, ginv)
        c_h = geom.h_cov_derivative(c_down, geom.connection(ConnectionKind.CARTAN))  # at (i, h, k, j)
        cp = contract_product(c_down, geom.torsions()[1], [(3, 1)])  # C_ihm P^m_jk
        p = define(
            "P", geom.ctx, geom.dim, dgamma.sig,
            lambda idx: dgamma[idx] - c_h[(idx[0], idx[1], idx[3], idx[2])] + cp[idx],
        )
        _LOWERED[name] = (s, p)
    return _LOWERED[name]


def textbook_hv_curvature(geom, kind):
    """The hv-curvature of ``kind`` assembled from its parts by the
    corrected formula

        P^i_hjk = (dot d)_k F^i_hj - C^i_hk|j + C^i_hm P^m_jk,

    where (F, N, C) is the kind's triple, C^i_hk|j the generic
    h-covariant derivative of C, and P^m_jk = (dot d)_k N^m_j - F^m_jk the
    (v)hv-torsion of the kind's own F (zero by definition when F = G).  It
    reads nothing of ``Geometry.curvature``."""
    triple = geom.connection(kind)
    F, N, C = triple.f_coeffs, triple.n_coeffs, triple.c_coeffs
    c_h = geom.h_cov_derivative(C, triple)  # C^i_hk|j at (i, h, k, j)
    ms = range(1, geom.dim + 1)

    def gen(idx):
        i, h, j, k = idx
        yk = Var("y", k)
        acc = F[(i, h, j)].diff(yk) - c_h[(i, h, k, j)]
        for m in ms:
            acc = acc + C[(i, h, m)] * (N[(m, j)].diff(yk) - F[(m, j, k)])
        return acc

    return define("P", geom.ctx, geom.dim, (UP, DOWN, DOWN, DOWN), gen)


@pytest.fixture(scope="session")
def worked3d():
    return geometry_for("worked-3d")


@pytest.fixture(scope="session")
def berwald4d():
    return geometry_for("berwald-4d")


@pytest.fixture(scope="session")
def cuberoot3d():
    return geometry_for("cuberoot-3d")


@pytest.fixture(scope="session")
def euclid3d():
    return geometry_for("euclidean-3d")


@pytest.fixture(scope="session")
def polar2d():
    return geometry_for("polar-flat-2d")


def _symmetry_checked(define):
    """``define``, then an exact check of the declared symmetries: when
    there are any, the generator is called on every index and must give
    the propagated value with its sign, which is exact zero where
    antisymmetry forces it."""

    def checked(name, ctx, dim, sig, generator, symmetries=()):
        t = define(name, ctx, dim, sig, generator, symmetries)
        if symmetries:
            for idx, value in t.components():
                got = generator(idx)
                assert got == value, (
                    f"{name}{list(idx)}: generator gives {got}, "
                    f"declared symmetries give {value}"
                )
        return t

    return checked


@pytest.fixture
def strict_define(monkeypatch):
    """Replace ``define`` in every finslercalc module that holds it with a
    version that checks the declared symmetries on every orbit; returns
    the checking ``define``."""
    original = tensor.define
    checked = _symmetry_checked(original)
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "finslercalc" or modname.startswith("finslercalc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, checked)
    return checked
