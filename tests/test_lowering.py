"""Lowering identities of the Cartan v- and hv-curvatures.

Canonical form is unique, so lowering slot 1 of a directly computed
curvature must give exactly the tensor built from the lowering-safe
formula (see ``conftest.lowered_cartan_curvatures``), and raising that
tensor again must give the direct one back.
"""

import pytest

from finslercalc import DOWN, ConnectionKind, Var, contract_product, define

from conftest import geometry_for, lowered_cartan_curvatures
from tensor_algebra import move_index

WHICH = {"S": "v", "P": "hv"}


def lowered(name, letter):
    return dict(zip("SP", lowered_cartan_curvatures(name)))[letter]


def raised(name, letter):
    geom = geometry_for(name)
    return move_index(lowered(name, letter), 1, geom.metric(), geom.inverse_metric())


def direct(name, letter):
    return geometry_for(name).curvature(ConnectionKind.CARTAN, WHICH[letter])


@pytest.mark.parametrize("letter", ["S", "P"])
@pytest.mark.parametrize("name", ["cuberoot-3d", "worked-3d"])
def test_lowered_direct_equals_lowering_safe_formula(name, letter):
    geom = geometry_for(name)
    lowered_direct = move_index(direct(name, letter), 1, geom.metric(), geom.inverse_metric())
    assert lowered_direct.equals(lowered(name, letter))


class TestLoweredForm:
    def test_all_down_signature(self):
        for t in lowered_cartan_curvatures("cuberoot-3d"):
            assert t.sig == (DOWN,) * 4

    def test_euclidean_zero_both_routes(self):
        for t in lowered_cartan_curvatures("euclidean-3d"):
            assert t.is_zero_tensor()
        for letter in "SP":
            assert direct("euclidean-3d", letter).is_zero_tensor()
            assert raised("euclidean-3d", letter).is_zero_tensor()


class TestSimplifyViaLowering:
    """Raising slot 1 of the lowered form reproduces the direct tensor."""

    def test_v_curvature_golden(self):
        t = raised("cuberoot-3d", "S")
        golden = t.ctx.parse("1/12*y3*y1*x1*y2^2/(x1*y2^3+y3*y1^2)^2")
        assert (t[(1, 1, 1, 2)] - golden).is_zero_expr()

    def test_hv_curvature_golden(self):
        t = raised("cuberoot-3d", "P")
        golden = t.ctx.parse("1/16*y2^3/(y1*(x1*y2^3+y3*y1^2))")
        assert (t[(1, 1, 1, 1)] - golden).is_zero_expr()

    def test_route_equivalence_v(self):
        assert raised("cuberoot-3d", "S").equals(direct("cuberoot-3d", "S"))

    def test_route_equivalence_hv_on_worked_example(self):
        assert raised("worked-3d", "P").equals(direct("worked-3d", "P"))

    def test_node_counts_reported(self):
        via = raised("cuberoot-3d", "P")
        for idx, e in direct("cuberoot-3d", "P").components():
            assert via[idx].node_count() <= e.node_count()


class TestRemarkGuard:
    def test_derivative_terms_contract_whole(self):
        """g_im (dot-d_k Gamma^m_hj) is not dot-d_k (g_im Gamma^m_hj): the
        two differ by (dot-d_k g_im) Gamma^m_hj = 2 C_imk Gamma^m_hj."""
        geom = geometry_for("cuberoot-3d")
        g, ginv = geom.metric(), geom.inverse_metric()
        whole = move_index(geom.curvature(ConnectionKind.CHERN, "hv"), 1, g, ginv)
        gamma_low = move_index(geom.cartan_coefficients(), 1, g, ginv)
        pushed = define(
            "P", geom.ctx, geom.dim, (DOWN,) * 4,
            lambda idx: gamma_low[idx[:3]].diff(Var("y", idx[3])),
        )
        assert not pushed.equals(whole)
        c_gamma = contract_product(geom.cartan_tensor()[0], geom.cartan_coefficients(), [(2, 1)])
        for (i, h, j, k), e in pushed.components():
            twice = c_gamma[(i, k, h, j)] + c_gamma[(i, k, h, j)]
            assert (e - whole[(i, h, j, k)] - twice).is_zero_expr()
