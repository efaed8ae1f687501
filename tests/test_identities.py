"""Structural identities checked canonically on every test structure and
re-checked numerically at seeded sample points."""

import pytest

from finslercalc import ConnectionKind, Var, contract_product
from finslercalc.oracle import NumericGeometry, sample_points

from conftest import STRUCTURE_NAMES, geometry_for, textbook_hv_curvature
from tensor_algebra import tensor_add

# structures kept symbolically light enough to sweep every identity
IDENTITY_STRUCTURES = [
    "worked-3d",
    "berwald-4d",
    "cuberoot-3d",
    "euclidean-3d",
    "perturbed-flat-2d",
    "polar-flat-2d",
    "quartic-riemannian-2d",
]

N_POINTS = 8
TOL = 1e-9
SEED = 1234


def _points(geom):
    return sample_points(geom.structure, N_POINTS, SEED)


def _assert_numeric_zero(geom, tensor, points):
    for p in points:
        for _, e in tensor.components():
            if e.is_zero_expr():
                continue
            assert abs(e.eval_at(p)) <= TOL


@pytest.fixture(scope="module", params=IDENTITY_STRUCTURES)
def geom(request):
    return geometry_for(request.param)


class TestEulerChains:
    def test_f_squared_degree_two(self, geom):
        ctx = geom.ctx
        f2 = geom.structure.f_squared
        acc = ctx.zero
        for k in range(1, geom.dim + 1):
            acc = acc + ctx.fiber(k) * f2.diff(Var("y", k))
        assert (acc - f2.scale(2)).is_zero_expr()

    def test_spray_chain(self, geom):
        ctx = geom.ctx
        n_mat = geom.nonlinear_connection()
        spray = geom.spray()
        gjk = geom.berwald_coefficients()
        for i in range(1, geom.dim + 1):
            acc = ctx.zero
            for j in range(1, geom.dim + 1):
                acc = acc + n_mat[(i, j)] * ctx.fiber(j)
            assert (acc - spray[(i,)].scale(2)).is_zero_expr()
        for i in range(1, geom.dim + 1):
            for j in range(1, geom.dim + 1):
                acc = ctx.zero
                for k in range(1, geom.dim + 1):
                    acc = acc + gjk[(i, j, k)] * ctx.fiber(k)
                assert (acc - n_mat[(i, j)]).is_zero_expr()

    def test_cartan_tensor_transversality(self, geom):
        ctx = geom.ctx
        c_down = geom.cartan_tensor()[0]
        for i in range(1, geom.dim + 1):
            for j in range(1, geom.dim + 1):
                acc = ctx.zero
                for k in range(1, geom.dim + 1):
                    acc = acc + c_down[(i, j, k)] * ctx.fiber(k)
                assert acc.is_zero_expr()

    def test_angular_metric_transversality(self, geom):
        ctx = geom.ctx
        _, lup, h = geom.supporting_and_angular()
        for i in range(1, geom.dim + 1):
            acc = ctx.zero
            for j in range(1, geom.dim + 1):
                acc = acc + h[(i, j)] * lup[(j,)]
            assert acc.is_zero_expr()

    def test_metric_contracts_to_f_squared(self, geom):
        ctx = geom.ctx
        g = geom.metric()
        acc = ctx.zero
        for i in range(1, geom.dim + 1):
            for j in range(1, geom.dim + 1):
                acc = acc + g[(i, j)] * ctx.fiber(i) * ctx.fiber(j)
        assert (acc - geom.structure.f_squared).is_zero_expr()

    def test_unit_supporting_element(self, geom):
        ctx = geom.ctx
        ldown, lup, _ = geom.supporting_and_angular()
        acc = ctx.zero
        for i in range(1, geom.dim + 1):
            acc = acc + ldown[(i,)] * lup[(i,)]
        assert (acc - ctx.one).is_zero_expr()


class TestMetricity:
    def test_h_metricity(self, geom):
        triple = geom.connection(ConnectionKind.CARTAN)
        assert geom.h_cov_derivative(geom.metric(), triple).is_zero_tensor()

    def test_v_metricity(self, geom):
        triple = geom.connection(ConnectionKind.CARTAN)
        assert geom.v_cov_derivative(geom.metric(), triple).is_zero_tensor()

    def test_horizontal_derivative_of_f_vanishes(self, geom):
        f = geom.finsler_function()
        for k in range(1, geom.dim + 1):
            assert geom.horizontal_derivative(f, k).is_zero_expr()


class TestAntisymmetries:
    @pytest.mark.parametrize("kind", list(ConnectionKind))
    def test_h_curvature(self, geom, kind):
        t = geom.curvature(kind, "h")
        for idx, e in t.components():
            sw = idx[:2] + (idx[3], idx[2])
            assert (e + t[sw]).is_zero_expr()

    @pytest.mark.parametrize("kind", [ConnectionKind.CARTAN, ConnectionKind.HASHIGUCHI])
    def test_v_curvature(self, geom, kind):
        t = geom.curvature(kind, "v")
        for idx, e in t.components():
            sw = idx[:2] + (idx[3], idx[2])
            assert (e + t[sw]).is_zero_expr()

    def test_r_torsion(self, geom):
        t = geom.torsions()[0]
        for idx, e in t.components():
            sw = (idx[0], idx[2], idx[1])
            assert (e + t[sw]).is_zero_expr()


class TestConnectionCoincidences:
    """Componentwise coincidences between the four fundamental
    connections, canonically and at seeded points."""

    def test_chern_hv_torsion_is_cartan_p(self, geom):
        # both triples share N and the Chern F-coeffs are Gamma, so the
        # (v)hv-torsions agree by construction; assert componentwise anyway
        from finslercalc.expr import Var as V

        ctx = geom.ctx
        n_mat = geom.nonlinear_connection()
        gamma = geom.cartan_coefficients()
        p_tor = geom.torsions()[1]
        for idx, e in p_tor.components():
            i, j, k = idx
            chern = n_mat[(i, j)].diff(V("y", k)) - gamma[(i, j, k)]
            assert (chern - e).is_zero_expr()

    def test_hashiguchi_v_equals_cartan_v(self, geom):
        a = geom.curvature(ConnectionKind.HASHIGUCHI, "v")
        b = geom.curvature(ConnectionKind.CARTAN, "v")
        assert a.equals(b)

    def test_cartan_h_is_chern_h_plus_cr(self, geom):
        cm = geom.cartan_tensor()[1]
        r_tor = geom.torsions()[0]
        cr = contract_product(cm, r_tor, [(3, 1)])
        lhs = geom.curvature(ConnectionKind.CARTAN, "h")
        rhs = tensor_add(geom.curvature(ConnectionKind.CHERN, "h"), cr)
        assert lhs.equals(rhs)

    def test_hashiguchi_h_is_berwald_h_plus_cr(self, geom):
        cm = geom.cartan_tensor()[1]
        r_tor = geom.torsions()[0]
        cr = contract_product(cm, r_tor, [(3, 1)])
        lhs = geom.curvature(ConnectionKind.HASHIGUCHI, "h")
        rhs = tensor_add(geom.curvature(ConnectionKind.BERWALD, "h"), cr)
        assert lhs.equals(rhs)

    def test_berwald_h_is_fiber_derivative_of_r_torsion(self, geom):
        # R^i_hjk of the Berwald connection is dot-d_h R^i_jk, sign included
        r_tor = geom.torsions()[0]
        for idx, e in geom.curvature(ConnectionKind.BERWALD, "h").components():
            i, h, j, k = idx
            assert e == r_tor[(i, j, k)].diff(Var("y", h)), idx

    def test_cartan_p_torsion_from_cov_derivative(self, geom):
        # P^i_jk = C^i_jk|h y^h under the Cartan connection
        ctx = geom.ctx
        triple = geom.connection(ConnectionKind.CARTAN)
        hcov_c = geom.h_cov_derivative(geom.cartan_tensor()[1], triple)
        p_tor = geom.torsions()[1]
        for idx, e in p_tor.components():
            i, j, k = idx
            acc = ctx.zero
            for m in range(1, geom.dim + 1):
                acc = acc + hcov_c[(i, j, k, m)] * ctx.fiber(m)
            assert (acc - e).is_zero_expr()


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_berwald_h_curvature_is_the_delta_formula(name):
    # R:berwald is built as dot-d_h R^i_jk; the definition by delta-derivatives,
    # delta_k G^i_hj - delta_j G^i_hk + G^m_hj G^i_mk - G^m_hk G^i_mj, is
    # written out here
    geom = geometry_for(name)
    G = geom.berwald_coefficients()
    delta = geom.horizontal_derivative
    for idx, e in geom.curvature(ConnectionKind.BERWALD, "h").components():
        i, h, j, k = idx
        want = delta(G[(i, h, j)], k) - delta(G[(i, h, k)], j)
        for m in range(1, geom.dim + 1):
            want = want + G[(m, h, j)] * G[(i, m, k)] - G[(m, h, k)] * G[(i, m, j)]
        assert e == want, idx


class TestBerwaldImpliesVanishingP:
    """The built P:cartan is zero, and so is the corrected formula assembled
    from its parts, each built by the generic calculus."""

    def test_berwald_4d(self, berwald4d):
        assert berwald4d.classify().berwaldian
        assert berwald4d.curvature(ConnectionKind.CARTAN, "hv").is_zero_tensor()
        assert textbook_hv_curvature(berwald4d, ConnectionKind.CARTAN).is_zero_tensor()

    def test_euclidean(self, euclid3d):
        assert euclid3d.classify().berwaldian
        assert euclid3d.curvature(ConnectionKind.CARTAN, "hv").is_zero_tensor()
        assert textbook_hv_curvature(euclid3d, ConnectionKind.CARTAN).is_zero_tensor()


class TestNumericSpotChecks:
    """The canonical-zero identities re-checked against the jet oracle."""

    def test_metricity_and_coincidences_numeric(self, geom):
        points = _points(geom)
        num = NumericGeometry(geom.structure)
        n = geom.dim
        for p in points:
            coords = [float(v) for v in p.x] + [float(v) for v in p.y]
            sc = num.object_table("S:cartan", coords)
            sh = num.object_table("S:hashiguchi", coords)
            rc = num.object_table("R:cartan", coords)
            rch = num.object_table("R:chern", coords)
            cm = num.object_table("Cmixed", coords)
            rt = num.object_table("Rtorsion", coords)
            hg = num.object_table("hcov:g:cartan", coords)
            for i in range(n):
                for h in range(n):
                    for j in range(n):
                        assert abs(hg[i][h][j]) <= TOL * 10
                        for k in range(n):
                            assert abs(sh[i][h][j][k] - sc[i][h][j][k]) <= TOL
                            cr = sum(cm[i][h][m] * rt[m][j][k] for m in range(n))
                            assert abs(rc[i][h][j][k] - rch[i][h][j][k] - cr) <= TOL * 10

    def test_euler_chains_numeric(self, geom):
        points = _points(geom)
        num = NumericGeometry(geom.structure)
        n = geom.dim
        for p in points:
            coords = [float(v) for v in p.x] + [float(v) for v in p.y]
            y = coords[n:]
            nm = num.object_table("N", coords)
            spray = num.object_table("Gspray", coords)
            for i in range(n):
                lhs = sum(nm[i][j] * y[j] for j in range(n))
                assert abs(lhs - 2 * spray[i]) <= TOL * max(1.0, abs(2 * spray[i]))
            h = num.object_table("h", coords)
            lup = num.object_table("lup", coords)
            for i in range(n):
                val = sum(h[i][j] * lup[j] for j in range(n))
                assert abs(val) <= TOL
