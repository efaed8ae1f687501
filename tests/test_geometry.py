import pytest

from finslercalc import (
    Classification,
    ConnectionKind,
    DegenerateMetric,
    FinslerStructure,
    NotHomogeneous,
    build,
    registry,
)
from finslercalc.poly import iter_indices
from finslercalc.tensor import Symmetry, _orbit, _transpositions

from conftest import geometry_for, make_structure
from golden_worked_example import MISPRINTS, TABLES


class TestBuild:
    def test_euclidean_metric_is_identity(self, euclid3d):
        g = euclid3d.metric()
        for idx, e in g.components():
            expected = euclid3d.ctx.one if idx[0] == idx[1] else euclid3d.ctx.zero
            assert (e - expected).is_zero_expr()

    @pytest.mark.parametrize(
        "name", ["worked-3d", "cuberoot-3d", "berwald-4d", "perturbed-flat-2d"]
    )
    def test_inverse_metric_is_exact_inverse(self, name):
        # g_ir g^rj is the identity in canonical form, exactly
        geom = geometry_for(name)
        g, ginv, ctx = geom.metric(), geom.inverse_metric(), geom.ctx
        for i, j in iter_indices(geom.dim, 2):
            acc = sum((g[(i, r)] * ginv[(r, j)] for r in range(1, geom.dim + 1)), ctx.zero)
            assert acc == (ctx.one if i == j else ctx.zero), (name, i, j)

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            build(FinslerStructure(2, ["x1", "x2"], ["y1", "y2"], "y1^3 + y2^2"))

    def test_degenerate_metric(self):
        with pytest.raises(DegenerateMetric):
            build(FinslerStructure(2, ["x1", "x2"], ["y1", "y2"], "x1*y1^2"))

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            FinslerStructure(1, ["x1"], ["y1"], "y1^2")

    def test_three_dimensional_computation_succeeds(self, worked3d):
        # historically the h- and hv-curvatures failed outside dimension 4
        assert not worked3d.curvature(ConnectionKind.CARTAN, "h").is_zero_tensor()
        assert not worked3d.curvature(ConnectionKind.CARTAN, "hv").is_zero_tensor()

    def test_cache_cold_vs_warm(self):
        a = build(make_structure("worked-3d"))
        b = build(make_structure("worked-3d"))
        for oid in ("g", "Gamma", "R:cartan"):
            ta = registry.resolve(a, oid)
            tb = registry.resolve(b, oid)
            for idx, e in ta.components():
                assert str(e) == str(tb[idx])
        # warm hit returns the identical object
        assert a.metric() is a.metric()

    def test_hv_curvatures_build_only_the_torsions_they_need(self):
        # P:cartan reads the P-torsion but not R; with F = G the P-torsion
        # is zero by definition, so P:hashiguchi reads neither.  A curvature
        # with C adds its C-terms to the cached one of its C = 0 sibling
        geom = build(make_structure("worked-3d"))
        geom.curvature(ConnectionKind.HASHIGUCHI, "hv")
        assert ("curv", ConnectionKind.BERWALD, "hv") in geom._cache
        assert "Ptorsion" not in geom._cache
        geom.curvature(ConnectionKind.CARTAN, "hv")
        assert ("curv", ConnectionKind.CHERN, "hv") in geom._cache
        assert "Ptorsion" in geom._cache and "torsions" not in geom._cache
        geom = build(make_structure("worked-3d"))
        geom.curvature(ConnectionKind.CARTAN, "h")
        assert ("curv", ConnectionKind.CHERN, "h") in geom._cache


def _closure(entries, closure_spec):
    gens = _transpositions([Symmetry(k, tuple(p)) for k, p in closure_spec])
    covered = set()
    for idx in entries:
        covered.update(_orbit(idx, gens) if gens else {idx: 1})
    return covered


@pytest.mark.parametrize("object_id", sorted(TABLES))
def test_worked_example_table(worked3d, object_id):
    """Each published component matches canonically and no unexpected
    nonzero components exist outside the published orbit closure."""
    table = TABLES[object_id]
    tensor = registry.resolve(worked3d, object_id)
    ctx = worked3d.ctx
    for idx, text in table["entries"].items():
        expected = ctx.parse(text)
        assert (tensor[idx] - expected).is_zero_expr(), (object_id, idx)
    covered = _closure(table["entries"], table["closure"])
    for idx, e in tensor.components():
        if not e.is_zero_expr():
            assert idx in covered, (object_id, idx, str(e))


@pytest.mark.parametrize("object_id", sorted(MISPRINTS))
def test_worked_example_misprints_differ(worked3d, object_id):
    """The recorded misprints really disagree with the computed values
    (so the suspect markers stay honest)."""
    tensor = registry.resolve(worked3d, object_id)
    ctx = worked3d.ctx
    for idx, printed in MISPRINTS[object_id].items():
        assert not (tensor[idx] - ctx.parse(printed)).is_zero_expr()


class TestBerwald4D:
    def test_berwald_coefficients_exact(self, berwald4d):
        ctx = berwald4d.ctx
        gjk = berwald4d.berwald_coefficients()
        inv_x1 = ctx.one / ctx.base(1)
        expected = {
            (1, 1, 1): inv_x1,
            (2, 1, 2): inv_x1,
            (2, 2, 1): inv_x1,
            (3, 1, 3): inv_x1,
            (3, 3, 1): inv_x1,
            (1, 2, 2): -inv_x1,
            (1, 3, 3): -inv_x1,
        }
        for idx, e in gjk.components():
            want = expected.get(idx, ctx.zero)
            assert (e - want).is_zero_expr(), idx

    def test_classified_berwaldian(self, berwald4d):
        assert berwald4d.classify() == Classification(riemannian=False, berwaldian=True)

    def test_cartan_hv_curvature_vanishes(self, berwald4d):
        assert berwald4d.curvature(ConnectionKind.CARTAN, "hv").is_zero_tensor()


class TestClassify:
    def test_euclidean(self, euclid3d):
        assert euclid3d.classify() == Classification(riemannian=True, berwaldian=True)

    def test_worked_example_not_berwaldian(self, worked3d):
        assert worked3d.classify() == Classification(riemannian=False, berwaldian=False)

    def test_riemannian_surface(self, polar2d):
        assert polar2d.classify() == Classification(riemannian=True, berwaldian=True)


class TestRiemannianReduction:
    def test_gamma_equals_christoffel(self, polar2d):
        gamma = polar2d.christoffel_gamma()
        big = polar2d.cartan_coefficients()
        assert big.equals(gamma)

    def test_all_h_curvatures_coincide(self, polar2d):
        tensors = [polar2d.curvature(k, "h") for k in ConnectionKind]
        for other in tensors[1:]:
            assert tensors[0].equals(other)

    def test_hv_curvatures_vanish(self, polar2d):
        for kind in ConnectionKind:
            assert polar2d.curvature(kind, "hv").is_zero_tensor()


class TestCovariantDerivatives:
    def test_scalar_h_cov_is_horizontal_gradient(self, worked3d):
        from finslercalc.tensor import define

        ctx = worked3d.ctx
        f2 = worked3d.structure.f_squared
        scalar = define("f", ctx, 3, (), lambda idx: f2)
        triple = worked3d.connection(ConnectionKind.CARTAN)
        grad = worked3d.h_cov_derivative(scalar, triple)
        for k in range(1, 4):
            expected = worked3d.horizontal_derivative(f2, k)
            assert (grad[(k,)] - expected).is_zero_expr()

    def test_scalar_v_cov_of_f_is_l(self, worked3d):
        from finslercalc.tensor import define

        ctx = worked3d.ctx
        f = worked3d.finsler_function()
        scalar = define("F", ctx, 3, (), lambda idx: f)
        triple = worked3d.connection(ConnectionKind.CARTAN)
        grad = worked3d.v_cov_derivative(scalar, triple)
        l_down = worked3d.supporting_and_angular()[0]
        for k in range(1, 4):
            assert (grad[(k,)] - l_down[(k,)]).is_zero_expr()

    def test_v_cov_with_zero_c_is_fiber_derivative(self, worked3d):
        from finslercalc.expr import Var

        triple = worked3d.connection(ConnectionKind.BERWALD)
        g = worked3d.metric()
        vg = worked3d.v_cov_derivative(g, triple)
        for idx, e in vg.components():
            i, j, k = idx
            expected = g[(i, j)].diff(Var("y", k))
            assert (e - expected).is_zero_expr()


def test_torsion_two_routes_agree(worked3d):
    # definitional identity: dot-d_k N^i_j - Gamma^i_jk == G^i_jk - Gamma^i_jk
    p_tor = worked3d.torsions()[1]
    gjk = worked3d.berwald_coefficients()
    gamma = worked3d.cartan_coefficients()
    for idx, e in p_tor.components():
        assert (e - (gjk[idx] - gamma[idx])).is_zero_expr()


def test_registry_is_complete(worked3d):
    for oid in registry.base_object_ids():
        got = registry.resolve(worked3d, oid)
        assert got is not None
    with pytest.raises(registry.UnknownObjectError):
        registry.resolve(worked3d, "S:berwald")
    with pytest.raises(registry.UnknownObjectError):
        registry.resolve(worked3d, "nonsense")
