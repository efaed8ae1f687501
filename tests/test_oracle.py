import pytest

from conftest import geometry_for
from finslercalc import (
    Classification,
    FinslerStructure,
    NumericPoint,
    SamplingExhausted,
    build,
    numeric_object,
    sample_points,
    verify,
)
from finslercalc import registry
from finslercalc.oracle import Dual, NumericGeometry, droot, mat_inv, scalar_part


class TestDuals:
    def test_first_derivative(self):
        x = Dual(3.0, 1.0)
        y = x * x + 2 * x
        assert y.val == 15.0
        assert y.dot == 8.0

    def test_nested_second_derivative(self):
        x = Dual(Dual(2.0, 1.0), Dual(1.0, 0.0))
        y = x * x * x
        assert y.dot.dot == 12.0  # d2/dx2 x^3 = 6x

    def test_division(self):
        x = Dual(2.0, 1.0)
        y = 1 / x
        assert y.val == 0.5
        assert y.dot == -0.25

    def test_root(self):
        x = Dual(4.0, 1.0)
        r = droot(x, 2)
        assert r.val == 2.0
        assert r.dot == pytest.approx(0.25)
        c = droot(Dual(-8.0, 1.0), 3)
        assert c.val == pytest.approx(-2.0)

    def test_mat_inv(self):
        m = [[Dual(2.0, 1.0), 0.0], [0.0, 4.0]]
        inv = mat_inv(m)
        assert scalar_part(inv[0][0]) == pytest.approx(0.5)
        assert inv[0][0].dot == pytest.approx(-0.25)


class TestJetSelfTest:
    def test_polynomial_jets_match_symbolic(self):
        # quadratic F^2 with polynomial coefficients: jets agree with
        # symbolic derivatives to near machine precision
        fs = FinslerStructure(
            2, ["x1", "x2"], ["y1", "y2"], "(1 + x1^2)*y1^2 + (2 + x2^2)*y2^2"
        )
        geom = build(fs)
        num = NumericGeometry(fs)
        from finslercalc.expr import Var

        point = {"x1": 1.3, "x2": 1.7, "y1": 1.1, "y2": 1.9}
        coords = [1.3, 1.7, 1.1, 1.9]
        g_sym = geom.metric()
        g_num = num.g_mat(coords)
        for i in range(2):
            for j in range(2):
                sym = g_sym[(i + 1, j + 1)].eval_at(point)
                assert abs(sym - g_num[i][j]) <= 1e-12 * max(1.0, abs(sym))
        d_sym = geom.structure.f_squared.diff(Var("x", 1)).eval_at(point)
        from finslercalc.oracle import _lift

        d_num = num.f2(_lift(coords, 0)).dot
        assert abs(d_sym - d_num) <= 1e-12 * max(1.0, abs(d_sym))


class TestSampling:
    def test_deterministic(self, worked3d):
        a = sample_points(worked3d.structure, 5, seed=9)
        b = sample_points(worked3d.structure, 5, seed=9)
        assert a == b

    def test_respects_constraints(self, worked3d):
        for p in sample_points(worked3d.structure, 10, seed=2):
            assert worked3d.structure.point_ok(p)

    def test_exhaustion(self):
        fs = FinslerStructure(
            2, ["x1", "x2"], ["y1", "y2"], "y1^2 + y2^2", ["x1 > 3"]
        )
        geom = build(fs)
        with pytest.raises(SamplingExhausted):
            sample_points(geom.structure, 1, seed=0)


class TestNumericObject:
    def test_metric_at_point(self, worked3d):
        p = NumericPoint((1.0, 1.0, 2.0), (1.0, 3.0, 1.0))
        g = numeric_object(worked3d, "g", p)
        assert g[0][0] == pytest.approx(2.0, abs=1e-12)

    def test_euclidean_identity(self, euclid3d):
        p = NumericPoint((1.5, 1.5, 1.5), (1.25, 1.75, 1.5))
        g = numeric_object(euclid3d, "g", p)
        for i in range(3):
            for j in range(3):
                assert g[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_berwald_hv_vanishes_numerically(self, berwald4d):
        p = sample_points(berwald4d.structure, 1, seed=4)[0]
        table = numeric_object(berwald4d, "P:cartan", p)
        flat = [
            table[i][h][j][k]
            for i in range(4)
            for h in range(4)
            for j in range(4)
            for k in range(4)
        ]
        assert max(abs(v) for v in flat) <= 1e-9


def _shape(tree) -> tuple[int, ...]:
    """Shape of a nested component list whose leaves are all floats."""
    if not isinstance(tree, list):
        assert isinstance(tree, float)
        return ()
    shapes = {_shape(t) for t in tree}
    assert len(shapes) == 1
    return (len(tree),) + shapes.pop()


CONTRACT_IDS = [
    oid for oid in registry.base_object_ids() if oid != "classify"
] + ["hcov:g:cartan", "vcov:N:berwald"]


class TestRegistryContract:
    """The oracle reads every id through the registry: each tensor id has
    a numeric table of the registered rank, and ids the registry rejects
    are rejected by the oracle too."""

    @pytest.mark.parametrize("object_id", CONTRACT_IDS)
    def test_numeric_shape_matches_signature(self, worked3d, object_id):
        p = sample_points(worked3d.structure, 1, seed=1)[0]
        rank = len(registry.object_signature(object_id))
        assert _shape(numeric_object(worked3d, object_id, p)) == (3,) * rank

    @pytest.mark.parametrize("object_id", ["S:berwald", "R:nope"])
    def test_unknown_ids_rejected(self, worked3d, object_id):
        p = sample_points(worked3d.structure, 1, seed=1)[0]
        with pytest.raises(registry.UnknownObjectError):
            registry.resolve(worked3d, object_id)
        with pytest.raises(registry.UnknownObjectError):
            numeric_object(worked3d, object_id, p)


class TestVerify:
    def test_metric_passes(self, worked3d):
        report = verify(worked3d, "g", n_points=8, tol=1e-9, seed=42)
        assert report.passed
        assert report.max_rel_deviation <= 1e-12

    def test_determinism(self, worked3d):
        a = verify(worked3d, "N", n_points=4, tol=1e-9, seed=7)
        b = verify(worked3d, "N", n_points=4, tol=1e-9, seed=7)
        assert a.points == b.points
        assert a.summary() == b.summary()
        for idx in a.components:
            assert a.components[idx].max_abs_deviation == b.components[idx].max_abs_deviation

    def test_corrupted_component_located(self, worked3d, monkeypatch):
        from finslercalc.tensor import Tensor

        g = worked3d.metric()
        comp = dict(g.components())
        comp[(1, 1)] = comp[(1, 1)] + worked3d.ctx.one  # deliberate fault
        bad = Tensor("g", worked3d.ctx, 3, g.sig, comp, g.symmetries)
        entry = registry._BASE["g"]
        monkeypatch.setitem(registry._BASE, "g", entry._replace(build=lambda geom: bad))
        report = verify(worked3d, "g", n_points=2, tol=1e-9, seed=3)
        assert not report.passed
        assert report.failing_components() == [(1, 1)]

    def test_hashiguchi_v_matches_cartan_v_numerically(self, worked3d):
        ra = verify(worked3d, "S:hashiguchi", n_points=8, tol=1e-9, seed=7)
        rb = verify(worked3d, "S:cartan", n_points=8, tol=1e-9, seed=7)
        assert ra.passed and rb.passed
        # both are the zero tensor here; deviations coincide
        assert ra.max_rel_deviation == rb.max_rel_deviation

    def test_classification_check(self, berwald4d):
        report = verify(berwald4d, "classify", n_points=2, tol=1e-9, seed=5)
        assert report.passed

    @pytest.mark.parametrize("name", ["worked-3d", "euclidean-3d"])
    def test_classification_deviations_within_tol(self, name):
        # worked-3d has both flags false, euclidean-3d both true
        report = verify(geometry_for(name), "classify", n_points=2, tol=1e-9, seed=0)
        assert report.passed
        assert report.max_rel_deviation <= 1e-9

    @pytest.mark.parametrize(
        "name, flags", [("worked-3d", (True, False)), ("euclidean-3d", (False, True))]
    )
    def test_contradicted_flag_fails(self, name, flags, monkeypatch):
        geom = geometry_for(name)
        monkeypatch.setattr(geom, "classify", lambda: Classification(*flags))
        report = verify(geom, "classify", n_points=2, tol=1e-9, seed=0)
        assert not report.passed
        assert report.failing_components() == [(1,)]
        assert report.components[(1,)].max_rel_deviation > 1e-9
        assert report.components[(2,)].max_rel_deviation <= 1e-9

    def test_compound_objects(self, worked3d):
        for oid in ("hcov:g:cartan", "vcov:g:cartan", "vcov:N:berwald"):
            assert verify(worked3d, oid, n_points=2, tol=1e-9, seed=11).passed
