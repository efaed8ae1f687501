import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STRUCTURE_NAMES, geometry_for
from finslercalc import (
    Classification,
    FinslerStructure,
    NumericPoint,
    SamplingExhausted,
    build,
    numeric_object,
    sample_points,
    verify,
    verify_many,
)
from finslercalc import registry
from finslercalc.expr import DomainError, real_root
from finslercalc.poly import Poly
from finslercalc.oracle import (
    Jet,
    NumericGeometry,
    _basis,
    _dense_product,
    _flat,
    _point_table,
    _sparse_product,
    _values,
    mat_inv,
)


def _jet_partials(jet):
    """Every partial derivative held by a two-variable jet, keyed by
    (a, b) for d^a/dx^a d^b/dy^b."""
    out = {}
    for d in range(jet.order + 1):
        for a in range(d + 1):
            e = jet
            for _ in range(a):
                e = e.diff(0)
            for _ in range(d - a):
                e = e.diff(1)
            out[(a, d - a)] = e.coeffs[0]
    return out


def _assert_partials(jet, closed_form):
    for (a, b), got in _jet_partials(jet).items():
        want = closed_form(a, b)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, got, want)


def _falling(alpha, m):
    """alpha (alpha - 1) ... (alpha - m + 1)."""
    return math.prod(alpha - i for i in range(m))


class TestDuals:
    """A one-variable jet of order 1 is a dual number; of order 2 it
    carries what a dual of duals carried."""

    def test_first_derivative(self):
        (x,) = Jet.variables([3.0], 1)
        y = x * x + 2 * x
        assert y.coeffs[0] == 15.0
        assert y.diff(0).coeffs[0] == 8.0

    def test_nested_second_derivative(self):
        (x,) = Jet.variables([2.0], 2)
        y = x * x * x
        assert y.diff(0).coeffs[0] == 12.0  # d/dx x^3 = 3x^2
        assert y.diff(0).diff(0).coeffs[0] == 12.0  # d2/dx2 x^3 = 6x


class TestJets:
    X, Y = 0.7, -1.3

    def variables(self, order=5):
        return Jet.variables([self.X, self.Y], order)

    def test_rational_mixed_partials(self):
        # x^3 y^2 / (1 + x) = (x^2 - x + 1 - 1/(1 + x)) y^2
        x, y = self.variables()
        jet = x * x * x * y * y / (1 + x)

        def closed_form(a, b):
            u = self.X
            fx = [u * u - u + 1 - 1 / (1 + u), 2 * u - 1 + 1 / (1 + u) ** 2, 2 - 2 / (1 + u) ** 3]
            dx = fx[a] if a < 3 else (-1) ** (a + 1) * math.factorial(a) / (1 + u) ** (a + 1)
            dy = [self.Y**2, 2 * self.Y, 2.0][b] if b < 3 else 0.0
            return dx * dy

        assert jet.order == 5
        _assert_partials(jet, closed_form)

    def test_reciprocal(self):
        x, y = self.variables()
        s = 3 + self.X + 2 * self.Y
        _assert_partials(
            (3 + x + 2 * y).reciprocal(),
            lambda a, b: (-1) ** (a + b) * math.factorial(a + b) * 2**b / s ** (a + b + 1),
        )

    @pytest.mark.parametrize("q", [2, 3])
    def test_roots(self, q):
        x, y = self.variables()
        s = 3 + self.X + 2 * self.Y
        _assert_partials(
            real_root(3 + x + 2 * y, q),
            lambda a, b: 2**b * _falling(1 / q, a + b) * s ** (1 / q - a - b),
        )

    def test_negative_odd_root_takes_the_sign(self):
        # s = x + 2y = -1.9 < 0; the real cube root is -(-s)^(1/3)
        x, y = self.variables()
        s = self.X + 2 * self.Y
        _assert_partials(
            real_root(x + 2 * y, 3),
            lambda a, b: -((-1) ** (a + b)) * 2**b * _falling(1 / 3, a + b) * (-s) ** (1 / 3 - a - b),
        )
        assert real_root(-8.0, 3) == pytest.approx(-2.0)

    def test_even_root_of_negative_raises(self):
        x, y = self.variables()
        with pytest.raises(DomainError):
            real_root(x + 2 * y, 2)
        with pytest.raises(DomainError):
            real_root(-4.0, 2)

    def test_mat_inv(self):
        # [[1 + x, y], [y, 2 + x]]^-1 = [[2 + x, -y], [-y, 1 + x]] / det
        x, y = self.variables(order=4)
        m = [[1 + x, y], [y, 2 + x]]
        inv = mat_inv(m)
        u, v = self.X, self.Y
        det, det_x, det_y = (1 + u) * (2 + u) - v * v, 3 + 2 * u, -2 * v
        adj = [[2 + u, -v], [-v, 1 + u]]
        adj_x = [[1.0, 0.0], [0.0, 1.0]]
        adj_y = [[0.0, -1.0], [-1.0, 0.0]]
        for i in range(2):
            for j in range(2):
                want = [
                    adj[i][j] / det,
                    adj_x[i][j] / det - adj[i][j] * det_x / det**2,
                    adj_y[i][j] / det - adj[i][j] * det_y / det**2,
                ]
                got = [inv[i][j].coeffs[0], inv[i][j].diff(0).coeffs[0], inv[i][j].diff(1).coeffs[0]]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                # m * m^-1 is the identity in every Taylor coefficient
                prod = m[i][0] * inv[0][j] + m[i][1] * inv[1][j]
                assert prod.order == 4
                assert prod.coeffs == pytest.approx([float(i == j)] + [0.0] * 14, abs=1e-12)
        assert mat_inv([[2.0, 0.0], [0.0, 4.0]]) == [[0.5, 0.0], [0.0, 0.25]]

    def test_mat_inv_pivot_is_relative_to_its_column(self):
        # diag(1, 1e-14) is exactly invertible; a rank-1 matrix is singular
        # at any scale
        assert mat_inv([[1.0, 0.0], [0.0, 1e-14]]) == [[1.0, 0.0], [0.0, 1e14]]
        for scale in (1e-20, 1.0, 1e20):
            with pytest.raises(ZeroDivisionError):
                mat_inv([[scale, 2 * scale], [2 * scale, 4 * scale]])

    def test_order_zero_jet_has_no_derivative(self):
        x, _ = self.variables(order=1)
        assert x.diff(0).order == 0
        with pytest.raises(ValueError):
            x.diff(0).diff(1)
        with pytest.raises(ValueError):
            (x * x).diff(0).diff(0)

    def test_product_takes_the_smaller_order(self):
        x, y = self.variables()
        low = x.diff(0) + y.diff(1).diff(1)  # order 3
        assert (low * x).order == (x * low).order == 3
        assert (low + x).order == 3
        assert (Fraction(1, 2) * x + Fraction(3)).coeffs[:3] == [3.35, 0.5, 0.0]


class TestSharedEvaluation:
    """``NumericGeometry.eval_expr`` and ``Expr.eval_at`` read radical atoms
    through one table of symbol values (``Context.values_at``)."""

    COORDS = [1.25, 1.5, 1.75, 1.125]

    @pytest.fixture
    def numgeom(self):
        return NumericGeometry(FinslerStructure(2, ["x1", "x2"], ["y1", "y2"], "y1^2 + y2^2"))

    def point(self):
        return dict(zip(["x1", "x2", "y1", "y2"], self.COORDS))

    @pytest.mark.parametrize("text", [
        "x1*sqrt(y1^2 + x2*sqrt(x1*y2^3))/(1 + y2)",  # nested radicals
        "(x1*y2 - 2*y1^2)^(1/3) + y2",  # odd root of a negative radicand
    ])
    def test_float_coordinates_match_eval_at(self, numgeom, text):
        e = numgeom.ctx.parse(text)
        want = e.eval_at(self.point())
        assert abs(numgeom.eval_expr(e, self.COORDS) - want) <= 1e-15 * abs(want)

    def test_odd_root_case_has_a_negative_radicand(self, numgeom):
        e = numgeom.ctx.parse("(x1*y2 - 2*y1^2)^(1/3)")
        (sym,) = e.num.symbols()
        assert numgeom.ctx.atom_at(sym).radicand.eval_at(self.point()) < 0

    def test_even_root_of_negative_radicand_raises_on_both_paths(self, numgeom):
        e = numgeom.ctx.parse("y2*sqrt(x1 - 3*y1)")
        with pytest.raises(DomainError):
            e.eval_at(self.point())
        with pytest.raises(DomainError):
            numgeom.eval_expr(e, self.COORDS)


class TestSparseProduct:
    """``Jet.__mul__`` sums over the nonzero coefficients of a sparse
    factor; it must give the dense kernel's product.  Up to Python 3.11
    ``sum`` adds floats in order and the two agree to the bit; later
    versions compensate ``sum``, so there they agree to rounding (an index
    error would be off by a whole term)."""

    @settings(max_examples=60, deadline=None)
    @given(
        nvars=st.integers(2, 6),
        order_sparse=st.integers(0, 5),
        order_dense=st.integers(0, 5),
        order_basis=st.integers(0, 5),  # raised to the larger jet order
        nonzero=st.integers(1, 12),
        sparse_left=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_factor_matches_dense_kernel(
        self, nvars, order_sparse, order_dense, order_basis, nonzero, sparse_left, seed
    ):
        basis = _basis(nvars, max(order_sparse, order_dense, order_basis))
        rng = random.Random(seed)
        dense = Jet([rng.uniform(-2, 2) for _ in range(basis.size[order_dense])], order_dense, basis)
        coeffs = [0.0] * basis.size[order_sparse]
        for i in rng.sample(range(len(coeffs)), min(nonzero, len(coeffs))):
            coeffs[i] = rng.uniform(-2, 2)
        sparse = Jet(coeffs, order_sparse, basis)
        a, b = (sparse, dense) if sparse_left else (dense, sparse)
        order = min(order_sparse, order_dense)
        want = _dense_product(basis, order, a.coeffs, b.coeffs)
        scale = _dense_product(basis, order, [abs(c) for c in a.coeffs], [abs(c) for c in b.coeffs])
        for got in (_sparse_product(basis, order, a.coeffs, b.coeffs, not sparse_left),
                    (a * b).coeffs):
            assert len(got) == len(want)
            if sys.version_info < (3, 12):
                assert got == want
            for g, w, m in zip(got, want, scale):
                assert abs(g - w) <= 1e-12 * m


class TestExactPointValues:
    """``Expr.eval_at`` on one shared table of ``Context.point_values``
    gives the value computed in Fractions and rounded once; where radical
    atoms occur, the value ``Poly.eval`` gives with Fraction coordinates
    and the content folded into each coefficient (atoms as floats, those
    terms added in term order)."""

    @pytest.mark.parametrize(
        "name", ["worked-3d", "perturbed-flat-2d", "polar-flat-2d", "berwald-4d", "cuberoot-3d"]
    )
    def test_every_component_matches_fraction_evaluation(self, name):
        geom = geometry_for(name)
        (point,) = sample_points(geom.structure, 1, seed=3)
        table = geom.ctx.point_values(point)
        values = geom.ctx.values_at([Fraction(v) for v in (*point.x, *point.y)])
        for object_id in registry.verifiable_object_ids():
            for idx, e in registry.resolve(geom, object_id).components():
                # rational coefficients: a reference value only, not an Expr part
                num = Poly({key: e.content * c for key, c in e.num.terms.items()})
                want = float(num.eval(values) / e.den.eval(values))
                assert e.eval_at(table) == want, (object_id, idx)


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
        g_num = num.object_table("g", coords)
        for i in range(2):
            for j in range(2):
                sym = g_sym[(i + 1, j + 1)].eval_at(point)
                assert abs(sym - g_num[i][j]) <= 1e-12 * max(1.0, abs(sym))
        d_sym = geom.structure.f_squared.diff(Var("x", 1)).eval_at(point)
        d_num = num.f2(coords).diff(0).coeffs[0]
        assert abs(d_sym - d_num) <= 1e-12 * max(1.0, abs(d_sym))


class TestSampling:
    def test_deterministic(self, worked3d):
        a = sample_points(worked3d.structure, 5, seed=9)
        b = sample_points(worked3d.structure, 5, seed=9)
        assert a == b

    def test_draws_pinned(self, worked3d):
        assert sample_points(worked3d.structure, 3, seed=9) == [
            NumericPoint(
                x=(1.4630073578150213, 1.3733119313950422, 1.1385394125144552),
                y=(1.8665618499863412, 1.0064350540811233, 1.5027820800522083),
            ),
            NumericPoint(
                x=(1.8982979700319382, 1.0808146471830011, 1.5542704681782862),
                y=(1.6166500426836183, 1.0408957654848114, 1.3790196043954357),
            ),
            NumericPoint(
                x=(1.7034803922937471, 1.4520209204500256, 1.725065368582209),
                y=(1.1571571615966258, 1.2380122024665328, 1.1109475279780145),
            ),
        ]

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
    a numeric table of the symbolic tensor's rank, and ids the registry
    rejects are rejected by the oracle too."""

    @pytest.mark.parametrize("object_id", CONTRACT_IDS)
    def test_numeric_shape_matches_signature(self, worked3d, object_id):
        p = sample_points(worked3d.structure, 1, seed=1)[0]
        rank = registry.resolve(worked3d, object_id).rank
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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # no deviation is ever > nan, so such a check could never fail
            ({"tol": math.nan}, "tol must be finite and positive, got nan"),
            ({"tol": 0.0}, "tol must be finite and positive, got 0.0"),
            ({"box": (math.nan, 1.0)}, "box bounds must be finite, got (nan, 1.0)"),
            ({"box": (1.0, math.inf)}, "box bounds must be finite, got (1.0, inf)"),
        ],
    )
    def test_bad_tol_or_box_is_refused(self, worked3d, kwargs, message):
        for check in (verify, lambda geom, oid, **kw: verify_many(geom, [oid], **kw)):
            with pytest.raises(ValueError) as err:
                check(worked3d, "g", n_points=2, **kwargs)
            assert str(err.value) == message

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
        # the worst pair: (1, 1), where the numeric g_11 is smallest
        assert report.worst_component == (1, 1)
        assert report.worst_point == min(
            report.points, key=lambda p: abs(numeric_object(worked3d, "g", p)[0][0])
        )
        assert report.components[(1, 1)].worst_point == report.worst_point

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

    def test_all_objects_on_berwald_4d(self, berwald4d):
        ids = registry.verifiable_object_ids()
        assert len(ids) == 24
        reports = verify_many(berwald4d, ids, n_points=2, tol=1e-9, seed=0)
        for object_id, report in reports.items():
            assert report.passed, report.summary()


PLAIN_IDS = [i for i in registry.base_object_ids() if registry.parse(i)[0] == "base"]
# the tables read only at the point and by one derivative
LEAF_IDS = ["l", "lup", "h", "Cmixed", "gamma", "Gamma"]
COMPOUND_IDS = [
    "hcov:Cmixed:cartan", "hcov:g:chern", "vcov:g:berwald", "hcov:Rtorsion:berwald",
    "vcov:Cmixed:cartan",
]


def _bits(tree) -> list[bytes]:
    """The leaves of a nested list of floats, sign of zero included."""
    return [struct.pack("d", v) for v in _flat(tree)]


class TestOrders:
    """The oracle builds each jet table only to the orders it reads: the
    leaf tables to order 1, and the values of derivatives come off the
    degree-1 coefficients."""

    @pytest.fixture(params=STRUCTURE_NAMES)
    def point_jets(self, request):
        geom = geometry_for(request.param)
        (p,) = sample_points(geom.structure, 1, 0)
        numgeom = NumericGeometry(geom.structure)
        _point_table(numgeom, p, "g")  # inverts g first, as every caller does
        return numgeom._at([float(v) for v in (*p.x, *p.y)])

    def test_every_plain_table_has_a_first_derivative(self, point_jets):
        for object_id in PLAIN_IDS:
            orders = {e.order for e in _flat(getattr(point_jets, object_id))}
            assert min(orders) >= 1, object_id
            if object_id in LEAF_IDS:
                assert orders == {1}, object_id

    def test_slopes_and_delta_values_are_the_derivative_jets_values(self, point_jets):
        n = point_jets.n
        for object_id in PLAIN_IDS:
            for v in range(2 * n):
                want = _values(point_jets.derivative(object_id, v))
                assert _bits(point_jets.slope(object_id, v)) == _bits(want), (object_id, v)
            for k in range(n):
                want = _values(point_jets.delta(object_id, k))
                assert _bits(point_jets.delta_values(object_id, k)) == _bits(want), (object_id, k)

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_reports_equal_at_full_order(self, name, monkeypatch):
        geom = geometry_for(name)
        ids = registry.base_object_ids() + COMPOUND_IDS
        truncated = verify_many(geom, ids, n_points=2, seed=0)
        monkeypatch.setattr(Jet, "truncate", lambda self, order: self)
        assert verify_many(geom, ids, n_points=2, seed=0) == truncated
