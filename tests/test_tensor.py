import pytest

from conftest import STRUCTURE_NAMES, geometry_for, make_structure
from finslercalc import (
    Context,
    DOWN,
    UP,
    VarianceMismatch,
    Symmetry,
    ZeroStatus,
    antisymmetric,
    base_object_ids,
    build,
    contract_product,
    define,
    nonzero_components,
    resolve,
    symmetric,
    Tensor,
    zero_tensor,
)
from finslercalc import geometry, tensor

from tensor_algebra import alternate, kronecker, move_index


@pytest.fixture(scope="module")
def ctx():
    return Context(2, ["x1", "x2"], ["y1", "y2"])


class TestSymmetryRecord:
    @pytest.mark.parametrize(
        "kind, positions, message",
        [
            ("sym", (1, 2), "symmetry kind must be symmetric or antisymmetric"),
            ("symmetric", (1,), "symmetry needs at least two distinct positions"),
            ("symmetric", (1, 1), "symmetry needs at least two distinct positions"),
        ],
    )
    def test_validates(self, kind, positions, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Symmetry(kind, positions)

    def test_value_equality(self):
        a, b = symmetric(1, 2), Symmetry(kind="symmetric", positions=(1, 2))
        assert a == b and hash(a) == hash(b)
        assert a != antisymmetric(1, 2)
        assert repr(a) == "Symmetry(kind='symmetric', positions=(1, 2))"


class TestDefine:
    def test_kronecker(self, ctx):
        d = kronecker(ctx, 2)
        assert str(d[(1, 1)]) == "1"
        assert d[(1, 2)].is_zero_expr()

    def test_symmetry_propagation(self, ctx):
        calls = []

        def gen(idx):
            calls.append(idx)
            return ctx.fiber(idx[0]) * ctx.fiber(idx[1])

        t = define("T", ctx, 2, (DOWN, DOWN), gen, (symmetric(1, 2),))
        assert t[(1, 2)] == t[(2, 1)]
        # one call per orbit, on its least index; (2, 1) is propagated
        assert calls == [(1, 1), (1, 2), (2, 2)]

        calls.clear()

        def anti_gen(idx):
            calls.append(idx)
            return ctx.base(idx[0]) * ctx.fiber(idx[1]) - ctx.base(idx[1]) * ctx.fiber(idx[0])

        a = define("A", ctx, 2, (DOWN, DOWN), anti_gen, (antisymmetric(1, 2),))
        assert a[(2, 1)] == -a[(1, 2)]
        # the diagonal is forced to zero and never generated
        assert calls == [(1, 2)]

    def test_antisymmetric_diagonal_zero(self, ctx):
        def gen(idx):
            return ctx.fiber(idx[0]) * ctx.fiber(idx[1]) - ctx.fiber(idx[1]) * ctx.fiber(
                idx[0]
            )

        t = define("A", ctx, 2, (DOWN, DOWN), gen, (antisymmetric(1, 2),))
        assert t[(1, 1)].is_zero_expr()
        assert (t[(1, 2)] + t[(2, 1)]).is_zero_expr()

    def test_violation_detected(self, ctx, strict_define):
        # symmetric generators declared antisymmetric: one is nonzero on the
        # forced-zero diagonal, the other only contradicts the sign of (2, 1)
        for gen in (
            lambda idx: ctx.fiber(1),
            lambda idx: ctx.zero if idx[0] == idx[1] else ctx.fiber(1),
        ):
            with pytest.raises(AssertionError, match="declared symmetries give"):
                strict_define("B", ctx, 2, (DOWN, DOWN), gen, (antisymmetric(1, 2),))

    def test_mixed_variance_symmetry_rejected(self, ctx):
        with pytest.raises(VarianceMismatch):
            define(
                "B", ctx, 2, (UP, DOWN), lambda idx: ctx.zero, (symmetric(1, 2),)
            )


@pytest.mark.parametrize(
    "name", ["worked-3d", "cuberoot-3d", "polar-flat-2d", "berwald-4d", "perturbed-flat-2d"]
)
def test_declared_symmetries_hold_exactly(name, strict_define):
    """Every registry object, built with each declared symmetry checked
    exactly on every orbit."""
    assert tensor.define is strict_define and geometry.define is strict_define
    geom = build(make_structure(name))
    for object_id in base_object_ids() + ["hcov:Cmixed:cartan", "vcov:h:cartan"]:
        resolve(geom, object_id)


class TestWorkedExample:
    def test_define_angular_metric(self, worked3d):
        geom = worked3d
        ctx = geom.ctx
        g = geom.metric()
        l_down = geom.supporting_and_angular()[0]

        def gen(idx):
            i, j = idx
            return g[(i, j)] - l_down[(i,)] * l_down[(j,)]

        h = define("h", ctx, 3, (DOWN, DOWN), gen, (symmetric(1, 2),))
        expected = ctx.parse(
            "3/4*x3*y1*(x3*y1^3+4*y2*y3^2)/(y2*(x3*y1^3+y2*y3^2))"
        )
        assert (h[(1, 1)] - expected).is_zero_expr()

    def test_raise_cartan_index(self, worked3d):
        c_down = worked3d.cartan_tensor()[0]
        g = worked3d.metric()
        ginv = worked3d.inverse_metric()
        c_up = move_index(c_down, 1, g, ginv)
        assert str(c_up[(1, 1, 1)]) == "-1/y1"

    def test_move_index_roundtrip(self, worked3d):
        c_mixed = worked3d.cartan_tensor()[1]
        g = worked3d.metric()
        ginv = worked3d.inverse_metric()
        lowered = move_index(c_mixed, 1, g, ginv)
        back = move_index(lowered, 1, g, ginv)
        assert back.equals(c_mixed)

    def test_contract_metric_inverse_is_identity(self, worked3d):
        g = worked3d.metric()
        ginv = worked3d.inverse_metric()
        delta = contract_product(ginv, g, [(2, 1)])
        expected = kronecker(worked3d.ctx, 3)
        assert delta.equals(expected)

    def test_contract_nonlinear_connection_with_y(self, worked3d):
        ctx = worked3d.ctx
        n_mat = worked3d.nonlinear_connection()
        y = define("y", ctx, 3, (UP,), lambda idx: ctx.fiber(idx[0]))
        ny = contract_product(n_mat, y, [(2, 1)])
        spray = worked3d.spray()
        for i in range(1, 4):
            assert (ny[(i,)] - spray[(i,)].scale(2)).is_zero_expr()

    def test_cartan_square_combination_vanishes(self, worked3d):
        cm = worked3d.cartan_tensor()[1]
        prod = contract_product(cm, cm, [(1, 2)])
        ctx = worked3d.ctx
        for idx, _ in prod.components():
            h, k, i, j = idx
            diff = prod[(h, k, i, j)] - prod[(h, j, i, k)]
            assert diff.is_zero_expr()


class TestContract:
    def test_variance_mismatch(self, ctx):
        t = kronecker(ctx, 2)
        with pytest.raises(VarianceMismatch):
            contract_product(t, t, [(1, 1)])

    def test_slot_order(self, ctx):
        a = define("a", ctx, 2, (UP, DOWN), lambda idx: ctx.number(10 * idx[0] + idx[1]))
        b = define("b", ctx, 2, (UP,), lambda idx: ctx.number(idx[0]))
        c = contract_product(a, b, [(2, 1)])
        assert c.sig == (UP,)
        # c^i = sum_j a^i_j b^j
        assert c[(1,)].const_value() == 11 * 1 + 12 * 2


class TestAlternate:
    def test_symmetric_annihilated(self, ctx):
        t = define(
            "t", ctx, 2, (DOWN, DOWN),
            lambda idx: ctx.fiber(idx[0]) * ctx.fiber(idx[1]),
            (symmetric(1, 2),),
        )
        assert alternate(t, 1, 2).is_zero_tensor()

    def test_antisymmetry_of_result(self, ctx):
        t = define("t", ctx, 2, (DOWN, DOWN), lambda idx: ctx.fiber(idx[0]) ** idx[1])
        a = alternate(t, 1, 2)
        for idx, e in a.components():
            sw = (idx[1], idx[0])
            assert (e + a[sw]).is_zero_expr()

    def test_opposite_orders_cancel(self, ctx):
        t = define("t", ctx, 2, (DOWN, DOWN), lambda idx: ctx.fiber(idx[0]) ** idx[1])
        s = alternate(t, 1, 2)
        r = alternate(t, 2, 1)
        for idx, e in s.components():
            assert (e + r[idx]).is_zero_expr()

    def test_variance_mismatch(self, ctx):
        t = kronecker(ctx, 2)
        with pytest.raises(VarianceMismatch):
            alternate(t, 1, 2)

    def test_chern_h_curvature_from_alternation(self, worked3d):
        geom = worked3d
        ctx = geom.ctx
        gamma = geom.cartan_coefficients()

        def gen(idx):
            i, h, j, k = idx
            val = geom.horizontal_derivative(gamma[(i, h, j)], k)
            for m in range(1, 4):
                val = val + gamma[(m, h, j)] * gamma[(i, m, k)]
            return val

        pre = define("A", ctx, 3, (UP, DOWN, DOWN, DOWN), gen)
        r_chern = alternate(pre, 3, 4)
        expected = ctx.parse("-1/8*y1^2/(x3*y2^2)")
        assert (r_chern[(1, 1, 1, 2)] - expected).is_zero_expr()


class TestNonzeroComponents:
    def test_metric_orbit_representatives(self, worked3d):
        entries = nonzero_components(worked3d.metric())
        assert [e.index for e in entries] == [(1, 1), (1, 2), (2, 2), (3, 3)]

    def test_zero_tensor_empty(self, ctx):
        assert nonzero_components(zero_tensor("z", ctx, 2, (DOWN,))) == []

    def test_berwald_representatives(self, worked3d):
        entries = nonzero_components(worked3d.berwald_coefficients())
        assert [e.index for e in entries] == [
            (1, 1, 3),
            (2, 2, 3),
            (3, 1, 1),
            (3, 1, 2),
            (3, 2, 2),
        ]

    def test_full_table_mode(self, worked3d):
        reduced = nonzero_components(worked3d.metric())
        full = nonzero_components(worked3d.metric(), full_table=True)
        assert len(full) == len(reduced) + 1  # the symmetric (2,1) partner
        assert all(e.status is ZeroStatus.NON_ZERO for e in full)


# every (rank, symmetries) shape the package builds: the tensors it
# declares, the scalars and curvatures, and each of them with the one more
# slot that a covariant derivative gives it
PACKAGE_SHAPES = [
    (0, ()), (1, ()), (2, ()), (3, ()), (4, ()), (5, ()),
    (2, (symmetric(1, 2),)), (3, (symmetric(1, 2),)),
    (3, (symmetric(1, 2, 3),)), (4, (symmetric(1, 2, 3),)),
    (3, (symmetric(2, 3),)), (4, (symmetric(2, 3),)),
    (3, (antisymmetric(2, 3),)), (4, (antisymmetric(2, 3),)),
    (4, (antisymmetric(3, 4),)), (5, (antisymmetric(3, 4),)),
]


def _context(dim):
    return Context(dim, [f"x{i}" for i in range(1, dim + 1)], [f"y{i}" for i in range(1, dim + 1)])


def _shape_id(shape):
    rank, symmetries = shape
    return f"rank{rank}" + "".join(
        f"-{s.kind[:4]}{''.join(map(str, s.positions))}" for s in symmetries
    )


class TestOrbitPlan:
    @pytest.mark.parametrize("rank, symmetries", PACKAGE_SHAPES, ids=map(_shape_id, PACKAGE_SHAPES))
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_orbits_partition_the_index_box(self, dim, rank, symmetries):
        plan = tensor._orbit_plan(_context(dim), dim, rank, symmetries)
        gens = tensor._transpositions(symmetries)
        members = [m for _, orbit in plan for m, _ in orbit]
        assert sorted(members) == list(tensor.iter_indices(dim, rank))
        leasts = [least for least, _ in plan]
        assert leasts == sorted(set(leasts))
        for least, orbit in plan:
            first, sign = orbit[0]
            assert first == least == min(m for m, _ in orbit)
            assert sign == 1 or all(s == 0 for _, s in orbit)
            assert dict(orbit) == (tensor._orbit(least, gens) if gens else {least: 1})

    def test_built_once_per_context(self):
        symmetries = (symmetric(1, 2, 3),)
        ctx = _context(3)
        plan = tensor._orbit_plan(ctx, 3, 3, symmetries)
        assert tensor._orbit_plan(ctx, 3, 3, symmetries) is plan
        assert list(ctx._orbit_plans) == [(3, 3, symmetries)]
        other = _context(3)
        assert tensor._orbit_plan(other, 3, 3, symmetries) is not plan
        assert tensor._orbit_plan(other, 3, 3, symmetries) == plan

    def test_package_shapes_are_covered(self):
        """Every shape a build of all ids, and of each base id's covariant
        derivatives, asks a plan for is one of ``PACKAGE_SHAPES``."""
        geom = build(make_structure("perturbed-flat-2d"))
        for object_id in base_object_ids():
            resolve(geom, object_id)
        for base in [i for i in base_object_ids() if ":" not in i and i != "classify"]:
            for op in ("hcov", "vcov"):
                resolve(geom, f"{op}:{base}:cartan")
        shapes = {(rank, symmetries) for _, rank, symmetries in geom.ctx._orbit_plans}
        assert shapes <= set(PACKAGE_SHAPES), shapes - set(PACKAGE_SHAPES)


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_representatives_are_the_least_orbit_members(name):
    """On every tensor id (all but ``classify``), ``nonzero_components``
    reports exactly the nonzero indices that are the least of their orbit,
    and ``full_table`` every nonzero index."""
    geom = geometry_for(name)
    for object_id in base_object_ids():
        t = resolve(geom, object_id)
        if not isinstance(t, Tensor):
            continue
        gens = tensor._transpositions(t.symmetries)
        nonzero = [idx for idx in tensor.iter_indices(t.dim, t.rank) if not t[idx].is_zero_expr()]
        least = [idx for idx in nonzero if not gens or min(tensor._orbit(idx, gens)) == idx]
        assert [e.index for e in nonzero_components(t)] == least, object_id
        assert [e.index for e in nonzero_components(t, full_table=True)] == nonzero, object_id


def test_orbit_plans_stay_in_their_context():
    geom = build(make_structure("worked-3d"))
    resolve(geom, "R:cartan")
    assert geom.ctx._orbit_plans
    assert make_structure("worked-3d").ctx._orbit_plans == {}
