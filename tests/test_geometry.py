import itertools

import pytest

from finslercalc import (
    Classification,
    ConnectionKind,
    DegenerateMetric,
    FinslerStructure,
    NotHomogeneous,
    UP,
    Var,
    build,
    registry,
    verify_many,
)
from finslercalc.poly import iter_indices
from finslercalc.tensor import Symmetry, _orbit, _transpositions

from conftest import STRUCTURE_NAMES, geometry_for, make_structure, textbook_hv_curvature
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
        # and so does every object: a second resolve builds nothing
        for name in ("worked-3d", "berwald-4d"):
            geom = build(make_structure(name))
            for oid in registry.base_object_ids():
                first = registry.resolve(geom, oid)
                cached = len(geom._cache)
                assert registry.resolve(geom, oid) is first, (name, oid)
                assert len(geom._cache) == cached, (name, oid)

    def test_hv_curvatures_build_only_the_torsions_they_need(self):
        # P:cartan reads the P-torsion but not R; with F = G the P-torsion
        # is zero by definition, so P:hashiguchi reads neither.  A curvature
        # with C adds its C-terms to the cached one of its C = 0 sibling
        geom = build(make_structure("worked-3d"))
        geom.curvature(ConnectionKind.HASHIGUCHI, "hv")
        zero = geom._zero_c()
        assert ("_curvature", "hv", geom.berwald_coefficients(), zero) in geom._cache
        assert ("_p_torsion",) not in geom._cache
        geom.curvature(ConnectionKind.CARTAN, "hv")
        assert ("_curvature", "hv", geom.cartan_coefficients(), zero) in geom._cache
        assert ("_p_torsion",) in geom._cache and ("torsions",) not in geom._cache
        geom = build(make_structure("worked-3d"))
        geom.curvature(ConnectionKind.CARTAN, "h")
        assert ("_curvature", "h", geom.cartan_coefficients(), geom._zero_c()) in geom._cache

    def test_ptorsion_builds_no_rtorsion(self):
        # the object id Ptorsion reads P^i_jk alone, not the pair that
        # also builds R^i_jk by horizontal derivatives of N
        geom = build(make_structure("worked-3d"))
        p_tor = registry.resolve(geom, "Ptorsion")
        assert ("torsions",) not in geom._cache
        assert geom.torsions()[1] is p_tor

    def test_v_curvature_is_one_per_c(self):
        # S depends on C alone; it is built with the F = G connection of
        # the same C, so it needs no Gamma
        geom = build(make_structure("worked-3d"))
        s = geom.curvature(ConnectionKind.CARTAN, "v")
        assert geom.curvature(ConnectionKind.HASHIGUCHI, "v") is s
        assert ("cartan_coefficients",) not in geom._cache
        zero = geom.curvature(ConnectionKind.CHERN, "v")
        assert geom.curvature(ConnectionKind.BERWALD, "v") is zero and zero.is_zero_tensor()


BERWALD_SPACES = ("berwald-4d", "euclidean-3d", "polar-flat-2d", "quartic-riemannian-2d")
NOT_BERWALD = ("worked-3d", "cuberoot-3d", "perturbed-flat-2d", "perturbed-flat-3d")
# Riemannian, hence Berwald, with a radical of x alone left in G^i_jk
RADICAL_BERWALD = {
    "sqrt-x-2d": (2, "y1^2 + sqrt(x1)*y2^2", ("x1 > 0",)),
    "sqrt-x-3d": (3, "y1^2 + sqrt(x1^2+x2)*y2^2 + y3^2", ("x1^2+x2 > 0",)),
}
_RADICAL_GEOMETRIES: dict = {}


def radical_geometry(name: str):
    if name not in _RADICAL_GEOMETRIES:
        dim, f2, constraints = RADICAL_BERWALD[name]
        coords = [f"x{i}" for i in range(1, dim + 1)]
        fibers = [f"y{i}" for i in range(1, dim + 1)]
        _RADICAL_GEOMETRIES[name] = build(FinslerStructure(dim, coords, fibers, f2, constraints))
    return _RADICAL_GEOMETRIES[name]


# each Gamma kind's object beside its twin with F = G and the same C
TWINS = (
    ("R:chern", "R:berwald"),
    ("P:chern", "P:berwald"),
    ("R:cartan", "R:hashiguchi"),
    ("P:cartan", "P:hashiguchi"),
    ("hcov:Cmixed:cartan", "hcov:Cmixed:hashiguchi"),
)


class TestBerwaldSpaceTwins:
    """On a Berwald space Gamma = G, so Chern is Berwald and Cartan is
    Hashiguchi: each pair is one object.  Elsewhere each is built apart."""

    @pytest.mark.parametrize("name", BERWALD_SPACES)
    def test_twins_are_one_object(self, name):
        geom = geometry_for(name)
        for gamma_id, g_id in TWINS:
            assert registry.resolve(geom, gamma_id) is registry.resolve(geom, g_id), gamma_id
        gamma = registry.resolve(geom, "Gamma")
        assert gamma.name == "Gamma"
        assert dict(gamma.components()) == dict(registry.resolve(geom, "Gberwald").components())

    @pytest.mark.parametrize("name", NOT_BERWALD)
    def test_twins_are_apart_elsewhere(self, name):
        geom = geometry_for(name)
        for gamma_id, g_id in TWINS:
            assert registry.resolve(geom, gamma_id) is not registry.resolve(geom, g_id), gamma_id

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_test_matches_classify(self, name):
        """The test against its definition: every fiber derivative of every
        G^i_jk, each taken by hand in a geometry of its own, is zero."""
        fresh = build(make_structure(name))
        ys = [Var("y", m) for m in range(1, fresh.dim + 1)]
        by_hand = all(
            e.diff(y).is_zero_expr() for _, e in fresh.berwald_coefficients().components() for y in ys
        )
        geom = geometry_for(name)
        assert geom._berwald_space() == by_hand == (name in BERWALD_SPACES)
        assert geom.classify().berwaldian == by_hand

    @pytest.mark.parametrize("name", sorted(RADICAL_BERWALD))
    def test_radical_of_x_is_a_berwald_space(self, name):
        """A radical of x alone in G^i_jk is free of y: the test holds, the
        twins are one object, and the oracle, which builds every kind from
        its own formula, checks every object."""
        geom = radical_geometry(name)
        assert geom._berwald_space() and geom.classify().berwaldian
        for gamma_id, g_id in TWINS:
            assert registry.resolve(geom, gamma_id) is registry.resolve(geom, g_id), gamma_id
        reports = verify_many(geom, registry.base_object_ids(), n_points=2, tol=1e-9, seed=0)
        assert len(reports) == 25
        for object_id, report in reports.items():
            assert report.passed, (name, object_id, report.summary())

    def test_classify_builds_no_curvature(self):
        """Berwaldian is read off G^i_jk's derivatives, not off P:berwald."""
        geom = build(make_structure("worked-3d"))
        assert not geom.classify().berwaldian
        assert not [k for k in geom._cache if k[0] in ("curvature", "_curvature")]


# locally Minkowski, hence Berwald, and not Riemannian: F = (du^4 + dv^4)^(1/4)
# in the coordinates u = x1, v = x1*x2
LOCALLY_MINKOWSKI = "locally-minkowski-2d"
_LOCALLY_MINKOWSKI_F = "(y1^4 + (x2*y1 + x1*y2)^4)^(1/4)"
EVERY_BERWALD = BERWALD_SPACES + tuple(sorted(RADICAL_BERWALD)) + (LOCALLY_MINKOWSKI,)


def berwald_geometry(name: str):
    if name == LOCALLY_MINKOWSKI:
        if name not in _RADICAL_GEOMETRIES:
            structure = FinslerStructure.from_f(
                2, ["x1", "x2"], ["y1", "y2"], _LOCALLY_MINKOWSKI_F, ["x1 != 0"]
            )
            _RADICAL_GEOMETRIES[name] = build(structure)
        return _RADICAL_GEOMETRIES[name]
    return radical_geometry(name) if name in RADICAL_BERWALD else geometry_for(name)


class TestBerwaldTheorem:
    """A space is Berwald exactly when the Cartan tensor is h-parallel,
    C_hij|k = 0 (Matsumoto 1986; Bao, Chern and Shen 2000), so every
    hv-curvature is zero there and ``Geometry._curvature`` returns the zero
    tensor without building C^i_hk|j.  The generic h-derivative, the
    corrected formula assembled from its parts, and the oracle, which knows
    no such rule, witness it."""

    P_IDS = [f"P:{kind.value}" for kind in ConnectionKind]

    @pytest.mark.parametrize("name", EVERY_BERWALD)
    def test_cartan_tensor_is_h_parallel(self, name):
        geom = berwald_geometry(name)
        assert geom._berwald_space()
        for kind in ConnectionKind:
            triple = geom.connection(kind)
            for c in geom.cartan_tensor():
                assert geom.h_cov_derivative(c, triple).is_zero_tensor(), (name, kind, c.sig)

    @pytest.mark.parametrize("name", EVERY_BERWALD)
    def test_corrected_formula_is_zero(self, name):
        geom = berwald_geometry(name)
        for kind in ConnectionKind:
            assert textbook_hv_curvature(geom, kind).is_zero_tensor(), (name, kind)
            assert geom.curvature(kind, "hv").is_zero_tensor(), (name, kind)

    @pytest.mark.parametrize("name", EVERY_BERWALD)
    def test_oracle_witness(self, name):
        geom = berwald_geometry(name)
        ids = self.P_IDS + ["hcov:Cmixed:cartan"]
        reports = verify_many(geom, ids, n_points=4, tol=1e-9, seed=0)
        assert sorted(reports) == sorted(ids)
        for object_id, report in reports.items():
            assert report.passed, (name, object_id, report.summary())

    def test_no_h_derivative_is_built(self):
        geom = build(make_structure("berwald-4d"))
        for kind in ConnectionKind:
            assert geom.curvature(kind, "hv").is_zero_tensor()
        assert not [k for k in geom._cache if k[0] == "_cov_derivative"]

    def test_locally_minkowski_is_not_riemannian(self):
        geom = berwald_geometry(LOCALLY_MINKOWSKI)
        assert geom.classify() == Classification(riemannian=False, berwaldian=True)
        g_jk = geom.berwald_coefficients()
        assert sum(not e.is_zero_expr() for _, e in g_jk.components()) == 2

    @pytest.mark.parametrize("name", NOT_BERWALD)
    def test_built_by_the_formula_elsewhere(self, name):
        geom = geometry_for(name)
        assert not geom._berwald_space()
        assert not geom.curvature(ConnectionKind.CARTAN, "hv").is_zero_tensor()
        for kind in ConnectionKind:
            p = geom.curvature(kind, "hv")
            textbook = textbook_hv_curvature(geom, kind)
            assert dict(p.components()) == dict(textbook.components()), (name, kind)


class TestSharing:
    """Each curvature and covariant derivative is built once per coefficient
    tensor it reads: two kinds get the identical object exactly when those
    tensors are identical."""

    @pytest.mark.parametrize("name", STRUCTURE_NAMES + sorted(RADICAL_BERWALD))
    def test_one_object_per_coefficient_tensors(self, name):
        geom = radical_geometry(name) if name in RADICAL_BERWALD else geometry_for(name)
        g = geom.metric()
        triples = {kind: geom.connection(kind) for kind in ConnectionKind}
        for a, b in itertools.product(ConnectionKind, repeat=2):
            ta, tb = triples[a], triples[b]
            same_f, same_c = ta.f_coeffs is tb.f_coeffs, ta.c_coeffs is tb.c_coeffs
            for which in ("h", "hv"):
                shared = geom.curvature(a, which) is geom.curvature(b, which)
                assert shared == (same_f and same_c), (name, a, b, which)
            assert (geom.curvature(a, "v") is geom.curvature(b, "v")) == same_c, (name, a, b)
            assert (geom.h_cov_derivative(g, ta) is geom.h_cov_derivative(g, tb)) == same_f
            assert (geom.v_cov_derivative(g, ta) is geom.v_cov_derivative(g, tb)) == same_c


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

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_flags_from_their_definitions(self, name):
        """Riemannian: C_ijk = 0.  Berwaldian: every G^i_jk is free of y,
        each derivative taken by hand, in a geometry of its own."""
        geom = build(make_structure(name))
        gjk = geom.berwald_coefficients()
        ys = [Var("y", m) for m in range(1, geom.dim + 1)]
        berwaldian = all(e.diff(y).is_zero_expr() for _, e in gjk.components() for y in ys)
        riemannian = geom.cartan_tensor()[0].is_zero_tensor()
        assert geometry_for(name).classify() == Classification(riemannian, berwaldian)


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
    def test_built_once(self):
        """P:cartan reuses the C^i_hk|j that hcov:Cmixed:cartan built."""
        geom = build(make_structure("worked-3d"))

        def cov_entries():
            return [k for k in geom._cache if k[0] == "_cov_derivative"]

        hcov = registry.resolve(geom, "hcov:Cmixed:cartan")
        assert len(cov_entries()) == 1
        registry.resolve(geom, "P:cartan")
        assert len(cov_entries()) == 1
        assert registry.resolve(geom, "hcov:Cmixed:cartan") is hcov
        vcov = registry.resolve(geom, "vcov:g:berwald")
        assert len(cov_entries()) == 2
        assert registry.resolve(geom, "vcov:g:berwald") is vcov

    @pytest.mark.parametrize(
        "first, second",
        [("hcov:g:cartan", "hcov:g:chern"), ("vcov:g:berwald", "vcov:g:chern")],
    )
    def test_kept_per_coefficient_tensor(self, first, second):
        """An h-derivative reads F alone and a v-derivative C alone, so two
        kinds with the same F (Cartan, Chern) or the same zero C (Berwald,
        Chern) share one derivative."""
        geom = build(make_structure("worked-3d"))
        # build the second triple first, so that the count sees the derivative alone
        geom.connection(ConnectionKind(second.rsplit(":", 1)[1]))
        built = registry.resolve(geom, first)
        cached = len(geom._cache)
        assert registry.resolve(geom, second) is built
        assert len(geom._cache) == cached

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


PLAIN_IDS = [oid for oid in registry.base_object_ids() if registry.parse(oid)[0] == "base"]


@pytest.mark.parametrize("name", STRUCTURE_NAMES)
def test_registered_signature_is_the_built_one(name):
    # each plain id declares its variances beside its builder; the two
    # must agree on every structure
    assert len(PLAIN_IDS) == 14
    geom = geometry_for(name)
    for oid in PLAIN_IDS:
        built = "".join("u" if v is UP else "d" for v in registry.resolve(geom, oid).sig)
        assert registry.parse(oid)[1].sig == built, (name, oid)
