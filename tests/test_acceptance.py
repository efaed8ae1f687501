"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import time

import pytest

from finslercalc import (
    ConnectionKind,
    FinslerStructure,
    build,
    contract_product,
    registry,
    verify_many,
)
from finslercalc.oracle import Jet, NumericGeometry, mat_inv, sample_points
from finslercalc.cli import build_config, run

from conftest import geometry_for, lowered_cartan_curvatures, make_structure, textbook_hv_curvature
from golden_worked_example import MISPRINTS, TABLES
from tensor_algebra import move_index, tensor_add
from test_geometry import _closure

PASS = "ACCEPTANCE criterion {n} ({name}): PASS — {detail}"


def test_criterion_1_worked_example_golden():
    t0 = time.perf_counter()
    geom = build(make_structure("worked-3d"))
    ctx = geom.ctx
    n_entries = 0
    for object_id, table in TABLES.items():
        tensor = registry.resolve(geom, object_id)
        for idx, text in table["entries"].items():
            assert (tensor[idx] - ctx.parse(text)).is_zero_expr(), (object_id, idx)
            n_entries += 1
        covered = _closure(table["entries"], table["closure"])
        for idx, e in tensor.components():
            if not e.is_zero_expr():
                assert idx in covered, (object_id, idx)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"worked-example reproduction took {elapsed:.1f}s"
    # suspect entries: the printed value disagrees; the computed value must
    # satisfy the connection-coincidence identities and pass the oracle
    cm = geom.cartan_tensor()[1]
    r_tor = geom.torsions()[0]
    cr = contract_product(cm, r_tor, [(3, 1)])
    coincidence = {
        "R:cartan": tensor_add(geom.curvature(ConnectionKind.CHERN, "h"), cr),
        "R:hashiguchi": tensor_add(geom.curvature(ConnectionKind.BERWALD, "h"), cr),
        "R:berwald": geom.curvature(ConnectionKind.BERWALD, "h"),
        "R:chern": geom.curvature(ConnectionKind.CHERN, "h"),
    }
    reports = verify_many(geom, sorted(MISPRINTS), n_points=8, tol=1e-9, seed=42)
    n_suspect = 0
    for object_id, wrong in MISPRINTS.items():
        tensor = registry.resolve(geom, object_id)
        for idx, printed in wrong.items():
            n_suspect += 1
            assert not (tensor[idx] - ctx.parse(printed)).is_zero_expr()
            assert reports[object_id].components[idx].passed
            if object_id in coincidence:
                assert (tensor[idx] - coincidence[object_id][idx]).is_zero_expr()
    print(
        PASS.format(
            n=1,
            name="worked-example golden reproduction",
            detail=f"{n_entries} published components matched, "
            f"{n_suspect} misprints corrected via identities+oracle, "
            f"{elapsed:.1f}s < 30s",
        )
    )


def test_criterion_2_berwald_regression():
    t0 = time.perf_counter()
    geom = build(make_structure("berwald-4d"))
    ctx = geom.ctx
    gjk = geom.berwald_coefficients()
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
        assert (e - expected.get(idx, ctx.zero)).is_zero_expr(), idx
    assert geom.classify().berwaldian
    p = geom.curvature(ConnectionKind.CARTAN, "hv")
    assert p.is_zero_tensor()
    # the zero is computed, not assumed: the corrected formula
    # (dot d)_k Gamma^i_hj - C^i_hk|j + C^i_hm P^m_jk, each part built by the
    # generic calculus, cancels to the canonical zero in every component
    assert textbook_hv_curvature(geom, ConnectionKind.CARTAN).is_zero_tensor()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"regression example took {elapsed:.1f}s"
    print(
        PASS.format(
            n=2,
            name="4D Berwald regression",
            detail=f"Berwald coefficients exact, space Berwaldian, "
            f"Cartan hv-curvature identically zero, also assembled from its parts, "
            f"{elapsed:.1f}s < 30s",
        )
    )


def test_criterion_3_dimension_sweep():
    checked = 0
    for dim in (2, 3, 4, 5):
        coords = [f"x{i}" for i in range(1, dim + 1)]
        fibers = [f"y{i}" for i in range(1, dim + 1)]
        flat = " + ".join(f"y{i}^2" for i in range(1, dim + 1))
        structures = [
            FinslerStructure(dim, coords, fibers, flat),
            FinslerStructure(dim, coords, fibers, flat + " + x1*y1^3/y2", ["y2 != 0"]),
        ]
        for fs in structures:
            geom = build(fs)
            for oid in registry.base_object_ids():
                registry.resolve(geom, oid)
                checked += 1
    print(
        PASS.format(
            n=3,
            name="dimension independence",
            detail=f"full object registry ({checked} computations) over dims "
            "2..5 on flat and rationally perturbed structures",
        )
    )


def test_criterion_4_lowering_simplification():
    geom = geometry_for("cuberoot-3d")
    ctx = geom.ctx
    g, ginv = geom.metric(), geom.inverse_metric()
    s_low, p_low = lowered_cartan_curvatures("cuberoot-3d")
    s_via = move_index(s_low, 1, g, ginv)
    p_via = move_index(p_low, 1, g, ginv)
    s_golden = ctx.parse("1/12*y3*y1*x1*y2^2/(x1*y2^3+y3*y1^2)^2")
    p_golden = ctx.parse("1/16*y2^3/(y1*(x1*y2^3+y3*y1^2))")
    assert (s_via[(1, 1, 1, 2)] - s_golden).is_zero_expr()
    assert (p_via[(1, 1, 1, 1)] - p_golden).is_zero_expr()
    s_direct = geom.curvature(ConnectionKind.CARTAN, "v")
    p_direct = geom.curvature(ConnectionKind.CARTAN, "hv")
    assert s_via.equals(s_direct)
    assert p_via.equals(p_direct)
    s_counts = (s_direct[(1, 1, 1, 2)].node_count(), s_via[(1, 1, 1, 2)].node_count())
    p_counts = (p_direct[(1, 1, 1, 1)].node_count(), p_via[(1, 1, 1, 1)].node_count())
    assert s_counts[1] <= s_counts[0]
    assert p_counts[1] <= p_counts[0]
    print(
        PASS.format(
            n=4,
            name="lowering simplification",
            detail=f"both displayed components reproduced; node counts "
            f"via-lowering<=direct: S {s_counts[1]}<={s_counts[0]}, "
            f"P {p_counts[1]}<={p_counts[0]}",
        )
    )


IDENTITY_STRUCTURES = [
    "worked-3d",
    "berwald-4d",
    "cuberoot-3d",
    "euclidean-3d",
    "perturbed-flat-2d",
    "polar-flat-2d",
    "quartic-riemannian-2d",
]


def test_criterion_5_identity_suite():
    from finslercalc.expr import Var

    tol = 1e-9
    for name in IDENTITY_STRUCTURES:
        geom = geometry_for(name)
        ctx = geom.ctx
        n = geom.dim
        f2 = geom.structure.f_squared
        g = geom.metric()
        cartan = geom.connection(ConnectionKind.CARTAN)
        # Euler chains
        euler = sum(
            (ctx.fiber(k) * f2.diff(Var("y", k)) for k in range(1, n + 1)), ctx.zero
        )
        assert (euler - f2.scale(2)).is_zero_expr()
        n_mat = geom.nonlinear_connection()
        spray = geom.spray()
        for i in range(1, n + 1):
            acc = sum((n_mat[(i, j)] * ctx.fiber(j) for j in range(1, n + 1)), ctx.zero)
            assert (acc - spray[(i,)].scale(2)).is_zero_expr()
        c_down = geom.cartan_tensor()[0]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = sum(
                    (c_down[(i, j, k)] * ctx.fiber(k) for k in range(1, n + 1)), ctx.zero
                )
                assert acc.is_zero_expr()
        _, lup, h = geom.supporting_and_angular()
        for i in range(1, n + 1):
            acc = sum((h[(i, j)] * lup[(j,)] for j in range(1, n + 1)), ctx.zero)
            assert acc.is_zero_expr()
        # metricity
        assert geom.h_cov_derivative(g, cartan).is_zero_tensor()
        assert geom.v_cov_derivative(g, cartan).is_zero_tensor()
        # antisymmetries
        for kind in ConnectionKind:
            t = geom.curvature(kind, "h")
            for idx, e in t.components():
                assert (e + t[idx[:2] + (idx[3], idx[2])]).is_zero_expr()
        # coincidences
        cm = geom.cartan_tensor()[1]
        r_tor = geom.torsions()[0]
        cr = contract_product(cm, r_tor, [(3, 1)])
        assert geom.curvature(ConnectionKind.CARTAN, "h").equals(
            tensor_add(geom.curvature(ConnectionKind.CHERN, "h"), cr)
        )
        assert geom.curvature(ConnectionKind.HASHIGUCHI, "h").equals(
            tensor_add(geom.curvature(ConnectionKind.BERWALD, "h"), cr)
        )
        assert geom.curvature(ConnectionKind.HASHIGUCHI, "v").equals(
            geom.curvature(ConnectionKind.CARTAN, "v")
        )
        p_tor = geom.torsions()[1]
        for idx, e in p_tor.components():
            i, j, k = idx
            chern_p = n_mat[(i, j)].diff(Var("y", k)) - geom.cartan_coefficients()[idx]
            assert (chern_p - e).is_zero_expr()
        # numeric re-check at 8 seeded points
        num = NumericGeometry(geom.structure)
        for p in sample_points(geom.structure, 8, seed=1234):
            coords = [float(v) for v in p.x] + [float(v) for v in p.y]
            y = coords[n:]
            nm = num.object_table("N", coords)
            sp = num.object_table("Gspray", coords)
            for i in range(n):
                lhs = sum(nm[i][j] * y[j] for j in range(n))
                assert abs(lhs - 2 * sp[i]) <= tol * max(1.0, abs(2 * sp[i]))
            hm = num.object_table("h", coords)
            lu = num.object_table("lup", coords)
            cd = num.object_table("C", coords)
            for i in range(n):
                assert abs(sum(hm[i][j] * lu[j] for j in range(n))) <= tol
                for j in range(n):
                    assert abs(sum(cd[i][j][k] * y[k] for k in range(n))) <= tol
            hg = num.object_table("hcov:g:cartan", coords)
            vg = num.object_table("vcov:g:cartan", coords)
            rc = num.object_table("R:cartan", coords)
            rch = num.object_table("R:chern", coords)
            rb = num.object_table("R:berwald", coords)
            rh = num.object_table("R:hashiguchi", coords)
            sc = num.object_table("S:cartan", coords)
            sh = num.object_table("S:hashiguchi", coords)
            cmx = num.object_table("Cmixed", coords)
            rt = num.object_table("Rtorsion", coords)
            scale = 10
            for i in range(n):
                for hh in range(n):
                    for j in range(n):
                        assert abs(hg[i][hh][j]) <= tol * scale
                        assert abs(vg[i][hh][j]) <= tol * scale
                        for k in range(n):
                            crv = sum(cmx[i][hh][m] * rt[m][j][k] for m in range(n))
                            assert abs(rc[i][hh][j][k] - rch[i][hh][j][k] - crv) <= tol * scale
                            assert abs(rh[i][hh][j][k] - rb[i][hh][j][k] - crv) <= tol * scale
                            assert abs(sh[i][hh][j][k] - sc[i][hh][j][k]) <= tol
                            assert abs(rc[i][hh][j][k] + rc[i][hh][k][j]) <= tol * scale
    print(
        PASS.format(
            n=5,
            name="identity suite",
            detail=f"Euler chains, transversality, metricity, antisymmetries "
            f"and coincidences canonical + numeric on "
            f"{len(IDENTITY_STRUCTURES)} structures",
        )
    )


def test_criterion_6_oracle_agreement():
    worst = 0.0
    for name in ("worked-3d", "cuberoot-3d"):
        geom = geometry_for(name)
        reports = verify_many(
            geom, registry.verifiable_object_ids(), n_points=8, tol=1e-9, seed=42
        )
        for oid, report in reports.items():
            assert report.passed, (name, oid, report.summary())
            worst = max(worst, report.max_rel_deviation)
    print(
        PASS.format(
            n=6,
            name="oracle agreement",
            detail=f"all registered objects verified on both example "
            f"structures at 8 points (worst rel dev {worst:.2e} <= 1e-9)",
        )
    )


def _riemann_bruteforce(a_fn, n, coords):
    """Independent Christoffel/Riemann computation for a y-independent
    metric, from order-2 jets of the metric entries alone."""

    def d(e, k):
        return e.diff(k) if isinstance(e, Jet) else 0.0

    a = a_fn(Jet.variables(coords, 2))
    ainv = mat_inv(a)
    da = [[[d(e, j) for e in row] for row in a] for j in range(n)]
    gam = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for r in range(n):
                    acc = acc + ainv[i][r] * (da[j][k][r] + da[k][j][r] - da[r][j][k])
                gam[i][j][k] = acc * 0.5

    def value(e):
        return e.coeffs[0] if isinstance(e, Jet) else e

    dgam = [[[[value(d(e, k)) for e in row] for row in mat_] for mat_ in gam] for k in range(n)]
    gam = [[[value(e) for e in row] for row in mat_] for mat_ in gam]
    riem = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for h in range(n):
            for j in range(n):
                for k in range(n):
                    val = dgam[k][i][h][j] - dgam[j][i][h][k]
                    for m in range(n):
                        val += gam[m][h][j] * gam[i][m][k] - gam[m][h][k] * gam[i][m][j]
                    riem[i][h][j][k] = val
    return riem


@pytest.mark.parametrize("name,a_entries", [
    ("polar-flat-2d", lambda x: [[1.0, 0.0], [0.0, x[0] * x[0]]]),
    ("quartic-riemannian-2d", lambda x: [[1.0, 0.0], [0.0, x[0] * x[0] * x[0] * x[0]]]),
])
def test_criterion_7_riemannian_degeneration(name, a_entries):
    geom = geometry_for(name)
    assert geom.classify().riemannian
    assert geom.cartan_tensor()[0].is_zero_tensor()
    tensors = [geom.curvature(k, "h") for k in ConnectionKind]
    for other in tensors[1:]:
        assert tensors[0].equals(other)
    # compare against the brute-force Riemann tensor at sample points
    n = geom.dim
    for p in sample_points(geom.structure, 6, seed=77):
        coords = [float(v) for v in p.x]
        riem = _riemann_bruteforce(a_entries, n, coords)
        for idx, e in tensors[0].components():
            ref = riem[idx[0] - 1][idx[1] - 1][idx[2] - 1][idx[3] - 1]
            sym = e.eval_at(p)
            assert abs(sym - ref) <= 1e-9 * max(1.0, abs(ref)), idx
    if name == "polar-flat-2d":
        # polar coordinates on the flat plane: everything vanishes
        assert tensors[0].is_zero_tensor()
    else:
        # hand-derived curvature of ds^2 = dx1^2 + x1^4 dx2^2
        assert (tensors[0][(1, 2, 1, 2)] - geom.ctx.parse("2*x1^2")).is_zero_expr()
        print(
            PASS.format(
                n=7,
                name="Riemannian degeneration",
                detail="C=0, all four h-curvatures coincide and match the "
                "brute-force Riemann tensor (flat and curved surfaces)",
            )
        )


def test_criterion_8_determinism():
    argv = [
        "--dim", "3",
        "--coords", "x1,x2,x3",
        "--fibers", "y1,y2,y3",
        "--metric-function", "x3*y1^3/y2 + y3^2",
        "--constraints", "x3!=0,y2!=0",
        "--objects", "g,ginv,N,R:cartan,P:hashiguchi,classify",
        "--format", "json",
        "--check", "points=4,tol=1e-9,seed=31",
    ]
    outputs = []
    statuses = []
    for _ in range(2):
        out = io.StringIO()
        statuses.append(run(build_config(argv), out=out))
        outputs.append(out.getvalue())
    assert statuses == [0, 0]
    assert outputs[0].encode() == outputs[1].encode()
    print(
        PASS.format(
            n=8,
            name="determinism",
            detail=f"two identical runs produced byte-identical JSON "
            f"({len(outputs[0])} bytes)",
        )
    )
