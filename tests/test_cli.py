import io
import json
import os
import subprocess
import sys
import time

import pytest

from finslercalc import DOWN, Classification, FinslerStructure, Tensor, build, oracle, registry
from finslercalc.geometry import GeometryError
from finslercalc.cli import MAX_CHECK_POINTS, CheckParams, build_config, emit, main, run
from finslercalc.oracle import SingularMetricAt, sample_points, verify_many
from finslercalc.expr import draw_points

from conftest import STRUCTURE_NAMES, geometry_for

WORKED = [
    "--dim", "3",
    "--coords", "x1,x2,x3",
    "--fibers", "y1,y2,y3",
    "--metric-function", "x3*y1^3/y2 + y3^2",
    "--constraints", "x3!=0,y2!=0",
]


# g = diag(1, 1e-14): far from singular, but with a pivot below 1e-12
NEAR_SINGULAR = [
    "--dim", "2",
    "--coords", "x1,x2",
    "--fibers", "y1,y2",
    "--metric-function", "y1^2 + y2^2/100000000000000",
]


def run_cli(argv):
    out = io.StringIO()
    config = build_config(argv)
    status = run(config, out=out)
    return status, out.getvalue()


class TestRuns:
    def test_metric_table(self):
        status, out = run_cli(WORKED + ["--objects", "g"])
        assert status == 0
        assert "g_{x1 x1} = 3*x3*y1/y2" in out
        assert out.count("=") == 4  # four orbit representatives

    def test_no_nonvanishing_components(self):
        status, out = run_cli(WORKED + ["--objects", "S:cartan"])
        assert status == 0
        assert "no nonvanishing components" in out

    def test_berwald_4d_with_check(self):
        status, out = run_cli(
            [
                "--dim", "4",
                "--coords", "x1,x2,x3,x4",
                "--fibers", "y1,y2,y3,y4",
                "--given-f", "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))",
                "--constraints", "x1!=0,y4!=0",
                "--objects", "P:cartan",
                "--check", "points=4,tol=1e-9,seed=1",
            ]
        )
        assert status == 0
        assert "no nonvanishing components" in out
        assert "check P:cartan: pass" in out

    def test_classify_document(self):
        status, out = run_cli(WORKED + ["--objects", "classify"])
        assert status == 0
        assert "riemannian = false" in out
        assert "berwaldian = false" in out

    def test_multiple_objects_in_order(self):
        status, out = run_cli(WORKED + ["--objects", "g,Gspray"])
        assert status == 0
        assert out.index("# g") < out.index("# Gspray")

    def test_p_cartan_table(self):
        status, out = run_cli(WORKED + ["--objects", "P:cartan"])
        assert status == 0
        assert "P^{x3}_{x1 x1 x1} = -3/(4*y2)" in out

    def test_classify_check_reports_flags(self):
        status, out = run_cli(WORKED + ["--objects", "classify", "--check", "points=2"])
        assert status == 0
        line = out.splitlines()[-1]
        assert line == "check classify: pass over 2 points (not riemannian, not berwaldian, seed 0)"

    def test_full_table(self):
        _, reduced = run_cli(WORKED + ["--objects", "g"])
        _, full = run_cli(WORKED + ["--objects", "g", "--full-table"])
        assert full.count("=") == reduced.count("=") + 1

    def test_small_coefficients_not_flagged(self):
        # rational components are nonzero by their canonical form, however
        # small their values on the sampling box
        status, out = run_cli([
            "--dim", "2", "--coords", "x1,x2", "--fibers", "y1,y2",
            "--metric-function", "y1^2 + y2^2 + x1*y1^3/(10000000000*y2)",
            "--constraints", "y2!=0",
            "--objects", "C,Gspray",
        ])
        assert status == 0
        assert "C_{x1 x1 x1} = 3*x1/(20000000000*y2)" in out
        assert "(numerically zero)" not in out

    def test_radical_without_drawable_point(self):
        # zero tests on radical components cannot draw a point; the table
        # is still printed and, without --check, the run succeeds
        with pytest.warns(UserWarning, match="retry cap exhausted"):
            status, out = run_cli([
                "--dim", "2", "--coords", "x1,x2", "--fibers", "y1,y2",
                "--given-f", "(y1^4+y2^4)^(1/4)",
                "--constraints", "x1>3",
                "--objects", "g",
            ])
        assert status == 0
        assert out.count("g_{") == 3
        assert "(numerically zero)" not in out


class TestFormats:
    def test_json_schema(self):
        status, out = run_cli(WORKED + ["--objects", "g", "--format", "json"])
        assert status == 0
        doc = json.loads(out)
        assert doc["name"] == "g"
        assert doc["signature"] == ["down", "down"]
        assert doc["dim"] == 3
        assert doc["coords"] == ["x1", "x2", "x3"]
        assert doc["symmetry_reduced"] is True
        entries = {tuple(c["index"]): c["expr"] for c in doc["components"]}
        assert entries[("x1", "x1")] == "3*x3*y1/y2"

    def test_json_zero_tensor(self):
        status, out = run_cli(WORKED + ["--objects", "S:cartan", "--format", "json"])
        assert status == 0
        assert '"components": []' in out
        doc = assert_json_layout(out.removesuffix("\n"))
        assert doc["components"] == []

    def test_latex(self):
        status, out = run_cli(WORKED + ["--objects", "Cmixed", "--format", "latex"])
        assert status == 0
        assert r"C^{x1}_{x1 x1} = -\frac{1}{y1}" in out


def assert_json_layout(doc: str) -> dict:
    """The document is laid out exactly as ``json.dumps(indent=2)`` lays
    out what it parses to; that parse is returned."""
    parsed = json.loads(doc)
    assert doc == json.dumps(parsed, indent=2)
    return parsed


class TestJsonWriter:
    """``emit`` writes its JSON documents itself, in the layout of
    ``json.dumps(doc, indent=2)``."""

    @pytest.mark.parametrize("full_table", [False, True])
    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_every_document_has_the_json_dumps_layout(self, name, full_table):
        geom = geometry_for(name)
        for object_id in registry.base_object_ids() + ["hcov:Cmixed:cartan"]:
            obj = registry.resolve(geom, object_id)
            assert_json_layout(emit(obj, "json", geom.structure, object_id, full_table=full_table))

    def test_classification(self):
        geom = geometry_for("berwald-4d")
        doc = emit(registry.resolve(geom, "classify"), "json", geom.structure, "classify")
        assert assert_json_layout(doc) == {
            "name": "classify", "riemannian": False, "berwaldian": True,
        }

    def test_numerically_zero_entry(self):
        structure = FinslerStructure(2, ["x1", "x2"], ["y1", "y2"], "y1^2 + y2^2")
        ctx = structure.ctx
        e = ctx.parse("((y1^4+y2^4)^(1/4))^2 - sqrt(y1^4+y2^4)")
        tensor = Tensor("T", ctx, 2, (DOWN,), {(1,): e, (2,): ctx.zero})
        with pytest.warns(UserWarning, match="numerically zero"):
            doc = emit(tensor, "json", structure, "T")
        (entry,) = assert_json_layout(doc)["components"]
        assert entry["index"] == ["x1"] and entry["numerically_zero"] is True


class TestValidation:
    def test_unknown_object(self, capsys):
        status, _ = run_cli(WORKED + ["--objects", "bogus"])
        assert status == 1
        assert "unknown object" in capsys.readouterr().err

    def test_both_f_and_f2_rejected(self, capsys):
        status, _ = run_cli(
            WORKED + ["--given-f", "sqrt(y1^2)", "--objects", "g"]
        )
        assert status == 1

    def test_degenerate_metric(self, capsys):
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "x1*y1^2",
                "--objects", "g",
            ]
        )
        assert status == 1
        assert "det" in capsys.readouterr().err

    def test_parse_error(self, capsys):
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "y1^2 +",
                "--objects", "g",
            ]
        )
        assert status == 1

    @pytest.mark.parametrize("f2", ["y1^2+y2^(1/0)", "y1^2+y2^2+0^(-1/2)"])
    def test_division_by_zero_is_exit_1(self, f2, capsys):
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", f2,
                "--objects", "g",
            ]
        )
        assert status == 1
        assert capsys.readouterr().err == "error: division by zero at position 11\n"

    def test_oversized_power_is_exit_1(self, capsys):
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "(x1+x2+y1+y2)^100",
                "--objects", "g",
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: power ^100 would expand to about 176851 terms")

    def test_oversized_product_is_exit_1(self, capsys):
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "(x1+x2+y1+y2)^20*(x1+2*x2+y1+y2)^20",
                "--objects", "g",
            ]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: product would expand to about 135751 terms (limit 2000)")

    def test_nested_power_past_degree_limit_is_exit_1(self, capsys):
        t0 = time.perf_counter()
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "((x1^1000)^1000)^1000*y1^2",
                "--objects", "g",
            ]
        )
        assert time.perf_counter() - t0 < 1.0
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: power ^1000 would reach degree 1000000 in one symbol (limit 32767)"
        )

    def test_sum_past_degree_limit_is_exit_1(self, capsys):
        # the parser bounds powers and products; the polynomial layer
        # refuses the common denominator of this sum, of degree 33000
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "y1^2 + 1/(x1^1000)^20 + 1/(x1^1000+1)^13",
                "--objects", "g",
            ]
        )
        assert status == 1
        assert capsys.readouterr().err.startswith("error: exponent beyond the limit 32767")

    def test_high_degree_denominator_ends_cleanly(self, capsys):
        # the common denominator factors (x1^1000+1)^13, whose squarefree
        # decomposition takes a gcd of degree 12000 in x1
        status, _ = run_cli(
            [
                "--dim", "2",
                "--coords", "x1,x2",
                "--fibers", "y1,y2",
                "--metric-function", "y1^2 + y2^2 + y1^2/(x1^1000+1)^13 + y2^2/(x1+2)",
                "--objects", "g",
            ]
        )
        err = capsys.readouterr().err
        assert status == 0 or (status == 1 and err.startswith("error: "))

    BAD_CHECKS = {
        "points=0": "points must be at least 1, got 0",
        "points=101": "points must be at most 100, got 101",
        "points=1000000": "points must be at most 100, got 1000000",
        "tol=nan": "tol must be finite and positive, got nan",
        "tol=inf": "tol must be finite and positive, got inf",
        "tol=0": "tol must be finite and positive, got 0.0",
        "box=nan:1": "box bounds must be finite, got (nan, 1.0)",
        "box=1:inf": "box bounds must be finite, got (1.0, inf)",
        "box=1:2:3": "box must be lo:hi, got '1:2:3'",
        "box=1": "box must be lo:hi, got '1'",
        "box=a:2": "box must be lo:hi, got 'a:2'",
        "points=abc": "points must be an integer, got 'abc'",
        "seed=abc": "seed must be an integer, got 'abc'",
        "tol=x": "tol must be a number, got 'x'",
    }

    @pytest.mark.parametrize("check", BAD_CHECKS)
    def test_bad_check_value_is_exit_1_before_any_document(self, check, capsys):
        assert main(WORKED + ["--objects", "g", "--check", check]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --check {self.BAD_CHECKS[check]}\n"

    def test_bad_seed_variable_is_exit_1(self, monkeypatch, capsys):
        monkeypatch.setenv("FINSLER_SEED", "abc")
        assert main(WORKED + ["--objects", "g", "--check", "points=2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: FINSLER_SEED must be an integer, got 'abc'\n"

    BAD_FLAGS = {
        ("--dim", "abc"): "argument --dim: invalid int value: 'abc'",
        ("--format", "pdf"): "argument --format: invalid choice: 'pdf'",
        ("--bogus", "1"): "unrecognized arguments: --bogus 1",
        ("--full-table=maybe",): "argument --full-table: invalid boolean value: 'maybe'",
        ("--objects",): "argument --objects: expected one argument",
    }

    @pytest.mark.parametrize("flag", BAD_FLAGS)
    def test_bad_flag_is_exit_1_with_one_error_line(self, flag, capsys):
        assert main(WORKED + ["--objects", "g"] + list(flag)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {self.BAD_FLAGS[flag]}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("key, value", [("dim", "abc"), ("format", "pdf"),
                                            ("full-table", "maybe")])
    def test_bad_config_value_reads_as_the_flag(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["--config", str(cfg)]) == 1
        from_file = capsys.readouterr()
        assert main([f"--{key}={value}"]) == 1
        assert capsys.readouterr() == from_file
        assert from_file.out == "" and from_file.err.startswith(f"error: argument --{key}: ")

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: finslercalc")

    @pytest.mark.parametrize("op", [">=", "<="])
    def test_inclusive_relation_is_refused(self, op, capsys):
        argv = WORKED[:-2] + ["--constraints", f"x3{op}0", "--objects", "g"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: constraint 'x3{op}0' uses {op}; the accepted relations are !=, > and <\n"
        )

    def test_points_at_the_cap_are_accepted(self):
        argv = WORKED + ["--objects", "g", "--check", f"points={MAX_CHECK_POINTS}"]
        assert build_config(argv).check.points == MAX_CHECK_POINTS

    @pytest.mark.parametrize("objects", ["g", "classify"])
    def test_sample_point_outside_the_domain_is_exit_1(self, objects, capsys):
        # the radicand x2*y1^4 + y2^4 is negative on much of the box
        argv = [
            "--dim", "2",
            "--coords", "x1,x2",
            "--fibers", "y1,y2",
            "--metric-function", "y1^2 + y2^2 + sqrt(x2*y1^4 + y2^4)",
            "--objects", objects,
            "--check", "box=-2:-1,points=8",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"# {objects}\n")
        # the message names, by its record repr, the first point drawn
        # where the radicand is negative
        draws = draw_points(2, (), 0, (-2.0, -1.0))
        first = next(p for p in draws if p.x[1] * p.y[0] ** 4 + p.y[1] ** 4 < 0)
        assert repr(first).startswith("NumericPoint(x=(-")
        assert captured.err == (
            f"error: F is not defined at the sample point {first!r}: "
            "negative radicand under an even root\n"
        )

    def test_near_singular_metric_checks(self):
        # g = diag(1, 1e-14) is exactly invertible: each pivot of the
        # oracle's inverse is compared with its column, not with 1e-12
        status, out = run_cli(NEAR_SINGULAR + ["--objects", "ginv,Gamma", "--check", "points=2"])
        assert status == 0
        assert "check ginv: pass" in out
        assert "check Gamma: pass" in out

    @pytest.mark.parametrize("objects", ["ginv", "classify"])
    def test_singular_metric_at_a_sample_point_is_exit_1(self, objects, monkeypatch, capsys):
        def singular(m):
            raise ZeroDivisionError("singular matrix")

        monkeypatch.setattr(oracle, "mat_inv", singular)
        geom = build(FinslerStructure(2, ["x1", "x2"], ["y1", "y2"], NEAR_SINGULAR[-1]))
        first = sample_points(geom.structure, 2, seed=0)[0]
        with pytest.raises(SingularMetricAt) as info:
            verify_many(geom, [objects], n_points=2)
        assert info.value.point == first
        assert main(NEAR_SINGULAR + ["--objects", objects, "--check", "points=2"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"# {objects}\n")
        assert captured.err == f"error: metric is numerically singular at {first}\n"

    def test_verification_failure_is_exit_2(self):
        status, out = run_cli(
            WORKED + ["--objects", "g", "--check", "points=2,tol=1e-30,seed=1"]
        )
        assert status == 2
        assert "FAIL" in out


class TestRecords:
    def test_classification_keywords(self):
        structure = FinslerStructure(2, ["x1", "x2"], ["y1", "y2"], "y1^2 + y2^2")
        cls = Classification(riemannian=True, berwaldian=False)
        assert (cls.riemannian, cls.berwaldian) == (True, False)
        doc = json.loads(emit(cls, "json", structure, "classify"))
        assert doc == {"name": "classify", "riemannian": True, "berwaldian": False}

    def test_run_configs_share_no_list(self):
        for argv in ([], WORKED + ["--objects", "g"]):
            a, b = build_config(argv), build_config(argv)
            for name in ("coords", "fibers", "constraints", "objects"):
                before = list(getattr(b, name))
                getattr(a, name).append("x1")
                assert getattr(b, name) == before

    def test_check_params_hold_no_list(self):
        params = CheckParams()
        for name in ("points", "tol", "seed", "box"):
            assert not isinstance(getattr(params, name), list)
        assert params == CheckParams(8, 1e-9, 0, (1.0, 2.0))

    def test_check_params_parse(self):
        parsed = CheckParams.parse("points=3, box=1:3")
        assert parsed == CheckParams(points=3, box=(1.0, 3.0))
        assert repr(parsed) == "CheckParams(points=3, tol=1e-09, seed=0, box=(1.0, 3.0))"


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# worked example\n"
            "dim = 3\n"
            "coords = x1,x2,x3\n"
            "fibers = y1,y2,y3\n"
            "metric-function = x3*y1^3/y2 + y3^2\n"
            "objects = g\n"
            "format = json\n"
        )
        status, out = run_cli(["--config", str(cfg)])
        assert status == 0
        assert json.loads(out)["name"] == "g"

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dim = 3\ncoords = x1,x2,x3\nfibers = y1,y2,y3\n"
            "metric-function = x3*y1^3/y2 + y3^2\nobjects = g\n"
        )
        status, out = run_cli(["--config", str(cfg), "--objects", "Gspray"])
        assert status == 0
        assert "# Gspray" in out

    def test_full_table_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        base = ("dim = 3\ncoords = x1,x2,x3\nfibers = y1,y2,y3\n"
                "metric-function = x3*y1^3/y2 + y3^2\nobjects = g\n")
        _, full = run_cli(WORKED + ["--objects", "g", "--full-table"])
        _, reduced = run_cli(WORKED + ["--objects", "g"])
        for value, expected in (("yes", full), ("1", full), ("false", reduced)):
            cfg.write_text(base + f"full-table = {value}\n")
            assert run_cli(["--config", str(cfg)]) == (0, expected)
        cfg.write_text(base + "full-table = false\n")
        assert run_cli(["--config", str(cfg), "--full-table"]) == (0, full)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dim = 3\ncoords = x1,x2,x3\nfibers = y1,y2,y3\n"
            "metric-function = x3*y1^3/y2 + y3^2\nobjectz = R:cartan\n"
        )
        assert main(["--config", str(cfg), "--objects", "g"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:5: unknown key 'objectz'\n"


class TestDeterminism:
    def test_byte_identical_json(self):
        argv = WORKED + ["--objects", "g,ginv,R:cartan", "--format", "json",
                         "--check", "points=3,tol=1e-9,seed=11"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second

    def test_hash_seed_independent(self):
        """The denominator factor base of a Context is ordered by arrival;
        the documents must not depend on the hash seed."""
        argv = [
            "--dim", "2",
            "--coords", "x1,x2",
            "--fibers", "y1,y2",
            "--metric-function", "y1^2 + y2^2 + x1*y1^3/y2",
            "--constraints", "y2!=0",
            "--objects", "R:berwald,P:cartan",
            "--format", "json",
        ]
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "finslercalc.cli"] + argv,
                capture_output=True,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert b'"name": "R:berwald"' in outs[0]

    def test_seed_env_override(self, monkeypatch):
        argv = WORKED + ["--objects", "g", "--check", "points=2,tol=1e-9,seed=1"]
        monkeypatch.setenv("FINSLER_SEED", "99")
        _, out = run_cli(argv)
        assert "seed 99" in out


class TestStreaming:
    """Each document is written as soon as it is built."""

    IDS = ["g", "N", "classify"]

    def test_stdout_is_the_joined_documents(self):
        status, out = run_cli(WORKED + ["--objects", ",".join(self.IDS), "--format", "latex"])
        structure = FinslerStructure(3, ["x1", "x2", "x3"], ["y1", "y2", "y3"],
                                     "x3*y1^3/y2 + y3^2", ["x3!=0", "y2!=0"])
        geom = build(structure)
        docs = [emit(registry.resolve(geom, i), "latex", structure, i) for i in self.IDS]
        assert status == 0
        assert out == "\n\n".join(docs) + "\n"

    def test_each_document_is_flushed_before_the_next_is_built(self, monkeypatch):
        seen = []
        resolve = registry.resolve

        def watched(geom, object_id):
            seen.append(out.getvalue())
            return resolve(geom, object_id)

        monkeypatch.setattr(registry, "resolve", watched)
        out = io.StringIO()
        assert run(build_config(WORKED + ["--objects", ",".join(self.IDS)]), out=out) == 0
        assert seen[0] == ""
        assert seen[1].startswith("# g\n") and seen[1].endswith("\n")
        assert seen[2].endswith("\n") and "# N\n" in seen[2]

    def test_failure_in_the_middle_keeps_the_documents_before_it(self, monkeypatch, capsys):
        resolve = registry.resolve

        def failing(geom, object_id):
            if object_id == "N":
                raise GeometryError("N could not be built")
            return resolve(geom, object_id)

        _, first_alone = run_cli(WORKED + ["--objects", "g"])
        monkeypatch.setattr(registry, "resolve", failing)
        status, out = run_cli(WORKED + ["--objects", ",".join(self.IDS)])
        assert status == 1
        assert out == first_alone  # the documents before the failing id, as a run of them prints
        assert capsys.readouterr().err == "error: N could not be built\n"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_closed_stdout_ends_quietly(seed):
    # the reader stops early, as `| head -c 300` does; the 25 documents
    # outgrow the pipe, so a write fails once the read end is closed
    argv = [
        "--dim", "2",
        "--coords", "x1,x2",
        "--fibers", "y1,y2",
        "--metric-function", "y1^2 + y2^2 + x1*y1^3/y2",
        "--constraints", "y2!=0",
        "--objects", ",".join(registry.base_object_ids()),
        "--format", "json",
    ]
    proc = subprocess.Popen(
        [sys.executable, "-m", "finslercalc.cli"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED=seed),
    )
    head = proc.stdout.read(300)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert head.startswith(b"{")
    assert stderr == ""  # no Traceback, no "Exception ignored" at exit


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finslercalc.cli"] + WORKED + ["--objects", "Gspray"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "G^{x1} = y1*y3/(2*x3)" in proc.stdout
