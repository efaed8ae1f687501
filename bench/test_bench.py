"""Self-test of the benchmark, on the tiny structure polar-flat-2d.

    python3 -m pytest -q bench/test_bench.py

Every workload kind runs once with the tracer off and twice with it on:
all metric names of BENCHMARK.json must be present, the counts of the two
traced runs must repeat exactly, and a corrupted reference entry must make
the run report failures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from finslercalc import registry  # noqa: E402
from workloads import STRUCTURES, Reference, Workload, standard_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KINDS = sorted(standard_workloads())  # the gated ones and cli-check-3d

_ZERO = {"closure": [], "entries": {}}

# Polar coordinates on the flat plane: g = diag(1, x1^2), the only
# Christoffel symbols are gamma^1_22 = -x1 and gamma^2_12 = 1/x1, and every
# torsion and curvature vanishes.
POLAR_TABLES = {
    "g": {"closure": [("symmetric", (1, 2))], "entries": {(1, 1): "1", (2, 2): "x1^2"}},
    "ginv": {"closure": [("symmetric", (1, 2))], "entries": {(1, 1): "1", (2, 2): "1/x1^2"}},
    "gamma": {
        "closure": [("symmetric", (2, 3))],
        "entries": {(1, 2, 2): "-x1", (2, 1, 2): "1/x1"},
    },
    "C": _ZERO,
    "Rtorsion": _ZERO,
    **{f"R:{kind}": _ZERO for kind in ("cartan", "berwald", "chern", "hashiguchi")},
    **{f"P:{kind}": _ZERO for kind in ("cartan", "berwald", "chern", "hashiguchi")},
}
POLAR_FLAGS = {"classify": {"riemannian": True, "berwaldian": True}}


def tiny(kind: str, tables=POLAR_TABLES) -> Workload:
    mode = standard_workloads()[kind].mode
    oracle = tuple(registry.verifiable_object_ids()) + ("classify",) if mode == "emit" else ()
    reference = Reference(tables=tables, flags=POLAR_FLAGS, oracle_objects=oracle, oracle_points=2)
    return Workload(kind, STRUCTURES["polar-flat-2d"], mode, reference)


def names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("kind", KINDS)
def test_end_to_end_metrics_present(kind):
    result = run.run(tiny(kind), seed=3, seconds=0.0, trace=False, spec=SPEC)
    assert set(result["metrics"]) == names("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


REPEATED_COUNTS = [
    "poly.gcd.monomial.calls", "poly.gcd.heuristic.calls", "poly.gcd.prs.calls",
    "tensor.generator.calls", "tensor.recheck.calls", "oracle.f2.calls",
]


@pytest.mark.parametrize("kind", KINDS)
def test_traced_counts_repeat(kind):
    first, second = (
        run.run(tiny(kind), seed=3, seconds=0.0, trace=True, spec=SPEC) for _ in range(2)
    )
    assert set(first["metrics"]) == names("per_layer")
    assert first["correct"] and second["correct"]
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = first["metrics"]
    assert m["tensor.generator.calls"]["value"] > 0
    mode = tiny(kind).mode
    if mode == "emit":  # no timed oracle work, and eval_at only counts inside it
        assert m["oracle.f2.calls"]["value"] == 0 and m["oracle.eval_at.self_s"]["value"] == 0
    else:
        assert m["oracle.f2.calls"]["value"] > 0 and m["oracle.point_s"]["value"] > 0
        assert m["cli.verify.calls"]["value"] == (25 if mode == "cli" else 0)


@pytest.mark.parametrize("kind", KINDS)
def test_corrupted_reference_fails(kind):
    tables = dict(POLAR_TABLES)
    tables["g"] = {"closure": [("symmetric", (1, 2))], "entries": {(1, 1): "1", (2, 2): "x1^3"}}
    result = run.run(tiny(kind, tables), seed=3, seconds=0.0, trace=False, spec=SPEC)
    assert not result["correct"]
    assert result["failed"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", KINDS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
