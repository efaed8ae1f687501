"""finslercalc benchmark: one closed-loop client, sequential cold passes.

    python3 bench/run.py --workload rational-2d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the worked-example tables from ``tests/``.  One process and one
thread run passes back to back until the next pass would end more than
half a pass after ``--seconds`` (at least one pass).  Every pass builds a fresh
``FinslerStructure``, so no ``Context`` or ``Geometry`` cache carries over,
just as a CLI user pays the cold start on every run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
times in reference seconds: scaled by the speed of the (pinned) CPU around
each step, as measured by a fixed calibration kernel (see ``Clock``).
``--trace 1`` runs one untraced pass, then passes with every layer traced
from outside the package (see ``tracing.py``), reports the per-layer
metrics and the tracing overhead, and writes the spans to ``.bench_out/``.

The outputs of every pass are checked against an independent reference
after the timed region (see ``workloads.py``).  Environment facts go to one
``env`` line; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 12  # before the passes and again after them
CAL_REF_S = 0.06  # calibration kernel time that a reference second stands for

# Child process for one set-up measurement: package import, parsing F and
# build() (homogeneity check, g, det g), timed from inside the child so that
# interpreter start-up is left out.  It makes the structure itself instead of
# importing workloads.py, so that only package code is timed.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import finslercalc.cli
from finslercalc import FinslerStructure, build
spec = json.loads(sys.argv[2])
coords = [f"x{i}" for i in range(1, spec["dim"] + 1)]
fibers = [f"y{i}" for i in range(1, spec["dim"] + 1)]
if spec["f"] is not None:
    structure = FinslerStructure.from_f(spec["dim"], coords, fibers, spec["f"], spec["constraints"])
else:
    structure = FinslerStructure(spec["dim"], coords, fibers, spec["f_squared"], spec["constraints"])
build(structure)
print(repr(time.perf_counter() - t0))
"""


class _Pair:
    """A value and its derivative, as in the oracle's jets: small objects
    made and dropped by the thousand."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v, self.d = v, d

    def __add__(self, other):
        return _Pair(self.v + other.v, self.d + other.d)

    def __mul__(self, other):
        return _Pair(self.v * other.v, self.v * other.d + self.d * other.v)


def calibration_s() -> float:
    """Time of a fixed pure-Python kernel that does the kinds of work the
    package does: integer arithmetic, small-object churn, and products of
    dict-of-tuple polynomials with big-integer coefficients.  It is the
    benchmark's own code, so no change to the package can move it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    a, b, x = _Pair(1.0001, 1.0), _Pair(0.9999, 0.5), _Pair(0.5, 0.1)
    for i in range(20_000):
        x = x * a + b if i % 64 else _Pair(0.5, 0.1)
    p = {(i, j): 3 ** (i + 2 * j) * 7919 + i - j for i in range(6) for j in range(6)}
    q = {(i, j): 5 ** (i + j) * 104729 - 3 * i for i in range(5) for j in range(5)}
    for _ in range(50):
        r = {}
        for (i, j), c in p.items():
            for (k, m), e in q.items():
                r[i + k, j + m] = r.get((i + k, j + m), 0) + c * e
    return time.perf_counter() - t0


class Clock:
    """Times in reference seconds.

    The host's speed swings by a fifth or more over tens of seconds as other
    tenants load it.  The calibration kernel slows with it, so each time is
    scaled by ``CAL_REF_S`` over the mean of the kernel's times just before
    and just after it: a reference second is the time the machine needs for
    ``CAL_REF_S`` seconds' worth of the kernel.  Raw times are kept too.

    A pass is timed in laps: ``lap()`` between its steps runs the kernel, so
    that each step of a long pass is scaled by the machine's speed around
    that step rather than at the two ends of the pass.  The kernel's own time
    is left out of the pass."""

    def __init__(self):
        self.cal = [calibration_s()]
        self.raw: list[float] = []
        self.ref: list[float] = []
        self._raw = self._ref = 0.0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        self._add(time.perf_counter() - self._t0)
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """End the pass: time its last lap and record its totals."""
        self.lap()
        self._close()

    def record(self, seconds: float) -> None:
        """A time measured elsewhere, as one lap of its own."""
        self._add(seconds)
        self._close()

    def _add(self, seconds: float) -> None:
        self.cal.append(calibration_s())
        self._raw += seconds
        self._ref += seconds * 2 * CAL_REF_S / (self.cal[-2] + self.cal[-1])

    def _close(self) -> None:
        self.raw.append(self._raw)
        self.ref.append(self._ref)
        self._raw = self._ref = 0.0


def pin_to_one_cpu() -> dict:
    """Pin this process, and so the set-up children, to one CPU.

    The host's CPUs are loaded unevenly by other tenants and at any moment
    one may run a fifth slower than another.  The calibration kernel only
    tells the speed of the CPU it ran on, so it must share that CPU with the
    work it scales; the load is one thread, so one CPU is all it uses."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return {"nproc": len(cpus), "pinned_cpu": cpus[0]}


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def setup_seconds(structure, warm_up: bool = True) -> Clock:
    """Set-up times of ``SETUP_REPEATS`` fresh processes, after one warm-up
    that may compile bytecode."""
    spec = json.dumps({
        "dim": structure.dim, "f": structure.f, "f_squared": structure.f_squared,
        "constraints": list(structure.constraints),
    })
    env = {k: v for k, v in os.environ.items() if k != "FINSLER_SEED"}

    def child() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), spec],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.strip())

    if warm_up:
        child()
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        clock.record(child())
    return clock


def run_passes(workload, seed: int, budget: float):
    """Back-to-back passes until the next one would end more than half a
    pass after ``budget``, so that a run overruns and underruns its budget
    alike.

    Also returns the peak resident set after the first pass: what one CLI
    run costs, before allocator reuse across passes blurs it."""
    outputs = []
    start = time.perf_counter()
    clock = Clock()
    while True:
        if outputs:  # only the last pass is checked; free the older geometry
            outputs[-1].geometry = None
        gc.collect()
        clock.start()
        outputs.append(workload.run_pass(seed, clock.lap))
        clock.stop()
        if len(outputs) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start + statistics.median(clock.raw) / 2 > budget:
            return clock, outputs, peak_rss_mb


def count_failures(workload, outputs, seed: int):
    """Objects attempted and failed over all passes.  An object fails in a
    pass if the pass reports it failed, if its document differs from the
    checked pass, or if the checked pass disagrees with the reference."""
    from workloads import OBJECT_IDS

    checked = outputs[-1]
    t0 = time.perf_counter()
    bad = workload.check(checked, seed)
    print(f"check: {time.perf_counter() - t0:.3f}s, {len(bad)} objects disagree with the reference")
    attempted = failed = 0
    for out in outputs:
        own = workload.pass_failures(out)
        for object_id in OBJECT_IDS:
            attempted += 1
            if (object_id in bad or object_id in own
                    or out.docs.get(object_id) != checked.docs.get(object_id)):
                failed += 1
    return attempted, failed, bad


def end_to_end(workload, seed: int, seconds: float):
    # set-up is sampled on both sides of the passes, so that its median
    # spans the run rather than one moment of the machine's load; both
    # sides come out of the run's budget
    start = time.perf_counter()
    before = setup_seconds(workload.structure)
    budget = seconds - 2 * (time.perf_counter() - start)
    passes, outputs, peak_rss_mb = run_passes(workload, seed, budget)
    after = setup_seconds(workload.structure, warm_up=False)
    attempted, failed, bad = count_failures(workload, outputs, seed)
    setup_ref = before.ref + after.ref
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "pass_ref_s": statistics.median(passes.ref),
        "peak_rss_mb": peak_rss_mb,
        "doc_kb": outputs[-1].doc_bytes() / 1024,
    }
    times = passes.ref
    # the highest percentile with at least ten passes beyond it
    tail = int(100 * (1 - 10 / len(times))) if len(times) >= 20 else None
    tail_text = (f"p{tail}={statistics.quantiles(times, n=100)[tail - 1]:.4f}s" if tail
                 else "too few passes for a tail percentile with ten samples beyond it")
    print(f"passes (reference s): n={len(times)} median={metrics['pass_ref_s']:.4f}s "
          f"max={max(times):.4f}s {tail_text} all={[round(t, 4) for t in times]}")
    print(f"passes (wall s): median={statistics.median(passes.raw):.4f}s "
          f"all={[round(t, 4) for t in passes.raw]}")
    print(f"setup (reference s): n={len(setup_ref)} all={[round(t, 4) for t in setup_ref]}")
    print(f"setup (wall s): median={statistics.median(before.raw + after.raw):.4f}s")
    print(f"calibration: median={statistics.median(passes.cal):.4f}s "
          f"min={min(passes.cal):.4f}s max={max(passes.cal):.4f}s over {len(passes.cal)} runs")
    return metrics, attempted, failed, bad


def per_layer(workload, seed: int, seconds: float, spans_path: Path):
    from tracing import Tracer

    start = time.perf_counter()
    untraced, outputs, _ = run_passes(workload, seed, 0.0)
    untraced = untraced.raw
    outputs[-1].geometry = None
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_outputs, _ = run_passes(
            workload, seed, seconds - (time.perf_counter() - start))
        traced = traced.raw
    finally:
        tracer.uninstall()
    attempted, failed, bad = count_failures(workload, outputs + traced_outputs, seed)

    n = len(traced)
    st, calls, counts = tracer.self_time, tracer.calls, tracer.counts

    def per_pass(total):
        return total / n

    def frac(part, whole):
        return part / whole if whole else 0.0

    exprs = [e for t in workload.tensors(traced_outputs[-1]) for _, e in t.components()]
    nonmono = counts["poly.gcd.heuristic.calls"] + counts["poly.gcd.prs.calls"]
    metrics = {
        "poly.gcd.calls": per_pass(calls["poly.gcd"]),
        "poly.gcd.self_s": per_pass(st["poly.gcd"]),
        "poly.gcd.total_s": per_pass(tracer.gcd_total),
        "poly.gcd.monomial.calls": per_pass(counts["poly.gcd.monomial.calls"]),
        "poly.gcd.heuristic.calls": per_pass(counts["poly.gcd.heuristic.calls"]),
        "poly.gcd.prs.calls": per_pass(counts["poly.gcd.prs.calls"]),
        "poly.gcd.heuristic_hit_frac": frac(counts["poly.gcd.heuristic.calls"], nonmono),
        "poly.div_exact.calls": per_pass(calls["poly.div_exact"]),
        "poly.div_exact.self_s": per_pass(st["poly.div_exact"]),
        "poly.mul.calls": per_pass(calls["poly.mul"]),
        "poly.mul.self_s": per_pass(st["poly.mul"]),
        "expr.diff.cache_hit_frac": frac(counts["expr.diff.cache_hits"], calls["expr.diff"]),
        "expr.result.num_terms_max": max((len(e.num.terms) for e in exprs), default=0),
        "expr.result.den_terms_max": max((len(e.den.terms) for e in exprs), default=0),
        "expr.result.degree_max": max(
            (max(e.num.total_degree(), e.den.total_degree()) for e in exprs if not e.is_zero_expr()),
            default=0,
        ),
        "tensor.define.calls": per_pass(calls["tensor.define"]),
        "tensor.define.self_s": per_pass(st["tensor.define"]),
        "tensor.generator.calls": per_pass(counts["tensor.generator.calls"]),
        "tensor.recheck.calls": per_pass(counts["tensor.recheck.calls"]),
        "tensor.recheck_frac": frac(counts["tensor.recheck.calls"], counts["tensor.generator.calls"]),
        "tensor.contract.self_s": per_pass(st["tensor.contract"]),
        "tensor.nonzero.self_s": per_pass(st["tensor.nonzero"]),
        "geometry.cache_hit_frac": frac(
            counts["geometry.cache_hits"],
            counts["geometry.cache_hits"] + counts["geometry.cache_misses"],
        ),
        "geometry.components": len(exprs),
        "geometry.nonzero_components": sum(1 for e in exprs if not e.is_zero_expr()),
        "oracle.self_s": per_pass(sum(v for k, v in st.items() if k.startswith("oracle."))),
        "oracle.point_s": frac(tracer.verify_time, counts["oracle.object_points"]),
        "oracle.f2.calls": per_pass(counts["oracle.f2.calls"]),
        "oracle.table.self_s": per_pass(st["oracle.table"]),
        "oracle.eval_at.self_s": per_pass(st["oracle.eval_at"]),
        "oracle.numeric_geometry.builds": per_pass(counts["oracle.numeric_geometry.builds"]),
        "parsing.parse.self_s": per_pass(st["parsing.parse"]),
        "parsing.print.calls": per_pass(calls["parsing.print"]),
        "parsing.print.self_s": per_pass(st["parsing.print"]),
        "cli.emit.self_s": per_pass(st["cli.emit"]),
        "cli.verify.calls": per_pass(counts["cli.verify.calls"]),
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    for op in ("add", "mul", "diff", "root"):
        metrics[f"expr.{op}.calls"] = per_pass(calls[f"expr.{op}"])
        metrics[f"expr.{op}.self_s"] = per_pass(st[f"expr.{op}"])
    for obj, total in tracer.geometry_build.items():
        metrics[f"geometry.{obj}.build_s"] = per_pass(total)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path, {"workload": workload.name, "seed": seed,
                                    "untraced_s": untraced, "traced_s": traced})
    print(f"passes: untraced={[round(t, 4) for t in untraced]} traced={[round(t, 4) for t in traced]}")
    print(f"spans: {len(tracer.span_name)} written to {spans_path.relative_to(ROOT)}")
    return metrics, attempted, failed, bad


def run(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload and return the result object."""
    os.environ.pop("FINSLER_SEED", None)  # the CLI would let it override --check seed
    if trace:
        spans = (ROOT / ".bench_out"
                 / f"{workload.name}-{workload.structure.name}-seed{seed}.spans.jsonl.gz")
        values, attempted, failed, bad = per_layer(workload, seed, seconds, spans)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, bad = end_to_end(workload, seed, seconds)
        wanted = spec["end_to_end"]
    for object_id, reason in sorted(bad.items()):
        print(f"FAILED {object_id}: {reason}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", SRC / "finslercalc" / "__init__.py",
              ROOT / "tests" / "golden_worked_example.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: run from a finslercalc source checkout; missing {absent}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import standard_workloads

    workloads = standard_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    print("env: " + json.dumps({**environment(), **pin_to_one_cpu()}))
    result = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
