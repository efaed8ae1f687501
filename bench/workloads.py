"""Workloads of the finslercalc benchmark and their correctness checks.

A workload is one standard Finsler structure, one way of driving the
package (``mode``: the library build-and-emit path, the library's jet
oracle over every object, or ``finslercalc.cli.main`` with ``--check``),
and an independent reference to check the outputs against.  The workload seed draws the oracle's sample points and nothing
else; coefficient height and every structure are fixed.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from finslercalc import FinslerStructure, build, cli, oracle, registry
from finslercalc.tensor import Symmetry, Tensor, _orbit, _transpositions, nonzero_components

ROOT = Path(__file__).resolve().parent.parent

OBJECT_IDS = tuple(registry.base_object_ids())
CHECK_POINTS = 2  # seed-drawn points of the oracle passes and of --check


@dataclass(frozen=True)
class Structure:
    """One of the standard structures of the test suite, as a CLI user
    would type it: F**2 or F, plus the sampling constraints."""

    name: str
    dim: int
    f_squared: str | None
    f: str | None
    constraints: tuple[str, ...]

    def make(self) -> FinslerStructure:
        coords = [f"x{i}" for i in range(1, self.dim + 1)]
        fibers = [f"y{i}" for i in range(1, self.dim + 1)]
        if self.f is not None:
            return FinslerStructure.from_f(self.dim, coords, fibers, self.f, self.constraints)
        return FinslerStructure(self.dim, coords, fibers, self.f_squared, self.constraints)

    def argv(self) -> list[str]:
        coords = ",".join(f"x{i}" for i in range(1, self.dim + 1))
        fibers = ",".join(f"y{i}" for i in range(1, self.dim + 1))
        out = ["--dim", str(self.dim), "--coords", coords, "--fibers", fibers]
        if self.f is not None:
            out += ["--given-f", self.f]
        else:
            out += ["--metric-function", self.f_squared]
        if self.constraints:
            out += ["--constraints", ",".join(self.constraints)]
        return out


STRUCTURES = {
    s.name: s
    for s in (
        Structure("perturbed-flat-2d", 2, "y1^2 + y2^2 + x1*y1^3/y2", None, ("y2 != 0",)),
        Structure(
            "berwald-4d", 4, None, "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))",
            ("x1 != 0", "y4 != 0", "y1^2+y2^2+y3^2 != 0"),
        ),
        Structure(
            "worked-3d", 3, "x3*y1^3/y2 + y3^2", None,
            ("x3 != 0", "y2 != 0", "y1^2+y3^2 != 0"),
        ),
        Structure("polar-flat-2d", 2, "y1^2 + x1^2*y2^2", None, ("x1 != 0",)),
    )
}


@dataclass
class Reference:
    """What the emitted documents must agree with.

    ``tables`` maps an object id to ``{"closure": [...], "entries": {...}}``
    in the layout of ``tests/golden_worked_example.py``: the entries must be
    canonically equal to the emitted components, and every emitted index
    must lie in the closure of the entries.  ``flags`` gives the expected
    ``classify`` fields.  ``oracle_objects`` are compared against the jet
    oracle at ``oracle_points`` seed-drawn points (``emit`` mode only; the
    other modes are checked by the verdicts of their own oracle pass).
    """

    tables: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    oracle_objects: tuple[str, ...] = ()
    oracle_points: int = 1


@dataclass
class PassOutput:
    """Documents of one pass, by object id, and what went wrong.  In
    ``oracle`` mode the documents are the verification summaries."""

    docs: dict[str, str]
    errors: dict[str, str]
    geometry: object = None
    exit_code: int | None = None
    verdicts: dict[str, str] = field(default_factory=dict)
    stderr: str = ""

    def doc_bytes(self) -> int:
        return len("\n\n".join(self.docs.values()).encode())


@dataclass
class Workload:
    name: str
    structure: Structure
    mode: str  # "emit", "oracle" or "cli"
    reference: Reference

    def run_pass(self, seed: int, lap) -> PassOutput:
        """One cold pass: a fresh structure, so no cache carries over.

        ``lap`` is called between the steps of the pass (the build, each
        object), so that the caller can time them one by one."""
        if self.mode == "cli":
            return self._cli_pass(seed)
        if self.mode == "oracle":
            return self._oracle_pass(seed, lap)
        return self._emit_pass(lap)

    def _emit_pass(self, lap) -> PassOutput:
        structure = self.structure.make()
        geom = build(structure)
        docs, errors = {}, {}
        for object_id in OBJECT_IDS:
            lap()
            try:
                obj = registry.resolve(geom, object_id)
                docs[object_id] = cli.emit(obj, "json", structure, object_id)
            except Exception as exc:  # counted as a failed object, not fatal
                errors[object_id] = f"{type(exc).__name__}: {exc}"
        return PassOutput(docs, errors, geometry=geom)

    def _oracle_pass(self, seed: int, lap) -> PassOutput:
        """Build, then compare every object with the jet oracle, as
        ``verify_many`` does for a library user (``--check`` without the
        CLI's one call per object)."""
        geom = build(self.structure.make())
        lap()
        reports = oracle.verify_many(geom, OBJECT_IDS, n_points=CHECK_POINTS, seed=seed)
        docs = {object_id: report.summary() for object_id, report in reports.items()}
        verdicts = {object_id: "pass" if report.passed else "FAIL"
                    for object_id, report in reports.items()}
        return PassOutput(docs, {}, geometry=geom, verdicts=verdicts)

    def cli_argv(self, seed: int) -> list[str]:
        return self.structure.argv() + [
            "--objects", ",".join(OBJECT_IDS),
            "--format", "json",
            "--check", f"points={CHECK_POINTS},seed={seed}",
        ]

    def _cli_pass(self, seed: int) -> PassOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.cli_argv(seed))
        docs, verdicts = split_cli_output(out.getvalue())
        return PassOutput(docs, {}, exit_code=code, verdicts=verdicts, stderr=err.getvalue())

    def pass_failures(self, output: PassOutput) -> dict[str, str]:
        """Objects the pass itself reports as failed: an error, no
        document, a nonzero exit code or an oracle verdict other than
        ``pass``.  Cheap enough to apply to every pass."""
        bad: dict[str, str] = {}
        for object_id in OBJECT_IDS:
            if object_id not in output.docs:
                bad[object_id] = output.errors.get(object_id, "no document emitted")
            elif self.mode == "cli" and output.exit_code != 0:
                bad[object_id] = f"exit code {output.exit_code}: {output.stderr.strip()[:200]}"
            elif self.mode != "emit" and output.verdicts.get(object_id) != "pass":
                bad[object_id] = f"oracle verdict {output.verdicts.get(object_id)!r}"
        return bad

    def check(self, output: PassOutput, seed: int) -> dict[str, str]:
        """Objects that disagree with the reference, with the reason.

        Runs outside the timed region."""
        bad = self.pass_failures(output)
        geom = self.geometry_of(output)
        ctx = geom.ctx
        docs = self.json_docs(output, geom)
        for object_id, table in self.reference.tables.items():
            if object_id in docs and object_id not in bad:
                symmetries = registry.resolve(geom, object_id).symmetries
                problem = compare_table(ctx, json.loads(docs[object_id]), table, symmetries)
                if problem:
                    bad[object_id] = problem
        for object_id, flags in self.reference.flags.items():
            if object_id in docs and object_id not in bad:
                doc = json.loads(docs[object_id])
                wrong = {k: doc.get(k) for k, v in flags.items() if doc.get(k) != v}
                if wrong:
                    bad[object_id] = f"classification {wrong} != {flags}"
        if self.mode == "emit":
            bad.update({k: v for k, v in self._check_library(geom, output.docs, seed).items()
                        if k not in bad})
        return bad

    def geometry_of(self, output: PassOutput):
        """The pass's geometry; the CLI path hands back none, so a fresh
        build stands in for it (objects are canonical, so it is equal)."""
        if output.geometry is not None:
            return output.geometry
        return build(self.structure.make())

    def json_docs(self, output: PassOutput, geom) -> dict[str, str]:
        """JSON documents to hold against the reference tables: the
        emitted ones, or in ``oracle`` mode those of the symbolic objects
        the oracle was compared with."""
        if self.mode != "oracle":
            return output.docs
        return {object_id: cli.emit(registry.resolve(geom, object_id), "json", geom.structure,
                                    object_id)
                for object_id in output.docs}

    def tensors(self, output: PassOutput) -> list[Tensor]:
        geom = self.geometry_of(output)
        objs = (registry.resolve(geom, object_id) for object_id in OBJECT_IDS)
        return [obj for obj in objs if isinstance(obj, Tensor)]

    def _check_library(self, geom, docs: dict[str, str], seed: int) -> dict[str, str]:
        """Documents round-trip to the canonical tensors of the pass, and the
        tensors agree with the jet oracle at seed-drawn points."""
        bad = {}
        for object_id, text in docs.items():
            obj = registry.resolve(geom, object_id)
            if isinstance(obj, Tensor):
                problem = compare_tensor(geom.ctx, json.loads(text), obj)
                if problem:
                    bad[object_id] = problem
        objects = [o for o in self.reference.oracle_objects if o in docs]
        if objects:
            reports = oracle.verify_many(geom, objects, n_points=self.reference.oracle_points, seed=seed)
            for object_id, report in reports.items():
                if not report.passed:
                    worst = report.failing_components()[:3]
                    bad[object_id] = f"oracle disagrees at {worst}"
        return bad


_VERDICT = re.compile(r"^check (\S+): (pass|FAIL) over ")


def split_cli_output(stdout: str) -> tuple[dict[str, str], dict[str, str]]:
    """JSON documents by name, and ``--check`` verdicts by object id."""
    docs: dict[str, str] = {}
    verdicts: dict[str, str] = {}
    decoder = json.JSONDecoder()
    body, _, _ = stdout.partition("\ncheck ")
    pos = 0
    while True:
        while pos < len(body) and body[pos].isspace():
            pos += 1
        if pos >= len(body):
            break
        try:
            doc, end = decoder.raw_decode(body, pos)
        except json.JSONDecodeError:
            break
        docs[doc["name"]] = body[pos:end]
        pos = end
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if m:
            verdicts[m.group(1)] = m.group(2)
    return docs, verdicts


def _parsed_components(ctx, doc: dict) -> dict[tuple[int, ...], object]:
    coords = doc["coords"]
    return {
        tuple(coords.index(c) + 1 for c in comp["index"]): ctx.parse(comp["expr"])
        for comp in doc["components"]
    }


def _orbits(symmetries):
    gens = _transpositions(symmetries)
    return lambda idx: _orbit(idx, gens) if gens else {idx: 1}


def compare_table(ctx, doc: dict, table: dict, symmetries) -> str | None:
    """Canonical equality of a published table with an emitted document.

    The document lists one representative per orbit of the object's
    ``symmetries``; it is expanded to the full table first."""
    orbit = _orbits(symmetries)
    full = {}
    for idx, e in _parsed_components(ctx, doc).items():
        for member, sign in orbit(idx).items():
            full[member] = e if sign == 1 else -e
    for idx, text in table["entries"].items():
        if not (full.get(idx, ctx.zero) - ctx.parse(text)).is_zero_expr():
            return f"component {idx} differs from the reference"
    closure = _orbits([Symmetry(kind, tuple(pos)) for kind, pos in table["closure"]])
    covered = set()
    for idx in table["entries"]:
        covered.update(closure(idx))
    extra = sorted(idx for idx, e in full.items() if idx not in covered and not e.is_zero_expr())
    if extra:
        return f"emitted components {extra[:3]} not in the reference"
    return None


def compare_tensor(ctx, doc: dict, tensor: Tensor) -> str | None:
    """The document lists exactly the orbit representatives the tensor
    has nonzero, with components that parse back to the tensor's."""
    emitted = _parsed_components(ctx, doc)
    expected = [e.index for e in nonzero_components(tensor)]
    if sorted(emitted) != expected:
        return "emitted index set differs from the tensor's nonzero representatives"
    for idx, e in emitted.items():
        if e != tensor[idx]:
            return f"component {idx} does not parse back to the tensor's"
    return None


def _golden_tables() -> dict:
    """Published worked-example tables, read from the test suite."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import golden_worked_example
    finally:
        sys.path.pop(0)
    return golden_worked_example.TABLES


# berwald-4d is Berwaldian but not Riemannian, its Cartan hv-curvature
# vanishes, and its Berwald coefficients are +-1/x1 (acceptance criterion 2)
_BERWALD_4D_GJK = {
    "closure": [("symmetric", (2, 3))],
    "entries": {
        (1, 1, 1): "1/x1", (2, 1, 2): "1/x1", (3, 1, 3): "1/x1",
        (1, 2, 2): "-1/x1", (1, 3, 3): "-1/x1",
    },
}

# Objects of berwald-4d whose oracle cost stays near 2 s at one point; the
# h-curvatures of the Berwald and Hashiguchi connections take 1.6 s each.
_BERWALD_4D_ORACLE = (
    "g", "ginv", "l", "lup", "h", "C", "Cmixed", "gamma", "Gspray", "N",
    "Gberwald", "Gamma", "Rtorsion", "Ptorsion", "R:cartan", "R:chern",
    "P:cartan", "P:chern", "S:cartan", "S:hashiguchi",
)


def standard_workloads() -> dict[str, Workload]:
    verifiable = tuple(registry.verifiable_object_ids())
    return {
        "rational-2d": Workload(
            "rational-2d",
            STRUCTURES["perturbed-flat-2d"],
            "emit",
            reference=Reference(oracle_objects=verifiable + ("classify",), oracle_points=2),
        ),
        "radical-4d": Workload(
            "radical-4d",
            STRUCTURES["berwald-4d"],
            "emit",
            reference=Reference(
                tables={"P:cartan": {"closure": [], "entries": {}}, "Gberwald": _BERWALD_4D_GJK},
                flags={"classify": {"riemannian": False, "berwaldian": True}},
                oracle_objects=_BERWALD_4D_ORACLE,
                oracle_points=1,
            ),
        ),
        "oracle-3d": Workload(
            "oracle-3d",
            STRUCTURES["worked-3d"],
            "oracle",
            reference=Reference(tables=_golden_tables()),
        ),
        "cli-check-3d": Workload(
            "cli-check-3d",
            STRUCTURES["worked-3d"],
            "cli",
            reference=Reference(tables=_golden_tables()),
        ),
    }
