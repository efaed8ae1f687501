"""Command-line front end.

Declares a Finsler structure, computes requested objects, and emits one
document per object as text, JSON, or LaTeX.  Exit status: 0 on success,
1 on validation errors (bad input, unknown objects, degenerate or
non-homogeneous metric functions), 2 when --check verification fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Container
from dataclasses import dataclass, field

from . import registry
from .expr import DomainError, ExprError, ZeroStatus
from .geometry import (
    Classification,
    DegenerateMetric,
    FinslerStructure,
    GeometryError,
    NotHomogeneous,
    build,
)
from .oracle import SamplingExhausted, verify_many
from .parsing import to_latex
from .poly import ExponentLimitError
from .tensor import Tensor, nonzero_components


# --check keeps every point's jet tables until it reports; on the standard
# structures a point costs up to a few tenths of a second and a few MB
MAX_CHECK_POINTS = 100


@dataclass
class CheckParams:
    points: int = 8
    tol: float = 1e-9
    seed: int = 0
    box: tuple[float, float] = (1.0, 2.0)

    @staticmethod
    def parse(text: str) -> "CheckParams":
        params = CheckParams()
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad --check item {part!r}; expected key=value")
            key, value = part.split("=", 1)
            key = key.strip()
            if key == "points":
                params.points = int(value)
            elif key == "tol":
                params.tol = float(value)
            elif key == "seed":
                params.seed = int(value)
            elif key == "box":
                lo, hi = value.split(":")
                params.box = (float(lo), float(hi))
            else:
                raise ValueError(f"unknown --check key {key!r}")
        if params.points < 1:
            raise ValueError(f"--check points must be at least 1, got {params.points}")
        if params.points > MAX_CHECK_POINTS:
            raise ValueError(
                f"--check points must be at most {MAX_CHECK_POINTS}, got {params.points}"
            )
        if not (math.isfinite(params.tol) and params.tol > 0):
            raise ValueError(f"--check tol must be finite and positive, got {params.tol}")
        if not all(map(math.isfinite, params.box)):
            raise ValueError(f"--check box bounds must be finite, got {params.box}")
        return params


@dataclass
class RunConfig:
    dim: int = 0
    coords: list[str] = field(default_factory=list)
    fibers: list[str] = field(default_factory=list)
    metric_function: str = ""
    given_f: str = ""
    constraints: list[str] = field(default_factory=list)
    objects: list[str] = field(default_factory=list)
    format: str = "text"
    full_table: bool = False
    check: CheckParams | None = None
    seed: int = 0

    def validate(self):
        if self.dim < 2:
            raise ValueError("--dim must be at least 2")
        if len(self.coords) != self.dim or len(self.fibers) != self.dim:
            raise ValueError("--coords and --fibers must list exactly dim names")
        if len(set(self.coords + self.fibers)) != 2 * self.dim:
            raise ValueError("coordinate and fiber names must be distinct")
        if bool(self.metric_function) == bool(self.given_f):
            raise ValueError("give exactly one of --metric-function (F^2) or --given-f")
        if not self.objects:
            raise ValueError("--objects must name at least one object")
        for obj in self.objects:
            if not registry.is_known(obj):
                raise ValueError(
                    f"unknown object {obj!r}; known: {', '.join(registry.base_object_ids())} "
                    "plus hcov:<id>:<kind> and vcov:<id>:<kind>"
                )
        if self.format not in ("text", "json", "latex"):
            raise ValueError("--format must be text, json, or latex")


def _config_from_file(path: str, known: Container[str]) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def build_config(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="finslercalc",
        description="Symbolic Finsler geometry: connections, torsions, curvatures.",
    )
    parser.add_argument("--dim", type=int)
    parser.add_argument("--coords", help="comma-separated base coordinate names")
    parser.add_argument("--fibers", help="comma-separated fiber coordinate names")
    parser.add_argument("--metric-function", help="F^2 as an expression")
    parser.add_argument("--given-f", help="F as an expression (squared textually)")
    parser.add_argument("--constraints", help="comma-separated, e.g. 'x3!=0,y2>0'")
    parser.add_argument("--objects", help="comma-separated object ids")
    parser.add_argument("--format", choices=["text", "json", "latex"])
    parser.add_argument("--full-table", action="store_true", default=None)
    parser.add_argument("--check", help="points=<n>,tol=<t>,seed=<s>,box=<lo:hi>")
    parser.add_argument("--config", help="file with 'key = value' lines (same keys)")
    args = parser.parse_args(argv)

    cli_pairs = {
        "dim": args.dim,
        "coords": args.coords,
        "fibers": args.fibers,
        "metric-function": args.metric_function,
        "given-f": args.given_f,
        "constraints": args.constraints,
        "objects": args.objects,
        "format": args.format,
        "full-table": args.full_table,
        "check": args.check,
    }
    values = _config_from_file(args.config, cli_pairs) if args.config else {}
    for key, value in cli_pairs.items():
        if value is not None:
            values[key] = value

    cfg = RunConfig()
    if "dim" in values:
        cfg.dim = int(values["dim"])
    cfg.coords = _split_csv(values.get("coords", ""))
    cfg.fibers = _split_csv(values.get("fibers", ""))
    cfg.metric_function = values.get("metric-function", "")
    cfg.given_f = values.get("given-f", "")
    cfg.constraints = _split_csv(values.get("constraints", ""))
    cfg.objects = _split_csv(values.get("objects", ""))
    cfg.format = values.get("format", "text")
    cfg.full_table = values.get("full-table") in (True, "true", "yes", "1")
    if values.get("check"):
        cfg.check = CheckParams.parse(values["check"])
    env_seed = os.environ.get("FINSLER_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
        if cfg.check is not None:
            cfg.check.seed = int(env_seed)
    elif cfg.check is not None:
        cfg.seed = cfg.check.seed
    return cfg


# -- emission -------------------------------------------------------------------


def _index_label(tensor: Tensor, idx: tuple[int, ...], coords: list[str]) -> str:
    """Paper-style label: groups of up indices in ^{...}, down in _{...}."""
    from .tensor import UP

    parts = []
    pos = 0
    while pos < tensor.rank:
        variance = tensor.sig[pos]
        group = []
        while pos < tensor.rank and tensor.sig[pos] is variance:
            group.append(coords[idx[pos] - 1])
            pos += 1
        marker = "^" if variance is UP else "_"
        parts.append(f"{marker}{{{' '.join(group)}}}")
    return tensor.name + "".join(parts)


def emit(obj, fmt: str, structure: FinslerStructure, object_id: str,
         full_table: bool = False, seed: int = 0) -> str:
    """One display document for a tensor or classification."""
    coords = list(structure.ctx.coord_names)
    if isinstance(obj, Classification):
        if fmt == "json":
            doc = {
                "name": "classify",
                "riemannian": obj.riemannian,
                "berwaldian": obj.berwaldian,
            }
            return json.dumps(doc, indent=2)
        lines = [f"# {object_id}"] if fmt == "text" else []
        lines.append(f"riemannian = {str(obj.riemannian).lower()}")
        lines.append(f"berwaldian = {str(obj.berwaldian).lower()}")
        return "\n".join(lines)
    tensor = obj
    entries = nonzero_components(
        tensor,
        full_table=full_table,
        constraints=structure.constraints,
        seed=seed,
    )
    if fmt == "json":
        doc = {
            "name": object_id,
            "signature": [v.value for v in tensor.sig],
            "dim": tensor.dim,
            "coords": coords,
            "components": [
                {
                    "index": [coords[i - 1] for i in entry.index],
                    "expr": str(entry.expr),
                    **(
                        {"numerically_zero": True}
                        if entry.status is ZeroStatus.NUMERICALLY_ZERO
                        else {}
                    ),
                }
                for entry in entries
            ],
            "symmetry_reduced": not full_table,
        }
        return json.dumps(doc, indent=2)
    lines = [f"# {object_id}"]
    if not entries:
        lines.append("no nonvanishing components")
        return "\n".join(lines)
    for entry in entries:
        label = _index_label(tensor, entry.index, coords)
        value = to_latex(entry.expr) if fmt == "latex" else str(entry.expr)
        flag = "  (numerically zero)" if entry.status is ZeroStatus.NUMERICALLY_ZERO else ""
        lines.append(f"{label} = {value}{flag}")
    return "\n".join(lines)


# -- driver ----------------------------------------------------------------------


def run(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    try:
        config.validate()
        if config.given_f:
            structure = FinslerStructure.from_f(
                config.dim, config.coords, config.fibers, config.given_f,
                config.constraints,
            )
        else:
            structure = FinslerStructure(
                config.dim, config.coords, config.fibers, config.metric_function,
                config.constraints,
            )
        geom = build(structure)
        documents = []
        for object_id in config.objects:
            obj = registry.resolve(geom, object_id)
            documents.append(
                emit(obj, config.format, structure, object_id,
                     full_table=config.full_table, seed=config.seed)
            )
    except (ValueError, ExprError, GeometryError, NotHomogeneous, DegenerateMetric,
            registry.UnknownObjectError, ExponentLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n\n".join(documents), file=out)
    if config.check is None:
        return 0
    try:
        reports = verify_many(
            geom,
            config.objects,
            n_points=config.check.points,
            tol=config.check.tol,
            seed=config.check.seed,
            box=config.check.box,
        )
    except (SamplingExhausted, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for object_id in config.objects:
        print(f"check {reports[object_id].summary()}", file=out)
    return 0 if all(report.passed for report in reports.values()) else 2


def main(argv=None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
