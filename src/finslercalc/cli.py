"""Command-line front end.

Declares a Finsler structure, computes requested objects, and emits one
document per object as text, JSON, or LaTeX.  The argparse parser is the
one declaration of the options: the ``key = value`` lines of a --config
file become ``--key=value`` arguments placed before the command line, so
a file value is read exactly as the flag is, and flags win.  Exit status:
0 on success, 1 on validation errors (a bad flag or config value, unknown
objects, degenerate or non-homogeneous metric functions), 2 when --check
verification fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from . import registry
from .expr import DomainError, ExprError, SamplingExhausted, ZeroStatus, check_tol_and_box
from .geometry import (
    Classification,
    DegenerateMetric,
    FinslerStructure,
    GeometryError,
    NotHomogeneous,
    build,
)
from .parsing import to_latex
from .poly import ExponentLimitError
from .tensor import Tensor, nonzero_components


# --check keeps every point's jet tables until it reports; on the standard
# structures a point costs up to a few tenths of a second and a few MB
MAX_CHECK_POINTS = 100

# the form each --check value must take, as its error message names it
_CHECK_FORMS = {"points": "an integer", "tol": "a number", "seed": "an integer", "box": "lo:hi"}


class CheckParams(NamedTuple):
    points: int = 8
    tol: float = 1e-9
    seed: int = 0
    box: tuple[float, float] = (1.0, 2.0)

    @staticmethod
    def parse(text: str) -> "CheckParams":
        given = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad --check item {part!r}; expected key=value")
            key, value = (s.strip() for s in part.split("=", 1))
            if key not in _CHECK_FORMS:
                raise ValueError(f"unknown --check key {key!r}")
            try:
                if key == "box":
                    lo, hi = value.split(":")
                    given[key] = (float(lo), float(hi))
                else:
                    given[key] = (float if key == "tol" else int)(value)
            except ValueError:
                raise ValueError(
                    f"--check {key} must be {_CHECK_FORMS[key]}, got {value!r}"
                ) from None
        params = CheckParams(**given)
        if params.points < 1:
            raise ValueError(f"--check points must be at least 1, got {params.points}")
        if params.points > MAX_CHECK_POINTS:
            raise ValueError(
                f"--check points must be at most {MAX_CHECK_POINTS}, got {params.points}"
            )
        try:
            check_tol_and_box(params.tol, params.box)
        except ValueError as exc:
            raise ValueError(f"--check {exc}") from None
        return params


def validate(config: argparse.Namespace) -> None:
    """Checks over the parsed options, with the messages the CLI prints."""
    if config.dim < 2:
        raise ValueError("--dim must be at least 2")
    if len(config.coords) != config.dim or len(config.fibers) != config.dim:
        raise ValueError("--coords and --fibers must list exactly dim names")
    if len(set(config.coords + config.fibers)) != 2 * config.dim:
        raise ValueError("coordinate and fiber names must be distinct")
    if bool(config.metric_function) == bool(config.given_f):
        raise ValueError("give exactly one of --metric-function (F^2) or --given-f")
    if not config.objects:
        raise ValueError("--objects must name at least one object")
    for obj in config.objects:
        if not registry.is_known(obj):
            raise ValueError(
                f"unknown object {obj!r}; known: {', '.join(registry.base_object_ids())} "
                "plus hcov:<id>:<kind> and vcov:<id>:<kind>"
            )
    if config.format not in ("text", "json", "latex"):
        raise ValueError("--format must be text, json, or latex")


class _Parser(argparse.ArgumentParser):
    """Every parse error is a ValueError, so that ``main`` ends it with exit 1
    like any other bad input; --help still exits 0."""

    def error(self, message):
        raise ValueError(message)


def _split_csv(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def boolean(text: str) -> bool:
    """A --full-table value: ``true``/``yes``/``1`` or ``false``/``no``/``0``."""
    if text in ("true", "yes", "1", "false", "no", "0"):
        return text in ("true", "yes", "1")
    raise ValueError(text)


def _config_args(path: str, keys: set[str]) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` arguments."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out.append(f"--{key}={value.strip()}")
    return out


def build_config(argv: list[str]) -> argparse.Namespace:
    parser = _Parser(
        prog="finslercalc",
        description="Symbolic Finsler geometry: connections, torsions, curvatures.",
    )
    parser.add_argument("--dim", type=int, default=0)
    parser.add_argument("--coords", type=_split_csv, default="",
                        help="comma-separated base coordinate names")
    parser.add_argument("--fibers", type=_split_csv, default="",
                        help="comma-separated fiber coordinate names")
    parser.add_argument("--metric-function", default="", help="F^2 as an expression")
    parser.add_argument("--given-f", default="", help="F as an expression (squared textually)")
    parser.add_argument("--constraints", type=_split_csv, default="",
                        help="comma-separated, e.g. 'x3!=0,y2>0'")
    parser.add_argument("--objects", type=_split_csv, default="",
                        help="comma-separated object ids")
    parser.add_argument("--format", choices=["text", "json", "latex"], default="text")
    parser.add_argument("--full-table", type=boolean, nargs="?", const=True, default=False,
                        metavar="BOOL", help="every component, not one per symmetry orbit")
    parser.add_argument("--check", help="points=<n>,tol=<t>,seed=<s>,box=<lo:hi>")
    parser.add_argument("--config", help="file with 'key = value' lines (same keys)")
    config = parser.parse_args(argv)
    if config.config:
        keys = {dest.replace("_", "-") for dest in vars(config)} - {"config"}
        config = parser.parse_args(_config_args(config.config, keys) + argv)
    config.check = CheckParams.parse(config.check) if config.check else None
    env_seed = os.environ.get("FINSLER_SEED")
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"FINSLER_SEED must be an integer, got {env_seed!r}") from None
        if config.check is not None:
            config.check = config.check._replace(seed=config.seed)
    else:
        config.seed = config.check.seed if config.check is not None else 0
    return config


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


def run(config: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    try:
        validate(config)
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
    from .oracle import verify_many

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
    try:
        status = run(config)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point it at devnull, so that
        # the flush at exit fails no more, and end quietly with exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
