"""Requestable geometric objects: the one place that declares and parses
object ids, shared by the CLI, the oracle, and the tests.

Plain ids name cached tensors; ``R:<kind>``, ``P:<kind>`` and
``S:{cartan,hashiguchi}`` name curvatures; ``hcov:<id>:<kind>`` and
``vcov:<id>:<kind>`` apply a covariant derivative to any tensor id; and
``classify`` reports the Riemannian/Berwaldian flags.

Each plain id has a symbolic builder here.  The oracle keeps its own
formulas, one jet table per plain id and named by it, and reads every id
through ``parse``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .geometry import ConnectionKind, Geometry
from .tensor import Tensor


class Entry(NamedTuple):
    sig: str  # variance per slot, 'u' or 'd'
    build: Callable[[Geometry], Tensor]


_BASE = {
    "g": Entry("dd", lambda geom: geom.metric()),
    "ginv": Entry("uu", lambda geom: geom.inverse_metric()),
    "l": Entry("d", lambda geom: geom.supporting_and_angular()[0]),
    "lup": Entry("u", lambda geom: geom.supporting_and_angular()[1]),
    "h": Entry("dd", lambda geom: geom.supporting_and_angular()[2]),
    "C": Entry("ddd", lambda geom: geom.cartan_tensor()[0]),
    "Cmixed": Entry("udd", lambda geom: geom.cartan_tensor()[1]),
    "gamma": Entry("udd", lambda geom: geom.christoffel_gamma()),
    "Gspray": Entry("u", lambda geom: geom.spray()),
    "N": Entry("ud", lambda geom: geom.nonlinear_connection()),
    "Gberwald": Entry("udd", lambda geom: geom.berwald_coefficients()),
    "Gamma": Entry("udd", lambda geom: geom.cartan_coefficients()),
    "Rtorsion": Entry("udd", lambda geom: geom.torsions()[0]),
    "Ptorsion": Entry("udd", lambda geom: geom._p_torsion()),
}

_KINDS = {k.value: k for k in ConnectionKind}

_CURVATURE_WHICH = {"R": "h", "P": "hv", "S": "v"}


class UnknownObjectError(Exception):
    def __init__(self, object_id: str):
        super().__init__(f"unknown object id: {object_id!r}")
        self.object_id = object_id


def base_object_ids() -> list[str]:
    """Every non-compound id, in display order."""
    out = list(_BASE)
    for letter in ("R", "P"):
        out.extend(f"{letter}:{k}" for k in _KINDS)
    out.extend(f"S:{k}" for k, kind in _KINDS.items() if kind.has_c)
    out.append("classify")
    return out


def verifiable_object_ids() -> list[str]:
    return [i for i in base_object_ids() if i != "classify"]


def is_known(object_id: str) -> bool:
    try:
        parse(object_id)
        return True
    except UnknownObjectError:
        return False


def parse(object_id: str) -> tuple:
    """The one reading of an object id, as one of

    - ``("classify",)``;
    - ``("base", entry)``;
    - ``("curvature", kind, which)`` with ``which`` one of h, hv, v;
    - ``("hcov", entry, kind)`` or ``("vcov", entry, kind)``.
    """
    if object_id == "classify":
        return ("classify",)
    if object_id in _BASE:
        return ("base", _BASE[object_id])
    parts = object_id.split(":")
    if len(parts) == 2 and parts[0] in _CURVATURE_WHICH and parts[1] in _KINDS:
        kind = _KINDS[parts[1]]
        # connections without a vertical part have no v-curvature
        if parts[0] != "S" or kind.has_c:
            return ("curvature", kind, _CURVATURE_WHICH[parts[0]])
    if len(parts) == 3 and parts[0] in ("hcov", "vcov") and parts[2] in _KINDS:
        if parts[1] in _BASE:
            return (parts[0], _BASE[parts[1]], _KINDS[parts[2]])
    raise UnknownObjectError(object_id)


def resolve(geom: Geometry, object_id: str):
    """Compute the object; tensors come back as Tensor, ``classify`` as a
    Classification."""
    op, *rest = parse(object_id)
    if op == "classify":
        return geom.classify()
    if op == "base":
        return rest[0].build(geom)
    if op == "curvature":
        return geom.curvature(*rest)
    entry, kind = rest
    tensor = entry.build(geom)
    triple = geom.connection(kind)
    if op == "hcov":
        return geom.h_cov_derivative(tensor, triple)
    return geom.v_cov_derivative(tensor, triple)

