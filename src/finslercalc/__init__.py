"""Exact symbolic Finsler geometry with a numeric jet oracle.

Given a Finsler function F (supplied as F**2) in any dimension >= 2, the
package computes the fundamental tensors, canonical spray, nonlinear
connection, and the torsions and curvatures of the Cartan, Berwald,
Chern, and Hashiguchi connections, all as exact canonical expressions,
and cross-checks every object numerically via truncated Taylor jets of F**2.

The jet oracle (``finslercalc.oracle``) is imported on first use of one of
its names below, such as ``verify`` or ``verify_many``; building and
emitting never load it.
"""

from .expr import (
    Context, DomainError, Expr, ExprError, NumericPoint, SamplingExhausted,
    UnknownIdentifierError, Var, ZeroStatus,
)
from .parsing import ParseError, parse, to_latex, to_text
from .tensor import (
    DOWN, UP, Symmetry, Tensor, VarianceMismatch, antisymmetric, contract_product,
    define, nonzero_components, symmetric, zero_tensor,
)
from .geometry import (
    Classification, ConnectionKind, ConnectionTriple, Constraint, DegenerateMetric,
    FinslerStructure, Geometry, GeometryError, NotHomogeneous, build,
)
from .registry import UnknownObjectError, base_object_ids, resolve

_ORACLE_NAMES = (
    "NumericGeometry", "SingularMetricAt", "VerificationReport", "numeric_object",
    "sample_points", "verify", "verify_many",
)


def __getattr__(name: str):
    """An oracle name, imported from ``finslercalc.oracle`` on first use
    and kept here after (PEP 562)."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


__version__ = "0.1.0"

__all__ = [
    "Context", "DomainError", "Expr", "ExprError", "NumericPoint",
    "UnknownIdentifierError", "Var", "ZeroStatus",
    "ParseError", "parse", "to_latex", "to_text",
    "DOWN", "UP", "Symmetry", "Tensor",
    "VarianceMismatch", "antisymmetric", "contract_product", "define",
    "nonzero_components", "symmetric", "zero_tensor",
    "Classification", "ConnectionKind", "ConnectionTriple", "Constraint",
    "DegenerateMetric", "FinslerStructure", "Geometry", "GeometryError",
    "NotHomogeneous", "build",
    "NumericGeometry", "SamplingExhausted", "SingularMetricAt",
    "VerificationReport", "numeric_object", "sample_points", "verify",
    "verify_many",
    "UnknownObjectError", "base_object_ids", "resolve",
    "__version__",
]
