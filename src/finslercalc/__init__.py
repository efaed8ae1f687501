"""Exact symbolic Finsler geometry with a numeric jet oracle.

Given a Finsler function F (supplied as F**2) in any dimension >= 2, the
package computes the fundamental tensors, canonical spray, nonlinear
connection, and the torsions and curvatures of the Cartan, Berwald,
Chern, and Hashiguchi connections, all as exact canonical expressions,
and cross-checks every object numerically via truncated Taylor jets of F**2.
"""

from .expr import (
    Context,
    DomainError,
    Expr,
    ExprError,
    NumericPoint,
    UnknownIdentifierError,
    Var,
    ZeroStatus,
)
from .parsing import ParseError, parse, to_latex, to_text
from .tensor import (
    DOWN,
    UP,
    Symmetry,
    Tensor,
    VarianceMismatch,
    alternate,
    antisymmetric,
    contract_product,
    define,
    kronecker,
    move_index,
    nonzero_components,
    symmetric,
    tensor_add,
    zero_tensor,
)
from .geometry import (
    Classification,
    ConnectionKind,
    ConnectionTriple,
    Constraint,
    DegenerateMetric,
    FinslerStructure,
    Geometry,
    GeometryError,
    NotHomogeneous,
    build,
)
from .oracle import (
    NumericGeometry,
    SamplingExhausted,
    SingularMetricAt,
    VerificationReport,
    numeric_object,
    sample_points,
    verify,
    verify_many,
)
from .registry import UnknownObjectError, base_object_ids, resolve

__version__ = "0.1.0"

__all__ = [
    "Context", "DomainError", "Expr", "ExprError", "NumericPoint",
    "UnknownIdentifierError", "Var", "ZeroStatus",
    "ParseError", "parse", "to_latex", "to_text",
    "DOWN", "UP", "Symmetry", "Tensor",
    "VarianceMismatch", "alternate", "antisymmetric", "contract_product",
    "define", "kronecker", "move_index", "nonzero_components", "symmetric",
    "tensor_add", "zero_tensor",
    "Classification", "ConnectionKind", "ConnectionTriple", "Constraint",
    "DegenerateMetric", "FinslerStructure", "Geometry", "GeometryError",
    "NotHomogeneous", "build",
    "NumericGeometry", "SamplingExhausted", "SingularMetricAt",
    "VerificationReport", "numeric_object", "sample_points", "verify",
    "verify_many",
    "UnknownObjectError", "base_object_ids", "resolve",
    "__version__",
]
