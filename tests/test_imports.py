"""What a cold import loads: building and emitting need neither the jet
oracle nor ``dataclasses``; and the public names, pinned so that a change
to them is deliberate."""

import subprocess
import sys
from pathlib import Path

import pytest

import finslercalc

SRC = str(Path(finslercalc.__file__).resolve().parent.parent)

# run with -S, so that no site hook imports anything first; pytest itself
# imports dataclasses, so this cannot be asked of the running interpreter
_FOOTPRINT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import finslercalc.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_oracle_and_no_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, SRC], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "finslercalc.cli" in added and "finslercalc.geometry" in added
    assert "finslercalc.oracle" not in added
    assert "dataclasses" not in added


def test_oracle_names_resolve_to_the_oracle():
    from finslercalc import oracle

    assert finslercalc.verify_many is oracle.verify_many
    assert finslercalc.VerificationReport is oracle.VerificationReport
    assert "verify_many" in vars(finslercalc)  # kept after the first use


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        finslercalc.no_such_name


def test_star_import_binds_all():
    namespace = {}
    exec("from finslercalc import *", namespace)
    missing = [name for name in finslercalc.__all__ if name not in namespace]
    assert not missing
    assert namespace["verify"] is finslercalc.oracle.verify


PUBLIC_NAMES = [
    "Context", "DomainError", "Expr", "ExprError", "NumericPoint",
    "UnknownIdentifierError", "Var", "ZeroStatus",
    "ParseError", "parse", "to_latex", "to_text",
    "DOWN", "UP", "Symmetry", "Tensor", "VarianceMismatch", "antisymmetric",
    "contract_product", "define", "nonzero_components", "symmetric", "zero_tensor",
    "Classification", "ConnectionKind", "ConnectionTriple", "Constraint",
    "DegenerateMetric", "FinslerStructure", "Geometry", "GeometryError",
    "NotHomogeneous", "build",
    "NumericGeometry", "SamplingExhausted", "SingularMetricAt",
    "VerificationReport", "numeric_object", "sample_points", "verify",
    "verify_many",
    "UnknownObjectError", "base_object_ids", "resolve",
    "__version__",
]


def test_public_names_are_pinned():
    assert finslercalc.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["kronecker", "tensor_add", "move_index", "alternate"])
def test_test_only_tensor_algebra_is_not_shipped(name):
    # these live in tests/tensor_algebra.py, as references for the tests
    from finslercalc import tensor

    assert not hasattr(finslercalc, name)
    assert not hasattr(tensor, name)


def test_removed_methods_stay_removed():
    from finslercalc import registry

    assert not hasattr(finslercalc.Expr, "substitute")
    assert not hasattr(registry, "object_signature")
