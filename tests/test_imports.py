"""What a cold import loads: building and emitting need neither the jet
oracle nor ``dataclasses``."""

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
