"""The demos import only the public API.

Running them takes too long for the test suite, so each one is parsed
instead: every name it imports from ``finslercalc`` must be in
``finslercalc.__all__``, so that removing an export cannot silently
break a demo.
"""

import ast
from pathlib import Path

import pytest

import finslercalc

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_are_exported(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("finslercalc"):
            assert node.module == "finslercalc", (path.name, node.module)
            for alias in node.names:
                assert alias.name in finslercalc.__all__, (path.name, alias.name)


def test_demos_found():
    assert len(DEMOS) >= 4
