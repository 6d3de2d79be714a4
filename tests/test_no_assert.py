"""The package checks its invariants with raises, never with ``assert``.

``python -O`` strips assert statements, so an invariant written as one would
vanish in optimised runs and, when it failed, exit with a traceback instead
of exit code 4.
"""

import ast
from pathlib import Path

import tractable_dyn


def test_package_has_no_assert_statements():
    package = Path(tractable_dyn.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
