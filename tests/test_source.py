"""Guards on the package source itself."""

import ast
from pathlib import Path

import mfph


def test_package_has_no_assert_statements():
    # invariants raise InconsistencyError: an assert vanishes under python -O
    paths = sorted(Path(mfph.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
