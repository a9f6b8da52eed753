"""Rules on the package source itself."""

import ast
import pathlib

import hopfgal

PACKAGE = pathlib.Path(hopfgal.__file__).parent


def test_package_has_no_assert_statements():
    # invariants must raise typed errors: `python -O` strips assert
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
