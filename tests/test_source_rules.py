"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import pathlib

import hopfgal

PACKAGE = pathlib.Path(hopfgal.__file__).parent
TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_package_has_no_assert_statements():
    # invariants must raise typed errors: `python -O` strips assert
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_traced_entry_points_exist():
    # the traced benchmark wraps these by name: a kernel rework that renames
    # or drops one fails here, not in the benchmark run
    spec = importlib.util.spec_from_file_location("hopfgal_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"hopfgal.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, f"traced entry points not in the package: {missing}"
