"""Guards on the package source itself."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mfph
from mfph.complexes import FilteredComplex
from mfph.multifield import MultiFieldDiagram


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


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted fails only
    # under `import *`; check every module's list directly
    names = ["mfph"] + [f"mfph.{info.name}" for info in pkgutil.iter_modules(mfph.__path__)]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert missing == [], f"{name}.__all__ names {missing}"
        checked += bool(exported)
    assert checked >= 5


def test_benchmark_patch_targets_exist():
    # the benchmark's tracer wraps these names and calls the two methods;
    # without this check only a traced benchmark run notices a rename
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in spans.PATCHES
        if attr not in spans._resolve(owner).__dict__
    ]
    assert missing == []
    assert callable(FilteredComplex.boundary_rows)
    assert callable(MultiFieldDiagram.project)
