"""Guards on the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
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


def _modules():
    names = ["mfph"] + [f"mfph.{info.name}" for info in pkgutil.iter_modules(mfph.__path__)]
    return [importlib.import_module(name) for name in names]


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted fails only
    # under `import *`; check every module's list directly
    checked = 0
    for module in _modules():
        exported = getattr(module, "__all__", ())
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"
        checked += bool(exported)
    assert checked >= 5


def _reads(root):
    """What code under src/mfph and perfbench reads, as the ids of its
    loaded Names, the attributes of its loaded Attributes that are not
    called and those that are (an import is not a read), and the words
    of README.md."""
    names, attrs, calls = set(), set(), set()
    for path in sorted((root / "src" / "mfph").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                (calls if id(node) in callees else attrs).add(node.attr)
    words = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    return names, attrs, calls, words


def unread_exports(root):
    """The exported names of the package that no code under src/mfph or
    perfbench reads (a loaded Name or Attribute) and README.md does not
    name, as `module.name`."""
    names, attrs, calls, words = _reads(root)
    read = names | attrs | calls | words
    return [
        f"{module.__name__.removeprefix('mfph.')}.{attr}"
        for module in _modules()
        for attr in getattr(module, "__all__", ())
        if attr not in read
    ]


def unread_fields(root):
    """The fields of the package's dataclasses that no code under
    src/mfph or perfbench reads as an attribute and README.md does not
    name, as `Class.field`; a method call such as `cb.apparent_pairs()`
    is not a read of a field of that name."""
    _names, attrs, _calls, words = _reads(root)
    read = attrs | words
    return sorted(
        f"{cls.__name__}.{field.name}"
        for module in _modules()
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        for field in dataclasses.fields(cls)
        if field.name not in read
    )


def test_every_exported_name_is_read():
    # API that no code path runs and the README does not offer belongs in
    # the tests that read it (tests/oracles.py), not in the package
    assert unread_exports(Path(__file__).resolve().parents[1]) == []


def test_every_dataclass_field_is_read():
    # state that no printer, writer or benchmark reads is kept for nothing
    assert unread_fields(Path(__file__).resolve().parents[1]) == []


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
