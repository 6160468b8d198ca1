"""The public surface of the package: exported names, no bare asserts, no
unreferenced definitions, every name the benchmark's tracer wraps, and
source that parses as the oldest Python the package supports."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import sutured_tqft

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = Path(sutured_tqft.__path__[0])
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"sutured_tqft.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_no_bare_asserts_in_the_package():
    # invariants raise InternalConsistencyError, which `python -O` keeps
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: newer syntax fails here
    failed = []
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            try:
                ast.parse(path.read_text(), str(path), feature_version=(3, 10))
            except SyntaxError as exc:
                failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == []


def _definitions(module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def test_every_definition_is_referenced():
    # a word-boundary scan: any other mention in src/, tests/ or bench/
    # counts as a use; dunder methods are called by Python itself
    words = Counter(word for top in ("src", "tests", "bench")
                    for path in (ROOT / top).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text()))
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = path.read_text().splitlines(keepends=True)
        for node in _definitions(ast.parse("".join(lines))):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = re.findall(r"\w+", "".join(lines[node.lineno - 1:node.end_lineno]))
            if words[node.name] == own.count(node.name):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_gluing_sites_are_validated_only_by_gluing():
    # Gluing.__init__ is the one entry point to site validation
    naming = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                    if re.search(r"\bgluing_violations\b", path.read_text()))
    assert naming == ["gluing.py"]


def test_private_names_shared_across_modules_stay_known():
    # a private name imported by another module is a decision two modules
    # share; these are the known ones, and a new one should be made public
    # or kept inside one module
    shared = {alias.name
              for path in PACKAGE_DIR.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ImportFrom) and node.level
              for alias in node.names if alias.name.startswith("_")}
    assert shared <= {"_OPPOSITE_MARK", "_respect_parts", "_respects",
                      "_region", "_wedge_region",
                      "_welded_dividing_set", "_Draft"}
