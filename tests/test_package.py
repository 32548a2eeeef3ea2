"""The package's public surface."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import weylkit

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("weylkit_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_all_names_resolve_without_duplicates():
    assert len(weylkit.__all__) == len(set(weylkit.__all__))
    missing = [name for name in weylkit.__all__ if not hasattr(weylkit, name)]
    assert missing == []


def test_bench_tracer_targets_resolve():
    """Every function the benchmark's span tracer wraps still exists."""
    missing = []
    for span, owner, attr in load_tracer().TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            found = attr in vars(getattr(module, class_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(span)
    assert missing == []


def test_every_export_has_a_use_outside_the_tests():
    """An exported name is used by package code, wrapped by the benchmark's
    tracer, or documented in README's Library section; names only tests call
    do not belong in the package."""
    used = set()
    for path in Path(weylkit.__file__).resolve().parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = {attr for _, _, attr in load_tracer().TARGETS}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", library))
    unused = [name for name in weylkit.__all__ if name not in used | traced | documented]
    assert unused == []


def test_element_coefficients_are_divided_only_by_the_exact_quotient():
    """Python's ``/`` on two ints is a float, and every exact value the
    package stores (ring coefficients, matrix entries, structure constants,
    character values, points) is an int when integral, so every module
    divides them through ``base._exact_quotient`` alone, and only ``base``
    names ``Fraction``."""
    package = Path(weylkit.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        name = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if name != "base":
            found += [
                f"{name}.py:{node.lineno} imports fractions"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
            ]
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_exact_quotient":
                allowed.update(map(id, ast.walk(node)))
        found += [
            f"{name}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
            and id(node) not in allowed
        ]
    assert found == []
