"""The package's public surface."""

import importlib
import importlib.util
from pathlib import Path

import weylkit


def test_all_names_resolve_without_duplicates():
    assert len(weylkit.__all__) == len(set(weylkit.__all__))
    missing = [name for name in weylkit.__all__ if not hasattr(weylkit, name)]
    assert missing == []


def test_bench_tracer_targets_resolve():
    """Every function the benchmark's span tracer wraps still exists."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("weylkit_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for span, owner, attr in tracer.TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            found = attr in vars(getattr(module, class_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(span)
    assert missing == []
