"""Span tracer that wraps weylkit's public functions from outside the package.

A traced pass rebinds each target below to a wrapper that records one span
per call: span name, start and end (``perf_counter_ns``), parent span and the
id of the benchmark operation that was running.  Spans stay in column arrays
in memory until the pass ends.  Nothing under ``src/`` is edited; the
wrappers are installed on the imported modules and classes and removed again
by ``restore``.

Most weylkit modules import functions by name (``runner`` binds
``certify_annihilator``, ``lie`` binds ``mat_mul``/``rref``/``in_span``/
``solve``), so a module-level function is rebound under every attribute of
every ``weylkit`` module that refers to it.  Methods are patched on the class
that defines them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, owner, attribute).  An owner "pkg.module" names a module-level
# function; "pkg.module:Class" names a method defined on that class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("groebner.buchberger", "weylkit.groebner", "buchberger"),
    ("groebner.reduce_element", "weylkit.groebner", "reduce_element"),
    ("weyl.mul", "weylkit.base:SparseElement", "__mul__"),
    ("weyl.partial_fourier", "weylkit.weyl", "partial_fourier"),
    ("orders.key", "weylkit.orders:TermOrder", "key"),
    ("charvar.simplicity_certificate", "weylkit.charvar", "simplicity_certificate"),
    ("charvar.graded_ideal", "weylkit.charvar", "graded_ideal"),
    ("charvar.multiplicity", "weylkit.charvar", "multiplicity"),
    ("charvar.krull_dimension", "weylkit.charvar", "krull_dimension"),
    ("lie.subalgebra_init", "weylkit.lie:LieSubalgebra", "__init__"),
    ("lie.bracket_defect", "weylkit.lie:LieSubalgebra", "bracket_defect"),
    ("lie.vanishes_on_brackets", "weylkit.lie:Character", "vanishes_on_brackets"),
    ("lie.conjugate_subalgebra", "weylkit.lie", "conjugate_subalgebra"),
    ("lie.rho", "weylkit.lie", "rho"),
    ("lie.twisted_generators", "weylkit.lie", "twisted_generators"),
    ("lie.apply_vector_field", "weylkit.lie", "apply_vector_field"),
    ("lie.tangent_rank_at", "weylkit.lie", "tangent_rank_at"),
    ("linalg.mat_mul", "weylkit.linalg", "mat_mul"),
    ("linalg.rref", "weylkit.linalg", "rref"),
    ("linalg.solve", "weylkit.linalg", "solve"),
    ("deltamod.act", "weylkit.deltamod", "act"),
    ("deltamod.certify_annihilator", "weylkit.deltamod", "certify_annihilator"),
    ("parser.parse_expression", "weylkit.parser", "parse_expression"),
    ("scenario.load_scenario", "weylkit.scenario", "load_scenario"),
    ("runner.run_scenario", "weylkit.runner", "run_scenario"),
) + tuple(
    ("scenario.resolve", "weylkit.scenario:Scenario", method)
    for method in (
        "ideal", "section", "polynomial", "matrix", "algebra",
        "character", "chart", "point", "expression",
    )
)

SETUP_OP = 0

# Span names whose inclusive time is reported as ``<name>.total_s``.
TOTALS = (
    "groebner.buchberger",
    "lie.bracket_defect",
    "lie.vanishes_on_brackets",
    "deltamod.certify_annihilator",
    "scenario.load_scenario",
)

COUNTERS = (
    "groebner.buchberger.pairs",
    "groebner.buchberger.zero_reductions",
    "groebner.basis_elements",
    "runner.error_records",
)


def _count_basis(tracer: "Tracer", basis) -> None:
    tracer.add("groebner.buchberger.pairs", basis.pairs_processed)
    tracer.add("groebner.buchberger.zero_reductions", basis.reductions_to_zero)
    tracer.add("groebner.basis_elements", len(basis.elements))


def _count_errors(tracer: "Tracer", report) -> None:
    tracer.add("runner.error_records", report["summary"]["error"])


# Counters read from public return values, keyed by span name.
RETURN_HOOKS = {
    "groebner.buchberger": _count_basis,
    "runner.run_scenario": _count_errors,
}


def _weylkit_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "weylkit" or name.startswith("weylkit."))
    ]


class Tracer:
    """Records spans around weylkit calls while installed and enabled."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.op_id = SETUP_OP
        self.enabled = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrappers: list = []

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (used while generating inputs)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("weylkit")
        modules = _weylkit_modules()
        for span, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(span, original))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, span: str, fn):
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        hook = RETURN_HOOKS.get(span)
        tracer = self
        stack = self._stack
        names, starts, ends, parents, ops = (
            self.span_name, self.start, self.end, self.parent, self.op
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        self.wrappers.append(wrapper)
        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover.

        Calls are synchronous and single-threaded, so child spans are
        disjoint intervals inside their parent.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[sid]
        return own

    def _outermost(self, sid: int) -> bool:
        """Whether no ancestor span has the same name (so totals count once)."""
        name = self.span_name[sid]
        parent = self.parent[sid]
        while parent >= 0:
            if self.span_name[parent] == name:
                return False
            parent = self.parent[parent]
        return True

    def summary(self, timed_wall_s: float) -> dict[str, float]:
        """Per-name calls and self seconds, totals, counters and layer shares.

        A layer is the span-name prefix before the first dot.  Total seconds
        are reported for the names in ``TOTALS`` only and count outermost
        spans, so recursion is not counted twice.  ``timed_wall_s`` is the
        wall time of the pass's timed section; each ``timed.*_share`` divides
        the self time of spans in the timed operations (op id > 0) by it.
        """
        own = self.self_times()
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0
        layer_timed_ns: dict[str, int] = {}
        for sid, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own[sid]
            if self.op[sid] != SETUP_OP:
                layer = name.split(".", 1)[0]
                layer_timed_ns[layer] = layer_timed_ns.get(layer, 0) + own[sid]
        for name in TOTALS:
            out[f"{name}.total_s"] = 0
        total_ids = {self._name_ids[name]: name for name in TOTALS if name in self._name_ids}
        for sid, name_id in enumerate(self.span_name):
            if name_id in total_ids and self._outermost(sid):
                out[f"{total_ids[name_id]}.total_s"] += self.end[sid] - self.start[sid]
        for key, value in list(out.items()):
            if key.endswith("_s"):
                out[key] = value / 1e9
        for name in self.names:
            layer = f"{name.split('.', 1)[0]}.self_s"
            out[layer] = out.get(layer, 0.0) + out[f"{name}.self_s"]
        for counter in COUNTERS:
            out[counter] = self.counters.get(counter, 0)
        pairs = out["groebner.buchberger.pairs"]
        zeros = out["groebner.buchberger.zero_reductions"]
        out["groebner.buchberger.zero_reduction_ratio"] = zeros / pairs if pairs else 0.0

        def share(*layers: str) -> float:
            return sum(layer_timed_ns.get(layer, 0) for layer in layers) / 1e9 / timed_wall_s

        out["timed.lie_linalg_share"] = share("lie", "linalg")
        out["timed.groebner_weyl_orders_share"] = share("groebner", "weyl", "orders")
        return out

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        payload = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "name": self.span_name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
