"""Scenario files: declarative descriptions of verification runs.

A scenario is a JSON document naming an ambient coordinate count, tables of
named ideals, delta-module sections, polynomials, matrix subalgebras with
characters, orbit charts, points and matrices, and a list of checks.
Expression fields use the operator grammar verbatim; occurrences of ``{...}``
inside them are integer templates filled in from the active parameter scope
(for example a ``foreach`` parameter l), so one ideal definition covers a
whole parameter family.

Loading validates every table entry by resolving it under each binding that
the run's lookup gives the checks' references to it, or, for an entry no
check reads, under the values the checks' ``foreach`` lists give.  What load
builds stays cached, so the checks read it at run time without parsing again.
"""

from __future__ import annotations

import ast
import json
import operator
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from itertools import product
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .deltamod import DeltaModule, DeltaSection, section_from_operator
from .groebner import LeftIdeal
from .lie import (
    Character,
    LieSubalgebra,
    character_from_values,
    conjugate_subalgebra,
    parse_matrix_expr,
    rho,
)
from .parser import MAX_AMBIENT, parse_expression, parse_polynomial, read_arithmetic
from .poly import Poly
from .weyl import WeylElement

BUILTIN_SCENARIOS = ("paper-n2", "paper-n3")

PROVENANCE_TAGS = ("PAPER", "DERIVED", "TRIVIAL")


class ScenarioError(ValueError):
    """A scenario file that does not meet the schema or fails to resolve."""


# -- Integer template expressions --------------------------------------------

_INT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def eval_int_expr(text: str, scope: Mapping[str, int] | None = None) -> int:
    """Evaluate an integer expression over + - * max(,) and scope variables."""
    scope = scope or {}
    values: list[int] = []
    for node in read_arithmetic(text, ScenarioError):
        if isinstance(node, ast.Constant):
            values.append(node.value)
        elif isinstance(node, ast.Name):
            if node.id not in scope:
                raise ScenarioError(f"unknown variable {node.id!r} in integer expression {text!r}")
            values.append(int(scope[node.id]))
        elif isinstance(node, ast.UnaryOp):
            values[-1] *= -1 if isinstance(node.op, ast.USub) else 1
        else:
            right = values.pop()
            combine = max if isinstance(node, ast.Call) else _INT_OPS[type(node.op)]
            values[-1] = combine(values[-1], right)
    return values[0]


_TEMPLATE = re.compile(r"\{([^{}]*)\}")


def _int_vars(text: str) -> set[str]:
    """Scope variables referenced by an integer expression."""
    return {node.id for node in read_arithmetic(text, ScenarioError) if isinstance(node, ast.Name)}


def template_vars(text: str) -> frozenset[str]:
    """Scope variables referenced by ``{...}`` groups of a template string."""
    return frozenset().union(*map(_int_vars, _TEMPLATE.findall(text)))


def substitute(text: str, scope: Mapping[str, int] | None = None) -> str:
    """Replace every ``{expr}`` group by its integer value under ``scope``."""
    out = _TEMPLATE.sub(lambda m: str(eval_int_expr(m.group(1), scope)), text)
    if "{" in out or "}" in out:
        raise ScenarioError(f"unbalanced braces in template {text!r}")
    return out


# -- Schema ------------------------------------------------------------------

# Fields each check kind resolves, by type.  Load-time validation checks each
# field against its type, and ``Scenario.fields`` resolves them in this order
# for the runner's handler, which takes them by field name.
CHECK_SCHEMAS: dict[str, dict[str, str]] = {
    "annihilates": {"ideal": "ideal", "section": "section"},
    "sections_agree": {"sections": "section_list"},
    "certify_annihilator": {"ideal": "ideal", "section": "section"},
    "fourier_transport": {"ideal": "ideal", "section": "section", "polynomial": "polynomial"},
    "membership": {"ideal": "ideal", "element": "expression"},
    "ideal_contains": {"outer": "ideal", "inner": "ideal"},
    "module_multiply": {"ideal": "ideal", "factor": "expression", "inside": "ideal"},
    "unit_ideal": {"ideal": "ideal"},
    "simplicity": {"ideal": "ideal"},
    "interpolation": {"targets": "target_list", "lmax": "int", "ideal": "ideal_family"},
    "is_subalgebra": {"algebra": "algebra"},
    "character_valid": {"character": "character"},
    "twisted_containment": {"algebra": "algebra", "character": "character", "ideal": "ideal"},
    "twisted_generates": {"algebra": "algebra", "character": "character", "ideal": "ideal"},
    "kernel_element": {"terms": "kernel_terms"},
    "variety_stable": {"algebra": "algebra", "chart": "chart"},
    "tangent_rank": {"algebra": "algebra", "point": "point"},
}

# The ``expect`` a check kind reads: its JSON type, its value when omitted
# (None: required) and how messages describe it.  Kinds not listed read no
# ``expect`` and refuse one.
_BOOL_EXPECT = (bool, True, "a JSON boolean")
EXPECT_TYPES: dict[str, tuple[type, Any, str]] = {
    "membership": _BOOL_EXPECT,
    "ideal_contains": _BOOL_EXPECT,
    "unit_ideal": _BOOL_EXPECT,
    "is_subalgebra": _BOOL_EXPECT,
    "character_valid": _BOOL_EXPECT,
    "kernel_element": _BOOL_EXPECT,
    "variety_stable": _BOOL_EXPECT,
    "tangent_rank": (int, None, "an integer"),
    "simplicity": (
        dict,
        {"verdict": "holonomic", "simple": "yes"},
        "an object with some of dimension, multiplicity (integers), verdict and simple (strings)",
    ),
}
_CERTIFICATE_FIELDS = {"dimension": int, "multiplicity": int, "verdict": str, "simple": str}

# The scenario tables, keyed by the Scenario method that resolves one entry.
# A check field whose type is one of these keys names an entry of that table.
# Load resolves the tables in this order.
_TABLES = {
    "ideal": "ideals",
    "section": "sections",
    "polynomial": "polynomials",
    "algebra": "subalgebras",
    "character": "characters",
    "chart": "charts",
    "point": "points",
    "matrix": "matrices",
}

_CHECK_META = {"id", "kind", "provenance", "anchor", "expect", "foreach", "note"}


def _label(kind: str, name: str) -> str:
    """How messages name a table entry: ``ideal 'I1l'``, ``subalgebra 'h1'``."""
    return f"{'subalgebra' if kind == 'algebra' else kind} {name!r}"


@dataclass(frozen=True)
class CheckSpec:
    """One declared check, possibly expanding into several instances."""

    id: str
    kind: str
    provenance: str
    anchor: str | None
    expect: Any
    params: Mapping[str, Any]
    foreach: Mapping[str, tuple[int, ...]]
    note: str | None

    def instances(self) -> list[tuple[str, dict[str, int]]]:
        """(instance id, scope) pairs in declaration order."""
        if not self.foreach:
            return [(self.id, {})]
        keys = sorted(self.foreach)
        out = []
        for combo in product(*(self.foreach[k] for k in keys)):
            scope = dict(zip(keys, combo))
            suffix = ",".join(f"{k}={scope[k]}" for k in keys)
            out.append((f"{self.id}[{suffix}]", scope))
        return out


class Scenario:
    """A scenario whose table entries are resolved, and cached, at load."""

    def __init__(self, raw: Mapping[str, Any], source: str = "<memory>"):
        self.raw = raw
        self.source = source
        self._validate_shape()
        self.name: str = raw["name"]
        self.ambient: int = raw["ambient"]
        support = raw.get("delta_module", [])
        self.delta_module = DeltaModule(self.ambient, frozenset(support))
        self.checks: list[CheckSpec] = [self._check_spec(c) for c in raw.get("checks", [])]
        # Shape-checked entries with the scope variables they use, by (kind,
        # name); resolved objects by (kind, name, binding of those variables).
        self._entries: dict[tuple[str, str], tuple[Any, frozenset[str]]] = {}
        self._cache: dict[tuple, Any] = {}
        self._validate_references()
        # Validating an entry is resolving it: under each binding with which
        # the run's lookup reads it, or under _sample_scopes when no check
        # reads it.  What load builds stays cached for the run.
        read: set[tuple] = set()
        for check in self.checks:
            for _, scope in check.instances():
                for kind, ref, outer in self._references(check, scope):
                    try:
                        read.add(self._lookup(kind, ref, outer)[0])
                    except ScenarioError:
                        pass  # left for the check's error record
        for kind, table in _TABLES.items():
            for name in raw.get(table, {}):
                bindings = [dict(b) for k, n, b in sorted(read) if (k, n) == (kind, name)]
                for scope in bindings or self._sample_scopes(self._entry(kind, name)[1]):
                    getattr(self, kind)(name, scope)

    # -- construction and validation --

    def _validate_shape(self) -> None:
        raw = self.raw
        if not isinstance(raw, dict):
            raise ScenarioError(f"{self.source}: scenario must be a JSON object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"{self.source}: missing scenario name")
        ambient = raw.get("ambient")
        # JSON true and false are Python bools, which isinstance counts as int.
        if type(ambient) is not int or not 1 <= ambient <= MAX_AMBIENT:
            raise ScenarioError(f"{name}: ambient must be a positive integer up to {MAX_AMBIENT}")
        support = raw.get("delta_module", [])
        if not isinstance(support, list) or not all(
            type(i) is int and 1 <= i <= ambient for i in support
        ):
            raise ScenarioError(f"{name}: delta_module must list indices in 1..{ambient}")
        for table in _TABLES.values():
            if not isinstance(raw.get(table, {}), dict):
                raise ScenarioError(f"{name}: {table} must be an object of named entries")
        if not isinstance(raw.get("checks", []), list):
            raise ScenarioError(f"{name}: checks must be a list of check objects")

    def _check_spec(self, raw: Any) -> CheckSpec:
        if not isinstance(raw, dict):
            raise ScenarioError(f"{self.name}: each check must be an object")
        cid = raw.get("id")
        kind = raw.get("kind")
        if not isinstance(cid, str) or not cid:
            raise ScenarioError(f"{self.name}: check without an id")
        if not isinstance(kind, str) or kind not in CHECK_SCHEMAS:
            raise ScenarioError(f"{self.name}: check {cid!r} has unknown kind {kind!r}")
        provenance = raw.get("provenance")
        if provenance not in PROVENANCE_TAGS:
            raise ScenarioError(
                f"{self.name}: check {cid!r} needs a provenance tag from {PROVENANCE_TAGS}"
            )
        anchor, note = raw.get("anchor"), raw.get("note")
        for field, text in (("anchor", anchor), ("note", note)):
            if text is not None and not isinstance(text, str):
                raise ScenarioError(f"{self.name}: check {cid!r} {field} must be a string")
        if provenance == "PAPER" and not anchor:
            raise ScenarioError(f"{self.name}: check {cid!r} is PAPER-tagged but has no anchor")
        foreach_raw = raw.get("foreach", {})
        if not isinstance(foreach_raw, dict):
            raise ScenarioError(
                f"{self.name}: check {cid!r} foreach must map parameter names to lists"
            )
        foreach: dict[str, tuple[int, ...]] = {}
        for key, values in foreach_raw.items():
            # An empty list would expand the check into no records at all.
            if not isinstance(values, list) or not values or not all(
                type(v) is int for v in values
            ):
                raise ScenarioError(
                    f"{self.name}: check {cid!r} foreach {key!r} must list at least one integer"
                )
            if len(set(values)) != len(values):
                raise ScenarioError(f"{self.name}: check {cid!r} foreach {key!r} repeats a value")
            for value in values:
                self._checked(f"check {cid!r} foreach", {key: value})
            foreach[key] = tuple(values)
        params = {k: v for k, v in raw.items() if k not in _CHECK_META}
        return CheckSpec(
            id=cid,
            kind=kind,
            provenance=provenance,
            anchor=anchor,
            expect=self._expect(cid, kind, raw),
            params=params,
            foreach=foreach,
            note=note,
        )

    def _expect(self, cid: str, kind: str, raw: Mapping[str, Any]) -> Any:
        """The check's ``expect``, of the type ``EXPECT_TYPES`` gives, or its default."""
        where = f"{self.name}: check {cid!r} expect"
        if kind not in EXPECT_TYPES:
            if "expect" in raw:
                raise ScenarioError(f"{where}: kind {kind!r} reads no expect")
            return None
        want, default, description = EXPECT_TYPES[kind]
        if "expect" not in raw:
            if default is None:
                raise ScenarioError(f"{where} is required for kind {kind!r}")
            return default
        value = raw["expect"]
        # type(), not isinstance(): a JSON true is no integer here.
        if type(value) is not want or want is dict and not (
            value and all(type(v) is _CERTIFICATE_FIELDS.get(k) for k, v in value.items())
        ):
            raise ScenarioError(f"{where} must be {description}")
        return value

    def _validate_references(self) -> None:
        # One report record per instance id: a check "c[l=1]" collides with
        # a check "c" whose foreach gives l the value 1.
        for what, ids in (
            ("check ids", [c.id for c in self.checks]),
            ("check instance ids", [i for c in self.checks for i, _ in c.instances()]),
        ):
            dup = sorted(i for i, n in Counter(ids).items() if n > 1)
            if dup:
                raise ScenarioError(f"{self.name}: duplicate {what} {dup}")
        for check in self.checks:
            for field, ftype in CHECK_SCHEMAS[check.kind].items():
                if field not in check.params:
                    raise ScenarioError(
                        f"{self.name}: check {check.id!r} is missing field {field!r}"
                    )
                self._validate_ref(check, field, check.params[field], ftype)

    def _validate_ref(self, check: CheckSpec, field: str, value: Any, ftype: str) -> None:
        def fail(message: str) -> ScenarioError:
            return ScenarioError(f"{self.name}: check {check.id!r}, field {field!r}: {message}")

        if ftype in _TABLES:
            name = value.get("name") if isinstance(value, dict) else value
            if not isinstance(name, str):
                raise fail("reference must be a name or an object with a name")
            if name not in self.raw.get(_TABLES[ftype], {}):
                raise fail(f"unresolved name: no {ftype} called {name!r}")
            for key, bound in value.items() if isinstance(value, dict) else ():
                if key == "name" or type(bound) is int:
                    continue
                if not isinstance(bound, str):
                    raise fail(f"binding {key!r} must be an integer or an integer expression")
                with self._naming(f"check {check.id!r}, field {field!r}: binding {key!r}", {}):
                    read_arithmetic(bound, ValueError)
        elif ftype == "ideal_family":
            self._validate_ref(check, field, value, "ideal")
        elif ftype == "section_list":
            if not isinstance(value, list) or len(value) < 2:
                raise fail("needs a list of at least two sections")
            for entry in value:
                self._validate_ref(check, field, entry, "section")
        elif ftype == "target_list":
            if not isinstance(value, list) or not value:
                raise fail("needs a non-empty list of {level, element} targets")
            for entry in value:
                if not isinstance(entry, dict) or "level" not in entry or "element" not in entry:
                    raise fail("each target needs level and element")
                if type(entry["level"]) is not int:
                    raise fail("target level must be an integer")
                if not isinstance(entry["element"], str):
                    raise fail("target element must be an expression string")
        elif ftype == "int":
            if type(value) is not int:
                raise fail("must be an integer")
        elif ftype == "expression":
            if not isinstance(value, str):
                raise fail("must be an expression string")
        elif ftype == "kernel_terms":
            if not isinstance(value, list) or not value:
                raise fail("needs a non-empty list of {coeff, factors} terms")
            for entry in value:
                if not isinstance(entry, dict) or "factors" not in entry:
                    raise fail("each term needs a factors list")
                if not isinstance(entry["factors"], list) or not all(
                    isinstance(factor, str) for factor in entry["factors"]
                ):
                    raise fail("factors must be a list of matrix expressions")
                if type(entry.get("coeff", 1)) is not int:
                    raise fail("coeff must be an integer")

    def _references(self, check: CheckSpec, scope: Mapping[str, int]) -> Iterator[tuple]:
        """(kind, reference, scope) for each table entry the check reads under
        ``scope``: a section list reads each of its sections, an ideal family
        its ideal at each target level."""
        for field, ftype in CHECK_SCHEMAS[check.kind].items():
            value = check.params[field]
            if ftype == "section_list":
                yield from (("section", ref, scope) for ref in value)
            elif ftype == "ideal_family":
                for target in check.params["targets"]:
                    yield "ideal", value, {**scope, "l": target["level"]}
            elif ftype in _TABLES:
                yield ftype, value, scope

    def _sample_scopes(self, names: frozenset[str]) -> list[dict[str, int]]:
        """Scopes under which load resolves an entry that uses ``names`` and
        that no check reads: each name takes the values the checks'
        ``foreach`` give it, or 0 and 1."""
        keys = sorted(names)
        pools = [
            sorted({v for check in self.checks for v in check.foreach.get(k, ())}) or [0, 1]
            for k in keys
        ]
        return [dict(zip(keys, combo)) for combo in product(*pools)]

    def _entry(self, kind: str, name: str) -> tuple[Any, frozenset[str]]:
        """A table entry, shape-checked, and the scope variables it uses.

        Both are worked out once, on the entry's first lookup, which load
        makes for every entry.  Operator and polynomial texts carry ``{...}``
        templates; character values and point coordinates are integer
        expressions.
        """
        if (kind, name) in self._entries:
            return self._entries[kind, name]
        table = self.raw.get(_TABLES[kind], {})
        if name not in table:
            raise ScenarioError(f"{self.name}: no {_TABLES[kind]} entry called {name!r}")
        spec = table[name]
        label = _label(kind, name)
        where = f"{self.name}: {label}"
        texts, scan = [], template_vars
        if kind in ("section", "polynomial"):
            texts = [spec]
        elif kind == "ideal":
            texts = spec.get("generators") if isinstance(spec, dict) else None
            if not isinstance(texts, list) or not texts:
                raise ScenarioError(f"{where} needs a generator list")
        elif kind == "chart":
            texts = spec.get("equations", []) if isinstance(spec, dict) else None
            if not isinstance(texts, list):
                raise ScenarioError(f"{where} must be an object with equation lists")
        elif kind == "character":
            if not isinstance(spec, dict):
                raise ScenarioError(f"{where} must be an object")
            algebra = spec.get("algebra")
            if not isinstance(algebra, str) or algebra not in self.raw.get("subalgebras", {}):
                raise ScenarioError(f"{where} references unknown subalgebra")
            values = spec.get("values")
            if not isinstance(values, list) or len(values) != self.algebra(algebra).dimension:
                raise ScenarioError(f"{where} needs one value per basis element")
            texts, scan = [str(v) for v in values], _int_vars
        elif kind == "point":
            if not isinstance(spec, list) or len(spec) != self.ambient:
                raise ScenarioError(f"{where} needs {self.ambient} coordinates")
            texts, scan = [str(c) for c in spec], _int_vars
        elif kind == "algebra":
            # A basis of matrix expressions, or the conjugate of another
            # subalgebra by a named matrix, with no cycle of conjugates.
            if not isinstance(spec, dict):
                raise ScenarioError(f"{where} must be an object")
            if "conjugate_of" not in spec:
                if not isinstance(spec.get("basis"), list) or not all(
                    isinstance(text, str) for text in spec["basis"]
                ):
                    raise ScenarioError(f"{where} needs a basis list or conjugate_of")
            elif not isinstance(spec["conjugate_of"], str) or spec["conjugate_of"] not in table:
                raise ScenarioError(f"{where} is conjugate_of an unknown subalgebra")
            elif not isinstance(spec.get("by"), str):
                raise ScenarioError(f"{where} needs a 'by' matrix for conjugate_of")
            chain = [name]
            while isinstance(table.get(chain[-1]), dict) and isinstance(
                table[chain[-1]].get("conjugate_of"), str
            ):
                chain.append(table[chain[-1]]["conjugate_of"])
                if chain[-1] in chain[:-1]:
                    raise ScenarioError(f"{where} has a conjugate_of cycle " + " -> ".join(chain))
        else:
            size = self.ambient
            if not isinstance(spec, list) or len(spec) != size or not all(
                isinstance(row, list) and len(row) == size and all(type(e) is int for e in row)
                for row in spec
            ):
                raise ScenarioError(f"{where} must be a {size}x{size} list of integer rows")
        if not all(isinstance(text, str) for text in texts):
            raise ScenarioError(f"{where}: expression must be a string")
        with self._naming(label, {}):
            used = frozenset().union(*map(scan, texts))
        self._entries[kind, name] = spec, used
        return spec, used

    @contextmanager
    def _naming(self, label: str, scope: Mapping[str, int]) -> Iterator[None]:
        """Re-raise a ValueError as a ScenarioError naming the scenario, the
        object and the binding: ``paper-n2: ideal 'I1l' (l=-1): ...``."""
        try:
            yield
        except ValueError as exc:
            raise ScenarioError(f"{self._where(label, scope)}: {exc}") from exc

    def _where(self, label: str, scope: Mapping[str, int]) -> str:
        binding = ", ".join(f"{k}={v}" for k, v in sorted(scope.items()))
        return f"{self.name}: {label} ({binding})" if binding else f"{self.name}: {label}"

    def _checked(self, label: str, scope: Mapping[str, int]) -> Mapping[str, int]:
        """Refuse a negative l: the paper's families are indexed by l = 0, 1, 2, ...

        Other parameters stay signed (paper-n2 binds c = -3).
        """
        if scope.get("l", 0) < 0:
            raise ScenarioError(f"{self._where(label, scope)}: parameter l must be nonnegative")
        return scope

    # -- resolution --

    def fields(self, check: CheckSpec, scope: Mapping[str, int]) -> dict[str, Any]:
        """The check's schema fields resolved under ``scope``, in schema order."""
        return {
            field: self._resolve(ftype, check.params[field], scope)
            for field, ftype in CHECK_SCHEMAS[check.kind].items()
        }

    def _resolve(self, ftype: str, value: Any, scope: Mapping[str, int]) -> Any:
        # Resolvers are looked up on the instance on every call, so a wrapper
        # installed on the class (bench/tracer.py) sees each resolution.
        if ftype in _TABLES or ftype == "expression":
            return getattr(self, ftype)(value, scope)
        if ftype == "section_list":
            return [self.section(ref, scope) for ref in value]
        if ftype == "ideal_family":
            return lambda level: self.ideal(value, {**scope, "l": level})
        if ftype == "target_list":
            return [(t["level"], self.expression(t["element"], scope)) for t in value]
        if ftype == "kernel_terms":
            return self._kernel_operator(value)
        return value

    def _kernel_operator(self, terms: Sequence[Mapping[str, Any]]) -> WeylElement:
        """Sum over the terms of coeff * rho(A_1) ... rho(A_k) (coeff defaults to 1)."""
        total = WeylElement.zero(self.ambient)
        for term in terms:
            product = WeylElement.constant(term.get("coeff", 1), self.ambient)
            for factor in term["factors"]:
                product = product * rho(parse_matrix_expr(factor, self.ambient))
            total = total + product
        return total

    def _lookup(
        self, kind: str, ref: Any, scope: Mapping[str, int] | None
    ) -> tuple[tuple, str, Any, dict[str, int]]:
        """Cache key, label and entry of a reference, with the scope restricted
        to the variables the entry uses; each of them must be bound.  A
        reference is a name, or an object binding extra scope variables."""
        name = ref.get("name") if isinstance(ref, dict) else ref
        if not isinstance(name, str):
            raise ScenarioError(f"{self.name}: malformed reference {ref!r}")
        bound = dict(scope or {})
        for key, value in ref.items() if isinstance(ref, dict) else ():
            if key != "name":
                bound[key] = value if type(value) is int else eval_int_expr(str(value), scope)
        label = _label(kind, name)
        self._checked(label, bound)
        spec, used = self._entry(kind, name)
        missing = sorted(used - set(bound))
        if missing:
            raise ScenarioError(
                f"{self.name}: {label} needs parameter(s) {missing} (pass e.g. --l)"
            )
        effective = {k: bound[k] for k in sorted(used)}
        return (kind, name, tuple(effective.items())), label, spec, effective

    def ideal(self, ref: Any, scope: Mapping[str, int] | None = None) -> LeftIdeal:
        key, label, spec, scope = self._lookup("ideal", ref, scope)
        if key not in self._cache:
            generators = spec["generators"]
            with self._naming(label, scope):
                self._cache[key] = LeftIdeal(
                    [parse_expression(substitute(t, scope), self.ambient) for t in generators]
                )
        return self._cache[key]

    def section(self, ref: Any, scope: Mapping[str, int] | None = None) -> DeltaSection:
        key, label, text, scope = self._lookup("section", ref, scope)
        if key not in self._cache:
            with self._naming(label, scope):
                operator = parse_expression(substitute(text, scope), self.ambient)
                self._cache[key] = section_from_operator(self.delta_module, operator)
        return self._cache[key]

    def polynomial(self, ref: Any, scope: Mapping[str, int] | None = None) -> Poly:
        key, label, text, scope = self._lookup("polynomial", ref, scope)
        if key not in self._cache:
            with self._naming(label, scope):
                self._cache[key] = parse_polynomial(substitute(text, scope), self.ambient)
        return self._cache[key]

    def matrix(
        self, ref: Any, scope: Mapping[str, int] | None = None
    ) -> tuple[tuple[int, ...], ...]:
        key, _, rows, _ = self._lookup("matrix", ref, scope)
        if key not in self._cache:
            self._cache[key] = tuple(map(tuple, rows))
        return self._cache[key]

    def algebra(self, ref: Any, scope: Mapping[str, int] | None = None) -> LieSubalgebra:
        """Subalgebra bases take no parameters: the reference's binding is
        checked like any other, then only its name counts."""
        key, label, spec, _ = self._lookup("algebra", ref, scope)
        if key not in self._cache:
            if "conjugate_of" in spec:
                base, conjugator = self.algebra(spec["conjugate_of"]), self.matrix(spec["by"])
                with self._naming(label, {}):
                    self._cache[key] = conjugate_subalgebra(conjugator, base)
            else:
                with self._naming(label, {}):
                    basis = [parse_matrix_expr(text, self.ambient) for text in spec["basis"]]
                    self._cache[key] = LieSubalgebra(self.ambient, basis)
        return self._cache[key]

    def character(self, ref: Any, scope: Mapping[str, int] | None = None) -> Character:
        key, label, spec, scope = self._lookup("character", ref, scope)
        if key not in self._cache:
            algebra = self.algebra(spec["algebra"])
            with self._naming(label, scope):
                values = [eval_int_expr(str(v), scope) for v in spec["values"]]
                self._cache[key] = character_from_values(algebra, values)
        return self._cache[key]

    def chart(self, ref: Any, scope: Mapping[str, int] | None = None) -> tuple[Poly, ...]:
        """The chart's equations; other keys of the entry are ignored."""
        key, label, spec, scope = self._lookup("chart", ref, scope)
        if key not in self._cache:
            with self._naming(label, scope):
                self._cache[key] = tuple(
                    parse_polynomial(substitute(t, scope), self.ambient)
                    for t in spec.get("equations", [])
                )
        return self._cache[key]

    def point(self, ref: Any, scope: Mapping[str, int] | None = None) -> tuple[int, ...]:
        key, label, coords, scope = self._lookup("point", ref, scope)
        if key not in self._cache:
            with self._naming(label, scope):
                self._cache[key] = tuple(eval_int_expr(str(c), scope) for c in coords)
        return self._cache[key]

    def expression(self, text: str, scope: Mapping[str, int] | None = None):
        label = f"expression {text!r}"
        scope = self._checked(label, scope or {})
        with self._naming(label, scope):
            return parse_expression(substitute(text, scope), self.ambient)


def load_scenario(ref: str | Path) -> Scenario:
    """Load a builtin scenario by name or any scenario from a JSON path."""
    if isinstance(ref, str) and ref in BUILTIN_SCENARIOS:
        resource = resources.files("weylkit").joinpath("data", f"{ref}.json")
        payload = resource.read_text(encoding="utf-8")
        text_source = f"builtin {ref}"
    else:
        path = Path(ref)
        if not path.exists():
            raise ScenarioError(
                f"no such scenario: {ref!r} is neither a builtin "
                f"({', '.join(BUILTIN_SCENARIOS)}) nor a file"
            )
        payload = path.read_text(encoding="utf-8")
        text_source = str(path)
    try:
        raw = json.loads(payload)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise ScenarioError(f"{text_source}: parse error at {where}: {exc.msg}") from exc
    except ValueError:  # JSONDecodeError's base: an integer of too many digits
        raise ScenarioError(f"{text_source}: a number has more digits than Python reads") from None
    except RecursionError:
        raise ScenarioError(f"{text_source}: arrays or objects nested too deeply to read") from None
    return Scenario(raw, source=text_source)
