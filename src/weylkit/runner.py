"""Execute scenario checks against the engine and assemble reports.

Each check runs in isolation: engine exceptions become per-check ``error``
records instead of aborting the run.  The report's ``checks`` array is sorted
by check id so repeated runs are byte-identical; wall-clock measurements are
kept in a separate top-level ``timing`` block that golden comparisons drop.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Mapping

from . import __version__
from .charvar import simplicity_certificate
from .deltamod import (
    act,
    act_on_polynomial,
    certify_annihilator,
    delta_to_polynomial,
    interpolation_lift,
)
from .groebner import LeftIdeal
from .lie import apply_vector_field, tangent_rank_at
from .scenario import CheckSpec, Scenario
from .weyl import partial_fourier

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
ERROR = "error"

Verdict = tuple[str, dict[str, Any]]


def _verdict_bool(check: CheckSpec, actual: bool, witness: dict[str, Any]) -> Verdict:
    """Pass when ``actual`` equals the check's ``expect``."""
    return (PASS if actual == check.expect else FAIL), {**witness, "expected": check.expect}


def _first_nonzero(items: Iterable, image: Callable) -> tuple[int, Any, Any] | None:
    """(index, item, image) of the first item, counting from 1, whose image is
    nonzero; None when every image vanishes.  Stops at the first failure."""
    for index, item in enumerate(items, start=1):
        value = image(item)
        if not value.is_zero():
            return index, item, value
    return None


def _check_annihilates(check: CheckSpec, ideal, section) -> Verdict:
    failure = _first_nonzero(ideal.generators, lambda g: act(g, section))
    if failure is None:
        return PASS, {"generators": len(ideal.generators)}
    index, generator, image = failure
    return FAIL, {"index": index, "failing_generator": str(generator), "image": str(image)}


def _check_sections_agree(check: CheckSpec, sections) -> Verdict:
    first = sections[0]
    for i, other in enumerate(sections[1:], start=2):
        if other != first:
            return FAIL, {
                "mismatch_index": i,
                "first": str(first),
                "other": str(other),
            }
    return PASS, {"forms": len(sections), "section": str(first)}


def _check_certify_annihilator(check: CheckSpec, ideal, section) -> Verdict:
    cert = certify_annihilator(ideal, section)
    if cert.verified:
        return PASS, {"verified": True, "simplicity": cert.simplicity.describe()}
    witness: dict[str, Any] = {"verified": False, "failing_stage": cert.failing}
    if cert.witness is not None:
        witness["index"] = cert.witness
        witness["failing_generator"] = str(ideal.generators[cert.witness - 1])
    if cert.simplicity is not None:
        witness["simplicity"] = cert.simplicity.describe()
        if cert.simplicity.simple == "undetermined":
            return INCONCLUSIVE, witness
    return FAIL, witness


def _check_fourier_transport(check: CheckSpec, ideal, section, polynomial) -> Verdict:
    """The polynomial must be the section's dictionary image, and the Fourier
    transform on the section's directions of every generator must kill it."""
    image = delta_to_polynomial(section)
    if image != polynomial:
        return FAIL, {"section_image": str(image), "polynomial": str(polynomial)}
    support = section.module.support
    failure = _first_nonzero(
        ideal.generators, lambda g: act_on_polynomial(partial_fourier(g, support), polynomial)
    )
    if failure is None:
        return PASS, {"polynomial": str(polynomial), "generators": len(ideal.generators)}
    index, generator, residue = failure
    return FAIL, {"index": index, "failing_generator": str(generator), "image": str(residue)}


def _check_membership(check: CheckSpec, ideal, element) -> Verdict:
    remainder = ideal.reduce(element)
    contained = remainder.is_zero()
    return _verdict_bool(
        check,
        contained,
        {
            "element": str(element),
            "contained": contained,
            "normal_form": str(remainder),
        },
    )


def _check_ideal_contains(check: CheckSpec, outer, inner) -> Verdict:
    failure = _first_nonzero(inner.generators, outer.reduce)
    if failure is None:
        return _verdict_bool(check, True, {"generators": len(inner.generators)})
    index, generator, remainder = failure
    witness = {"index": index, "failing_generator": str(generator), "normal_form": str(remainder)}
    return _verdict_bool(check, False, witness)


def _check_module_multiply(check: CheckSpec, ideal, factor, inside) -> Verdict:
    # Right multiplication is no left-ideal operation: the products generate
    # the left module I * factor, which lies in ``inside`` iff each of them does.
    products = [g * factor for g in ideal.generators]
    failure = _first_nonzero(products, inside.reduce)
    if failure is None:
        return PASS, {"factor": str(factor), "products": len(products)}
    index, product, remainder = failure
    return FAIL, {
        "index": index,
        "factor": str(factor),
        "product": str(product),
        "normal_form": str(remainder),
    }


def _check_unit_ideal(check: CheckSpec, ideal) -> Verdict:
    return _verdict_bool(check, ideal.is_unit(), {})


def _check_simplicity(check: CheckSpec, ideal) -> Verdict:
    cert = simplicity_certificate(ideal)
    witness: dict[str, Any] = {
        "dimension": cert.dimension,
        "multiplicity": cert.multiplicity,
        "verdict": cert.verdict,
        "simple": cert.simple,
        "summary": cert.describe(),
        "expected": check.expect,
    }
    mismatched = [key for key, value in check.expect.items() if getattr(cert, key) != value]
    if not mismatched:
        return PASS, witness
    witness["mismatched"] = mismatched
    if mismatched == ["simple"] and cert.simple == "undetermined":
        return INCONCLUSIVE, witness
    return FAIL, witness


def _check_interpolation(check: CheckSpec, targets, lmax, ideal) -> Verdict:
    """``ideal`` maps a level to the ideal at that level."""
    lift = interpolation_lift(targets, lmax)
    failure = _first_nonzero(targets, lambda t: ideal(t[0]).reduce(lift - t[1]))
    if failure is None:
        return PASS, {"lift": str(lift), "levels": [level for level, _ in targets]}
    _, (level, element), remainder = failure
    return FAIL, {
        "level": level,
        "target": str(element),
        "normal_form": str(remainder),
        "lift": str(lift),
    }


def _check_is_subalgebra(check: CheckSpec, algebra) -> Verdict:
    defect = algebra.bracket_defect()
    witness: dict[str, Any] = {"dimension": algebra.dimension}
    if defect is not None:
        witness["bracket_defect"] = list(defect)
    return _verdict_bool(check, defect is None, witness)


def _check_character_valid(check: CheckSpec, character) -> Verdict:
    values = [str(v) for v in character.values]
    return _verdict_bool(
        check,
        character.vanishes_on_brackets(),
        {"values": values, "dimension": character.algebra.dimension},
    )


def _check_kernel_element(check: CheckSpec, terms) -> Verdict:
    """``terms`` is the operator sum of coeff * rho(A_1) ... rho(A_k)."""
    rendered = [
        {"coeff": term.get("coeff", 1), "factors": list(term["factors"])}
        for term in check.params["terms"]
    ]
    return _verdict_bool(check, terms.is_zero(), {"image": str(terms), "terms": rendered})


def _check_variety_stable(check: CheckSpec, algebra, chart) -> Verdict:
    equation_ideal = LeftIdeal(list(chart))
    derivatives = (
        (index, equation, apply_vector_field(mat, equation))
        for index, mat in enumerate(algebra.basis, start=1)
        for equation in chart
    )
    failure = _first_nonzero(derivatives, lambda entry: equation_ideal.reduce(entry[2]))
    if failure is None:
        witness = {"equations": len(chart), "fields": algebra.dimension}
        return _verdict_bool(check, True, witness)
    _, (index, equation, derivative), remainder = failure
    return _verdict_bool(
        check,
        False,
        {
            "basis_index": index,
            "equation": str(equation),
            "derivative": str(derivative),
            "normal_form": str(remainder),
        },
    )


def _check_tangent_rank(check: CheckSpec, algebra, point) -> Verdict:
    rank = tangent_rank_at(algebra.basis, point)
    witness = {
        "rank": rank,
        "expected": check.expect,
        "point": [str(c) for c in point],
    }
    return (PASS if rank == check.expect else FAIL), witness


# One handler per check kind.  Each takes the check and, by field name, the
# fields of its CHECK_SCHEMAS entry as ``Scenario.fields`` resolved them.
_HANDLERS: dict[str, Callable[..., Verdict]] = {
    "annihilates": _check_annihilates,
    "sections_agree": _check_sections_agree,
    "certify_annihilator": _check_certify_annihilator,
    "fourier_transport": _check_fourier_transport,
    "membership": _check_membership,
    "ideal_contains": _check_ideal_contains,
    "module_multiply": _check_module_multiply,
    "unit_ideal": _check_unit_ideal,
    "simplicity": _check_simplicity,
    "interpolation": _check_interpolation,
    "is_subalgebra": _check_is_subalgebra,
    "character_valid": _check_character_valid,
    "kernel_element": _check_kernel_element,
    "variety_stable": _check_variety_stable,
    "tangent_rank": _check_tangent_rank,
}


def _inputs(check: CheckSpec, scope: Mapping[str, int]) -> dict[str, Any]:
    inputs: dict[str, Any] = dict(sorted(check.params.items()))
    if scope:
        inputs["parameters"] = dict(sorted(scope.items()))
    return inputs


def run_scenario(scenario: Scenario) -> dict[str, Any]:
    """Run every check and assemble the deterministic report dictionary."""
    records: list[dict[str, Any]] = []
    per_check: dict[str, float] = {}
    started = time.perf_counter()
    for check in scenario.checks:
        handler = _HANDLERS[check.kind]
        for instance_id, scope in check.instances():
            tick = time.perf_counter()
            try:
                verdict, witness = handler(check, **scenario.fields(check, scope))
            except Exception as exc:  # noqa: BLE001 -- per-check isolation is the contract
                verdict = ERROR
                witness = {"error": type(exc).__name__, "message": str(exc)}
            per_check[instance_id] = round(time.perf_counter() - tick, 6)
            record = {
                "id": instance_id,
                "kind": check.kind,
                "inputs": _inputs(check, scope),
                "verdict": verdict,
                "witness": witness,
                "provenance": check.provenance,
            }
            if check.anchor is not None:
                record["anchor"] = check.anchor
            if check.note is not None:
                record["note"] = check.note
            records.append(record)
    records.sort(key=lambda r: r["id"])
    counts = {verdict: 0 for verdict in (PASS, FAIL, INCONCLUSIVE, ERROR)}
    for record in records:
        counts[record["verdict"]] += 1
    return {
        "scenario": scenario.name,
        "ambient": scenario.ambient,
        "engine": {"name": "weylkit", "version": __version__},
        "summary": {
            "total": len(records),
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "inconclusive": counts[INCONCLUSIVE],
            "error": counts[ERROR],
            "all_pass": counts[PASS] == len(records),
        },
        "checks": records,
        "timing": {
            "total_seconds": round(time.perf_counter() - started, 6),
            "per_check": per_check,
        },
    }
