"""Shared fixtures.

Randomized property tests use ``random.Random`` seeded with the fixed strings
below so every run exercises the same sample; change a seed string only when
intentionally refreshing the sample, and record why in the commit message.
"""

from __future__ import annotations

import pytest

from weylkit import load_scenario, run_scenario

SEEDS = {
    "words": "weylkit-word-products",
    "ring": "weylkit-ring-axioms",
    "module": "weylkit-module-axioms",
    "bernstein": "weylkit-bernstein-inequality",
    "fourier": "weylkit-fourier-involution",
    "monomial-multiplicity": "weylkit-monomial-multiplicity",
}


@pytest.fixture(scope="session")
def n2_scenario():
    return load_scenario("paper-n2")


@pytest.fixture(scope="session")
def n3_scenario():
    return load_scenario("paper-n3")


@pytest.fixture(scope="session")
def n2_report(n2_scenario):
    return run_scenario(n2_scenario)


@pytest.fixture(scope="session")
def n3_report(n3_scenario):
    return run_scenario(n3_scenario)


def record_by_id(report: dict, check_id: str) -> dict:
    matches = [c for c in report["checks"] if c["id"] == check_id]
    assert matches, f"no check record with id {check_id!r}"
    assert len(matches) == 1, f"duplicate check id {check_id!r}"
    return matches[0]


def records_by_prefix(report: dict, prefix: str) -> list[dict]:
    matches = [c for c in report["checks"] if c["id"].startswith(prefix)]
    assert matches, f"no check records with prefix {prefix!r}"
    return matches
