"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit as wk

import one_pass
import reference
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SMALL_LADDER = (("I1l", 0), ("I1l", 1), ("I3", None), ("Idoubleprime", 1))
EXACT_COUNTS = (
    "groebner.buchberger.pairs",
    "groebner.buchberger.zero_reductions",
    "orders.key.calls",
    "weyl.mul.calls",
    "linalg.mat_mul.calls",
)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: paper-n2 only, four ladder rungs, 20 queries."""
    monkeypatch.setattr(workloads, "BUILTIN", ("paper-n2",))
    monkeypatch.setattr(workloads, "LADDER", SMALL_LADDER)
    monkeypatch.setattr(workloads, "NF_QUERIES", 20)


def _outputs(name: str, seed: int, tracer=None):
    """Run one workload in this process and return its outputs as strings."""
    workload = workloads.WORKLOADS[name]()
    if tracer is not None:
        tracer.install()
    try:
        one_pass.execute(workload, seed, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    attempted, failures = workload.check()
    assert failures == [] and attempted > 0
    if name == "verify-builtin":
        return [json.dumps(wk.strip_timing(r), sort_keys=True) for r in workload.reports]
    if name == "gb-ladder":
        return [([str(g) for g in b.elements], c.describe()) for b, c in workload.outputs]
    return [str(nf) for nf in workload.outputs]


def _snapshot() -> dict:
    """Every attribute of every weylkit module and of every patched class."""
    modules = tracing._weylkit_modules()
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for _, owner, _ in tracing.TARGETS:
        module_name, _, class_name = owner.partition(":")
        if class_name:
            cls = getattr(sys.modules[module_name], class_name)
            state.update({(owner, k): v for k, v in vars(cls).items()})
    return state


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrappers = {id(w) for w in tracer.wrappers}
        assert id(wk.runner.certify_annihilator) in wrappers
        assert id(wk.lie.mat_mul) in wrappers
        assert id(wk.base.SparseElement.__dict__["__mul__"]) in wrappers
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not any(id(value) in wrappers for value in after.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(tiny, name):
    tracer = tracing.Tracer()
    traced = _outputs(name, 5, tracer=tracer)
    assert _outputs(name, 5) == traced
    assert len(tracer.start) > 0


_COUNT_SCRIPT = """
import json
import one_pass, tracer as tracing, workloads
workloads.BUILTIN = ("paper-n2",)
workloads.LADDER = {ladder!r}
t = tracing.Tracer()
t.install()
for name in ("verify-builtin", "gb-ladder"):
    one_pass.execute(workloads.WORKLOADS[name](), 3, t)
t.restore()
print(json.dumps(t.summary(1.0)))
"""


def test_exact_counts_repeat_across_fresh_interpreters():
    env_path = str(BENCH_DIR.parent / "src")
    counts = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", _COUNT_SCRIPT.format(ladder=SMALL_LADDER[:2])],
            cwd=BENCH_DIR,
            env={"PYTHONPATH": env_path, "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        counts.append({name: summary[name] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perturbation_keeps_reduced_bases(seed):
    frozen = reference.load_reference()
    scenario = wk.load_scenario(workloads.LADDER_SCENARIO)
    for ideal_name, l in SMALL_LADDER:
        original = scenario.ideal(ideal_name, {} if l is None else {"l": l}).generators
        perturbed = workloads.perturb(original, workloads.ladder_rng(seed, 0, ideal_name, l))
        assert perturbed != list(original)
        basis = wk.LeftIdeal(perturbed).groebner_basis()
        ref_key = reference.instance_key(workloads.LADDER_SCENARIO, ideal_name, l)
        assert [str(g) for g in basis.elements] == frozen[ref_key]["basis"]


def test_reference_rejects_a_golden_witness_that_disagrees(tmp_path):
    golden = json.loads((reference.GOLDEN_DIR / "paper-n3.json").read_text(encoding="utf-8"))
    for record in golden["checks"]:
        if record["id"] == reference.LEMMA8_CHECK.format(l=1):
            record["witness"]["simplicity"] = record["witness"]["simplicity"].replace("z6", "z5")
    (tmp_path / "paper-n3.json").write_text(json.dumps(golden), encoding="utf-8")
    with pytest.raises(reference.ReferenceError, match="l=1"):
        reference.load_reference(golden_dir=tmp_path)
    shutil.copy(reference.GOLDEN_DIR / "paper-n3.json", tmp_path / "paper-n3.json")
    assert len(reference.load_reference(golden_dir=tmp_path)) == len(workloads.LADDER)


def test_nf_check_fails_when_reduce_drops_terms(tiny, monkeypatch):
    """NF(x+c*g) = NF(x) and NF(c*g) = 0 alone would pass a reduce that returns 0."""
    workload = workloads.NfQueries()
    one_pass.execute(workload, 4)
    assert workload.check()[1] == []
    zero = wk.WeylElement.zero(workload.ideals[0].ambient)
    workload.outputs = [zero if isinstance(nf, wk.WeylElement) else nf for nf in workload.outputs]
    assert workload.outputs[0] is zero
    failures = workload.check()[1]
    assert failures and all("differs from the frozen" in message for message in failures)
