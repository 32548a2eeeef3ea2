"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload runs as one closed loop with a single client: an operation
starts only after the previous one returned, as a verifier waiting for each
verdict does.  A workload object lives for one pass in one fresh interpreter:

- ``setup()`` loads what a user would have loaded before asking anything
  (it is part of ``setup_s``);
- ``prepare(seed)`` builds the inputs from the seed (not timed, not traced);
- ``run(tracer)`` is the timed section; it returns one latency in seconds
  per operation and keeps the outputs;
- ``check()`` compares the outputs with the expected values and returns the
  number of operations attempted and one message per failed operation; an
  operation that raised is kept as its exception and counts as failed.

The engine is reached only through ``weylkit``'s public names, looked up at
call time, so a traced pass sees every call.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import weylkit as wk

import reference

BUILTIN = ("paper-n2", "paper-n3")


def _set_op(tracer, op: int) -> None:
    if tracer is not None:
        tracer.op_id = op


def _scope(l: int | None) -> dict[str, int]:
    return {} if l is None else {"l": l}


class VerifyBuiltin:
    """The paper's whole claim set, cold: ``run_scenario`` on both builtins.

    One operation is one check record.  The records run inside two public
    ``run_scenario`` calls, so their latencies come from the report's
    ``timing.per_check`` and a trace's op id names the scenario.  This is
    the fixed claim set, so the seed is not used.
    """

    name = "verify-builtin"

    def setup(self) -> None:
        self.scenarios = [wk.load_scenario(name) for name in BUILTIN]

    def prepare(self, seed: int) -> None:
        pass

    def run(self, tracer) -> list[float]:
        self.reports = []
        for op, scenario in enumerate(self.scenarios, start=1):
            _set_op(tracer, op)
            self.reports.append(wk.run_scenario(scenario))
        return [
            seconds for report in self.reports for seconds in report["timing"]["per_check"].values()
        ]

    def check(self) -> tuple[int, list[str]]:
        attempted = 0
        failures: list[str] = []
        for name, report in zip(BUILTIN, self.reports):
            golden_text = (reference.GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
            text = wk.render_json(report, include_timing=False)
            got = {record["id"]: record for record in report["checks"]}
            try:
                want = {record["id"]: record for record in json.loads(golden_text)["checks"]}
            except (ValueError, KeyError, TypeError):
                want = {}
            ids = sorted(set(got) | set(want))
            attempted += len(ids)
            mismatched = [i for i in ids if got.get(i) != want.get(i)]
            failures += [f"{name}: record {i} differs from the golden report" for i in mismatched]
            if text != golden_text and not mismatched:
                failures.append(f"{name}: report bytes differ from the golden report")
        return attempted, failures


# gb-ladder instances in paper-n3: I1l climbs the l ladder past the sweep
# (0..2), I3 takes the non-holonomic branch, Idoubleprime at l=1 the
# multiplicity-2 "undetermined" branch.
LADDER = tuple(("I1l", l) for l in range(5)) + (("I3", None), ("Idoubleprime", 1))
LADDER_SCENARIO = "paper-n3"
# One change, not two: with two, about one seed in ten made an I1l build at
# l=3 or l=4 take two to four times its median, and a run, which uses one
# draw, then reported its seed more than the engine.  With one change, no
# seed in forty took more than 1.5 times the median (2-core Xeon VM).
PERTURBATIONS = 1
# Each pass builds every instance from this many perturbation draws of the
# seed.  op_p50_ms lands among the I1l l=1 builds; with one draw it was the
# latency of a single perturbed ideal and spread 0.29 across ten seeds.
LADDER_DRAWS = 2
CONSTANTS = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2))


def ladder_rng(seed: int, draw: int, ideal_name: str, l: int | None) -> random.Random:
    return random.Random(f"gb-ladder:{seed}:{draw}:{ideal_name}:{l}")


def perturb(generators, rng: random.Random):
    """Unimodular generator changes g_i <- g_i + c*g_j (i != j).

    c is a seeded constant or a degree-1 monomial z_k or d_k.  Each change is
    undone by subtracting c*g_j again, so the left ideal is unchanged, while
    Buchberger starts from different generators and takes another path.
    """
    gens = list(generators)
    m = gens[0].ambient
    for _ in range(PERTURBATIONS):
        i, j = rng.sample(range(len(gens)), 2)
        if rng.random() < 0.5:
            c = wk.WeylElement.constant(rng.choice(CONSTANTS), m)
        else:
            exps = [0] * (2 * m)
            exps[rng.randrange(2 * m)] = 1
            c = wk.WeylElement.from_monomial(wk.Monomial(tuple(exps[:m]), tuple(exps[m:])))
        gens[i] = gens[i] + c * gens[j]
    return gens


class GbLadder:
    """Gröbner builds: one operation builds one ideal's basis and certificate.

    For each ladder instance and each of ``LADDER_DRAWS`` perturbation
    draws: a ``LeftIdeal`` from seeded-perturbed generators, its
    ``groebner_basis()``, then ``simplicity_certificate``.
    The reduced basis must print as the frozen reference and the certificate
    must match the frozen summary.
    """

    name = "gb-ladder"

    def setup(self) -> None:
        self.scenario = wk.load_scenario(LADDER_SCENARIO)

    def prepare(self, seed: int) -> None:
        self.inputs = []
        for draw in range(LADDER_DRAWS):
            for ideal_name, l in LADDER:
                rng = ladder_rng(seed, draw, ideal_name, l)
                generators = self.scenario.ideal(ideal_name, _scope(l)).generators
                self.inputs.append((ideal_name, l, perturb(generators, rng)))

    def run(self, tracer) -> list[float]:
        self.outputs = []
        latencies = []
        for op, (_, _, generators) in enumerate(self.inputs, start=1):
            _set_op(tracer, op)
            started = time.perf_counter()
            try:
                ideal = wk.LeftIdeal(generators)
                output = (ideal.groebner_basis(), wk.simplicity_certificate(ideal))
            except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
                output = exc
            latencies.append(time.perf_counter() - started)
            self.outputs.append(output)
        return latencies

    def check(self) -> tuple[int, list[str]]:
        frozen = reference.load_reference()
        failures = []
        for (ideal_name, l, _), output in zip(self.inputs, self.outputs):
            key = reference.instance_key(LADDER_SCENARIO, ideal_name, l)
            if isinstance(output, Exception):
                failures.append(f"{key}: raised {output!r}")
                continue
            basis, certificate = output
            entry = frozen[key]
            if [str(g) for g in basis.elements] != entry["basis"]:
                failures.append(f"{key}: reduced basis differs from the frozen reference")
            elif certificate.describe() != entry["certificate"]:
                failures.append(
                    f"{key}: certificate {certificate.describe()!r} != {entry['certificate']!r}"
                )
        return len(self.inputs), failures


# nf-queries ideals: (scenario, ideal, l).  Their bases are built in setup.
NF_IDEALS = (
    ("paper-n3", "I1l", 2),
    ("paper-n3", "I3", None),
    ("paper-n3", "Idoubleprime", 1),
    ("paper-n2", "I1l", 3),
    ("paper-n2", "I3", None),
)
NF_QUERIES = 1500  # operators x per pass; three normal-form calls each
# The first NF_ANCHORS queries of every pass come from one fixed draw, and
# their NF(x) strings are frozen in nf_reference.json; the rest come from
# the seed.
NF_ANCHORS = 100
NF_ANCHOR_DRAW = "anchor"
X_TERMS, X_DEGREE = 4, 4
C_TERMS, C_DEGREE = 2, 2
NUMERATORS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def random_operator(rng: random.Random, m: int, max_terms: int, max_degree: int):
    """A few terms, Bernstein degree at most ``max_degree``, small rationals."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (2 * m)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(2 * m)] += 1
        terms[wk.Monomial(tuple(exps[:m]), tuple(exps[m:]))] = Fraction(
            rng.choice(NUMERATORS), rng.randint(1, 3)
        )
    return wk.WeylElement(m, terms)


class NfQueries:
    """Normal-form reads against bases built once in setup.

    For each operator x (ideals taken in turn) with a random small operator c
    and a random generator g: NF(x), NF(x + c*g) and NF(c*g), one operation
    each.  Reduced normal forms are unique, so NF(x + c*g) must equal NF(x)
    and NF(c*g) must be 0.  No term of NF(x) may be divisible by a leading
    monomial of the basis, and on the anchor queries NF(x) must print as
    frozen, which ties the normal forms to their correct values.
    """

    name = "nf-queries"

    def setup(self) -> None:
        scenarios = {name: wk.load_scenario(name) for name in sorted({s for s, _, _ in NF_IDEALS})}
        self.ideals = [
            scenarios[scenario].ideal(ideal_name, _scope(l))
            for scenario, ideal_name, l in NF_IDEALS
        ]
        for ideal in self.ideals:
            ideal.groebner_basis()

    def prepare(self, seed: int) -> None:
        anchor_rng = random.Random(f"nf-queries:{NF_ANCHOR_DRAW}")
        seeded_rng = random.Random(f"nf-queries:{seed}")
        self.inputs = []
        for k in range(NF_QUERIES):
            rng = anchor_rng if k < NF_ANCHORS else seeded_rng
            ideal = self.ideals[k % len(self.ideals)]
            m = ideal.ambient
            x = random_operator(rng, m, X_TERMS, X_DEGREE)
            c = random_operator(rng, m, C_TERMS, C_DEGREE)
            cg = c * rng.choice(ideal.generators)
            self.inputs.append((ideal, (x, x + cg, cg)))

    def run(self, tracer) -> list[float]:
        self.outputs = []
        latencies = []
        op = 0
        for ideal, queries in self.inputs:
            for element in queries:
                op += 1
                _set_op(tracer, op)
                started = time.perf_counter()
                try:
                    output = ideal.reduce(element)
                except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
                    output = exc
                latencies.append(time.perf_counter() - started)
                self.outputs.append(output)
        return latencies

    def normal_forms(self) -> list[str]:
        """NF(x) of every query, as printed."""
        return [str(nf) for nf in self.outputs[::3]]

    def check(self) -> tuple[int, list[str]]:
        anchors = reference.load_nf_reference()
        failures = []
        for k, (ideal, _) in enumerate(self.inputs):
            nf_x, nf_shifted, nf_multiple = self.outputs[3 * k : 3 * k + 3]
            raised = [nf for nf in (nf_x, nf_shifted, nf_multiple) if isinstance(nf, Exception)]
            if raised:
                failures += [f"query {k}: raised {exc!r}" for exc in raised]
                continue
            if k < NF_ANCHORS:
                want = anchors[k] if k < len(anchors) else "(missing)"
                if str(nf_x) != want:
                    failures.append(f"query {k}: NF(x) = {nf_x} differs from the frozen {want}")
            leading = ideal.groebner_basis().leading_monomials()
            if any(lm.divides(mono) for mono in nf_x.terms for lm in leading):
                failures.append(f"query {k}: NF(x) = {nf_x} is not reduced")
            if nf_shifted != nf_x:
                failures.append(f"query {k}: NF(x + c*g) != NF(x)")
            if not nf_multiple.is_zero():
                failures.append(f"query {k}: NF(c*g) = {nf_multiple} is not 0")
        return 3 * len(self.inputs), failures


WORKLOADS = {cls.name: cls for cls in (VerifyBuiltin, GbLadder, NfQueries)}
