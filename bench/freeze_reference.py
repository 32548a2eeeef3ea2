"""Write the frozen expected outputs the benchmark checks against.

``gb_reference.json`` gets the gb-ladder bases and certificates and
``nf_reference.json`` the nf-queries anchor normal forms.  Run from the
repository root with ``PYTHONPATH=src python3 bench/freeze_reference.py``
only when the expected outputs change on purpose; the benchmark itself only
reads the files.  The bases are computed from the scenario's own,
unperturbed generators, and the result must pass the golden cross-check in
``reference.load_reference``.
"""

from __future__ import annotations

import json

import weylkit as wk

import reference
import workloads


def main() -> None:
    scenario = wk.load_scenario(workloads.LADDER_SCENARIO)
    instances = []
    for ideal_name, l in workloads.LADDER:
        ideal = scenario.ideal(ideal_name, {} if l is None else {"l": l})
        instances.append(
            {
                "scenario": workloads.LADDER_SCENARIO,
                "ideal": ideal_name,
                "l": l,
                "basis": [str(g) for g in ideal.groebner_basis().elements],
                "certificate": wk.simplicity_certificate(ideal).describe(),
            }
        )
    text = json.dumps({"instances": instances}, indent=1) + "\n"
    reference.REFERENCE_PATH.write_text(text, encoding="utf-8")
    reference.load_reference()

    queries = workloads.NfQueries()
    queries.setup()
    queries.prepare(seed=0)
    queries.inputs = queries.inputs[: workloads.NF_ANCHORS]
    queries.run(tracer=None)
    text = json.dumps({"anchors": queries.normal_forms()}, indent=1) + "\n"
    reference.NF_REFERENCE_PATH.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
