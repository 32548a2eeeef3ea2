"""One benchmark pass in a fresh interpreter; prints its result as one JSON line.

``run.py`` starts this script once per pass, with ``PYTHONPATH`` pointing at
``src`` and ``--launched-ns`` set to its ``time.monotonic_ns()`` just before
the start, so ``setup_s`` runs from interpreter launch until weylkit is
imported and the workload's set-up is done.  A fresh interpreter per pass
keeps process-wide caches from carrying over, so every pass pays the cold
cost a ``weylkit verify`` user pays.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext


def execute(workload, seed: int, tracer=None) -> tuple[int, float, list[float]]:
    """Set up, build the inputs untraced, run the timed section.

    Returns the ``monotonic_ns`` time at which set-up ended, the wall time of
    the timed section in seconds and the per-op latencies.
    """
    workload.setup()
    setup_done = time.monotonic_ns()
    with tracer.paused() if tracer is not None else nullcontext():
        workload.prepare(seed)
    started = time.perf_counter()
    latencies = workload.run(tracer)
    return setup_done, time.perf_counter() - started, latencies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced pass's spans to this gzip file")
    args = parser.parse_args(argv)

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    setup_done, pass_s, latencies = execute(workload, args.seed, tracer)
    if tracer is not None:
        tracer.restore()
    attempted, failures = workload.check()
    result = {
        "workload": args.workload,
        "traced": tracer is not None,
        "setup_s": (setup_done - args.launched_ns) / 1e9,
        "pass_s": pass_s,
        "latencies_s": latencies,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(pass_s)
        if args.spans:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
