"""weylkit benchmark: cold verification, Gröbner ladder builds, normal-form reads.

Usage, from the repository root:

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload gb-ladder --seed 3
    python3 bench/run.py --workload verify-builtin --trace 1

Each pass runs in a fresh interpreter (``bench/one_pass.py`` with
``PYTHONPATH=src``), one at a time; passes repeat until ``run_seconds`` of
``BENCHMARK.json`` is used up, and the end-to-end metrics are medians over
the passes.  Every pass of a run gets the same inputs, made from ``--seed``.
``--seconds`` is part of the benchmark's calling convention (``--workload
--seed --seconds --trace``); the bounds were measured at ``run_seconds``
only, so any other value is refused.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced passes plus
``trace.overhead_ratio``; the first traced pass writes its spans under
``bench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
operation failed its correctness check, and 2 (with no result line) when
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = reference.BENCH_DIR
ROOT = reference.ROOT
SRC = ROOT / "src"
ONE_PASS = BENCH_DIR / "one_pass.py"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("verify-builtin", "gb-ladder", "nf-queries")
PASS_TIMEOUT_S = 150
# op_p90_ms needs ten samples above it.
P90_MIN_SAMPLES = 100
# Printed beside the metrics BENCHMARK.json lists, but not in the result line:
# op_p90_ms exists only on workloads with enough ops per run, and the layer
# shares show where the timed section's self time went.
EXTRA_PRINTED = {
    "op_p90_ms": "ms",
    "timed.lie_linalg_share": "ratio",
    "timed.groebner_weyl_orders_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    """HEAD's commit id, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, traced: bool, spans: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ONE_PASS), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    cmd += ["--launched-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a pass ran longer than {PASS_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: pass exited with code {done.returncode}\n{done.stderr.strip()}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until ``seconds`` would be overrun; at least one (pair when tracing)."""
    passes: list[dict] = []
    started = time.monotonic()
    rounds = 0
    while True:
        passes.append(run_pass(workload, seed, False, None))
        if trace:
            spans = None
            if rounds == 0:
                OUT_DIR.mkdir(exist_ok=True)
                spans = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
            passes.append(run_pass(workload, seed, True, spans))
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / rounds > seconds:
            return passes


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end values from the untraced passes, plus notes on their samples."""
    plain = [p for p in passes if not p["traced"]]
    latencies_ms = [s * 1e3 for p in plain for s in p["latencies_s"]]
    values = {
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "ops_per_s": statistics.median(len(p["latencies_s"]) / p["pass_s"] for p in plain),
        "op_p50_ms": statistics.median(latencies_ms),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in plain),
    }
    notes = {
        "pass_s": f"median of {len(plain)} passes",
        "ops_per_s": f"{len(plain[0]['latencies_s'])} ops per pass",
        "op_p50_ms": f"{len(latencies_ms)} op samples",
        "setup_s": f"median of {len(plain)} set-ups",
        "peak_rss_mb": f"median of {len(plain)} children",
    }
    if len(latencies_ms) >= P90_MIN_SAMPLES:
        values["op_p90_ms"] = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
        notes["op_p90_ms"] = f"{len(latencies_ms)} op samples (printed, not gated)"
    return values, notes


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    values = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    plain = statistics.median(p["pass_s"] for p in passes if not p["traced"])
    values["trace.overhead_ratio"] = statistics.median(p["pass_s"] for p in traced) / plain
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "weylkit" / "__init__.py").is_file():
            raise BenchError(f"no weylkit sources under {SRC}")
        spec = read_spec()
        if args.seconds not in (None, spec["run_seconds"]):
            raise BenchError(f"--seconds must be run_seconds ({spec['run_seconds']})")
        args.seconds = spec["run_seconds"]
        reference.load_reference()
        reference.load_nf_reference()
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    print(
        f"weylkit benchmark: seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} commit={git_commit()}"
    )
    print("wait metrics: none (weylkit is single-threaded and synchronous; nothing queues)")
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in selected:
        try:
            passes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ops = sum(p["attempted"] for p in passes)
        bad = sum(len(p["failures"]) for p in passes)
        attempted += ops
        failed += bad
        print(
            f"[{workload}] passes={len(passes)} ops={ops} failed={bad} "
            f"failed_ratio={bad / ops:g}"
        )
        for message in sorted({m for p in passes for m in p["failures"]})[:20]:
            print(f"  FAILED {message}")
        if args.trace:
            values, notes = per_layer(passes), {}
        else:
            values, notes = end_to_end(passes)
        prefix = "" if args.workload != "all" else f"{workload}."
        for name, unit in units.items():
            if name not in values:
                print(f"error: {workload} produced no {name}", file=sys.stderr)
                return 2
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        printed = {**units, **{k: u for k, u in EXTRA_PRINTED.items() if k in values}}
        for name, unit in printed.items():
            print(f"  {name:44s} {values[name]:14.6g} {unit:6s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
