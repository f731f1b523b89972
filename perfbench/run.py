"""Benchmark launcher: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload compile_zoo --seed 1 --seconds 15 \\
        --trace 0

Run from the root of a checkout.  The launcher pins the BLAS thread
count, puts ``src`` on ``PYTHONPATH`` and starts the workload in a new
process, so no cache carries over between runs.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the workload twice, untraced
then traced, and prints the per-layer metrics, including
``trace.overhead_pct`` between the two.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the metrics ``BENCHMARK.json`` lists (every workload reports
all of them).  The line before it records the host and the workload's own
named metrics.  Full records, Chrome traces and self-time summaries go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

from common import BLAS_ENV, BLAS_THREADS
from worker import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
#: Hard limit for the whole invocation, both processes included.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args, trace: int, deadline: float) -> dict:
    record = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{trace}.json")
    if os.path.exists(record):
        os.remove(record)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--record", record] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args.workload} (trace {trace}) timed out") \
            from exc
    if proc.returncode != 0 or not os.path.exists(record):
        raise ChildFailed(f"{args.workload} (trace {trace}) exited with "
                          f"code {proc.returncode}")
    with open(record) as f:
        rec = json.load(f)
    rec["path"] = os.path.relpath(record, ROOT)
    return rec


def trace_overhead_pct(untraced: dict, traced: dict, names) -> float:
    """Geometric-mean slowdown of the traced run over the untraced one,
    across the end-to-end timings *names* (set-up excluded: the traced
    set-up also installs the instrumentation)."""
    ratios = [traced["e2e"][k]["value"] / untraced["e2e"][k]["value"]
              for k in names if k != "setup_s"
              and untraced["e2e"][k]["unit"] in ("s", "ms")]
    return 100.0 * (math.exp(sum(map(math.log, ratios)) / len(ratios)) - 1)


def manifest() -> tuple[list, list]:
    """Names of the end-to-end and per-layer metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: same metrics, minimal work")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    e2e_names, layer_names = manifest()
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        records = [_run_child(args, 0, deadline)]
        if args.trace:
            records.append(_run_child(args, 1, deadline))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        untraced, traced = records
        # Span-derived numbers come from the traced run; timings that need
        # no spans (eager references, percentiles, per-model compile
        # times) come from the untraced one.
        measured = {**traced["layer"], **untraced["layer"]}
        measured["trace.overhead_pct"] = {
            "value": trace_overhead_pct(untraced, traced, e2e_names),
            "unit": "%"}
        wanted = layer_names
    else:
        measured, wanted = records[0]["e2e"], e2e_names
    missing = [name for name in wanted if name not in measured]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 1
    metrics = {name: measured[name] for name in wanted}
    # The workload's own metrics (named end-to-end numbers such as
    # compile_cold_s, and per-layer detail such as serve queue wait).
    named = {k: v for k, v in {**records[0]["e2e"], **records[0]["layer"],
                               **measured}.items() if k not in metrics}
    for rec in records:
        for fail in rec["failures"]:
            print(f"perfbench: failed op [{fail['layer']}] {fail['op']}: "
                  f"{fail['reason']}", file=sys.stderr)
    print(json.dumps({"host": records[0]["host"], "named": named,
                      "notes": sum((r["notes"] for r in records), []),
                      "records": [r["path"] for r in records]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
