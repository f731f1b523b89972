"""Fast self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Runs every workload at tiny size through ``run.py`` and asserts that:

* every workload reports exactly the end-to-end metrics
  ``BENCHMARK.json`` lists, each with its unit, and with ``--trace 1``
  exactly the per-layer metrics it lists;
* another seed changes the inputs but not the metric set;
* in every trace written, no span's self time exceeds its parent span.

Exits 0 when all hold; takes a few minutes, mostly compiling ResNet-50.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("compile_zoo", "infer_zoo", "serve_mixed")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "2", "--trace",
         str(trace), "--tiny"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1, result
    return result


def record(workload: str, seed: int, trace: int) -> dict:
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
              ) as f:
        return json.load(f)


def check_units(metrics: dict, spec: dict) -> None:
    assert set(metrics) == set(spec), sorted(set(metrics) ^ set(spec))
    for name, m in metrics.items():
        assert m["unit"] == spec[name]["unit"], (name, m, spec[name])
        assert isinstance(m["value"], float), (name, m)


def check_trace(path: str) -> int:
    """Self time never exceeds the span's own duration or its parent's."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    for e in events:
        self_us = e["args"]["self_us"]
        assert self_us <= e["dur"] + 1e-3, e
        parent = by_id.get(e["args"]["parent"])
        if parent is not None:
            assert self_us <= parent["dur"] + 1e-3, (e, parent)
    return len(events)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e_spec = {m["name"]: m for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m for m in spec["per_layer"]}
    for workload in WORKLOADS:
        first = bench(workload, 1, 0)
        check_units(first["metrics"], e2e_spec)
        second = bench(workload, 2, 0)
        assert set(second["metrics"]) == set(first["metrics"])
        d1 = record(workload, 1, 0)["detail"]["input_digest"]
        d2 = record(workload, 2, 0)["detail"]["input_digest"]
        assert d1 != d2, f"{workload}: seed does not change the inputs"

        traced = bench(workload, 1, 1)
        check_units(traced["metrics"], layer_spec)
        n = check_trace(os.path.join(OUT, f"{workload}-seed1-trace1"
                                          ".trace.json"))
        print(f"selftest: {workload} ok ({len(first['metrics'])} end-to-end,"
              f" {len(traced['metrics'])} per-layer metrics, {n} spans)")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
