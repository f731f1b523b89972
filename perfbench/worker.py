"""Runs one workload in this (fresh) process and writes its record.

Started by ``run.py``, which pins the BLAS thread count and sets
``PYTHONPATH``; run that instead of this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os

WORKLOADS = ("compile_zoo", "infer_zoo", "serve_mixed")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", required=True,
                    help="path of the JSON record to write")
    args = ap.parse_args()

    from common import Run, host_info
    from spans import Tracer

    run = Run(args.workload, args.seed, bool(args.trace), args.tiny)
    tracer = Tracer() if args.trace else None
    importlib.import_module(args.workload).run(run, args.seconds, tracer)
    record = run.record()
    record["host"] = host_info()
    if tracer is not None:
        stem = os.path.splitext(args.record)[0]
        tracer.write(stem + ".trace.json", stem + ".summary.txt")
        record["trace_files"] = [stem + ".trace.json", stem + ".summary.txt"]
    with open(args.record, "w") as f:
        json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
