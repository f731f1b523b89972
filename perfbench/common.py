"""Shared pieces of the benchmark: the run record, output checks, stats,
host facts and process memory."""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from typing import Any, Optional, Sequence

import numpy as np

#: BLAS threads the launcher pins every workload process to.  One thread
#: keeps the serve workers from oversubscribing a small host, and makes
#: kernel timings independent of how many cores happen to be idle.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

#: Tolerance where conv-bn folding reorders float32 sums; everything else
#: the pipelines promise bit-exact.
RTOL, ATOL = 1e-4, 1e-5

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def as_array(x: Any) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))


def mismatch(got: Any, ref: Any, exact: bool) -> Optional[str]:
    """``None`` if *got* matches *ref*, else a one-line reason."""
    g, r = as_array(got), as_array(ref)
    if g.shape != r.shape:
        return f"shape {g.shape} != {r.shape}"
    if exact:
        if np.array_equal(g, r):
            return None
        return f"not bit-exact: max |diff| {float(np.max(np.abs(g - r))):.3e}"
    if np.allclose(g, r, rtol=RTOL, atol=ATOL):
        return None
    return (f"outside rtol={RTOL} atol={ATOL}: max |diff| "
            f"{float(np.max(np.abs(g - r))):.3e}")


class Run:
    """What one workload process measured and checked."""

    def __init__(self, workload: str, seed: int, trace: bool, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.tiny = tiny
        self.e2e: dict[str, dict] = {}
        self.layer: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.notes: list[str] = []
        self.detail: dict[str, Any] = {}
        # Cache hits and misses counted before the last clear: clearing a
        # cache also zeroes its counters.
        self._cache_base: dict[str, dict] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.e2e[name] = {"value": float(value), "unit": unit}

    def layer_metric(self, name: str, value: float, unit: str) -> None:
        self.layer[name] = {"value": float(value), "unit": unit}

    def fail(self, what: str, reason: str, layer: str,
             known_defect: bool = False) -> None:
        self.failures.append({"op": what, "reason": reason, "layer": layer,
                              "known_defect": known_defect})

    def check(self, what: str, got: Any, ref: Any, *, exact: bool,
              layer: str) -> bool:
        """Count one operation and compare its output to the reference."""
        self.attempted += 1
        why = mismatch(got, ref, exact)
        if why is not None:
            self.fail(what, why, layer)
        return why is None

    def attempt(self, what: str, layer: str, fn, *args):
        """Call ``fn(*args)``; an exception becomes a failed operation."""
        try:
            return fn(*args)
        except Exception as exc:  # a failing op must not abort the run
            self.attempted += 1
            self.fail(what, f"{type(exc).__name__}: {exc}", layer)
            traceback.print_exc(file=sys.stderr)
            return None

    def cache_counters(self) -> dict:
        """Hits and misses of each compile cache over the whole run."""
        return {cache: {k: self._cache_base.get(cache, {}).get(k, 0)
                        + info[k] for k in ("hits", "misses")}
                for cache, info in compile_cache_info().items()}

    def clear_compile_caches(self) -> None:
        """Empty the process-wide compile caches, so the next compile of an
        already-seen model pays full price again."""
        from repro.fx.backends import clear_subgraph_cache
        from repro.fx.graph_module import clear_codegen_cache
        from repro.fx.passes.pass_manager import shared_transform_cache
        from repro.fx.vm import clear_vm_cache

        self._cache_base = self.cache_counters()
        clear_subgraph_cache()
        clear_vm_cache()
        clear_codegen_cache()
        shared_transform_cache().clear()
        gc.collect()

    @property
    def correct(self) -> bool:
        # The coupled probe's wrong answers are a known defect outside the
        # server's documented batching contract: they count as failed
        # operations but do not make the benchmark's checks fail.
        return not any(not f["known_defect"] for f in self.failures)

    def record(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "trace": self.trace, "correct": self.correct,
                "attempted": self.attempted, "failed": len(self.failures),
                "e2e": self.e2e, "layer": self.layer,
                "failures": self.failures, "notes": self.notes,
                "detail": self.detail}


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def rss_mb() -> float:
    """Current resident set size."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def settled_rss_mb() -> float:
    """RSS of live memory: collect garbage and hand free heap pages back
    to the OS first, so memory the allocator merely keeps is not counted
    (and the reading does not depend on what an earlier phase freed)."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: RSS as it stands
        pass
    return rss_mb()


def mem_total_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def host_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_total_mb()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def compile_cache_info() -> dict:
    """Hit and miss counters of each process-wide compile cache."""
    from repro.fx.backends import subgraph_cache_info
    from repro.fx.graph_module import codegen_cache_info
    from repro.fx.vm import vm_cache_info

    return {"partition_memo": subgraph_cache_info(),
            "codegen": codegen_cache_info(),
            "vm.memo": vm_cache_info()}
