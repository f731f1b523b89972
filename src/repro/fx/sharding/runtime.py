"""The sharded pipeline runtime: persistent workers, double-buffered queues.

Execution model: stage *k* lives in worker process *k*; adjacent stages
are linked by a bounded ``multiprocessing.Queue`` (capacity
``ShardConfig.queue_depth``, default 2 — double buffering, so a stage can
compute request *i* while request *i+1* waits unpickled at its door).
A request travels the chain as a small *environment* dict of named
values; each stage resolves its argument references out of the env, runs
its compiled module, writes its result back, drops values no later stage
reads, and forwards.  The last stage resolves the output template and
sends the final value to a collector thread in the host process, which
completes the matching :class:`~concurrent.futures.Future`.

Failure discipline: a worker exception rides the chain as an ``"err"``
message carrying the formatted traceback (exception *objects* may not
unpickle across processes; strings always do) and surfaces as a
:class:`ShardWorkerError` on the caller's future.  A worker *crash* is
caught by the collector's liveness watchdog — every pending future fails
with a clean error naming the dead stage instead of hanging.  Pools are
reaped at interpreter exit; :meth:`ShardedModule.close` is idempotent and
always leaves zero child processes.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import pickle
import queue as queue_mod
import threading
import time
import traceback
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...nn import Module
from .planner import ShardConfig, ShardPlan, ShardingError

__all__ = ["ShardWorkerError", "ShardedModule", "ShardReport",
           "shutdown_all_pools"]


class ShardWorkerError(RuntimeError):
    """A pipeline stage failed or its worker process died."""


@dataclass(frozen=True)
class _Ref:
    """A reference into the request environment: ``env[key]`` (or
    ``env[key][idx]`` for one element of a multi-output stage)."""

    key: str
    idx: Optional[int] = None


def _resolve(template: Any, env: Dict[str, Any]) -> Any:
    if isinstance(template, _Ref):
        value = env[template.key]
        return value if template.idx is None else value[template.idx]
    if isinstance(template, tuple):
        return tuple(_resolve(t, env) for t in template)
    if isinstance(template, list):
        return [_resolve(t, env) for t in template]
    if isinstance(template, dict):
        return {k: _resolve(v, env) for k, v in template.items()}
    return template


@dataclass
class _StageSpec:
    """Everything one worker needs, shipped as one pickle."""

    index: int
    name: str
    module: Any                      # compiled stage (picklable)
    arg_refs: Tuple[Any, ...]        # templates for the module's args
    result_key: str                  # env key this stage defines
    drop_keys: Tuple[str, ...]       # env keys dead after this stage
    is_last: bool = False
    output_template: Any = None      # only read when is_last


def _stage_worker(payload: bytes, in_q, out_q) -> None:
    """Worker main loop: runs in a child process until the ``None``
    shutdown sentinel arrives, which it forwards down the chain."""
    spec: _StageSpec = pickle.loads(payload)
    while True:
        item = in_q.get()
        if item is None:
            out_q.put(None)
            return
        req_id, kind, env, times = item
        if kind == "err":           # upstream already failed: pass through
            out_q.put(item)
            continue
        try:
            t0 = time.perf_counter()
            args = [_resolve(r, env) for r in spec.arg_refs]
            env[spec.result_key] = spec.module(*args)
            times = times + [time.perf_counter() - t0]
            if spec.is_last:
                out_q.put((req_id, "ok",
                           _resolve(spec.output_template, env), times))
            else:
                for key in spec.drop_keys:
                    env.pop(key, None)
                out_q.put((req_id, "ok", env, times))
        except Exception:
            out_q.put((req_id, "err",
                       f"stage {spec.index} ({spec.name}) raised:\n"
                       f"{traceback.format_exc()}",
                       times))


@dataclass
class ShardReport:
    """Predicted vs measured pipeline economics for one sharded module.

    ``measured_*`` fields stay zero until requests have completed.  The
    measured bubble fraction is reconstructed by replaying the measured
    mean stage times through the same simulator that priced the plan, so
    predicted and measured numbers are directly comparable.
    """

    plan: ShardPlan
    measured_stage_times: List[float] = field(default_factory=list)
    measured_requests: int = 0
    measured_speedup: float = 0.0
    measured_bubble_fraction: float = 0.0

    def format(self) -> str:
        lines = [f"ShardReport ({self.plan.n_stages} stage(s), "
                 f"device model {self.plan.device})"]
        lines.append("  stage  predicted(ms)  measured(ms)")
        measured = self.measured_stage_times or [0.0] * self.plan.n_stages
        for s, m in zip(self.plan.stages, measured):
            lines.append(f"  {s.index:>5}  {s.predicted_time * 1e3:>13.3f}"
                         f"  {m * 1e3:>12.3f}")
        lines.append(
            f"  predicted: speedup {self.plan.predicted_speedup:.2f}x, "
            f"bubble {self.plan.predicted_bubble_fraction * 100:.1f}%")
        if self.measured_requests:
            lines.append(
                f"  measured ({self.measured_requests} request(s)): "
                f"pipeline speedup {self.measured_speedup:.2f}x, "
                f"bubble {self.measured_bubble_fraction * 100:.1f}%")
        return "\n".join(lines)


#: Live pools, reaped at interpreter exit so no worker ever outlives the
#: host even when callers forget to close.
_LIVE_POOLS: "weakref.WeakSet[ShardedModule]" = weakref.WeakSet()


def shutdown_all_pools() -> None:
    """Close every live :class:`ShardedModule` worker pool."""
    for mod in list(_LIVE_POOLS):
        try:
            mod.close()
        except Exception:
            pass


atexit.register(shutdown_all_pools)


def _pick_context():
    # fork shares the already-imported interpreter with the workers —
    # startup is milliseconds, which is what makes per-program sharded
    # fuzz checks feasible.  The compile caches (repro.fx.concurrency.Memo)
    # re-arm their locks in a forked child, so forking from a threaded
    # host (e.g. a serve worker) is safe.  Fall back to spawn elsewhere.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ShardedModule(Module):
    """An N-stage pipeline over a persistent process pool.

    Calling it looks like calling the original model; :meth:`submit`
    returns a future immediately so up to ``queue_depth x stages``
    requests overlap in flight.  Pickling captures only the cold spec
    (stage payloads, plan, config) — the unpickled copy lazily restarts
    its own workers on first call, which is how
    :mod:`repro.serve` persists sharded engines to disk.
    """

    def __init__(self, stage_payloads: Sequence[bytes], plan: ShardPlan,
                 config: ShardConfig,
                 input_spec: Sequence[Tuple[str, bool, Any, bool]],
                 name: str = "ShardedModule"):
        super().__init__()
        self._payloads = tuple(stage_payloads)
        self.plan = plan
        self.config = config
        self._input_spec = tuple(input_spec)
        self._name = name
        self._init_runtime()
        _LIVE_POOLS.add(self)

    # -- lifecycle -------------------------------------------------------

    def _init_runtime(self) -> None:
        self._lock = threading.Lock()
        self._procs: List[multiprocessing.Process] = []
        self._queues: List[Any] = []
        self._collector: Optional[threading.Thread] = None
        self._stop_collector = threading.Event()
        self._pending: Dict[int, Future] = {}
        self._ids = itertools.count()
        self._broken: Optional[ShardWorkerError] = None
        self._closed = False
        self._closing = False
        self._stage_time_sums = [0.0] * self.plan.n_stages
        self._stage_time_counts = 0
        self._wall_start: Optional[float] = None
        self._wall_busy = 0.0

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Spin up the worker chain (idempotent; implied by first call)."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self._name} is closed")
            if self._procs:
                return
            ctx = _pick_context()
            k = len(self._payloads)
            self._queues = [ctx.Queue(maxsize=self.config.queue_depth)
                            for _ in range(k + 1)]
            self._procs = [
                ctx.Process(target=_stage_worker,
                            args=(payload, self._queues[i],
                                  self._queues[i + 1]),
                            name=f"{self._name}-stage{i}", daemon=True)
                for i, payload in enumerate(self._payloads)
            ]
            for p in self._procs:
                p.start()
            self._stop_collector.clear()
            self._collector = threading.Thread(
                target=self._collect, name=f"{self._name}-collector",
                daemon=True)
            self._collector.start()

    def _collect(self) -> None:
        out_q = self._queues[-1]
        while not self._stop_collector.is_set():
            try:
                item = out_q.get(timeout=0.2)
            except queue_mod.Empty:
                if self._closing:
                    continue
                dead = [p for p in self._procs if p.exitcode is not None]
                if dead and self._pending:
                    names = ", ".join(f"{p.name} (exit {p.exitcode})"
                                      for p in dead)
                    self._fail_pending(ShardWorkerError(
                        f"worker process(es) died: {names}"))
                    return
                continue
            if item is None:
                return
            req_id, kind, value, times = item
            with self._lock:
                fut = self._pending.pop(req_id, None)
                if kind == "ok" and len(times) == self.plan.n_stages:
                    for i, t in enumerate(times):
                        self._stage_time_sums[i] += t
                    self._stage_time_counts += 1
                    if self._wall_start is not None:
                        self._wall_busy = (time.perf_counter()
                                           - self._wall_start)
            if fut is None:
                continue
            if kind == "ok":
                fut.set_result(value)
            else:
                fut.set_exception(ShardWorkerError(value))

    def _fail_pending(self, error: ShardWorkerError) -> None:
        with self._lock:
            self._broken = error
            pending = list(self._pending.values())
            self._pending.clear()
        for fut in pending:
            if not fut.done():
                fut.set_exception(error)

    def close(self, timeout: float = 5.0) -> None:
        """Shut the pool down; safe to call twice, never leaks workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._closing = True
            procs, self._procs = self._procs, []
        if procs:
            deadline = time.monotonic() + timeout
            try:  # polite path: sentinel flows through, workers exit
                self._queues[0].put(None, timeout=min(timeout, 1.0))
            except Exception:
                pass
            for p in procs:
                p.join(timeout=max(deadline - time.monotonic(), 0.1))
            for p in procs:          # firm path: whoever is stuck dies
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=1.0)
            self._stop_collector.set()
            if self._collector is not None:
                self._collector.join(timeout=1.0)
            for q in self._queues:
                try:
                    q.close()
                    q.cancel_join_thread()
                except Exception:
                    pass
        self._fail_pending(ShardWorkerError(f"{self._name} was closed"))

    # -- request path ----------------------------------------------------

    def submit(self, *args) -> "Future":
        """Enqueue one request; returns a future for its output.

        Thread-safe.  Blocks (briefly, in watchdog-checked slices) only
        when the first stage's double buffer is full — that backpressure
        is what bounds in-flight memory to ``queue_depth x stages``
        requests.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self._name} is closed")
            if self._broken is not None:
                raise ShardWorkerError(str(self._broken))
        if not self.started:
            self.start()
        env: Dict[str, Any] = {}
        spec = self._input_spec
        if len(args) > len(spec):
            raise TypeError(f"{self._name} expects at most {len(spec)} "
                            f"inputs, got {len(args)}")
        for (key, has_default, default, used), value in zip(spec, args):
            if used:
                env[key] = value
        for key, has_default, default, used in spec[len(args):]:
            if not has_default:
                raise TypeError(f"missing argument for placeholder {key!r}")
            if used:
                env[key] = default
        fut: Future = Future()
        with self._lock:
            req_id = next(self._ids)
            self._pending[req_id] = fut
            if self._wall_start is None:
                self._wall_start = time.perf_counter()
        item = (req_id, "ok", env, [])
        while True:
            try:
                self._queues[0].put(item, timeout=0.2)
                return fut
            except queue_mod.Full:
                if self._broken is not None:
                    with self._lock:
                        self._pending.pop(req_id, None)
                    raise ShardWorkerError(str(self._broken))

    def forward(self, *args):
        return self.submit(*args).result()

    # -- reporting -------------------------------------------------------

    def report(self) -> ShardReport:
        """Predicted vs measured per-stage times and bubble fraction."""
        from ..passes.scheduler import simulate_stage_pipeline

        with self._lock:
            n = self._stage_time_counts
            means = [s / n for s in self._stage_time_sums] if n else []
            wall = self._wall_busy
        rep = ShardReport(plan=self.plan, measured_stage_times=means,
                          measured_requests=n)
        if n:
            sched = simulate_stage_pipeline(means, max(n, 2))
            rep.measured_bubble_fraction = sched.bubble_fraction
            serial = sum(means) * n
            rep.measured_speedup = serial / wall if wall > 0 else sched.speedup
        return rep

    # -- pickling: cold spec only ---------------------------------------

    def __getstate__(self):
        return {
            "payloads": self._payloads,
            "plan": self.plan,
            "config": self.config,
            "input_spec": self._input_spec,
            "name": self._name,
        }

    def __setstate__(self, state):
        Module.__init__(self)
        self._payloads = state["payloads"]
        self.plan = state["plan"]
        self.config = state["config"]
        self._input_spec = state["input_spec"]
        self._name = state["name"]
        self._init_runtime()
        _LIVE_POOLS.add(self)

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "running" if self.started else "cold")
        return (f"{self._name}(stages={self.plan.n_stages}, {state})")
