"""Concurrency-safety tests for the compile stack (PR 7).

Two bug classes are covered:

* **cache races** — before PR 7 there was no ``threading.Lock`` anywhere
  in ``src/repro/fx``: the codegen LRU, the PassManager transform cache,
  the ``compile_to_vm`` memo and the ``to_backend`` partition memo all
  mutated plain (Ordered)dicts and ``hits/misses`` counters from
  whichever thread called them.  Reverting the locks/single-flight makes
  the single-flight tests below fail deterministically (N barrier-
  synchronized threads each miss and compile, so ``misses == N`` instead
  of 1 and callers receive distinct artifact objects) and makes the
  stress tests fail probabilistically (lost counter increments,
  ``OrderedDict`` corruption mid-``move_to_end``).

* **shared-arena corruption** — ``VMProgram.run`` used to replay every
  call through the one program-owned arena, so two threads replaying a
  shared (memoized!) program silently overwrote each other's planned
  intermediates.  ``test_shared_arena_corrupts_unguarded`` reconstructs
  that exact pre-fix path via a mutant lease (all calls share one
  arena) and proves the corruption with a barrier that forces both
  threads to write the same slot before either reads it back; the
  guarded path returns exact results under the same schedule.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import GraphModule, symbolic_trace
from repro.fx import compile as fx_compile
from repro.fx.analysis import (
    Analysis,
    AnalysisContext,
    analysis_cache_info,
    clear_analysis_cache,
    register_analysis,
)
from repro.fx.analysis import engine as analysis_engine
from repro.fx.concurrency import KeyedMutex, Memo
from repro.fx.graph import Graph
from repro.fx.graph_module import clear_codegen_cache, codegen_cache_info
from repro.fx.backends import to_backend
from repro.fx.backends.lowering import (
    clear_subgraph_cache,
    subgraph_cache_info,
)
from repro.fx.passes import PassManager, TransformCache, \
    eliminate_dead_code
from repro.fx.vm import (
    Instruction,
    Reg,
    VMProgram,
    clear_vm_cache,
    compile_to_vm,
    vm_cache_info,
)
from repro.tensor import Tensor

N_THREADS = 8


def _run_threads(n, fn):
    """Start *n* threads on *fn(i)* behind one barrier; re-raise the
    first worker exception in the caller."""
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        try:
            barrier.wait(timeout=30)
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surface to caller
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]


class MLP(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(8, 16)
        self.fc2 = nn.Linear(16, 4)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


class TestKeyedMutex:
    def test_serializes_equal_keys(self):
        mutex = KeyedMutex()
        active = []
        overlap = []

        def worker(i):
            with mutex.acquire("k"):
                active.append(i)
                if len(active) > 1:
                    overlap.append(tuple(active))
                active.remove(i)

        _run_threads(N_THREADS, worker)
        assert overlap == []
        assert mutex.in_flight() == 0

    def test_distinct_keys_do_not_serialize(self):
        mutex = KeyedMutex()
        inside = threading.Barrier(2)

        def worker(i):
            with mutex.acquire(i):
                # Both threads must be inside their regions at once; a
                # global lock would deadlock this barrier.
                inside.wait(timeout=10)

        _run_threads(2, worker)


class TestMemo:
    def test_lru_order(self):
        memo = Memo(2)
        memo.store("a", 1)
        memo.store("b", 2)
        assert memo.lookup("a") == 1  # "a" becomes most recently used
        memo.store("c", 3)
        assert list(memo._entries) == ["a", "c"]
        assert memo.lookup("b") is None
        assert memo.get_or_build("a", lambda: 0) == (1, True)

    def test_eviction_callback(self):
        evicted = []
        memo = Memo(1, on_evict=evicted.append)
        memo.store("a", 1)
        memo.store("b", 2)  # over the bound: "a" leaves
        assert evicted == [1]
        memo.store("b", 3)  # replaced by a different value
        assert evicted == [1, 2]
        memo.store("b", 3)  # same value again: nothing leaves
        assert evicted == [1, 2]
        memo.clear()
        assert evicted == [1, 2, 3]

    def test_clear_resets_counters(self):
        memo = Memo(4)
        memo.lookup("k")
        assert memo.get_or_build("k", lambda: None) == (None, False)
        assert memo.get_or_build("k", lambda: 1) == (None, True)
        assert memo.info() == {"hits": 1, "misses": 2, "size": 1,
                               "maxsize": 4}
        memo.clear()
        assert memo.info() == {"hits": 0, "misses": 0, "size": 0,
                               "maxsize": 4}

    def test_failed_build_stores_nothing(self):
        memo = Memo(4)

        def boom():
            raise ValueError("build failed")

        with pytest.raises(ValueError):
            memo.get_or_build("k", boom)
        assert len(memo) == 0
        assert memo.get_or_build("k", lambda: 7) == (7, False)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_resets_locks(self):
        """A child forked while a parent thread holds the memo's lock and
        a per-key build lock must get fresh locks, not the held ones."""
        memo = Memo(4)
        memo.store("k", 1)
        with memo._lock, memo._flight.acquire("x"):
            pid = os.fork()
            if pid == 0:  # child: exits without returning to pytest
                signal.alarm(5)  # a deadlocked child dies, not hangs
                ok = memo.lookup("k") == 1 \
                    and memo.get_or_build("x", lambda: 2) == (2, False)
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def test_vm_and_partition_memos_stay_bounded(self):
        """Compiling more distinct graphs than the bound leaves at most
        the bound in each memo (both grew without limit before)."""
        clear_vm_cache()
        clear_subgraph_cache()
        try:
            for _ in range(300):
                gm = symbolic_trace(
                    nn.Sequential(nn.Linear(2, 2), nn.ReLU()).eval())
                compile_to_vm(gm)
                to_backend(gm, "trt")
            assert vm_cache_info()["size"] <= 256
            assert subgraph_cache_info()["size"] <= 256
        finally:
            clear_vm_cache()
            clear_subgraph_cache()


class TestVMMemoSingleFlight:
    def test_concurrent_same_graph_compiles_once(self):
        """Revert note: without ``_COMPILE_MUTEX``/``_CACHE_LOCK`` in
        ``compile_to_vm``, all 8 barrier-released threads miss and
        compile, so ``misses == 8`` and callers hold distinct program
        objects — this assertion fails deterministically on the pre-fix
        code."""
        clear_vm_cache()
        gm = symbolic_trace(MLP().eval())
        programs = [None] * N_THREADS

        def worker(i):
            programs[i] = compile_to_vm(gm)

        _run_threads(N_THREADS, worker)
        info = vm_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == N_THREADS - 1
        assert info["size"] == 1
        assert all(p is programs[0] for p in programs)

    def test_counters_consistent_across_mixed_keys(self):
        clear_vm_cache()
        repro.manual_seed(7)
        gms = [symbolic_trace(MLP().eval()) for _ in range(4)]
        calls_per_thread = 8

        def worker(i):
            for j in range(calls_per_thread):
                gm = gms[(i + j) % len(gms)]
                prog = compile_to_vm(gm)
                x = repro.randn(2, 8)
                assert np.allclose(prog.run(x).data, gm(x).data,
                                   atol=1e-6)

        _run_threads(N_THREADS, worker)
        info = vm_cache_info()
        # Every call counted exactly once, one insert per distinct key.
        assert info["hits"] + info["misses"] == N_THREADS * calls_per_thread
        assert info["misses"] == info["size"] == len(gms)


class TestSubgraphMemoSingleFlight:
    def test_concurrent_same_model_builds_once(self):
        """Revert note: pre-fix, concurrent ``to_backend`` calls on one
        model each missed the partition memo and built their own engine
        (``misses == 8``); with single-flight exactly one build happens
        and every caller shares it."""
        clear_subgraph_cache()
        gm = symbolic_trace(MLP().eval())
        before = subgraph_cache_info()
        results = [None] * N_THREADS

        def worker(i):
            results[i] = to_backend(gm, "trt")

        _run_threads(N_THREADS, worker)
        after = subgraph_cache_info()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == N_THREADS - 1
        x = repro.randn(2, 8)
        expected = gm(x).data
        for r in results:
            assert np.allclose(r(x).data, expected, rtol=1e-3, atol=1e-5)


class TestAnalysisMemoSingleFlight:
    def test_concurrent_same_graph_computes_once(self):
        """Every thread asks for one analysis of one graph; the compute
        sleeps so that, without single-flight, all of them would miss."""
        computes = []

        @register_analysis
        class Slow(Analysis):
            name = "test-slow-count"

            def compute(self, gm, ctx):
                computes.append(1)
                time.sleep(0.05)
                return [len(gm.graph)]

        try:
            clear_analysis_cache()
            gm = symbolic_trace(MLP().eval())
            results = [None] * N_THREADS

            def worker(i):
                results[i] = AnalysisContext(gm).get("test-slow-count")

            _run_threads(N_THREADS, worker)
            info = analysis_cache_info()
            assert len(computes) == 1
            assert info["misses"] == info["size"] == 1
            assert info["hits"] + info["misses"] == N_THREADS
            assert all(r is results[0] for r in results)
        finally:
            analysis_engine._REGISTRY.pop("test-slow-count")
            clear_analysis_cache()


class TestCodegenCacheConcurrent:
    def test_concurrent_same_graph_compiles_once(self, monkeypatch):
        """Codegen is slowed down so that, without single-flight, every
        racing ``recompile()`` would miss and compile its own forward."""
        gm = symbolic_trace(MLP().eval())
        python_code = Graph.python_code

        def slow_python_code(self, *args, **kwargs):
            time.sleep(0.05)
            return python_code(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "python_code", slow_python_code)
        clear_codegen_cache()
        forwards = [None] * N_THREADS

        def worker(i):
            gm.recompile()
            forwards[i] = gm.forward.__func__

        _run_threads(N_THREADS, worker)
        info = codegen_cache_info()
        assert info["misses"] == info["size"] == 1
        assert info["hits"] + info["misses"] == N_THREADS
        assert all(f is forwards[0] for f in forwards)

    def test_counters_and_entries_stay_consistent(self):
        clear_codegen_cache()
        repro.manual_seed(11)
        # 4 structurally distinct graphs; every recompile() does exactly
        # one counted get(), so hits + misses must equal total recompiles
        # (pre-fix, racing ``hits += 1`` read-modify-writes lose updates).
        models = [symbolic_trace(nn.Sequential(nn.Linear(4, 4), nn.ReLU()))
                  for _ in range(2)]
        models += [symbolic_trace(MLP().eval()) for _ in range(2)]
        recompiles_per_thread = 12
        before = codegen_cache_info()

        def worker(i):
            for j in range(recompiles_per_thread):
                models[(i + j) % len(models)].recompile()

        _run_threads(N_THREADS, worker)
        after = codegen_cache_info()
        did = N_THREADS * recompiles_per_thread
        assert (after["hits"] - before["hits"]) \
            + (after["misses"] - before["misses"]) == did

    def test_concurrent_recompile_still_executes(self):
        clear_codegen_cache()
        gm = symbolic_trace(MLP().eval())
        x = repro.randn(2, 8)
        expected = gm(x).data

        def worker(i):
            for _ in range(10):
                gm.recompile()
                assert np.allclose(gm(x).data, expected, atol=1e-6)

        _run_threads(4, worker)


class TestTransformCacheConcurrent:
    def test_isolated_cache_counters_add_up(self):
        cache = TransformCache()
        gm = symbolic_trace(MLP().eval())
        pm = PassManager([eliminate_dead_code], cache=cache)
        x = repro.randn(2, 8)
        expected = gm(x).data

        def worker(i):
            for _ in range(6):
                out = pm.run(gm).graph_module
                assert np.allclose(out(x).data, expected, atol=1e-6)

        _run_threads(N_THREADS, worker)
        # One lookup per run; all lookups counted, at most a handful of
        # racing first-miss compiles stored under the same key.
        assert cache.hits + cache.misses == N_THREADS * 6
        assert len(cache) == 1

    def test_shared_cache_concurrent_pipelines(self):
        gm = symbolic_trace(MLP().eval())
        x = repro.randn(2, 8)
        expected = gm(x).data

        def worker(i):
            pm = PassManager([eliminate_dead_code])
            for _ in range(4):
                out = pm.run(gm).graph_module
                assert np.allclose(out(x).data, expected, atol=1e-6)

        _run_threads(N_THREADS, worker)


# -- VMProgram shared-arena reentrancy ------------------------------------------


def _barrier_program(barrier: threading.Barrier) -> VMProgram:
    """A 3-instruction arena-planned program engineered so that two
    concurrent runs sharing one arena *must* interleave write -> read:

        %r1 = write_slot(%r0)   # copy input into arena slot 0
        %r2 = sync(%r1)         # rendezvous: both threads have written
        %r3 = snapshot(%r2)     # read the slot back (copy)

    With private per-call arenas each run reads back its own input; with
    a shared arena the slot holds whichever thread wrote last, so at
    least one thread snapshots the other's data.
    """

    def write_slot(x, out=None):
        buf = out.materialize()
        buf[...] = x.data
        return Tensor._wrap(buf)

    def sync(t):
        barrier.wait(timeout=10)
        return t

    def snapshot(t):
        return Tensor._wrap(t.data.copy())

    instructions = [
        Instruction(kind="call", target=write_slot, args=(Reg(0),),
                    out=1, out_slot=0, name="write"),
        Instruction(kind="call", target=sync, args=(Reg(1),), out=2,
                    name="sync"),
        Instruction(kind="call", target=snapshot, args=(Reg(2),), out=3,
                    name="read"),
    ]
    return VMProgram(instructions, 4, [(0, "x", False, None)], Reg(3),
                     {}, [((4,), "float32")], name="barrier_prog")


class TestVMProgramReentrancy:
    def _race(self, program) -> list:
        xs = [Tensor._wrap(np.full((4,), float(i + 1), np.float32))
              for i in range(2)]
        results = [None, None]

        def worker(i):
            results[i] = program.run(xs[i]).data.copy()

        _run_threads(2, worker)
        return [np.array_equal(results[i], xs[i].data) for i in range(2)]

    def test_shared_arena_corrupts_unguarded(self):
        """The pre-fix execution path (every call replaying through the
        one program-owned arena) corrupts concurrent runs — demonstrated
        by a mutant that makes the lease pool hand every caller the
        primary lease, which is exactly what the pre-PR-7 ``run`` did."""
        barrier = threading.Barrier(2)
        program = _barrier_program(barrier)
        program._grow_lease = lambda: (program.arena, program._steps)
        ok = self._race(program)
        assert not all(ok), \
            "shared-arena replay unexpectedly produced correct results"

    def test_lease_pool_isolates_concurrent_runs(self):
        barrier = threading.Barrier(2)
        program = _barrier_program(barrier)
        ok = self._race(program)
        assert all(ok)
        assert program.n_leases == 2  # pool grew to observed concurrency

    def test_sequential_runs_reuse_primary_lease(self):
        program = _barrier_program(threading.Barrier(1))
        x = Tensor._wrap(np.arange(4, dtype=np.float32))
        before = program.arena.materializations
        for _ in range(5):
            assert np.array_equal(program.run(x).data, x.data)
        assert program.n_leases == 1
        assert program.arena.materializations == max(before, 1)

    def test_compiled_model_concurrent_exactness(self):
        """End-to-end: a fused, arena-planned model compiled to the VM
        stays exact under an 8-way hammer (probabilistically corrupt
        pre-fix)."""

        class Mix(nn.Module):
            def __init__(self):
                super().__init__()
                self.l1 = nn.Linear(8, 8)
                self.l2 = nn.Linear(8, 8)

            def forward(self, x):
                t = F.sigmoid(F.relu(x * 1.1 + 0.2) * 0.9)
                t = self.l1(t)
                t = F.tanh(F.relu(t * 1.2 + 0.1) + 0.3)
                t = self.l2(t)
                return F.relu(t) * 1.01 + 0.01

        repro.manual_seed(3)
        model = Mix().eval()
        x0 = repro.randn(4, 8)
        vm = fx_compile(model, (x0,), executor="vm")
        assert vm.program.arena is not None, \
            "workload no longer exercises the arena; strengthen the model"

        def worker(i):
            repro.manual_seed(100 + i)
            x = repro.randn(4, 8)
            expected = model(x).data
            for _ in range(100):
                assert np.allclose(vm(x).data, expected, atol=1e-6)

        _run_threads(N_THREADS, worker)
