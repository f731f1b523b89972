"""Per-layer instrumentation: span wrappers installed around the public
entry points of each layer, from the benchmark's side.

Nothing under ``src/`` is edited.  A module-level function is replaced in
every ``repro`` module that bound it (``from x import f`` copies the
reference), a method is replaced on its class.  ``functools.wraps`` keeps
the wrapped pass functions' ``module.qualname`` identity, so the
transform cache keys them exactly as it keys the originals and a traced
compile hits and misses the same caches as an untraced one.
"""

from __future__ import annotations

import contextlib
import pickle
import sys
from typing import Any, Callable, Optional

from spans import Span, Tracer

Attrs = Optional[Callable[[tuple, dict, Any], dict]]

#: NumpyBackend/TRTBackend stage name -> module-level pass function.
MODULE_PASSES = {
    "dce": ("repro.fx.passes.dce", "eliminate_dead_code"),
    "cse": ("repro.fx.passes.cse", "eliminate_common_subexpressions"),
    "const_fold": ("repro.fx.passes.const_fold", "fold_constants"),
    "rules": ("repro.fx.rules.engine", "apply_default_rules"),
    "fuse_conv_bn": ("repro.fx.passes.fuser", "fuse_conv_bn"),
}
#: Span-name prefixes of the compile layers: init under one of them is
#: work a compile does (conv-bn folding builds fresh Conv2d modules).
COMPILE_LAYERS = ("tracer", "passes.", "rules", "partition", "split",
                  "compile_subgraph.", "codegen", "vm.compile")
PASS_NAMES = ("shape_prop", "dce", "cse", "const_fold", "rules",
              "fuse_conv_bn", "shape_refresh", "pointwise_fuse",
              "memory_plan")


class Patches:
    """Installs span wrappers and puts the originals back on ``restore``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []
        self._undo_globals: list[tuple[dict, str, Any]] = []
        self._wrapper_of: dict[int, tuple[Any, Any]] = {}

    def _set(self, obj: Any, attr: str, value: Any) -> None:
        orig = getattr(obj, attr)
        self._undo.append((obj, attr, orig))
        self._wrapper_of[id(orig)] = (orig, value)
        setattr(obj, attr, value)

    def function(self, module: str, attr: str, name: str,
                 attrs: Attrs = None) -> None:
        orig = getattr(sys.modules[module], attr)
        wrapped = self.tracer.wrap(orig, name, attrs)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def method(self, cls: type, attr: str, name: str, attrs: Attrs = None,
               aliases: tuple = ()) -> None:
        wrapped = self.tracer.wrap(cls.__dict__[attr], name, attrs)
        for a in (attr,) + aliases:
            self._set(cls, a, wrapped)

    def rebind_globals(self, fn_globals: dict) -> None:
        """Point a generated forward's global references at the wrappers
        (codegen binds call targets by value when it execs the source)."""
        for key, value in list(fn_globals.items()):
            orig, wrapped = self._wrapper_of.get(id(value), (None, None))
            if orig is value:
                self._undo_globals.append((fn_globals, key, value))
                fn_globals[key] = wrapped

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
        while self._undo_globals:
            table, key, value = self._undo_globals.pop()
            table[key] = value
        self._wrapper_of.clear()


def nbytes(x: Any) -> int:
    return int(getattr(getattr(x, "data", x), "nbytes", 0))


def size(x: Any) -> int:
    return int(getattr(getattr(x, "data", x), "size", 0))


def start(run, tracer: Tracer) -> tuple[Patches, dict]:
    """Install the run-long wrappers; returns them with the cache
    counters they start from."""
    p = Patches(tracer)
    install(p)
    return p, run.cache_counters()


def finish(run, tracer: Tracer, p: Patches, before: dict) -> None:
    """Derive every per-layer metric of the run, then remove the wrappers."""
    derive_compile(run, tracer, before, run.cache_counters())
    derive_runtime(run, tracer)
    p.restore()


# -- compile side -----------------------------------------------------------


def install(p: Patches) -> None:
    """Every wrapper that may stay installed for the whole run: the
    compile layers plus the class-level runtime entry points (fused
    kernels, VM programs).  Installed before set-up, so the compiles that
    set-up does are traced too."""
    from repro.fx.passes.pointwise_fuser import FusedKernel
    from repro.fx.vm import VMProgram

    install_compile(p)
    p.method(FusedKernel, "__call__", "kernel.fused", _fused_bytes)
    p.method(VMProgram, "run", "vm.run", lambda a, k, out: {
        "rid": id(a[1]) if len(a) > 1 else 0,
        "rows": int(getattr(a[1], "shape", (0,))[0]) if len(a) > 1 else 0},
        aliases=("__call__",))


def install_compile(p: Patches) -> None:
    import repro.fx.analysis.guards  # noqa: F401 - imported lazily by src
    import repro.nn.init as init
    import repro.trt.backend  # noqa: F401 - registered lazily
    from repro.fx.analysis import PassVerifier
    from repro.fx.backends import CapabilityPartitioner, NumpyBackend
    from repro.fx.graph import Graph
    from repro.fx.graph_module import GraphModule
    from repro.fx.passes import PassManager
    from repro.fx.rules import RuleSet
    from repro.trt.backend import TRTBackend

    p.function("repro.fx.tracer", "symbolic_trace", "tracer",
               lambda a, k, out: {"nodes": len(out.graph.nodes)
                                  if out is not None else 0})
    p.method(Graph, "structural_hash", "hash")
    # Callers use ``pickle.dumps``/``pickle.loads`` through the module.
    p._set(pickle, "dumps", p.tracer.wrap(
        pickle.dumps, "pickle", lambda a, k, out: {"bytes": len(out)
                                                  if out else 0}))
    p._set(pickle, "loads", p.tracer.wrap(
        pickle.loads, "pickle", lambda a, k, out: {"bytes": len(a[0])}))
    for stage, (module, attr) in MODULE_PASSES.items():
        __import__(module)
        p.function(module, attr, f"passes.{stage}")
    for backend in (NumpyBackend, TRTBackend):
        orig = backend.__dict__["preferred_passes"]
        p._set(backend, "preferred_passes", _traced_stages(p.tracer, orig))
    p.method(PassManager, "run", "passmanager", lambda a, k, out: {
        "hits": sum(r.cache_hit for r in out.records) if out else 0,
        "lookups": len(out.records) if out else 0})
    for attr in ("before_pipeline", "after_pass", "advance", "snapshot"):
        p.method(PassVerifier, attr, "verifier")
    p.function("repro.fx.analysis.guards", "derive_guards", "guards")
    p.method(RuleSet, "apply", "rules", lambda a, k, out: {
        "firings": out.total_firings if out is not None else 0})
    for attr, fn in list(vars(init).items()):
        if callable(fn) and not attr.startswith("_") \
                and getattr(fn, "__module__", "") == init.__name__:
            p.function(init.__name__, attr, "nn.init")
    p.method(CapabilityPartitioner, "partition", "partition")
    p.function("repro.fx.passes.split_module", "split_module", "split")
    p.method(NumpyBackend, "compile_subgraph", "compile_subgraph.numpy")
    p.method(TRTBackend, "compile_subgraph", "compile_subgraph.trt")
    p.method(GraphModule, "recompile", "codegen")
    p.function("repro.fx.vm.compiler", "compile_to_vm", "vm.compile")


def _traced_stages(tracer: Tracer, orig: Callable) -> Callable:
    """``preferred_passes`` whose closure stages record ``passes.<name>``.

    Closures are never transform-cached (no stable identity), so wrapping
    them changes no caching; module-level stages are already wrapped in
    place by ``install_compile`` and pass through untouched.
    """

    def preferred_passes(self, gm):
        stages = []
        for name, fn in orig(self, gm):
            if "<locals>" in getattr(fn, "__qualname__", ""):
                fn = tracer.wrap(fn, f"passes.{name}")
            stages.append((name, fn))
        return stages

    return preferred_passes


def _ancestor_named(span: Span, prefixes: tuple) -> bool:
    s = span.parent
    while s is not None:
        if s.name.startswith(prefixes):
            return True
        s = s.parent
    return False


def derive_compile(run, tracer: Tracer, before: dict, after: dict) -> None:
    m = run.layer_metric
    spans = tracer.spans

    def attr_sum(name: str, key: str) -> int:
        return sum((s.attrs or {}).get(key, 0) for s in spans
                   if s.name == name)

    m("tracer.self_ms", tracer.self_ms("tracer"), "ms")
    m("tracer.nodes", attr_sum("tracer", "nodes"), "count")
    m("hash.calls", len(tracer.named("hash")), "count")
    m("hash.self_ms", tracer.self_ms("hash"), "ms")
    m("pickle.calls", len(tracer.named("pickle")), "count")
    m("pickle.self_ms", tracer.self_ms("pickle"), "ms")
    m("pickle.mb", attr_sum("pickle", "bytes") / 2**20, "MB")
    for stage in PASS_NAMES:
        m(f"passes.{stage}.self_ms", tracer.self_ms(f"passes.{stage}"), "ms")
    pm = tracer.named("passmanager")
    m("passmanager.self_ms", 1e3 * sum(
        s.dur - sum(c.dur for c in s.children
                    if c.name.startswith("passes.")) for s in pm), "ms")
    lookups = attr_sum("passmanager", "lookups")
    m("passes.cache_lookups", lookups, "count")
    m("passes.cache_hit_ratio",
      attr_sum("passmanager", "hits") / lookups if lookups else 0.0, "ratio")
    m("verifier.self_ms", tracer.self_ms("verifier"), "ms")
    m("guards.self_ms", tracer.self_ms("guards"), "ms")
    m("rules.self_ms", tracer.self_ms("rules"), "ms")
    m("rules.firings", attr_sum("rules", "firings"), "count")
    m("nn.init.self_ms", 1e3 * sum(
        s.self_time() for s in spans if s.name == "nn.init"
        and _ancestor_named(s, COMPILE_LAYERS)), "ms")
    for name in ("partition", "split", "compile_subgraph.numpy",
                 "compile_subgraph.trt", "codegen", "vm.compile"):
        m(f"{name}.self_ms", tracer.self_ms(name), "ms")
    for cache in ("partition_memo", "codegen", "vm.memo"):
        hits = after[cache]["hits"] - before[cache]["hits"]
        total = hits + after[cache]["misses"] - before[cache]["misses"]
        m(f"{cache}.lookups", total, "count")
        m(f"{cache}.hit_ratio", hits / total if total else 0.0, "ratio")


# -- runtime side -----------------------------------------------------------

#: Kernel metric name -> repro.functional ops it covers.
FUNCTIONAL_OPS = {
    "conv2d": ("conv2d",), "linear": ("linear",), "matmul": ("matmul",),
    "batch_norm": ("batch_norm",),
    "pooling": ("max_pool2d", "avg_pool2d", "adaptive_avg_pool2d"),
    "layer_norm": ("layer_norm",), "softmax": ("softmax",),
}


def _flops(op: str) -> Callable:
    """FLOPs of one call, from tensor shapes (conventions in README)."""

    def conv(a, k, out):
        w = a[1].shape
        return 2 * size(out) * w[1] * w[2] * w[3]

    def linear(a, k, out):
        return 2 * size(out) * a[1].shape[1]

    def matmul(a, k, out):
        return 2 * size(out) * a[0].shape[-1]

    per_element = {"batch_norm": 2, "layer_norm": 5, "softmax": 3}
    table = {"conv2d": conv, "linear": linear, "matmul": matmul}
    if op in table:
        f = table[op]
    elif op in per_element:
        f = (lambda n: lambda a, k, out: n * size(out))(per_element[op])
    else:  # pooling: one op per input element read
        f = lambda a, k, out: size(a[0])  # noqa: E731
    return lambda a, k, out: {"flops": f(a, k, out) if out is not None
                              else 0}


def _fused_bytes(a, k, out) -> dict:
    return {"bytes": sum(nbytes(x) for x in a) + nbytes(out)}


@contextlib.contextmanager
def kernels(tracer: Optional[Tracer], artifacts=()):
    """``repro.functional`` wrappers, installed only for the block (a
    no-op when *tracer* is ``None``, i.e. in the untraced run).

    Never hold them across a compile: a functional op wrapped while a
    model is traced would be recorded as the graph's call target and stop
    matching the fusion and rule patterns.  Generated forwards bind their
    call targets by value, so the globals of *artifacts* are pointed at
    the wrappers too.
    """
    if tracer is None:
        yield
        return
    import repro.functional as F
    from repro.fx.graph_module import GraphModule

    p = Patches(tracer)
    for metric, ops in FUNCTIONAL_OPS.items():
        for op in ops:
            p.function(F.__name__, op, f"functional.{metric}", _flops(op))
    for art in artifacts:
        for mod in getattr(art, "modules", tuple)():
            if isinstance(mod, GraphModule):
                p.rebind_globals(mod.forward.__func__.__globals__)
    try:
        yield
    finally:
        p.restore()


def derive_runtime(run, tracer: Tracer) -> None:
    m = run.layer_metric
    fused = tracer.named("kernel.fused")
    m("kernel.fused.calls", len(fused), "count")
    m("kernel.fused.self_ms", tracer.self_ms("kernel.fused"), "ms")
    m("kernel.fused.mb_moved",
      sum(s.attrs["bytes"] for s in fused if s.attrs) / 2**20, "MB")
    for metric in FUNCTIONAL_OPS:
        name = f"functional.{metric}"
        m(f"{name}.self_ms", tracer.self_ms(name), "ms")
        m(f"{name}.gflop", sum(s.attrs["flops"] for s in tracer.named(name)
                               if s.attrs) / 1e9, "GFLOP")
    m("vm.run.self_ms", tracer.self_ms("vm.run"), "ms")
    m("vm.run.calls", len(tracer.named("vm.run")), "count")
    m("dispatch.self_ms", 1e3 * sum(
        s.self_time() for s in tracer.spans
        if s.name.startswith("forward.")), "ms")
