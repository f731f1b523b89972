"""``to_backend`` — the one entrypoint every lowering path goes through.

The paper's backend integrations (§5, §6.2, §6.4) all follow one shape:

    capture -> backend's preferred passes -> partition by capability
            -> compile each supported partition -> stitch with fallback

This module implements that shape once, on top of the instrumented
:class:`~repro.fx.passes.PassManager` (with the analysis-backed
:class:`~repro.fx.analysis.PassVerifier` on by default), the
dependency-aware :class:`~repro.fx.backends.CapabilityPartitioner`, and a
per-partition compile memo keyed on ``Graph.structural_hash()`` so
structurally identical subgraphs — repeated transformer/ResNet blocks with
tied weights, or the same model lowered twice — build once.

The support check is a *pre-pass*: unsupported operators are discovered by
querying the backend's predicate before any compilation starts, never by
launching an engine build and catching a failure halfway through, so no
compile work is ever started and then thrown away.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ...nn import Module
from ..concurrency import Memo
from ..graph import UnstableHashError
from ..graph_module import GraphModule
from ..passes import PassManager, PassRecord
from ..passes.split_module import split_module
from ..tracer import symbolic_trace
from .base import Backend, UnsupportedNodesError, get_backend
from .partitioner import CapabilityPartitioner, full_cover_pids

__all__ = [
    "BackendReport",
    "to_backend",
    "subgraph_cache_info",
    "clear_subgraph_cache",
]


@dataclass
class BackendReport:
    """What one :func:`to_backend` call did.

    Attributes:
        backend: registry name of the backend used.
        nodes_before: node count of the captured graph.
        nodes_after: node count after the backend's preferred passes.
        n_partitions: compiled (supported) partitions in the result.
        n_supported_nodes: nodes living inside those partitions.
        n_fallback_nodes: nodes left to eager execution.
        cache_hits / cache_misses: per-partition compile memo traffic for
            this call (a hit means a structurally identical subgraph was
            already compiled and its module was reused).
        records: per-pass :class:`~repro.fx.passes.PassRecord` metrics
            from the preferred-pass pipeline.
        total_time: wall-clock seconds for the whole lowering.
    """

    backend: str = ""
    nodes_before: int = 0
    nodes_after: int = 0
    n_partitions: int = 0
    n_supported_nodes: int = 0
    n_fallback_nodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    records: list[PassRecord] = field(default_factory=list)
    total_time: float = 0.0

    def format(self) -> str:
        lines = [
            f"to_backend({self.backend!r}) report",
            f"  nodes: {self.nodes_before} -> {self.nodes_after} "
            f"({self.n_supported_nodes} compiled in {self.n_partitions} "
            f"partition(s), {self.n_fallback_nodes} eager)",
            f"  partition cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)",
            f"  total: {self.total_time * 1e3:.3f} ms",
        ]
        for r in self.records:
            lines.append(f"  pass {r.name}: {r.wall_time * 1e3:.3f} ms, "
                         f"{r.nodes_before}->{r.nodes_after}"
                         + (" (cache hit)" if r.cache_hit else ""))
        return "\n".join(lines)


# -- per-partition compile memo ------------------------------------------------

#: (backend cache namespace, structural hash) -> compiled Module.  Stores
#: module objects, not pickles: engine closures are not picklable, and the
#: hash covers parameter/buffer bytes, so an equal key implies the same
#: function.  Shared modules are safe for sequential reuse (backends with
#: per-call state must set ``cacheable = False``).  Builds are
#: single-flight, so concurrent lowerings of structurally identical
#: partitions build once and share the module (one miss, the rest hits).
_SUBGRAPH_CACHE = Memo(256)


def subgraph_cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the shared per-partition compile memo."""
    return _SUBGRAPH_CACHE.info()


def clear_subgraph_cache() -> None:
    """Drop every memoized compiled partition."""
    _SUBGRAPH_CACHE.clear()


def _compile_partition(backend: Backend, sub_gm: GraphModule,
                       stats: dict) -> Module:
    if not backend.cacheable:
        return backend.compile_subgraph(sub_gm)
    try:
        # Canonicalized targets: identity rests on ops + state bytes, so
        # repeated blocks (layer1.0 vs layer1.1, equal weights) and
        # re-lowerings of the same model share one compiled artifact.
        key = (backend.cache_namespace,
               sub_gm.graph.structural_hash(include_attrs=True,
                                            require_stable=True,
                                            canonicalize_targets=True))
    except UnstableHashError:
        # Un-pickle-able leaf state means the hash would fall back to
        # object identity — skip the memo rather than cache unsoundly.
        return backend.compile_subgraph(sub_gm)

    compiled, hit = _SUBGRAPH_CACHE.get_or_build(
        key, lambda: backend.compile_subgraph(sub_gm))
    stats["hits" if hit else "misses"] += 1
    return compiled


# -- the entrypoint ------------------------------------------------------------

def to_backend(
    model: Union[Module, GraphModule],
    backend: Union[str, Backend],
    *,
    allow_fallback: bool = True,
    inline_unsupported: bool = True,
    merge_independent: bool = False,
    lint: bool = False,
    cache: bool = True,
    verify: bool = True,
    executor: Optional[str] = None,
    shards: int = 1,
    example_inputs: Optional[Sequence] = None,
    shard_config=None,
) -> Module:
    """Lower *model* onto *backend*, falling back to eager where needed.

    Args:
        model: a ``Module`` (symbolically traced first) or a
            ``GraphModule`` (never mutated — lowering works on a
            pickle-copy).
        backend: a registry name (see
            :func:`~repro.fx.backends.registered_backends`) or a
            :class:`Backend` instance.
        allow_fallback: if True, nodes the backend cannot compile run
            eagerly; if False their presence raises
            :class:`UnsupportedNodesError` *before* any compilation.
        inline_unsupported: if True (default), fallback nodes are emitted
            inline in the top-level graph — only supported partitions
            become submodules, so an unsupported side branch costs zero
            extra partitions.  If False, fallback nodes are grouped into
            eager submodules too (full-cover split; the shape the old
            ``lower_with_fallback`` produced).
        merge_independent: also co-locate dependency-independent supported
            partitions (see :class:`CapabilityPartitioner`).
        lint: validate the IR after every preferred pass.
        cache: use the structural-hash transform cache for the preferred
            passes.
        verify: run the :class:`~repro.fx.analysis.PassVerifier` after
            every preferred pass.
        executor: how the resulting graph executes — ``"codegen"`` (the
            generated forward) or ``"vm"`` (flattened onto the
            :class:`~repro.fx.vm.VMProgram` bytecode tier, so fallback
            nodes replay as flat instructions instead of dispatching
            through generated source).  ``None`` (default) defers to the
            backend's ``executor`` attribute.
        shards: when > 1, compile into a sharded pipeline instead: the
            cost model balances an N-stage cut, each stage lowers through
            this same per-partition path, and the result is a
            :class:`~repro.fx.sharding.ShardedModule` running the stages
            in a persistent worker-process pool (requires
            ``example_inputs`` for shape propagation).
        example_inputs: example inputs for the shard planner's shape
            propagation (``shards > 1``).  When given with ``shards == 1``
            they additionally drive guard derivation: a
            :class:`~repro.fx.analysis.guards.GuardSet` proved by symbolic
            shape propagation over the pristine capture is attached to the
            result as ``.guards`` (and into ``VMProgram.meta["guards"]``),
            recording which input dims the artifact is generic over.
        shard_config: optional :class:`~repro.fx.sharding.ShardConfig`.

    Returns:
        When the whole graph is supported, whatever
        ``backend.compile_subgraph`` returns for it (e.g. a ``TRTModule``);
        otherwise a split ``GraphModule`` whose ``submod_<pid>`` children
        are the compiled partitions.  Either way the result carries a
        :class:`BackendReport` on ``.backend_report``.
    """
    if shards > 1:
        from ..sharding import shard

        if example_inputs is None:
            raise ValueError(
                "to_backend(shards=N) needs example_inputs= so the shard "
                "planner can shape-propagate and cost the graph")
        return shard(model, backend, shards=shards,
                     example_inputs=example_inputs, executor=executor,
                     config=shard_config, verify=verify, lint=lint)

    start = time.perf_counter()
    be = get_backend(backend) if isinstance(backend, str) else backend
    if not isinstance(be, Backend):
        raise TypeError(f"backend must be a name or Backend instance, "
                        f"got {type(backend).__name__}")
    exec_mode = executor if executor is not None \
        else getattr(be, "executor", "codegen")
    if exec_mode not in ("codegen", "vm"):
        raise ValueError(f"unknown executor {exec_mode!r}; "
                         f"expected 'codegen' or 'vm'")

    if isinstance(model, GraphModule):
        gm = pickle.loads(pickle.dumps(model))
    else:
        gm = symbolic_trace(model)
    be.validate_input(gm)
    nodes_before = len(gm.graph)

    # Guard derivation runs on the pristine capture, before any backend
    # pass rewrites nodes into targets (FusedKernel, ...) that symbolic
    # shape propagation has no transfer functions for.
    guards = None
    if example_inputs is not None:
        from ..analysis.guards import derive_guards

        try:
            guards = derive_guards(gm, tuple(example_inputs))
        except Exception:
            guards = None

    records: list[PassRecord] = []
    passes = be.preferred_passes(gm)
    if passes:
        verifier = None
        if verify:
            from ..analysis import PassVerifier

            verifier = PassVerifier()
        result = PassManager(passes, lint_after_each=lint, cache=cache,
                             verifier=verifier).run(gm)
        gm = result.graph_module
        records = result.records

    partitioner = CapabilityPartitioner(
        be.is_node_supported,
        mask_effects=not be.respects_effects,
        merge_independent=merge_independent,
    )
    plan = partitioner.partition(gm)

    if plan.unsupported and not allow_fallback:
        raise UnsupportedNodesError(be.name,
                                    [n.name for n in plan.unsupported])

    stats = {"hits": 0, "misses": 0}
    if plan.fully_supported and len(plan.partitions) <= 1:
        # Whole graph fits one partition: compile it directly, preserving
        # the backend's native return type (TRTModule, optimized
        # GraphModule, ...) with no split wrapper around it.
        out: Module = _compile_partition(be, gm, stats)
    else:
        if inline_unsupported:
            split_gm = split_module(gm, lambda n: plan.node_pid.get(n))
            supported_names = [f"submod_{pid}"
                               for pid in sorted(plan.partitions)]
        else:
            pids, supported_pids = full_cover_pids(gm, plan)
            split_gm = split_module(gm, lambda n: pids[n])
            supported_names = [f"submod_{pid}"
                               for pid in sorted(supported_pids)]
        for name in supported_names:
            sub = split_gm.get_submodule(name)
            setattr(split_gm, name, _compile_partition(be, sub, stats))
        out = split_gm

    if exec_mode == "vm" and isinstance(out, GraphModule):
        # Flatten the stitched graph (compiled partitions are resolved
        # call_module targets; fallback nodes become flat instructions)
        # onto the bytecode tier.  Backends returning a native module
        # (e.g. a TRTModule) already bypass per-node dispatch.
        from ..vm import VMModule, compile_to_vm

        out = VMModule(compile_to_vm(out))

    report = BackendReport(
        backend=be.name,
        nodes_before=nodes_before,
        nodes_after=len(gm.graph),
        n_partitions=len(plan.partitions) or (1 if plan.fully_supported else 0),
        n_supported_nodes=sum(len(v) for v in plan.partitions.values()),
        n_fallback_nodes=len(plan.unassigned),
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
        records=records,
        total_time=time.perf_counter() - start,
    )
    try:
        out.backend_report = report
        if guards is not None:
            out.guards = guards
            prog = getattr(out, "program", None)
            if prog is not None and hasattr(prog, "meta"):
                prog.meta["guards"] = guards
    except Exception:  # a backend may return a slotted/frozen module
        pass
    return out
