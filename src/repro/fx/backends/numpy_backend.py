"""The ``"numpy"`` backend: the §6.2 optimizing pipeline as a Backend.

This is :func:`repro.fx.compile`'s engine room, relocated.  The stage
list (shape-prop → DCE → CSE → const-fold → conv-bn-fuse →
pointwise-fuse → memory-plan) lives here as the backend's *preferred
passes*, so ``fx.compile`` is a thin adapter over
:func:`~repro.fx.backends.to_backend` and any other caller gets the same
pipeline by asking for backend ``"numpy"``.

Because the backend executes on the same numpy substrate as eager mode,
it replays in-place mutation faithfully (``respects_effects``), and its
"compilation" of a subgraph is the subgraph itself — all optimization
already happened at whole-graph scope where example-input shapes are
known.  It is deliberately *not* cacheable: the result is the
freshly-transformed module, and callers own it exclusively (the
``fx.compile`` no-mutation contract).

The transform cache still covers the whole pipeline: the four
shape-specialized stages are closures over the example inputs, and each
carries a ``cache_token`` naming what it captured (the inputs' shapes,
dtypes and non-tensor values), so every stage has a stable identity and
the pipeline is one cached run.  A warm compile replays it with one
content hash and one unpickle.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ...nn import Module
from ...tensor import Tensor
from ..graph_module import GraphModule
from ..node import Node
from ..passes import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    fuse_conv_bn,
)
from ..passes import pointwise_fuser
from ..passes.memory_planner import plan_memory
from ..passes.pointwise_fuser import fuse_pointwise
from ..passes.shape_prop import ShapeProp
from ..rules.engine import apply_default_rules
from .base import Backend

__all__ = ["NumpyBackend"]

_SCALARS = (type(None), bool, int, float, complex, str)


def _inputs_token(value: Any) -> Optional[str]:
    """What a shape-specialized stage depends on in *value*: the shapes
    and dtypes of its tensors and the reprs of its scalars.  ``None``
    for anything else — such inputs leave the stages uncached."""
    if isinstance(value, Tensor):
        return f"tensor{tuple(value.shape)}:{value.dtype}"
    if isinstance(value, _SCALARS):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, dict):
        value = tuple(value.items())
    if isinstance(value, (tuple, list)):
        parts = [_inputs_token(v) for v in value]
        if None not in parts:
            return f"{type(value).__name__}({','.join(parts)})"
    return None


class NumpyBackend(Backend):
    """Optimizing numpy pipeline (§6.2) behind the Backend protocol.

    Args:
        example_inputs: inputs to propagate shapes from; fusion and
            memory planning specialize against these and are skipped
            without them (generic cleanups still run).
        fuse: enable pointwise-region fusion.
        memory_planning: enable arena planning of fused intermediates.
        rules: enable the declarative rewrite-rule stage (the bit-exact
            ``repro.fx.rules`` stdlib, applied to fixpoint with a
            per-firing verifier).

    The memory-planning stage leaves its
    :class:`~repro.fx.passes.memory_planner.MemoryPlan` on the module as
    ``memory_plan``, so the plan travels with the module through the
    transform cache.
    """

    name = "numpy"
    cacheable = False       # compile_subgraph returns the module itself
    respects_effects = True  # same substrate as eager: mutation replays

    def __init__(self, example_inputs: Sequence = (), *,
                 fuse: bool = True, memory_planning: bool = True,
                 rules: bool = True):
        self.example_inputs = tuple(example_inputs)
        self.fuse = fuse
        self.memory_planning = memory_planning
        self.rules = rules

    def is_node_supported(self, node: Node, modules) -> bool:
        # The Interpreter runs the full substrate; everything is fair game.
        return True

    def preferred_passes(self, gm: GraphModule) -> list:
        needs_inputs = any(n.op == "placeholder" and not n.args
                           for n in gm.graph.nodes)
        have_inputs = bool(self.example_inputs) or not needs_inputs
        example_inputs = self.example_inputs

        def shape_prop(g: GraphModule) -> None:
            ShapeProp(g).propagate(*example_inputs)

        def shape_refresh(g: GraphModule) -> None:
            # The rewrite stages create and replace nodes; re-stamp every
            # node's metadata so fusion never specializes on missing or
            # stale shapes.
            ShapeProp(g).propagate(*example_inputs)

        def pointwise_fuse(g: GraphModule) -> int:
            return fuse_pointwise(g)

        def memory_plan(g: GraphModule) -> None:
            g.memory_plan = plan_memory(g)

        token = _inputs_token(example_inputs)
        if token is not None:
            for stage in (shape_prop, shape_refresh, memory_plan):
                stage.cache_token = token
            pointwise_fuse.cache_token = \
                f"{token};registry={pointwise_fuser._registry_version}"

        stages: list = []
        if have_inputs:
            stages.append(("shape_prop", shape_prop))
        stages += [
            ("dce", eliminate_dead_code),
            ("cse", eliminate_common_subexpressions),
            ("const_fold", fold_constants),
        ]
        if self.rules:
            stages.append(("rules", apply_default_rules))
        if not gm.training:
            # fuse_conv_bn refuses training-mode modules (running stats
            # would diverge); skip it rather than fail the pipeline.
            stages.append(("fuse_conv_bn", fuse_conv_bn))
        if self.fuse and have_inputs:
            stages += [
                ("shape_refresh", shape_refresh),
                ("pointwise_fuse", pointwise_fuse),
            ]
        if self.memory_planning and have_inputs:
            stages.append(("memory_plan", memory_plan))
        return stages

    def compile_subgraph(self, gm: GraphModule) -> Module:
        # Whole-graph optimization already ran in preferred_passes; the
        # per-shape stages (fusion, arena planning) cannot re-run on a
        # subgraph whose input shapes are unknown, so the subgraph *is*
        # the compiled artifact.
        return gm
