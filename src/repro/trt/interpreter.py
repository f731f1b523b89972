"""The fx → engine translation layer (§6.4).

Mirrors fx2trt's ``TRTInterpreter``: walk the fx graph node by node,
translating each into a backend kernel.  Along the way it performs the
peephole fusions a real builder would (ReLU into the producing conv /
linear / residual-add epilogue) and resolves all ``get_attr`` state into
engine constants.

Unsupported nodes raise :class:`UnsupportedOperatorError`; the splitter
(:mod:`repro.trt.splitter`) uses :func:`is_node_supported` to route such
regions back to eager execution instead.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from .. import functional as F
from ..fx import GraphModule, Node
from ..nn import (
    AdaptiveAvgPool2d, AvgPool2d, BatchNorm2d, Conv2d, ConvTranspose2d,
    Dropout, Flatten, GELU, Identity, Linear, MaxPool2d, Module, ReLU, SELU,
    Sigmoid, Tanh, Upsample,
)
from ..functional import _pair
from ..tensor import Tensor
from . import ops
from .engine import EngineOp, TRTEngine

__all__ = ["TRTInterpreter", "UnsupportedOperatorError", "is_node_supported"]


class UnsupportedOperatorError(RuntimeError):
    """Raised when the graph contains a node the backend cannot lower."""


_ELEMENTWISE_MODULES: dict[type, str] = {
    ReLU: "relu", Sigmoid: "sigmoid", Tanh: "tanh", SELU: "selu", GELU: "gelu",
    Identity: "identity",
}
_ELEMENTWISE_FUNCTIONS: dict[Callable, str] = {
    F.relu: "relu", F.sigmoid: "sigmoid", F.tanh: "tanh", F.selu: "selu",
    F.gelu: "gelu", F.neg: "neg",
}
_ELEMENTWISE_METHODS = {"relu", "sigmoid", "tanh", "neg"}
_FLATTEN_TARGETS = {F.flatten}
_ADD_TARGETS = {operator.add, F.add}
_SCALAR_TYPES = (bool, int, float)


def _add_operands(node: Node):
    """``(tensor operands, scalar)`` of a supported add — two Nodes, or
    one Node and one Python scalar (lowered as a kernel constant) — or
    ``None`` when the backend cannot lower it (``alpha=``, other
    immediates)."""
    if node.kwargs or len(node.args) != 2:
        return None
    nodes = [a for a in node.args if isinstance(a, Node)]
    scalars = [a for a in node.args if isinstance(a, _SCALAR_TYPES)]
    if len(nodes) == 2:
        return nodes, None
    if len(nodes) == 1 and len(scalars) == 1:
        return nodes, scalars[0]
    return None


def _is_relu_node(node: Node, modules: dict[str, Module]) -> bool:
    if node.op == "call_module" and isinstance(modules.get(node.target), ReLU):
        return True
    if node.op == "call_function" and node.target is F.relu:
        return True
    if node.op == "call_method" and node.target == "relu":
        return True
    return False


def is_node_supported(modules: dict[str, Module], node: Node) -> bool:
    """Support predicate used by the interpreter and the splitter."""
    if node.op in ("placeholder", "output", "get_attr"):
        return True
    if node.op == "call_module":
        mod = modules.get(node.target)
        if isinstance(mod, Upsample):
            return mod.mode == "nearest" and mod.scale_factor is not None
        return isinstance(
            mod,
            (Conv2d, ConvTranspose2d, Linear, BatchNorm2d, MaxPool2d, AvgPool2d,
             AdaptiveAvgPool2d, Flatten, Dropout) + tuple(_ELEMENTWISE_MODULES),
        )
    if node.op == "call_function":
        if node.target in _ADD_TARGETS:
            return _add_operands(node) is not None
        return node.target in _ELEMENTWISE_FUNCTIONS \
            or node.target in _FLATTEN_TARGETS
    if node.op == "call_method":
        if node.target == "add":
            return _add_operands(node) is not None
        if node.target in _ELEMENTWISE_METHODS or node.target == "flatten":
            return True
        if node.target in ("reshape", "view"):
            return all(isinstance(a, int) for a in node.args[1:])
        return False
    return False


class TRTInterpreter:
    """Builds a :class:`~repro.trt.engine.TRTEngine` from a GraphModule."""

    def __init__(self, gm: GraphModule):
        self.gm = gm
        self.modules = dict(gm.named_modules())

    def run(self) -> TRTEngine:
        gm = self.gm
        modules = self.modules
        graph = gm.graph

        # -- plan epilogue fusions: relu folded into its producer --------------
        fused_into: dict[Node, Node] = {}  # relu node -> producer
        for node in graph.nodes:
            if not _is_relu_node(node, modules):
                continue
            producer = node.args[0] if node.args else None
            if not isinstance(producer, Node) or len(producer.users) != 1:
                continue
            if producer.op == "call_module" and isinstance(
                modules.get(producer.target), (Conv2d, ConvTranspose2d, Linear)
            ):
                fused_into[node] = producer
            elif producer.op == "call_function" and producer.target in _ADD_TARGETS:
                fused_into[node] = producer
            elif producer.op == "call_method" and producer.target == "add":
                fused_into[node] = producer
        relu_fused_producers = set(fused_into.values())

        # -- slot allocation ------------------------------------------------------
        slot_of: dict[Node, int] = {}
        next_slot = 0

        def new_slot(node: Node) -> int:
            nonlocal next_slot
            slot_of[node] = next_slot
            next_slot += 1
            return slot_of[node]

        constants: dict[int, np.ndarray] = {}
        input_slots: list[int] = []
        plan: list[EngineOp] = []

        def slot(node: Node) -> int:
            if node in fused_into:
                return slot(fused_into[node])
            return slot_of[node]

        for node in graph.nodes:
            if node.op == "placeholder":
                input_slots.append(new_slot(node))
                continue
            if node.op == "get_attr":
                value = self._fetch_attr(node.target)
                s = new_slot(node)
                constants[s] = value.data if isinstance(value, Tensor) else np.asarray(value)
                continue
            if node.op == "output":
                break
            if node in fused_into:
                # executed as the producer's epilogue; share its slot
                continue
            fuse_relu = node in relu_fused_producers
            fn, in_nodes = self._translate(node, fuse_relu)
            plan.append(
                EngineOp(
                    name=node.name,
                    fn=fn,
                    input_slots=tuple(slot(n) for n in in_nodes),
                    output_slot=new_slot(node),
                )
            )

        # -- liveness: free each non-constant slot after its last use ---------------
        last_use: dict[int, int] = {}
        for i, op in enumerate(plan):
            for s in op.input_slots:
                last_use[s] = i
        out_node = graph.output_node

        def out_spec(arg):
            if isinstance(arg, Node):
                s = slot(arg)
                last_use[s] = len(plan)  # outputs never freed
                return s
            if isinstance(arg, (tuple, list)):
                return tuple(out_spec(a) for a in arg)
            raise UnsupportedOperatorError(
                f"engine output must be tensors, got immediate {arg!r}"
            )

        spec = out_spec(out_node.args[0])
        for i, op in enumerate(plan):
            frees = tuple(
                s for s in set(op.input_slots)
                if last_use.get(s) == i and s not in constants and s not in input_slots
            )
            op.frees = frees

        return TRTEngine(plan, next_slot, input_slots, spec, constants)

    # -- per-node translation ---------------------------------------------------------

    def _translate(self, node: Node, fuse_relu: bool):
        modules = self.modules
        if node.op == "call_module":
            mod = modules.get(node.target)
            if isinstance(mod, Conv2d):
                fn = ops.build_conv2d(
                    mod.weight.data,
                    mod.bias.data if mod.bias is not None else None,
                    _pair(mod.stride), _pair(mod.padding), _pair(mod.dilation),
                    mod.groups, fuse_relu=fuse_relu,
                )
                return fn, [node.args[0]]
            if isinstance(mod, ConvTranspose2d):
                fn = ops.build_conv_transpose2d(
                    mod.weight.data,
                    mod.bias.data if mod.bias is not None else None,
                    _pair(mod.stride), _pair(mod.padding),
                    _pair(mod.output_padding), fuse_relu=fuse_relu,
                )
                return fn, [node.args[0]]
            if isinstance(mod, Upsample):
                if mod.mode != "nearest" or mod.scale_factor is None:
                    raise UnsupportedOperatorError(
                        f"Upsample mode {mod.mode!r} (scale_factor="
                        f"{mod.scale_factor}) is not supported by the backend"
                    )
                return ops.build_upsample_nearest(mod.scale_factor), [node.args[0]]
            if isinstance(mod, Linear):
                fn = ops.build_linear(
                    mod.weight.data,
                    mod.bias.data if mod.bias is not None else None,
                    fuse_relu=fuse_relu,
                )
                return fn, [node.args[0]]
            if isinstance(mod, BatchNorm2d):
                fn = ops.build_batch_norm(
                    mod.running_mean.data, mod.running_var.data,
                    mod.weight.data if mod.weight is not None else None,
                    mod.bias.data if mod.bias is not None else None,
                    mod.eps,
                )
                return fn, [node.args[0]]
            if isinstance(mod, MaxPool2d):
                fn = ops.build_max_pool2d(
                    _pair(mod.kernel_size), _pair(mod.stride), _pair(mod.padding)
                )
                return fn, [node.args[0]]
            if isinstance(mod, AvgPool2d):
                fn = ops.build_avg_pool2d(
                    _pair(mod.kernel_size), _pair(mod.stride), _pair(mod.padding)
                )
                return fn, [node.args[0]]
            if isinstance(mod, AdaptiveAvgPool2d):
                return ops.build_adaptive_avg_pool2d(_pair(mod.output_size)), [node.args[0]]
            if isinstance(mod, Flatten):
                return ops.build_flatten(mod.start_dim), [node.args[0]]
            if isinstance(mod, Dropout):
                return ops.build_elementwise("identity"), [node.args[0]]
            kind = _ELEMENTWISE_MODULES.get(type(mod))
            if kind is not None:
                return ops.build_elementwise(kind), [node.args[0]]
            raise UnsupportedOperatorError(
                f"unsupported module {type(mod).__name__} at node {node.name!r}"
            )
        if node.op == "call_function":
            if node.target in _ADD_TARGETS:
                return self._translate_add(node, fuse_relu)
            kind = _ELEMENTWISE_FUNCTIONS.get(node.target)
            if kind is not None:
                return ops.build_elementwise(kind), [node.args[0]]
            if node.target in _FLATTEN_TARGETS:
                start = node.args[1] if len(node.args) > 1 else node.kwargs.get("start_dim", 0)
                return ops.build_flatten(int(start)), [node.args[0]]
            raise UnsupportedOperatorError(
                f"unsupported function {node._pretty_print_target()} at {node.name!r}"
            )
        if node.op == "call_method":
            if node.target in _ELEMENTWISE_METHODS:
                return ops.build_elementwise(node.target), [node.args[0]]
            if node.target == "flatten":
                start = node.args[1] if len(node.args) > 1 else node.kwargs.get("start_dim", 0)
                return ops.build_flatten(int(start)), [node.args[0]]
            if node.target == "add":
                return self._translate_add(node, fuse_relu)
            if node.target in ("reshape", "view") and all(
                isinstance(a, int) for a in node.args[1:]
            ):
                return ops.build_reshape(tuple(node.args[1:])), [node.args[0]]
            raise UnsupportedOperatorError(
                f"unsupported method {node.target!r} at {node.name!r}"
            )
        raise UnsupportedOperatorError(f"unsupported op {node.op!r} at {node.name!r}")

    def _translate_add(self, node: Node, fuse_relu: bool):
        operands = _add_operands(node)
        if operands is None:
            raise UnsupportedOperatorError(
                f"unsupported add {node.args!r} {node.kwargs!r} at {node.name!r}")
        nodes, scalar = operands
        if scalar is None:
            return ops.build_add(fuse_relu=fuse_relu), nodes
        return ops.build_add_scalar(scalar, fuse_relu=fuse_relu), nodes

    def _fetch_attr(self, target: str):
        obj: Any = self.gm
        for atom in target.split("."):
            obj = getattr(obj, atom)
        return obj
