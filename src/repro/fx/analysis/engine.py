"""The dataflow engine: fixpoint solving over the fx Graph IR, the
``Analysis`` plug-in interface, and structural-hash-keyed result caching.

The paper's argument (§4.2, §5.5) is that a 6-opcode basic-block DAG
makes whole-program analysis *trivial*: no control-flow joins, no loop
widening — a forward analysis is one sweep in topological order, a
backward analysis one sweep in reverse.  This module keeps that
simplicity but packages it as a real framework so analyses stop being
re-implemented privately inside individual passes:

* :func:`fixpoint` — a generic worklist solver with pluggable per-node
  transfer functions.  On the DAG IR a single ordered sweep converges,
  but transfer functions are allowed to read *any* node's fact (e.g.
  alias-extended liveness reads through view chains), so the solver
  iterates to a true fixpoint and reports how much work that took.
* :class:`Analysis` — the plug-in base class.  A concrete analysis names
  itself, declares the analyses it depends on, and computes a
  *positional* result (facts keyed by node index, never by ``Node``
  object) so results can be cached and rebound to any structurally
  identical graph.
* :class:`AnalysisContext` / :func:`analyze` — the driver.  Results are
  memoized process-wide, keyed by ``(analysis name,
  Graph.structural_hash, analysis extra key)``; re-analyzing an
  unchanged graph — the common case inside the pass verifier, which
  analyzes the same module once per pipeline stage — is a dictionary
  lookup.  Graphs whose hash is unstable (see
  :class:`~repro.fx.graph.UnstableHashError`) simply run uncached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence, Union

from ..concurrency import Memo
from ..graph import Graph
from ..graph_module import GraphModule
from ..node import Node

__all__ = [
    "Analysis",
    "AnalysisContext",
    "AnalysisError",
    "FixpointStats",
    "analysis_cache_info",
    "analyze",
    "clear_analysis_cache",
    "fixpoint",
    "get_analysis",
    "register_analysis",
    "registered_analyses",
]


class AnalysisError(RuntimeError):
    """An analysis could not be computed (bad graph, missing dependency)."""


# ---------------------------------------------------------------------------
# the fixpoint solver
# ---------------------------------------------------------------------------


@dataclass
class FixpointStats:
    """How much work one :func:`fixpoint` call performed."""

    visits: int = 0
    rounds: int = 1
    changed: int = 0


def fixpoint(
    nodes: Sequence[Node],
    transfer: Callable[[Node, Callable[[Node], Any]], Any],
    *,
    direction: str = "forward",
    init: Any = None,
    max_rounds: int = 100,
) -> tuple[dict[Node, Any], FixpointStats]:
    """Solve ``fact[n] = transfer(n, fact)`` to fixpoint over *nodes*.

    Args:
        nodes: the graph's nodes in topological order.
        transfer: per-node transfer function.  Receives the node and a
            getter ``fact(other) -> current fact`` (so a transfer can
            join over inputs, users, or any reachable node) and returns
            the node's new fact.  Facts are compared with ``==``; the
            solver re-sweeps until no fact changes.
        direction: ``"forward"`` sweeps in topological order (facts
            usually flow from inputs), ``"backward"`` in reverse (facts
            flow from users).
        init: initial fact for every node (the lattice bottom).
        max_rounds: safety valve; the DAG IR converges in one round for
            well-behaved transfers, so hitting this limit raises.

    Returns:
        ``(facts, stats)`` — the per-node fact map and solver statistics.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    ordered = list(nodes) if direction == "forward" else list(nodes)[::-1]
    facts: dict[Node, Any] = {n: init for n in ordered}
    stats = FixpointStats(rounds=0)

    def read(n: Node) -> Any:
        return facts.get(n, init)

    for _ in range(max_rounds):
        stats.rounds += 1
        changed = False
        for n in ordered:
            stats.visits += 1
            new = transfer(n, read)
            if new != facts[n]:
                facts[n] = new
                stats.changed += 1
                changed = True
        if not changed:
            return facts, stats
    raise AnalysisError(
        f"dataflow analysis did not converge in {max_rounds} rounds "
        f"({stats.changed} fact changes); transfer function is not monotone"
    )


# ---------------------------------------------------------------------------
# the Analysis plug-in interface
# ---------------------------------------------------------------------------


class Analysis:
    """Base class for one registered whole-graph analysis.

    Subclasses set :attr:`name`, optionally :attr:`requires` (names of
    analyses whose results :meth:`compute` reads through the context),
    and implement :meth:`compute`.  Results must be **positional** —
    facts keyed by a node's index in topological order, never by the
    ``Node`` object itself — so a cached result is valid for *any* graph
    with the same structural hash, including pickled copies.

    Register with :func:`register_analysis` to make the analysis
    available by name to the lint-rule registry and the CLI.
    """

    #: unique registry name, e.g. ``"alias"``.
    name: str = ""
    #: names of analyses this one depends on.
    requires: tuple[str, ...] = ()

    def extra_cache_key(self, gm: GraphModule) -> Optional[Hashable]:
        """Cache-key contribution beyond the structural hash.

        The structural hash covers opcodes, targets, argument topology
        and module state — but **not** ``node.meta``.  An analysis whose
        result depends on metadata (e.g. dtype promotion reads
        ``tensor_meta``) must fold that metadata in here; returning a
        non-hashable or raising disables caching for this graph.
        """
        return None

    def compute(self, gm: GraphModule, ctx: "AnalysisContext") -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Analysis {self.name!r}>"


_REGISTRY: dict[str, Analysis] = {}


def register_analysis(analysis: Union[Analysis, type]) -> Analysis:
    """Register an :class:`Analysis` (instance or class) by its name.

    Usable as a class decorator::

        @register_analysis
        class MyAnalysis(Analysis):
            name = "my-analysis"
            def compute(self, gm, ctx): ...
    """
    instance = analysis() if isinstance(analysis, type) else analysis
    if not isinstance(instance, Analysis):
        raise TypeError(f"expected an Analysis, got {type(instance).__name__}")
    if not instance.name:
        raise ValueError("analysis must set a non-empty `name`")
    _REGISTRY[instance.name] = instance
    return analysis


def get_analysis(name: str) -> Analysis:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"no analysis registered under {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def registered_analyses() -> dict[str, Analysis]:
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# result caching + the driver
# ---------------------------------------------------------------------------


#: Process-wide analysis results keyed by ``(analysis name, graph
#: structural hash, extra key)``.  Locked, with single-flight builds:
#: DCE and CSE query it from serve's worker threads.
_CACHE = Memo(2048)


def clear_analysis_cache() -> None:
    _CACHE.clear()


def analysis_cache_info() -> dict[str, int]:
    return _CACHE.info()


class AnalysisContext:
    """One module's gateway to analysis results.

    ``ctx.get(name)`` computes (or fetches from the shared cache) the
    named analysis's result for ``ctx.gm``.  Dependencies declared via
    :attr:`Analysis.requires` are resolved recursively, and every result
    is memoized per-context, so a suite of analyses over one module
    computes each at most once even without the global cache.

    Args:
        gm: the module under analysis.
        cache: use the process-wide result cache (on by default).
        graph_hash: a precomputed ``structural_hash(include_attrs=True,
            require_stable=True)`` of ``gm.graph``, if the caller already
            has one (the pass verifier reuses the PassManager's hash so
            the module is never hashed twice).  Pass ``""`` or ``None``
            when unknown — the context hashes lazily on first use.
    """

    def __init__(self, gm: GraphModule, *, cache: bool = True,
                 graph_hash: Optional[str] = None):
        if not isinstance(gm, GraphModule):
            raise TypeError(f"AnalysisContext expects a GraphModule, got {type(gm).__name__}")
        self.gm = gm
        self.cache = cache
        self._graph_hash: Optional[str] = graph_hash or None
        self._hashed = graph_hash is not None
        self._local: dict[str, Any] = {}
        self._in_flight: list[str] = []

    @property
    def graph(self) -> Graph:
        return self.gm.graph

    def graph_hash(self) -> Optional[str]:
        """The stable structural hash of the graph, or ``None`` when the
        graph cannot be stably hashed (caching is skipped then)."""
        if not self._hashed:
            self._hashed = True
            try:
                self._graph_hash = self.gm.graph.structural_hash(
                    include_attrs=True, require_stable=True)
            except Exception:
                self._graph_hash = None
        return self._graph_hash

    def get(self, name: str) -> Any:
        """Result of the analysis registered under *name* for this module."""
        if name in self._local:
            return self._local[name]
        if name in self._in_flight:
            cycle = " -> ".join(self._in_flight + [name])
            raise AnalysisError(f"circular analysis dependency: {cycle}")
        analysis = get_analysis(name)

        key: Optional[tuple] = None
        if self.cache:
            ghash = self.graph_hash()
            if ghash:
                try:
                    extra = analysis.extra_cache_key(self.gm)
                    key = (name, ghash, extra)
                    hash(key)
                except Exception:
                    key = None
        if key is None:
            value = self._compute(name, analysis)
        else:
            value = _CACHE.get_or_build(
                key, lambda: self._compute(name, analysis))[0]
        self._local[name] = value
        return value

    def _compute(self, name: str, analysis: Analysis) -> Any:
        self._in_flight.append(name)
        try:
            for dep in analysis.requires:
                self.get(dep)
            return analysis.compute(self.gm, self)
        finally:
            self._in_flight.pop()


def analyze(gm: GraphModule, names: Optional[Sequence[str]] = None, *,
            cache: bool = True, graph_hash: Optional[str] = None) -> AnalysisContext:
    """Run the named analyses (default: all registered) over *gm*.

    Returns the :class:`AnalysisContext`; read results with
    ``ctx.get(name)``.
    """
    ctx = AnalysisContext(gm, cache=cache, graph_hash=graph_hash)
    for name in (names if names is not None else sorted(registered_analyses())):
        ctx.get(name)
    return ctx
