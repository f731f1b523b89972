"""``PassManager`` — an instrumented driver for pipelines of graph passes.

The paper's position (§4.4) is that fx passes are ordinary Python
functions, composable by calling one after another.  This module keeps
that calling convention (a pass is any ``Callable[[GraphModule], Any]``:
return a new ``GraphModule`` to replace the input, or anything else —
``None``, a change count — to signal an in-place transform) but runs the
pipeline under one managed driver that adds what ad-hoc composition
cannot:

* **per-pass metrics** — wall time and node-count delta for every stage,
  rendered as a table by :meth:`PassManagerResult.format`;
* **validation** — optional :meth:`Graph.lint` after every pass, so a
  pass that corrupts the IR is caught at the stage that broke it, not
  three passes later;
* **error context** — any exception is re-raised as a :class:`PassError`
  naming the failing pass and its position in the pipeline;
* **transform caching** — each pass's input is fingerprinted with
  :meth:`Graph.structural_hash` (attribute values included, so folded
  weights key correctly); a ``(pass identity, input-hash)`` pair seen
  before skips the pass and replays the cached result instead.

Cached results are stored as pickle bytes and replayed by unpickling, so
a hit can never alias the module another pipeline run produced; the
unpickle path itself is cheap because :meth:`GraphModule.recompile` hits
the structural-hash codegen cache.  Caching is strictly best-effort and
falls back to just running the pass whenever a cache entry could be
wrong later: passes whose module fails to pickle run uncached, as do
passes whose *callable* has no stable identity (lambdas, closures, bound
methods — their only identity is ``id()``, which garbage collection can
recycle) and graphs whose hash would need an ``id()`` fallback token
(see :class:`~repro.fx.graph.UnstableHashError`).  The cache key is the
pass's resolvable ``module.qualname`` — never its display name — so two
different passes that happen to share a name can't collide.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from ..concurrency import Memo
from ..graph import _hash_token_for_object
from ..graph_module import GraphModule

__all__ = [
    "CacheEntry",
    "PassError",
    "PassManager",
    "PassManagerResult",
    "PassRecord",
    "TransformCache",
    "Unchanged",
    "shared_transform_cache",
]

Pass = Callable[[GraphModule], Any]


class PassError(RuntimeError):
    """A pass (or its post-pass lint) failed; names the offending pass."""


class Unchanged:
    """Wrapper a pass may return to certify it did not modify the module.

    ``PassManager`` then skips the post-pass structural hash, lint,
    verification, and cache store for that stage — on large modules the
    hash alone (it covers parameter bytes) can dwarf a no-op pass.  Only
    return this when *nothing* observable changed: graph topology, node
    metadata, and module state all carry over as-is, so every invariant
    established for the pass's input still holds for its output.
    """

    __slots__ = ("graph_module",)

    def __init__(self, graph_module: GraphModule):
        self.graph_module = graph_module


@dataclass
class PassRecord:
    """Metrics for one pass execution within a pipeline run."""

    name: str
    wall_time: float
    nodes_before: int
    nodes_after: int
    cache_hit: bool = False
    linted: bool = False
    verified: bool = False
    input_hash: str = ""
    output_hash: str = ""

    @property
    def node_delta(self) -> int:
        return self.nodes_after - self.nodes_before


@dataclass
class PassManagerResult:
    """The transformed module plus the per-pass instrumentation report."""

    graph_module: GraphModule
    records: list[PassRecord] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    def format(self) -> str:
        """Render the per-pass timing / node-delta report as a table."""
        header = ("pass", "time (ms)", "nodes", "delta", "cache", "lint", "verify")
        rows = [header]
        for r in self.records:
            delta = f"{r.node_delta:+d}" if r.node_delta else "0"
            rows.append((
                r.name,
                f"{r.wall_time * 1e3:.3f}",
                f"{r.nodes_before}->{r.nodes_after}",
                delta,
                "hit" if r.cache_hit else "-",
                "ok" if r.linted else "-",
                "ok" if r.verified else "-",
            ))
        rows.append((
            "total",
            f"{self.total_time * 1e3:.3f}",
            "", "", f"{self.cache_hits}/{len(self.records)}", "", "",
        ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


@dataclass
class CacheEntry:
    """One memoized pass result: the output module as pickle bytes plus
    enough metadata (hash, node count, whether it passed ``lint``, and
    the pass verifier's snapshot of its diagnostics) to chain further
    lookups without unpickling it.

    ``verify_snapshot`` is only meaningful under the verifier
    configuration recorded in ``verifier_key`` — a manager running a
    differently-configured verifier re-verifies the materialized module
    instead (the same pattern as ``linted``)."""

    output_hash: str
    payload: bytes
    node_count: int
    linted: bool = False
    verify_snapshot: Any = None
    verifier_key: Any = None


class TransformCache(Memo):
    """LRU cache of pass results keyed by ``(pass identity token, input
    hash)``, where the identity token is the pass callable's resolvable
    ``module.qualname`` (see ``_pass_cache_token``) — passes without a
    stable identity are never cached, so same-named passes can't share
    entries.

    Values are :class:`CacheEntry` objects.  Replay unpickles a fresh
    module, so cached results are never shared mutable state — and a run
    of consecutive hits is chained through the stored output hashes, so
    intermediate results are never materialized at all.

    Thread-safe as a :class:`~repro.fx.concurrency.Memo`.  Entries
    themselves carry pickle bytes (immutable) plus lazily-promoted
    ``linted``/``verify_snapshot`` fields whose writes are idempotent
    (recomputed from the same payload), so entry-level races are benign.
    """

    def __init__(self, maxsize: int = 1024):
        super().__init__(maxsize)


_SHARED_CACHE = TransformCache()


def shared_transform_cache() -> TransformCache:
    """The process-wide cache used by default by every PassManager."""
    return _SHARED_CACHE


def _pass_name(p: Pass, index: int) -> str:
    name = getattr(p, "__name__", None)
    if name in (None, "<lambda>"):
        return f"pass_{index}"
    return name


def _pass_cache_token(fn: Pass) -> Optional[str]:
    """Stable cache identity for a pass callable, or ``None`` if it has
    none.

    Only callables that re-resolve from their module to the same object
    (``f:mod.qualname`` tokens) qualify: the token survives garbage
    collection and distinguishes same-named functions from different
    modules.  Lambdas, closures, bound methods and callable instances
    only have ``id()`` identity, which GC can hand to a different object
    later — caching on it could replay another pass's result — so they
    return ``None`` and always run uncached.
    """
    token = _hash_token_for_object(fn)
    if token.startswith("obj:"):
        return None
    return token


class PassManager:
    """Runs an ordered list of passes over a GraphModule.

    Args:
        passes: pass callables, or ``(name, callable)`` pairs.  A pass
            receives the current GraphModule; if it returns a GraphModule
            that becomes the pipeline's new current module, any other
            return value means "transformed in place".
        lint_after_each: run ``graph.lint()`` after every pass and fail
            with a :class:`PassError` naming the pass that broke the IR.
        cache: ``True`` (default) to use the process-wide
            :func:`shared_transform_cache`, ``False``/``None`` to disable
            caching, or a :class:`TransformCache` instance for an
            isolated cache.  Entries are keyed by the pass callable's
            stable ``module.qualname`` identity, so passes that lack one
            (lambdas, closures, bound methods) always run uncached —
            regardless of any display name given via a ``(name, fn)``
            pair.
        verifier: an invariant checker — typically a
            :class:`repro.fx.analysis.PassVerifier` — snapshotting the
            pipeline input via ``before_pipeline`` and re-checked via
            ``after_pass`` after every stage; its exception (naming the
            offending pass) aborts the pipeline.  Snapshots are persisted
            into cache entries, so a fully-cached re-run verifies by
            snapshot comparison without re-analyzing any graph.

    Use the *returned* module of :meth:`run`: when a cached result is
    replayed, the input module is left untouched even for passes that
    normally transform in place.
    """

    def __init__(
        self,
        passes: Sequence[Union[Pass, tuple[str, Pass]]],
        lint_after_each: bool = False,
        cache: Union[TransformCache, bool, None] = True,
        verifier: Optional[Any] = None,
    ):
        self.passes: list[tuple[str, Pass]] = []
        for i, p in enumerate(passes):
            if isinstance(p, tuple):
                name, fn = p
            else:
                name, fn = _pass_name(p, i), p
            if not callable(fn):
                raise TypeError(f"pass {name!r} is not callable")
            self.passes.append((name, fn))
        self.lint_after_each = lint_after_each
        if cache is True:
            self.cache: Optional[TransformCache] = _SHARED_CACHE
        elif cache in (False, None):
            self.cache = None
        else:
            self.cache = cache
        self.verifier = verifier
        self.last_result: Optional[PassManagerResult] = None

    def add_pass(self, p: Pass, name: Optional[str] = None) -> "PassManager":
        self.passes.append((name or _pass_name(p, len(self.passes)), p))
        return self

    def __call__(self, gm: GraphModule) -> GraphModule:
        """Pipeline-of-pipelines composition: a PassManager is itself a
        valid pass (returns the transformed module)."""
        return self.run(gm).graph_module

    def run(self, gm: GraphModule) -> PassManagerResult:
        """Run every pass in order; returns the transformed module plus
        per-pass records.  Also stashed on ``self.last_result``.

        Cache replay is *lazy*: while consecutive passes keep hitting, the
        pipeline only chains the stored output hashes and never unpickles
        the intermediate modules — a fully-cached re-run costs one input
        hash, one lookup per pass, and a single unpickle at the end.
        """
        if not isinstance(gm, GraphModule):
            raise TypeError(f"PassManager.run expects a GraphModule, got {type(gm).__name__}")
        records: list[PassRecord] = []
        pipeline_start = time.perf_counter()

        # The pipeline's current value: a live module, or — after a cache
        # hit — just the entry's pickle bytes plus (hash, node count).
        current: Union[GraphModule, bytes] = gm
        current_hash: Optional[str] = None
        current_nodes = len(gm.graph)

        if self.verifier is not None:
            current_hash = self._hash(gm)
            self.verifier.before_pipeline(gm, graph_hash=current_hash or None)

        for index, (name, fn) in enumerate(self.passes):
            start = time.perf_counter()
            if current_hash is None:
                assert isinstance(current, GraphModule)
                current_hash = self._hash(current)
            cache_token = _pass_cache_token(fn) if self.cache is not None else None

            if self.cache is not None and current_hash and cache_token:
                entry = self.cache.lookup((cache_token, current_hash))
                if entry is not None:
                    hit: Union[GraphModule, bytes] = entry.payload
                    if self.lint_after_each and not entry.linted:
                        # The entry was produced by a non-linting manager;
                        # validate it now so a hit never weakens this
                        # manager's lint guarantee.
                        hit = self._materialize(entry.payload)
                        try:
                            hit.graph.lint()
                        except Exception as exc:
                            raise PassError(
                                f"pass {index} ({name!r}) cached result is an "
                                f"invalid graph (lint failed): "
                                f"{type(exc).__name__}: {exc}"
                            ) from exc
                        entry.linted = True
                    verified = False
                    if self.verifier is not None:
                        vkey = self.verifier.config_key()
                        if entry.verify_snapshot is not None \
                                and entry.verifier_key == vkey:
                            # Verify by snapshot comparison — no unpickle,
                            # no re-analysis.
                            self.verifier.advance(name, entry.verify_snapshot)
                        else:
                            # Entry from an unverified (or differently
                            # configured) run: verify the materialized
                            # module once and remember the snapshot.
                            hit = self._materialize(hit)
                            entry.verify_snapshot = self.verifier.after_pass(
                                name, hit, graph_hash=entry.output_hash or None)
                            entry.verifier_key = vkey
                        verified = True
                    records.append(PassRecord(
                        name=name,
                        wall_time=time.perf_counter() - start,
                        nodes_before=current_nodes,
                        nodes_after=entry.node_count,
                        cache_hit=True,
                        linted=self.lint_after_each and entry.linted,
                        verified=verified,
                        input_hash=current_hash,
                        output_hash=entry.output_hash,
                    ))
                    current = hit
                    current_hash = entry.output_hash
                    current_nodes = entry.node_count
                    continue

            gm = self._materialize(current)
            gm, record = self._execute(index, name, fn, gm, current_hash,
                                       cache_token, start)
            records.append(record)
            current, current_hash, current_nodes = gm, record.output_hash or None, len(gm.graph)

        result = PassManagerResult(
            self._materialize(current), records,
            total_time=time.perf_counter() - pipeline_start)
        self.last_result = result
        return result

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _materialize(current: Union[GraphModule, bytes]) -> GraphModule:
        if isinstance(current, bytes):
            return pickle.loads(current)
        return current

    def _execute(self, index: int, name: str, fn: Pass, gm: GraphModule,
                 input_hash: Optional[str], cache_token: Optional[str],
                 start: float) -> tuple[GraphModule, PassRecord]:
        nodes_before = len(gm.graph)
        try:
            out = fn(gm)
        except Exception as exc:
            raise PassError(
                f"pass {index} ({name!r}) failed on a graph with "
                f"{nodes_before} nodes: {type(exc).__name__}: {exc}"
            ) from exc
        if isinstance(out, Unchanged):
            # The pass certifies a no-op: the input's hash, lint status,
            # and verifier baseline all remain valid, so skip the
            # (potentially expensive) post-pass bookkeeping entirely.
            gm = out.graph_module
            return gm, PassRecord(
                name=name,
                wall_time=time.perf_counter() - start,
                nodes_before=nodes_before,
                nodes_after=len(gm.graph),
                input_hash=input_hash or "",
                output_hash=input_hash or "",
            )
        if isinstance(out, GraphModule):
            gm = out
        linted = False
        if self.lint_after_each:
            try:
                gm.graph.lint()
            except Exception as exc:
                raise PassError(
                    f"pass {index} ({name!r}) produced an invalid graph "
                    f"(lint failed): {type(exc).__name__}: {exc}"
                ) from exc
            linted = True
        output_hash = self._hash(gm)

        # Verify *before* caching: an output that regresses an invariant
        # must never be stored for replay.  The verifier's exception
        # propagates as-is — it already names the offending pass.
        verified = False
        snapshot: Any = None
        if self.verifier is not None:
            snapshot = self.verifier.after_pass(
                name, gm, graph_hash=output_hash or None)
            verified = True

        if self.cache is not None and input_hash and output_hash and cache_token:
            try:
                payload = pickle.dumps(gm)
            except Exception:
                payload = None  # unpicklable target: run this pass uncached
            if payload is not None:
                self.cache.store(
                    (cache_token, input_hash),
                    CacheEntry(output_hash, payload, len(gm.graph),
                               linted=linted,
                               verify_snapshot=snapshot,
                               verifier_key=(self.verifier.config_key()
                                             if verified else None)))

        record = PassRecord(
            name=name,
            wall_time=time.perf_counter() - start,
            nodes_before=nodes_before,
            nodes_after=len(gm.graph),
            cache_hit=False,
            linted=linted,
            verified=verified,
            input_hash=input_hash or "",
            output_hash=output_hash,
        )
        return gm, record

    @staticmethod
    def _hash(gm: GraphModule) -> str:
        # require_stable: this hash keys a cache that outlives the graph's
        # objects without pinning them, so an id()-fallback token could
        # alias a different graph after GC — refuse to cache instead.
        try:
            return gm.graph.structural_hash(include_attrs=True,
                                            require_stable=True)
        except Exception:
            return ""  # unhashable graph: disable caching for this stage
