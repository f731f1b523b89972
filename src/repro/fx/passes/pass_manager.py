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
* **transform caching** — each maximal run of consecutive cacheable
  passes is one cache entry, keyed by the run's pass identities plus
  one :meth:`Graph.structural_hash` of the run's input (attribute values
  included, so folded weights key correctly).  A key seen before skips
  the whole run: one unpickle replaces every pass in it.

A run costs one content hash, and a miss one ``pickle.dumps`` of the
run's output: no intermediate module is ever hashed or pickled.  The
entry also stores each pass's node count, lint status and verifier
snapshot, so a hit replays the per-pass records and verifies by
snapshot comparison without re-analyzing any graph.  A hit is
re-linted, or re-verified as a whole, only when the entry was made
under a different lint or verifier configuration.

Cached results are stored as pickle bytes and replayed by unpickling, so
a hit can never alias the module another pipeline run produced.
Caching is strictly best-effort and falls back to just running the
passes whenever a cache entry could be wrong later: runs whose output
fails to pickle are not stored, graphs whose hash would need an
``id()`` fallback token run uncached (see
:class:`~repro.fx.graph.UnstableHashError`), and passes whose
*callable* has no stable identity run outside every run, uncached.  A
pass's identity is its resolvable ``module.qualname`` — never its
display name — so two different passes that happen to share a name
can't collide.  Lambdas, bound methods and callable instances have only
``id()`` identity, which garbage collection can recycle.  A closure may
still be cached by carrying a ``cache_token`` attribute: a string that
covers everything the closure captured (the numpy backend's
shape-specialized stages token their example inputs' shapes and
dtypes), combined with its qualname.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from itertools import groupby
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
    "TRANSFORM_CACHE_MAX_BYTES",
    "TransformCache",
    "Unchanged",
    "shared_transform_cache",
]

Pass = Callable[[GraphModule], Any]


class PassError(RuntimeError):
    """A pass (or its post-pass lint) failed; names the offending pass."""


class Unchanged:
    """Wrapper a pass may return to certify it did not modify the module.

    ``PassManager`` then skips the post-pass lint and verification for
    that stage, and a cached run in which every pass certified a no-op
    is not stored.  Only return this when *nothing* observable changed:
    graph topology, node metadata, and module state all carry over
    as-is, so every invariant established for the pass's input still
    holds for its output.
    """

    __slots__ = ("graph_module",)

    def __init__(self, graph_module: GraphModule):
        self.graph_module = graph_module


@dataclass
class PassRecord:
    """Metrics for one pass execution within a pipeline run.

    ``input_hash`` is the content hash the transform cache keyed on; only
    the first pass of a cached run has one (no intermediate module is
    hashed).  The wall time of a cache hit is booked on that first pass.
    """

    name: str
    wall_time: float
    nodes_before: int
    nodes_after: int
    cache_hit: bool = False
    linted: bool = False
    verified: bool = False
    input_hash: str = ""

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
    """One memoized run of passes: the run's output module as pickle
    bytes, each pass's output node count, and whether every output
    passed ``lint``.

    ``verification`` is ``(verifier config key, per-pass snapshots)`` —
    a snapshot is ``None`` for a pass that certified :class:`Unchanged`
    — or ``None`` when no verifier ran.  The snapshots are only
    meaningful under that configuration: a manager running a
    differently-configured verifier re-verifies the materialized output
    instead (the same pattern as ``linted``).  It is one attribute so a
    reader never pairs one configuration's key with another's
    snapshots."""

    payload: bytes
    node_counts: tuple[int, ...]
    linted: bool = False
    verification: Optional[tuple[Any, tuple]] = None


#: Resident payload bound of every :class:`TransformCache`.  A ResNet-50
#: pipeline result pickles to ~98 MB, so about ten of them fit.
TRANSFORM_CACHE_MAX_BYTES = 1 << 30


class TransformCache(Memo):
    """LRU cache of pass-run results keyed by ``(pass identity tokens,
    input hash)``, where a pass's identity token is its resolvable
    ``module.qualname`` (see ``_pass_cache_token``) — passes without a
    stable identity are never cached, so same-named passes can't share
    entries.

    Values are :class:`CacheEntry` objects, bounded by their summed
    payload bytes (:data:`TRANSFORM_CACHE_MAX_BYTES`; resident total in
    ``nbytes``) and, if *maxsize* is given, by count.  Replay unpickles
    a fresh module, so cached results are never shared mutable state.

    Thread-safe as a :class:`~repro.fx.concurrency.Memo`.  Entries
    themselves carry pickle bytes (immutable) plus lazily-promoted
    ``linted``/``verification`` fields whose writes are idempotent
    (recomputed from the same payload), so entry-level races are benign.
    """

    def __init__(self, maxsize: Optional[int] = None):
        super().__init__(maxsize, max_bytes=TRANSFORM_CACHE_MAX_BYTES,
                         sizeof=lambda entry: len(entry.payload))


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

    Callables that re-resolve from their module to the same object
    (``f:mod.qualname`` tokens) qualify: the token survives garbage
    collection and distinguishes same-named functions from different
    modules.  So does a function carrying a ``cache_token`` string,
    which must cover everything the function captured.  Other lambdas,
    closures, bound methods and callable instances only have ``id()``
    identity, which GC can hand to a different object later — caching
    on it could replay another pass's result — so they return ``None``
    and always run uncached.
    """
    token = getattr(fn, "cache_token", None)
    if isinstance(token, str):
        return (f"t:{getattr(fn, '__module__', '')}."
                f"{getattr(fn, '__qualname__', '')}:{token}")
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
            isolated cache.  Each maximal run of consecutive passes with
            a stable identity (see the module docstring) is one entry;
            passes that lack one (lambdas, closures without a
            ``cache_token``, bound methods) always run uncached —
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

        A fully-cached re-run of a pipeline whose passes all have stable
        identities costs one input hash, one lookup and one unpickle.
        """
        if not isinstance(gm, GraphModule):
            raise TypeError(f"PassManager.run expects a GraphModule, got {type(gm).__name__}")
        records: list[PassRecord] = []
        pipeline_start = time.perf_counter()

        # Maximal runs of consecutive cacheable passes (tokens all set),
        # separated by runs of uncacheable ones (tokens all None).
        items = [(index, name, fn,
                  _pass_cache_token(fn) if self.cache is not None else None)
                 for index, (name, fn) in enumerate(self.passes)]
        segments = [list(run) for _, run in groupby(
            items, key=lambda item: item[3] is not None)]

        input_hash: Optional[str] = None
        if self.verifier is not None:
            if segments and segments[0][0][3] is not None:
                # The first run's cache key and the verifier's baseline
                # analysis share one hash.
                input_hash = self._hash(gm)
            self.verifier.before_pipeline(gm, graph_hash=input_hash or None)

        for segment in segments:
            gm = self._run_segment(segment, gm, input_hash, records)
            input_hash = None

        result = PassManagerResult(
            gm, records, total_time=time.perf_counter() - pipeline_start)
        self.last_result = result
        return result

    # -- internals ---------------------------------------------------------------

    def _run_segment(self, segment: list, gm: GraphModule,
                     input_hash: Optional[str],
                     records: list[PassRecord]) -> GraphModule:
        """Run one segment of ``(index, name, fn, token)`` items: from
        the cache when every token is set and the key is stored, else
        pass by pass, storing the output when the segment is cacheable."""
        start = time.perf_counter()
        nodes_before = len(gm.graph)
        key = None
        if segment[0][3] is not None:
            if input_hash is None:
                input_hash = self._hash(gm)
            if input_hash:
                key = (tuple(item[3] for item in segment), input_hash)
                entry = self.cache.lookup(key)
                if entry is not None:
                    return self._replay(segment, entry, nodes_before,
                                        input_hash, start, records)

        first = len(records)
        snapshots: list = []
        changed = False
        for index, name, fn, _token in segment:
            gm, record, snapshot, did_change = self._execute(
                index, name, fn, gm, start)
            records.append(record)
            snapshots.append(snapshot)
            changed = changed or did_change
            start = time.perf_counter()
        records[first].input_hash = input_hash or ""

        # A run that changed nothing is not worth an entry.
        if key is not None and changed:
            try:
                payload = pickle.dumps(gm)
            except Exception:
                payload = None  # unpicklable output: this run stays uncached
            if payload is not None:
                run = records[first:]
                self.cache.store(key, CacheEntry(
                    payload, tuple(r.nodes_after for r in run),
                    linted=self.lint_after_each,
                    verification=(
                        (self.verifier.config_key(), tuple(snapshots))
                        if self.verifier is not None else None)))
            records[-1].wall_time += time.perf_counter() - start
        return gm

    def _replay(self, segment: list, entry: CacheEntry, nodes_before: int,
                input_hash: str, start: float,
                records: list[PassRecord]) -> GraphModule:
        """Materialize a cached run and replay its per-pass records."""
        names = [item[1] for item in segment]
        label = names[0] if len(names) == 1 else f"{names[0]}..{names[-1]}"
        gm = pickle.loads(entry.payload)
        if self.lint_after_each and not entry.linted:
            # The entry was produced by a non-linting manager; validate it
            # now so a hit never weakens this manager's lint guarantee.
            try:
                gm.graph.lint()
            except Exception as exc:
                raise PassError(
                    f"pass {segment[0][0]} ({label!r}) cached result is an "
                    f"invalid graph (lint failed): "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            entry.linted = True
        snapshots: tuple = (None,) * len(names)
        if self.verifier is not None:
            vkey = self.verifier.config_key()
            verification = entry.verification
            if verification is not None and verification[0] == vkey:
                # Verify by snapshot comparison — no re-analysis.
                snapshots = verification[1]
                for name, snapshot in zip(names, snapshots):
                    if snapshot is not None:
                        self.verifier.advance(name, snapshot)
            else:
                # Entry from an unverified (or differently configured)
                # run: verify the run's output once, as a whole, and
                # remember the snapshot.
                snapshots = snapshots[:-1] + (
                    self.verifier.after_pass(label, gm),)
                entry.verification = (vkey, snapshots)
        wall_time = time.perf_counter() - start
        for i, name in enumerate(names):
            records.append(PassRecord(
                name=name,
                wall_time=wall_time if i == 0 else 0.0,
                nodes_before=entry.node_counts[i - 1] if i else nodes_before,
                nodes_after=entry.node_counts[i],
                cache_hit=True,
                linted=self.lint_after_each and entry.linted,
                verified=snapshots[i] is not None,
                input_hash=input_hash if i == 0 else "",
            ))
        return gm

    def _execute(self, index: int, name: str, fn: Pass, gm: GraphModule,
                 start: float) -> tuple[GraphModule, PassRecord, Any, bool]:
        """Run one pass; returns the current module, its record, the
        verifier snapshot (or ``None``) and whether the pass changed
        anything."""
        nodes_before = len(gm.graph)
        try:
            out = fn(gm)
        except Exception as exc:
            raise PassError(
                f"pass {index} ({name!r}) failed on a graph with "
                f"{nodes_before} nodes: {type(exc).__name__}: {exc}"
            ) from exc
        if isinstance(out, Unchanged):
            # The pass certifies a no-op: the input's lint status and
            # verifier baseline remain valid, so skip re-checking them.
            gm = out.graph_module
            return gm, PassRecord(
                name=name,
                wall_time=time.perf_counter() - start,
                nodes_before=nodes_before,
                nodes_after=len(gm.graph),
            ), None, False
        if isinstance(out, GraphModule):
            gm = out
        if self.lint_after_each:
            try:
                gm.graph.lint()
            except Exception as exc:
                raise PassError(
                    f"pass {index} ({name!r}) produced an invalid graph "
                    f"(lint failed): {type(exc).__name__}: {exc}"
                ) from exc
        # Verify before the run's output is stored: an output that
        # regresses an invariant must never be cached for replay.  The
        # verifier's exception propagates as-is — it already names the
        # offending pass.
        snapshot = None
        if self.verifier is not None:
            snapshot = self.verifier.after_pass(name, gm)
        return gm, PassRecord(
            name=name,
            wall_time=time.perf_counter() - start,
            nodes_before=nodes_before,
            nodes_after=len(gm.graph),
            linted=self.lint_after_each,
            verified=snapshot is not None,
        ), snapshot, True

    @staticmethod
    def _hash(gm: GraphModule) -> str:
        # require_stable: this hash keys a cache that outlives the graph's
        # objects without pinning them, so an id()-fallback token could
        # alias a different graph after GC — refuse to cache instead.
        try:
            return gm.graph.structural_hash(include_attrs=True,
                                            require_stable=True)
        except Exception:
            return ""  # unhashable graph: this run stays uncached
