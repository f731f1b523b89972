"""Concurrency primitives and the one memo class behind every
compile-stack cache.

Each stage of the compile pipeline is memoized on
``Graph.structural_hash`` (or a key built from it), and every one of
those caches is an instance of :class:`Memo`:

* the codegen cache behind :meth:`~repro.fx.GraphModule.recompile`;
* the :class:`~repro.fx.passes.TransformCache` of pass results;
* the analysis result cache of :mod:`repro.fx.analysis`;
* the per-partition compile memo in ``to_backend``;
* the ``compile_to_vm`` program memo;
* the live-engine tier of :class:`~repro.serve.EngineCache`.

Under a worker pool (the serving runtime, concurrent lowerings) a cache
can go wrong in two ways:

* **bookkeeping corruption** — ``OrderedDict.move_to_end`` /
  ``popitem`` racing with inserts can raise or lose entries, and
  ``hits += 1`` is a read-modify-write that drops increments;
* **duplicate compiles** — N workers asking for the same key all miss
  and all compile, so counters drift from reality (N misses for one
  insertion) and N distinct artifact objects circulate where callers
  expect one shared one.

:class:`Memo` solves the first with one lock over its entries and
counters, and the second with a :class:`KeyedMutex`: in
:meth:`Memo.get_or_build` the first worker through builds while
equal-key workers wait and then find the entry — one miss, N-1 hits and
one shared artifact, no matter the interleaving.  Distinct keys never
contend on anything but the (cheap) registry lock.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["KeyedMutex", "Memo"]


class KeyedMutex:
    """A mutual-exclusion region per *key*.

    ``with mutex.acquire(key):`` blocks while any other thread is inside
    the region for an equal key; different keys proceed concurrently.
    Entries are reference-counted and dropped when the last holder
    leaves, so the registry never grows beyond the number of keys
    currently in flight.

    :meth:`Memo.get_or_build` builds its single-flight compiles on it.
    """

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()
        #: key -> [lock, refcount]
        self._entries: Dict[Any, List[Any]] = {}

    @contextmanager
    def acquire(self, key: Any) -> Iterator[None]:
        with self._registry_lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = [threading.Lock(), 0]
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._registry_lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._entries.pop(key, None)

    def in_flight(self) -> int:
        """Number of keys with at least one holder (diagnostics only)."""
        with self._registry_lock:
            return len(self._entries)


#: Sentinel for "no entry": cached values may be ``None`` or falsy.
_MISSING = object()


# -- fork safety ----------------------------------------------------------------
#
# The sharded execution tier (``repro.fx.sharding``) forks worker processes
# from a parent that may be running a thread pool (the serving runtime, a
# concurrent lowering).  A fork taken while *another* thread holds a memo's
# lock or one of its per-key build locks copies that lock in its locked
# state into the child, where no thread exists to ever release it — the
# first child-side ``recompile()`` then deadlocks.  So right after fork
# (``os.register_at_fork``) the child replaces every memo's locks with fresh
# ones.  This is sound because the child starts with exactly one thread, so
# no child-side critical section can be live at reset time; the entries
# themselves survive the fork intact.

#: Every live Memo, so a forked child can replace their locks.
_MEMOS: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def _reset_memos_after_fork() -> None:
    for memo in list(_MEMOS):
        memo._lock = threading.Lock()
        memo._flight = KeyedMutex()


if hasattr(os, "register_at_fork"):  # not on Windows (no fork there anyway)
    os.register_at_fork(after_in_child=_reset_memos_after_fork)


class Memo:
    """A bounded LRU memo with single-flight builds.

    Args:
        maxsize: the entry bound; storing past it evicts the least
            recently used entry.
        on_evict: called with each value that leaves the memo — by the
            LRU bound, by :meth:`clear`, or by a :meth:`store` that
            replaces it with a different value.  Runs outside the lock.

    ``hits`` and ``misses`` count lookups: every :meth:`lookup` and every
    :meth:`get_or_build` call counts exactly one of the two, and
    :meth:`clear` zeroes both.  One lock guards entries and counters; it
    and the per-key build locks are replaced in a child process right
    after ``fork``.
    """

    def __init__(self, maxsize: int,
                 on_evict: Optional[Callable[[Any], None]] = None) -> None:
        self.maxsize = maxsize
        self._on_evict = on_evict
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._flight = KeyedMutex()
        self.hits = 0
        self.misses = 0
        _MEMOS.add(self)

    # ``_hit`` and ``_put`` run under ``self._lock``; ``_evict`` outside it.

    def _hit(self, key: Any) -> Any:
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def _put(self, key: Any, value: Any) -> List[Any]:
        evicted = []
        old = self._entries.pop(key, _MISSING)
        if old is not _MISSING and old is not value:
            evicted.append(old)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            evicted.append(self._entries.popitem(last=False)[1])
        return evicted

    def _evict(self, values: List[Any]) -> None:
        if self._on_evict is not None:
            for value in values:
                self._on_evict(value)

    def lookup(self, key: Any) -> Any:
        """The value stored under *key* (now the most recently used), or
        ``None``.  Counts one hit or one miss."""
        with self._lock:
            value = self._hit(key)
            if value is _MISSING:
                self.misses += 1
                return None
        return value

    def store(self, key: Any, value: Any) -> None:
        """Store *value* under *key* as the most recently used entry."""
        with self._lock:
            evicted = self._put(key, value)
        self._evict(evicted)

    def get_or_build(self, key: Any, build: Callable[[], Any]) -> tuple[Any, bool]:
        """``(value, hit)`` for *key*, calling ``build()`` on a miss.

        At most one ``build()`` per key runs at a time: equal-key callers
        that arrive while it runs wait, then hit the stored value.  Each
        call counts one hit or one miss.  A ``build()`` that raises
        stores nothing.
        """
        with self._lock:
            value = self._hit(key)
        if value is not _MISSING:
            return value, True
        with self._flight.acquire(key):
            with self._lock:
                value = self._hit(key)
                if value is not _MISSING:
                    return value, True
                self.misses += 1
            value = build()
            with self._lock:
                evicted = self._put(key, value)
        self._evict(evicted)
        return value, False

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            evicted = list(self._entries.values())
            self._entries.clear()
            self.hits = 0
            self.misses = 0
        self._evict(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict[str, int]:
        """``hits``, ``misses``, ``size`` and ``maxsize``, read together."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._entries), "maxsize": self.maxsize}
