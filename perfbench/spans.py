"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, parent span and
thread.  Spans nest through a contextvar, so a span opened while another
is open on the same thread (or asyncio task) becomes its child.  Worker
threads start with an empty context, so their spans are roots; the
serve workload ties them to requests by thread and time afterwards.

Nothing is written while the run is measured.  At exit the spans go out
as Chrome trace-event JSON (open it at ``chrome://tracing`` or
https://ui.perfetto.dev) plus a plain-text top-N self-time summary.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_CURRENT: contextvars.ContextVar[Optional["Span"]] = \
    contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "attrs",
                 "children", "sid")

    def __init__(self, name: str, parent: Optional["Span"], sid: int):
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.attrs: Optional[dict] = None
        self.children: list["Span"] = []
        self.sid = sid
        self.start = self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover.

        Children of an async span may overlap each other, so their
        intervals are merged before subtracting.
        """
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(self.children, key=lambda s: s.start):
            s, e = max(c.start, self.start), min(c.end, self.end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return max(self.dur - covered, 0.0)


class Tracer:
    """Collects spans; ``wrap`` turns a callable into a span-emitting one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self.t0 = time.perf_counter()

    def _open(self, name: str) -> tuple[Span, Any]:
        span = Span(name, _CURRENT.get(), next(self._ids))
        token = _CURRENT.set(span)
        span.start = time.perf_counter()
        return span, token

    def _close(self, span: Span, token: Any) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        if span.parent is not None:
            span.parent.children.append(span)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        span, token = self._open(name)
        try:
            yield span
        finally:
            self._close(span, token)
            if attrs:
                span.attrs = attrs

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[[tuple, dict, Any], dict]] = None
             ) -> Callable:
        """A wrapper that records one span per call of *fn*.

        *attrs(args, kwargs, result)* may add attributes; it runs after the
        span closed, so its cost lands in the parent, not in *fn*.
        ``functools.wraps`` keeps ``__module__``/``__qualname__``, so a
        wrapped module-level function still resolves to a stable cache
        identity once it is installed under its own name.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, token = tracer._open(name)
                try:
                    out = await fn(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                    if attrs is not None:
                        span.attrs = attrs(args, kwargs, None)
                return out
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._close(span, token)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, out)
        return traced

    # -- queries -----------------------------------------------------------

    def named(self, name: str, *, since: float = float("-inf"),
              until: float = float("inf")) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and since <= s.start < until]

    def self_ms(self, name: str) -> float:
        """Total self time of every span called *name*."""
        return 1e3 * sum(s.self_time() for s in self.spans if s.name == name)

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        tids: dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            args = {"id": s.sid,
                    "parent": s.parent.sid if s.parent else 0,
                    "self_us": round(s.self_time() * 1e6, 3)}
            if s.attrs:
                args.update({k: v for k, v in s.attrs.items()
                             if isinstance(v, (int, float, str, bool))})
            events.append({"name": s.name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": round((s.start - self.t0) * 1e6, 3),
                           "dur": round(s.dur * 1e6, 3), "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def summary(self, top: int = 40) -> str:
        agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = agg[s.name]
            row[0] += 1
            row[1] += s.dur
            row[2] += s.self_time()
        rows = sorted(agg.items(), key=lambda kv: -kv[1][2])[:top]
        width = max([len(n) for n, _ in rows] + [4])
        lines = [f"{'span':<{width}}  {'calls':>8}  {'total_ms':>12}  "
                 f"{'self_ms':>12}"]
        for name, (calls, total, self_t) in rows:
            lines.append(f"{name:<{width}}  {calls:>8d}  {total * 1e3:>12.3f}"
                         f"  {self_t * 1e3:>12.3f}")
        return "\n".join(lines)

    def write(self, trace_path: str, summary_path: str) -> None:
        with open(trace_path, "w") as f:
            json.dump(self.chrome_trace(), f)
        with open(summary_path, "w") as f:
            f.write(self.summary() + "\n")
