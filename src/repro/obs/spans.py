"""Hierarchical spans — the timing backbone of the telemetry layer.

A *span* is one timed region of the flow (a step, a toolchain stage, a
cloud call).  Spans nest: entering a span inside another records the
parent, so a whole :class:`~repro.flow.condor.CondorFlow` run becomes a
tree rooted at ``condor.flow`` that the manifest and the Chrome-trace
exporter can walk.

Recording is *opt-in*: spans only cost anything while a
:class:`SpanRecorder` is active (see :func:`recording`).  With no
recorder installed, :func:`span` yields ``None`` and returns immediately,
so instrumented library code stays essentially free for callers that
never asked for telemetry.

    with recording() as rec:
        with span("frontend.parse", path="lenet.prototxt"):
            ...
    rec.roots()[0].seconds

Parent tracking uses a :mod:`contextvars` variable, so concurrently
running tasks (threads with proper context propagation, asyncio tasks)
each see their own span stack.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.obs.quantiles import QuantileSketch
from repro.util.sync import new_lock

__all__ = [
    "DISABLE_ENV",
    "Span",
    "SpanRecorder",
    "current_span",
    "current_recorder",
    "no_recording",
    "obs_disabled",
    "recording",
    "span",
    "traced",
]

#: Kill switch: ``REPRO_NO_OBS=1`` turns the whole telemetry layer off —
#: ``recording()`` stops installing recorders (so ``span()`` takes its
#: no-op fast path), default-registry metrics stop updating, and the
#: sampler never starts.  Explicitly constructed private registries
#: keep working.
DISABLE_ENV = "REPRO_NO_OBS"


def obs_disabled() -> bool:
    """True when ``REPRO_NO_OBS=1`` (the telemetry kill switch)."""
    return os.environ.get(DISABLE_ENV, "") == "1"

_recorder: contextvars.ContextVar["SpanRecorder | None"] = \
    contextvars.ContextVar("repro_obs_recorder", default=None)
_current: contextvars.ContextVar["Span | None"] = \
    contextvars.ContextVar("repro_obs_span", default=None)


@dataclass
class Span:
    """One timed region.

    Wall-clock timing uses :func:`time.perf_counter` (monotonic,
    interval-safe); ``start_wall`` additionally anchors the span to the
    epoch so exports can show absolute times.  CPU time comes from
    :func:`time.process_time` and exposes how much of the wall time was
    actually spent computing.
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    start_wall: float
    start_perf: float
    start_cpu: float
    end_perf: float | None = None
    end_cpu: float | None = None
    status: str = "ok"
    error: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    thread_id: int = 0
    thread_name: str = ""

    @property
    def finished(self) -> bool:
        return self.end_perf is not None

    @property
    def seconds(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        if self.end_perf is None:
            return 0.0
        return self.end_perf - self.start_perf

    @property
    def cpu_seconds(self) -> float:
        if self.end_cpu is None:
            return 0.0
        return self.end_cpu - self.start_cpu

    def elapsed(self) -> float:
        """Live wall seconds since the span started."""
        return (self.end_perf or time.perf_counter()) - self.start_perf

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_wall": self.start_wall,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "thread_id": self.thread_id,
        }
        if self.thread_name:
            out["thread_name"] = self.thread_name
        if self.error:
            out["error"] = self.error
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class SpanRecorder:
    """Collects finished spans (in completion order).

    Alongside the raw span list the recorder feeds one streaming
    :class:`~repro.obs.quantiles.QuantileSketch` per span name, so
    p50/p95/p99 per operation are available (``summaries()``) without
    re-walking — or even keeping — every span of a long-running
    process.  ``_close`` may be called from worker threads (spans
    propagated via ``contextvars.copy_context``); the internal lock
    keeps both structures consistent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = new_lock("obs.spans.SpanRecorder")
        self._sketches: dict[str, QuantileSketch] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    # -- construction (used by span()) ------------------------------------

    def _open(self, name: str, attrs: dict[str, Any]) -> Span:
        parent = _current.get()
        thread = threading.current_thread()
        return Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            depth=parent.depth + 1 if parent else 0,
            start_wall=time.time(),
            start_perf=time.perf_counter(),
            start_cpu=time.process_time(),
            attrs=attrs,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
        )

    def _close(self, sp: Span) -> None:
        sp.end_perf = time.perf_counter()
        sp.end_cpu = time.process_time()
        with self._lock:
            self.spans.append(sp)
            sketch = self._sketches.get(sp.name)
            if sketch is None:
                sketch = self._sketches[sp.name] = QuantileSketch()
            sketch.observe(sp.seconds)

    # -- queries --------------------------------------------------------------

    def _spans_view(self) -> list[Span]:
        """A consistent copy of the finished-span list.

        Queries may run while worker threads are still closing spans;
        snapshotting under the lock keeps iteration safe without
        holding the lock across caller code.
        """
        with self._lock:
            return list(self.spans)

    def find(self, name: str) -> list[Span]:
        return [s for s in self._spans_view() if s.name == name]

    def roots(self) -> list[Span]:
        return [s for s in self._spans_view() if s.parent_id is None]

    def children(self, parent: Span) -> list[Span]:
        kids = [s for s in self._spans_view()
                if s.parent_id == parent.span_id]
        return sorted(kids, key=lambda s: s.start_perf)

    def total_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.find(name))

    def span_tree(self) -> list[dict[str, Any]]:
        """The span forest as nested dicts (roots in start order).

        One pass over a single snapshot indexes the spans by parent id,
        so the build is linear in the span count rather than one scan
        per node.  Siblings keep :meth:`children`'s order: a stable sort
        by start time over completion order.
        """
        kids: dict[int | None, list[Span]] = {}
        for sp in self._spans_view():
            kids.setdefault(sp.parent_id, []).append(sp)
        for siblings in kids.values():
            siblings.sort(key=lambda s: s.start_perf)

        def node(sp: Span) -> dict[str, Any]:
            out = sp.to_dict()
            children = kids.get(sp.span_id)
            if children:
                out["children"] = [node(k) for k in children]
            return out

        return [node(r) for r in kids.get(None, [])]

    def sketch(self, name: str) -> QuantileSketch | None:
        """The streaming duration sketch for one span name."""
        with self._lock:
            return self._sketches.get(name)

    def summaries(self) -> dict[str, dict[str, Any]]:
        """Per-span-name duration summaries from the streaming sketches:
        ``{name: {count, sum, min, max, quantiles}}`` (seconds)."""
        with self._lock:
            return {name: self._sketches[name].snapshot()
                    for name in sorted(self._sketches)}


def current_recorder() -> SpanRecorder | None:
    """The active recorder, or ``None`` when telemetry is off."""
    return _recorder.get()


def current_span() -> Span | None:
    """The innermost open span, or ``None``."""
    return _current.get()


@contextlib.contextmanager
def recording(recorder: SpanRecorder | None = None) \
        -> Iterator[SpanRecorder]:
    """Activate a recorder for the dynamic extent of the block.

    Nesting replaces the active recorder (the inner block records into
    its own recorder; the outer one resumes afterwards).

    Under ``REPRO_NO_OBS=1`` the recorder is yielded but *not*
    installed: callers keep a working (empty) recorder object while
    every ``span()`` inside the block takes the no-op fast path.
    """
    rec = recorder if recorder is not None else SpanRecorder()
    if obs_disabled():
        yield rec
        return
    token = _recorder.set(rec)
    try:
        yield rec
    finally:
        _recorder.reset(token)


@contextlib.contextmanager
def no_recording() -> Iterator[None]:
    """Suspend span recording for the dynamic extent of the block.

    Used where an instrumented caller must measure *uninstrumented*
    cost (the ``obs-overhead`` bench op) or run a hot region without
    trace overhead; the surrounding recorder resumes afterwards.
    """
    token = _recorder.set(None)
    try:
        yield None
    finally:
        _recorder.reset(token)


class span:
    """Time a region.  ``with span("name") as sp:`` yields the open
    :class:`Span`, or ``None`` when no recorder is active (the
    no-telemetry fast path).

    An exception escaping the block marks the span ``status="error"``
    and captures ``type: message`` before propagating.

    A hand-written context manager rather than
    ``@contextlib.contextmanager``: spans wrap per-layer engine work and
    per-candidate DSE evaluations, where the generator machinery itself
    was the dominant telemetry cost.
    """

    __slots__ = ("_name", "_attrs", "_rec", "_sp", "_token")

    def __init__(self, name: str, /, **attrs: Any) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span | None:
        rec = self._rec = _recorder.get()
        if rec is None:
            self._sp = None
            return None
        sp = self._sp = rec._open(self._name, self._attrs)
        self._token = _current.set(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._sp
        if sp is None:
            return False
        if exc_type is not None:
            sp.status = "error"
            sp.error = f"{exc_type.__name__}: {exc}"
        _current.reset(self._token)
        self._rec._close(sp)
        return False


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span`.

    >>> @traced()
    ... def convert(model): ...

    records a span named after the function (``module.qualname`` with the
    ``repro.`` prefix dropped) on every call.
    """

    def decorate(fn: Callable) -> Callable:
        label = name
        if label is None:
            module = fn.__module__.removeprefix("repro.")
            label = f"{module}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
