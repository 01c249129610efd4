"""Dynamic batching: coalesce single requests into bucketed batches.

A kernel launch amortizes the pipeline fill over the batch
(``batch_cycles = fill + (n-1)·II``; the weight preload is paid once
per weights write, not per launch).  A naive
coalescer that flushes whatever happens to be queued would emit every
batch size from 1 to capacity.  The :class:`DynamicBatcher` instead
releases only batch sizes on a small ladder of **buckets** (default
1/2/4/8), so steady-state serving runs exactly ``len(buckets)`` batch
sizes.  Each bucket bills a fixed, known device time, the per-bucket
telemetry stays a handful of series, and a warm-up of one batch per
bucket per slot covers every shape the fleet will run.

One work-conserving rule releases work: **when a lane is free, the
flush takes the largest bucket the queue fills**, oldest first.  Five
queued requests release four and leave one queued; three release two.
Every row of the launch costs a full II, so a pad row would hold the
lane for nothing: a flush is padded only when the queue holds fewer
requests than the smallest bucket, which happens only on ladders
without 1.  While every lane is busy the queue is held, so requests
coalesce only when batching buys throughput; an earlier flush onto a
busy lane would start no sooner.  At low load every request therefore
runs alone at its arrival, and at high load the queue fills the
largest bucket while the lanes drain.

The batcher never sleeps, never owns a thread and knows nothing of the
fleet: :meth:`due` is told when the earliest lane is free.
:meth:`InferenceServer.advance <repro.serve.server.InferenceServer.advance>`
walks the lane-free instants and, via ``InferenceServer.pump``, calls
:meth:`due` at each one.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import ServeError
from repro.util.sync import new_lock

__all__ = ["DEFAULT_BUCKETS", "DynamicBatcher", "Flush", "ServeRequest"]

#: The default batch-size ladder: powers of two up to the fleet's
#: default capacity of 8.
DEFAULT_BUCKETS: tuple[int, ...] = (1, 2, 4, 8)


@dataclass
class ServeRequest:
    """One in-flight inference request and, later, its outcome."""

    tenant: str
    image: np.ndarray
    arrival_s: float
    request_id: int
    output: np.ndarray | None = None
    #: Virtual time the carrying batch went to the fleet.
    dispatch_s: float | None = None
    completion_s: float | None = None
    #: Batch size the carrying flush ran at (set at execution): its
    #: real row count, unless the ladder's smallest bucket exceeds it.
    bucket: int | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.output is not None

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class Flush:
    """A batch released by the batcher, ready for the fleet."""

    requests: tuple[ServeRequest, ...]
    bucket: int
    #: The rule that released the batch: a lane was free.  It is the
    #: only rule, so every flush carries the same value.
    trigger: ClassVar[str] = "lane"

    @property
    def padding(self) -> int:
        """Rows to pad onto the batch to reach the bucket size."""
        return self.bucket - len(self.requests)


class DynamicBatcher:
    """Lock-guarded FIFO coalescer with bucketed, work-conserving
    flushes."""

    def __init__(self, *, buckets: tuple[int, ...] = DEFAULT_BUCKETS):
        ladder = tuple(sorted(set(int(b) for b in buckets)))
        if not ladder or ladder[0] < 1:
            raise ServeError(f"invalid bucket ladder {buckets!r}")
        self.buckets = ladder
        self._lock = new_lock("serve.batcher.DynamicBatcher")
        self._pending: deque[ServeRequest] = deque()

    @property
    def depth(self) -> int:
        """Requests currently queued (the admission-control signal)."""
        with self._lock:
            return len(self._pending)

    def offer(self, request: ServeRequest) -> None:
        """Queue one admitted request; :meth:`due` releases it."""
        with self._lock:
            self._pending.append(request)

    def due(self, now: float, lane_free_s: float) -> Flush | None:
        """Release the head of the queue if a lane is free at ``now``.

        ``lane_free_s`` is the instant the earliest lane frees.  The
        flush takes the oldest requests that fill the largest bucket
        the queue can fill, and the rest stays queued; a queue shorter
        than the smallest bucket goes out whole, padded to it.  With
        nothing queued, or every lane busy (``lane_free_s > now``), the
        queue is held.
        """
        with self._lock:
            if not self._pending or lane_free_s > now:
                return None
            index = bisect.bisect_right(self.buckets, len(self._pending))
            bucket = self.buckets[max(index - 1, 0)]
            count = min(bucket, len(self._pending))
            taken = tuple(self._pending.popleft() for _ in range(count))
        return Flush(requests=taken, bucket=bucket)
