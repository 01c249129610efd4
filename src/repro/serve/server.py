"""The multi-tenant inference server over the fleet.

:class:`InferenceServer` is the layer the ROADMAP's serving item asks
for: requests enter one at a time (per tenant), pass admission control
(quota + queue bound → typed shedding), coalesce in the
:class:`~repro.serve.batcher.DynamicBatcher`, and execute as
bucket-sized batches via :meth:`FleetManager.submit` — so every
submission inherits the fleet's watchdogs, scrubbing and failover for
free.

Time is entirely virtual.  The server models its fleet as a set of
**lanes** (one per managed slot), each free from some instant on.
Dispatch is work-conserving: a queued request goes to the fleet as
soon as a lane is free, and a flush dispatched at virtual ``now``
takes a free lane and completes ``device_seconds`` (the fleet
receipt's modeled execution time) later.  While every lane is busy
the batcher holds the queue, so no request ever waits on a lane:
completion minus device time is the dispatch time.  Request latency
is completion minus arrival — batch wait plus device time — and feeds
both the ``condor_serve_latency_seconds`` summary in the metrics
registry and a local :class:`~repro.obs.QuantileSketch` for load
reports.  ``ServeConfig.slo_s`` times no flush; requests that finish
later than it are counted as ``slo_missed``.

The server owns no thread and holds the one serving event schedule:
callers ``submit`` on arrivals (which dispatches at once onto an idle
lane) and call :meth:`InferenceServer.advance` to move virtual time
forward, which walks the lane-free instants in order and calls
``pump`` at each one.  Every flush decision is therefore deterministic
under the :class:`~repro.resilience.clock.VirtualClock`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import FleetError, ServeError, ShedError
from repro.obs import REGISTRY, QuantileSketch
from repro.util.logging import get_logger
from repro.util.sync import new_lock

from repro.serve.batcher import (
    DEFAULT_BUCKETS,
    DynamicBatcher,
    Flush,
    ServeRequest,
)
from repro.serve.tenants import AdmissionController

__all__ = ["InferenceServer", "ServeConfig"]

_log = get_logger("serve.server")

_REQUESTS = REGISTRY.counter(
    "condor_serve_requests_total",
    "Requests finished, by tenant and status (ok|failed)")
_SHED = REGISTRY.counter(
    "condor_serve_shed_total",
    "Requests refused by admission control, by tenant and reason")
_BATCHES = REGISTRY.counter(
    "condor_serve_batches_total",
    "Coalesced batches executed, by bucket size")
_PADDED = REGISTRY.counter(
    "condor_serve_padded_samples_total",
    "Pad rows added to a queue shorter than the smallest bucket")
_LATENCY = REGISTRY.summary(
    "condor_serve_latency_seconds",
    "End-to-end request latency on the virtual timeline, per server")
_QUEUE_DEPTH = REGISTRY.gauge(
    "condor_serve_queue_depth_count",
    "Requests waiting in the batcher, per server")
_SLOTS = REGISTRY.gauge(
    "condor_serve_slots_count",
    "Fleet slots (serving lanes) attached to the server")


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs (all times in virtual seconds)."""

    #: Label on every ``condor_serve_*`` metric this server emits.
    name: str = "serve"
    #: Latency budget per request: completions later than this count
    #: as ``slo_missed``.  It does not time any flush.
    slo_s: float = 0.010
    #: Batch-size ladder: a flush takes the largest bucket the queue
    #: fills, padded only when the queue is shorter than the smallest.
    buckets: tuple[int, ...] = DEFAULT_BUCKETS
    #: Queue bound beyond which admission sheds (``reason="queue"``).
    max_queue_depth: int = 512


class InferenceServer:
    """Dynamic-batching, quota-enforcing request front of a fleet."""

    def __init__(self, fleet, tenants, *,
                 config: ServeConfig | None = None, clock=None):
        self.fleet = fleet
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else fleet.clock
        if self.config.slo_s <= 0:
            raise ServeError(
                f"serving SLO must be positive, got {self.config.slo_s}")
        if self.config.buckets and \
                max(self.config.buckets) > fleet.config.capacity:
            raise ServeError(
                f"bucket ladder {self.config.buckets} exceeds fleet"
                f" capacity {fleet.config.capacity}")
        self.batcher = DynamicBatcher(buckets=self.config.buckets)
        self.admission = AdmissionController(
            tenants, max_queue_depth=self.config.max_queue_depth,
            start_s=self.clock.now)
        #: Guards the lane model, tallies and the latency sketch.
        #: Never held across fleet submissions or metric updates.
        self._lock = new_lock("serve.server.InferenceServer")
        self._lanes: list[float] = [self.clock.now] * len(fleet.slots)
        self._ids = itertools.count(0)
        self._completed = 0
        self._failed = 0
        self._shed: dict[str, int] = {}
        self._batch_sizes: dict[int, int] = {}
        self._padded = 0
        self._slo_missed = 0
        self.latency_sketch = QuantileSketch()
        _SLOTS.set(len(fleet.slots), server=self.config.name)

    # -- the request path ---------------------------------------------------

    def submit(self, tenant: str, image: np.ndarray, *,
               now: float | None = None) -> ServeRequest:
        """Admit one request at virtual time ``now``.

        Sheds with :class:`~repro.errors.ShedError` (also counted in
        ``condor_serve_shed_total``).  An admitted request that finds a
        lane free executes before returning; check ``request.ok`` /
        ``request.completion_s`` for the outcome.
        """
        now = self.clock.now if now is None else now
        try:
            self.admission.admit(tenant, now, self.batcher.depth)
        except ShedError as exc:
            with self._lock:
                self._shed[exc.reason] = \
                    self._shed.get(exc.reason, 0) + 1
            _SHED.inc(tenant=tenant, reason=exc.reason)
            raise
        request = ServeRequest(
            tenant=tenant,
            image=np.asarray(image, dtype=np.float32),
            arrival_s=now, request_id=next(self._ids))
        self.batcher.offer(request)
        self._dispatch(now)
        _QUEUE_DEPTH.set(self.batcher.depth, server=self.config.name)
        return request

    def pump(self, now: float | None = None) -> int:
        """Dispatch queued work onto the lanes free at virtual ``now``."""
        now = self.clock.now if now is None else now
        executed = self._dispatch(now)
        if executed:
            _QUEUE_DEPTH.set(self.batcher.depth,
                             server=self.config.name)
        return executed

    def advance(self, until: float) -> int:
        """Dispatch the queue at each lane-free instant at or before
        ``until``, in order.

        A request is queued only while every lane is busy.  The clock
        sleeps to the earliest lane-free instant and :meth:`pump`
        dispatches there, until the queue is empty or the next lane
        frees after ``until``; the clock stays at the last instant
        pumped.  ``advance(math.inf)`` drains the queue, and an empty
        queue leaves the clock where it is.  Returns the number of
        flushes executed.
        """
        executed = 0
        while self.batcher.depth:
            free = self._lane_free()
            if free > until:
                break
            if free > self.clock.now:
                self.clock.sleep(free - self.clock.now)
            executed += self.pump(free)
        return executed

    # -- execution ----------------------------------------------------------

    def _lane_free(self) -> float:
        """The instant the earliest lane frees."""
        with self._lock:
            return min(self._lanes)

    def _dispatch(self, now: float) -> int:
        """Execute flushes while a lane is free at ``now`` and requests
        are queued."""
        executed = 0
        while True:
            flush = self.batcher.due(now, self._lane_free())
            if flush is None:
                return executed
            self._execute(flush, now)
            executed += 1

    def _execute(self, flush: Flush, now: float) -> None:
        """Run one flush on the fleet and place it on the timeline."""
        requests = flush.requests
        rows = [r.image for r in requests]
        rows.extend(rows[-1] for _ in range(flush.padding))
        batch = np.stack(rows)
        try:
            receipt = self.fleet.submit(batch, wait=True)
        except FleetError as exc:
            with self._lock:
                self._failed += len(requests)
            for request in requests:
                request.error = str(exc)
                _REQUESTS.inc(tenant=request.tenant, status="failed")
            _log.warning("flush of %d request(s) failed: %s",
                         len(requests), exc)
            return
        with self._lock:
            lane = min(range(len(self._lanes)),
                       key=self._lanes.__getitem__)
            start = max(now, self._lanes[lane])
            completion = start + receipt.device_seconds
            self._lanes[lane] = completion
            self._completed += len(requests)
            self._padded += flush.padding
            self._batch_sizes[flush.bucket] = \
                self._batch_sizes.get(flush.bucket, 0) + 1
            for request in requests:
                latency = completion - request.arrival_s
                self.latency_sketch.observe(latency)
                if latency > self.config.slo_s:
                    self._slo_missed += 1
        for index, request in enumerate(requests):
            request.output = receipt.outputs[index]
            request.dispatch_s = now
            request.completion_s = completion
            request.bucket = flush.bucket
            request.extra["slot"] = receipt.slot
            _REQUESTS.inc(tenant=request.tenant, status="ok")
            _LATENCY.observe(completion - request.arrival_s,
                             server=self.config.name)
        _BATCHES.inc(size=str(flush.bucket))
        if flush.padding:
            _PADDED.inc(flush.padding)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic snapshot for reports and manifests."""
        depth = self.batcher.depth
        with self._lock:
            return {
                "server": self.config.name,
                "completed": self._completed,
                "failed": self._failed,
                "shed": dict(sorted(self._shed.items())),
                "batches": dict(sorted(self._batch_sizes.items())),
                "padded_samples": self._padded,
                "slo_missed": self._slo_missed,
                "queue_depth": depth,
                "lanes": len(self._lanes),
                "buckets": list(self.batcher.buckets),
                "slo_s": self.config.slo_s,
            }
