"""A small process-wide metrics registry (counters, gauges, histograms,
summaries).

Instrumented modules declare their metrics once at import time against the
default :data:`REGISTRY` and bump them from hot paths; the registry
renders either Prometheus text exposition (``to_prometheus``) or a plain
JSON-able dict (``to_dict``) for the run manifest.

Labels are passed as keyword arguments at update time::

    CLOUD_CALLS = REGISTRY.counter(
        "condor_cloud_api_calls_total", "AWS API calls issued by the flow")
    CLOUD_CALLS.inc(verb="create-fpga-image")

:class:`Summary` and :class:`Histogram` additionally stream every
observation through a :class:`~repro.obs.quantiles.QuantileSketch`, so
accurate p50/p95/p99 are available with O(1) memory (``.quantile()``,
the ``summary`` exposition type).  Observations made while a span is
open record an *exemplar* — the worst value seen so far plus the span
that produced it — so a p99 outlier in a report points straight at its
trace.

The default :data:`REGISTRY` honours the ``REPRO_NO_OBS=1`` kill switch
(updates become no-ops); explicitly constructed registries do not.

Everything is in-process and thread-safe; there is deliberately no
dependency on ``prometheus_client`` — the exposition format is simple
enough to emit directly, and the registry stays importable everywhere.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Any

from repro.obs.quantiles import (
    DEFAULT_QUANTILES,
    DEFAULT_SKETCH_K,
    QuantileSketch,
)
from repro.obs.spans import current_span, obs_disabled
from repro.util.sync import new_lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "REGISTRY",
]

#: Default histogram buckets (seconds-flavoured, like Prometheus').
DEFAULT_BUCKETS: tuple[float, ...] = (
    .005, .01, .025, .05, .1, .25, .5, 1., 2.5, 5., 10., 30., 60.)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) \
        -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _exemplar(value: float) -> dict[str, Any] | None:
    """Link ``value`` to the innermost open span, if any."""
    sp = current_span()
    if sp is None:
        return None
    return {"span_id": sp.span_id, "span": sp.name,
            "value": value, "ts": time.time()}


class _Metric:
    kind = "untyped"
    #: per-label-set stores ``clear_values`` empties (subclass-declared)
    _store_attrs: tuple[str, ...] = ()

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = new_lock("obs.metrics.Metric")
        #: set by a gated registry; gated metrics honour REPRO_NO_OBS
        self._gated = False

    def _off(self) -> bool:
        return self._gated and obs_disabled()

    def clear_values(self) -> None:
        """Drop every recorded sample, keeping the declaration.

        The public locked mutator the registry's :meth:`MetricsRegistry.reset`
        uses — callers never reach into another object's ``_lock``.
        """
        with self._lock:
            for attr in self._store_attrs:
                getattr(self, attr).clear()

    def scalar_samples(self) -> dict[str, float]:
        """One flat number per series, read under this metric's lock.

        The public locked accessor behind
        :meth:`MetricsRegistry.scalars`; subclasses define the collapse
        (counters/gauges sum label sets, histograms/summaries expose
        ``_count`` and ``_sum``).
        """
        raise NotImplementedError

    def header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """Monotonically increasing value."""

    kind = "counter"
    _store_attrs = ("_values",)

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name}: cannot decrease (amount={amount})")
        if self._off():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def scalar_samples(self) -> dict[str, float]:
        with self._lock:
            return {self.name: sum(self._values.values())}

    def expose(self) -> list[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._values):
                lines.append(f"{self.name}{_render_labels(key)}"
                             f" {_fmt(self._values[key])}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"type": self.kind, "help": self.help,
                    "values": [{"labels": dict(k), "value": v}
                               for k, v in sorted(self._values.items())]}


class Gauge(_Metric):
    """A value that can go up and down (set-only semantics plus inc/dec)."""

    kind = "gauge"
    _store_attrs = ("_values",)

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if self._off():
            return
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if self._off():
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    expose = Counter.expose
    snapshot = Counter.snapshot
    scalar_samples = Counter.scalar_samples


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Bucket bounds are the *finite* upper edges; the implicit ``+Inf``
    bucket is always emitted exactly once (a non-finite bound passed by
    a caller is dropped rather than duplicating it).  Counts are stored
    per-bucket and cumulated at exposition, so ``observe`` is one
    bisect + one increment.  Every observation also feeds a streaming
    :class:`QuantileSketch` per label set, making ``quantile()``
    accurate far beyond bucket resolution.
    """

    kind = "histogram"
    _store_attrs = ("_counts", "_sums", "_sketches", "_exemplars")

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(
            {float(b) for b in buckets if math.isfinite(b)}))
        #: label key -> per-bucket counts (non-cumulative) + overflow slot
        self._counts: dict[_LabelKey, list[int]] = {}
        self._sums: dict[_LabelKey, float] = {}
        self._sketches: dict[_LabelKey, QuantileSketch] = {}
        self._exemplars: dict[_LabelKey, dict[str, Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if self._off():
            return
        value = float(value)
        if math.isnan(value):
            return  # NaN orders arbitrarily; dropping beats poisoning
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = \
                    [0] * (len(self.buckets) + 1)
                self._sketches[key] = QuantileSketch()
            counts[bisect.bisect_left(self.buckets, value)] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._sketches[key].observe(value)
            prev = self._exemplars.get(key)
            if prev is None or value >= prev["value"]:
                ex = _exemplar(value)
                if ex is not None:
                    self._exemplars[key] = ex

    def count(self, **labels: Any) -> int:
        with self._lock:
            counts = self._counts.get(_label_key(labels))
            return sum(counts) if counts else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Streaming quantile estimate for one label set (``None``
        before any observation)."""
        with self._lock:
            sketch = self._sketches.get(_label_key(labels))
            return None if sketch is None else sketch.quantile(q)

    def scalar_samples(self) -> dict[str, float]:
        with self._lock:
            return {
                f"{self.name}_count": float(
                    sum(sum(c) for c in self._counts.values())),
                f"{self.name}_sum": sum(self._sums.values()),
            }

    def _cumulative(self, counts: list[int]) -> list[int]:
        """Running totals per finite bucket, then the +Inf total."""
        out: list[int] = []
        cum = 0
        for c in counts[:-1]:
            cum += c
            out.append(cum)
        out.append(cum + counts[-1])
        return out

    def expose(self) -> list[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._counts):
                cumulative = self._cumulative(self._counts[key])
                for bound, count in zip(self.buckets, cumulative):
                    le = (("le", _fmt(bound)),)
                    lines.append(f"{self.name}_bucket"
                                 f"{_render_labels(key, le)} {count}")
                lines.append(f"{self.name}_bucket"
                             f"{_render_labels(key, (('le', '+Inf'),))}"
                             f" {cumulative[-1]}")
                lines.append(f"{self.name}_sum{_render_labels(key)}"
                             f" {_fmt(self._sums[key])}")
                lines.append(f"{self.name}_count{_render_labels(key)}"
                             f" {cumulative[-1]}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        values = []
        with self._lock:
            for k in sorted(self._counts):
                cumulative = self._cumulative(self._counts[k])
                entry: dict[str, Any] = {
                    "labels": dict(k),
                    "counts": cumulative,
                    "sum": self._sums[k],
                    "count": cumulative[-1],
                    "quantiles": self._sketches[k].snapshot()["quantiles"],
                }
                if k in self._exemplars:
                    entry["exemplar"] = dict(self._exemplars[k])
                values.append(entry)
        return {"type": self.kind, "help": self.help,
                "buckets": list(self.buckets), "values": values}


class Summary(_Metric):
    """Streaming-quantile summary (Prometheus ``summary`` semantics).

    Unlike :class:`Histogram` there are no predeclared buckets: each
    label set owns a :class:`QuantileSketch` and the exposition reports
    the configured quantiles directly::

        condor_request_seconds{quantile="0.5"} 0.0123
        condor_request_seconds{quantile="0.99"} 0.0871
        condor_request_seconds_sum 12.3
        condor_request_seconds_count 1000
    """

    kind = "summary"
    _store_attrs = ("_sketches", "_exemplars")

    def __init__(self, name: str, help: str = "",
                 quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
                 sketch_k: int = DEFAULT_SKETCH_K):
        super().__init__(name, help)
        self.quantiles = tuple(quantiles)
        self._sketch_k = int(sketch_k)
        self._sketches: dict[_LabelKey, QuantileSketch] = {}
        self._exemplars: dict[_LabelKey, dict[str, Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        if self._off():
            return
        value = float(value)
        if math.isnan(value):
            return
        key = _label_key(labels)
        with self._lock:
            sketch = self._sketches.get(key)
            if sketch is None:
                sketch = self._sketches[key] = \
                    QuantileSketch(self._sketch_k)
            sketch.observe(value)
            prev = self._exemplars.get(key)
            if prev is None or value >= prev["value"]:
                ex = _exemplar(value)
                if ex is not None:
                    self._exemplars[key] = ex

    def count(self, **labels: Any) -> int:
        with self._lock:
            sketch = self._sketches.get(_label_key(labels))
            return sketch.count if sketch else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            sketch = self._sketches.get(_label_key(labels))
            return sketch.sum if sketch else 0.0

    def quantile(self, q: float, **labels: Any) -> float | None:
        with self._lock:
            sketch = self._sketches.get(_label_key(labels))
            return None if sketch is None else sketch.quantile(q)

    def scalar_samples(self) -> dict[str, float]:
        with self._lock:
            sketches = self._sketches.values()
            return {
                f"{self.name}_count": float(
                    sum(s.count for s in sketches)),
                f"{self.name}_sum": sum(s.sum for s in sketches),
            }

    def expose(self) -> list[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._sketches):
                sketch = self._sketches[key]
                estimates = sketch.quantiles(self.quantiles)
                for q in self.quantiles:
                    ql = (("quantile", _fmt(q)),)
                    lines.append(f"{self.name}{_render_labels(key, ql)}"
                                 f" {_fmt(estimates[q])}")
                lines.append(f"{self.name}_sum{_render_labels(key)}"
                             f" {_fmt(sketch.sum)}")
                lines.append(f"{self.name}_count{_render_labels(key)}"
                             f" {sketch.count}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        values = []
        with self._lock:
            for k in sorted(self._sketches):
                entry: dict[str, Any] = {"labels": dict(k)}
                entry.update(self._sketches[k].snapshot(self.quantiles))
                if k in self._exemplars:
                    entry["exemplar"] = dict(self._exemplars[k])
                values.append(entry)
        return {"type": self.kind, "help": self.help,
                "quantiles": list(self.quantiles), "values": values}


class MetricsRegistry:
    """Named metrics with get-or-create declaration.

    A *gated* registry's metrics become no-ops while ``REPRO_NO_OBS=1``
    is set; only the process-wide default :data:`REGISTRY` is gated.
    """

    def __init__(self, *, gated: bool = False) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = new_lock("obs.metrics.MetricsRegistry")
        self._gated = gated

    def _declare(self, cls: type, name: str, help: str,
                 **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as"
                        f" {existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help, **kwargs)
            metric._gated = self._gated
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._declare(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._declare(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) \
            -> Histogram:
        return self._declare(Histogram, name, help, buckets=buckets)

    def summary(self, name: str, help: str = "",
                quantiles: tuple[float, ...] = DEFAULT_QUANTILES) \
            -> Summary:
        return self._declare(Summary, name, help, quantiles=quantiles)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def _snapshot_metrics(self) -> list[_Metric]:
        """Name-ordered metric list, read under the registry lock.

        Exports iterate this snapshot *after* releasing the registry
        lock: each metric then locks itself, so no export path ever
        nests registry -> metric (only :meth:`reset` takes that edge,
        deliberately, in hierarchy order).
        """
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every metric (keeps declarations).  Test helper.

        Holds the registry lock across the sweep so a concurrent
        ``_declare`` cannot slip a half-reset view in between; the
        nested ``metric.clear_values()`` acquisitions follow the
        documented registry -> metric lock order.
        """
        with self._lock:
            for metric in self._metrics.values():
                metric.clear_values()

    # -- export --------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self._snapshot_metrics():
            lines.extend(metric.expose())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot of every metric."""
        return {metric.name: metric.snapshot()
                for metric in self._snapshot_metrics()}

    def scalars(self) -> dict[str, float]:
        """One flat number per series — the time-series sampler's row.

        Counters and gauges collapse to the sum over label sets;
        histograms and summaries contribute ``<name>_count`` and
        ``<name>_sum``.  Each metric's :meth:`~_Metric.scalar_samples`
        reads under its own lock, so this is safe against concurrent
        updates (the sampler calls it from its own thread) without the
        registry ever touching another object's private lock.
        """
        out: dict[str, float] = {}
        for metric in self._snapshot_metrics():
            out.update(metric.scalar_samples())
        return out


#: The process-wide default registry instrumented modules declare against.
REGISTRY = MetricsRegistry(gated=True)
