"""Telemetry for the Condor reproduction: spans, metrics, quantile
sketches, manifests, time-series sampling, Chrome-trace export.

The paper's framework is an automation *pipeline*; what makes such a tool
usable is seeing what every stage did and where the time and resources
went (fpgaConvNet-style per-stage reports).  This package is the single
front door for that:

* :mod:`repro.obs.spans` — hierarchical timed spans with contextvar
  parent tracking (``span(...)`` context manager, ``@traced()``
  decorator, ``recording()`` to activate a collector); worker threads
  inherit the submitting span via ``contextvars.copy_context``;
* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  histograms / summaries with Prometheus text exposition, JSON
  snapshots, streaming p50/p95/p99 and span-linked exemplars;
* :mod:`repro.obs.quantiles` — the mergeable O(1)-memory
  :class:`QuantileSketch` behind every quantile above;
* :mod:`repro.obs.sampler` — a background :class:`TelemetrySampler`
  flushing periodic registry snapshots to ``timeseries.jsonl``;
* :mod:`repro.obs.manifest` — the per-run ``telemetry.json`` written by
  :class:`~repro.flow.condor.CondorFlow` and by ``condor serve``;
* :mod:`repro.obs.analyze` — offline reports/diffs over those
  artifacts (the ``condor obs`` subcommand);
* :mod:`repro.obs.chrometrace` — trace-event JSON for
  https://ui.perfetto.dev, from flow spans and from cycle-level sim
  traces, one track per OS thread.

Everything here is stdlib-only and import-cheap; instrumented modules
pay nothing unless a recorder is active, and ``REPRO_NO_OBS=1`` turns
the whole layer off.
"""

from repro.obs.analyze import (
    diff_manifests,
    span_report,
    summarize_timeseries,
)
from repro.obs.chrometrace import (
    chrome_trace,
    sim_trace_events,
    span_events,
    write_chrome_trace,
)
from repro.obs.manifest import (
    MANIFEST_NAME,
    build_manifest,
    git_sha,
    peak_rss_bytes,
    write_manifest,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
)
from repro.obs.quantiles import QuantileSketch
from repro.obs.sampler import TIMESERIES_NAME, TelemetrySampler
from repro.obs.spans import (
    Span,
    SpanRecorder,
    current_recorder,
    current_span,
    no_recording,
    obs_disabled,
    recording,
    span,
    traced,
)

__all__ = [
    "MANIFEST_NAME",
    "REGISTRY",
    "TIMESERIES_NAME",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "Span",
    "SpanRecorder",
    "Summary",
    "TelemetrySampler",
    "build_manifest",
    "chrome_trace",
    "current_recorder",
    "current_span",
    "diff_manifests",
    "git_sha",
    "no_recording",
    "obs_disabled",
    "peak_rss_bytes",
    "recording",
    "sim_trace_events",
    "span",
    "span_events",
    "span_report",
    "summarize_timeseries",
    "traced",
    "write_chrome_trace",
    "write_manifest",
]
