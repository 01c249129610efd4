"""Per-layer metrics of a traced run, derived from the benchmark's spans.

Host times are self times: a span's duration minus what its child spans
cover.  Counts and virtual times pool the fixed sessions, so they repeat
exactly for a seed; host times pool every traced session.  What each
metric should move, and on which workload, is recorded in
``spec.json``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import numpy as np

from tracing import serving_entry_points

#: Fleet submissions per bucket in the post-serving probe.
PROBE_REPS = 32
SETUP_LAYERS = ("frontend", "dse", "analysis", "hw", "codegen",
                "toolchain", "cloud", "flow")


def by_name(root) -> dict[str, list]:
    """Every span below ``root``, grouped by name."""
    found = defaultdict(list)
    pending = list(root.children)
    while pending:
        sp = pending.pop()
        found[sp.name].append(sp)
        pending.extend(sp.children)
    return found


def host_rps(sessions) -> float:
    """Requests completed per host-second of the serving loops."""
    return sum(s.report.completed for s in sessions) / \
        sum(s.loop_s for s in sessions)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def probe(bench, tracer) -> dict:
    """Billed and simulated cycles per bucket on the served mapping,
    and engine cost per row, on the last traced session's fleet."""
    from repro.sim.dataflow import simulate_accelerator

    fleet = bench.last_traced_setup.fleet
    accelerator = fleet.slots[0].kernel.program.accelerator
    shape = fleet.net.input_shape().as_tuple()
    images = np.random.default_rng(bench.seed).standard_normal(
        (max(bench.buckets),) + shape).astype(np.float32)
    with tracer.patched(serving_entry_points()), \
            tracer.span("probe", "bench") as root:
        for bucket in bench.buckets:
            for _ in range(PROBE_REPS):
                fleet.submit(images[:bucket])
    simulated = {
        bucket: simulate_accelerator(accelerator, fleet.golden.weights,
                                     images[:bucket]).total_cycles
        for bucket in bench.buckets}
    return {"root": root, "simulated": simulated}


def _flush_waits(spans) -> tuple[list, list, list]:
    """Flushes, batch waits and lane waits (virtual seconds) of the
    ``serve.submit``/``serve.pump`` spans.

    Each flush the batcher released inside a call executed as the
    call's next ``fleet.submit`` child, in order.
    """
    flushes, batch_waits, lane_waits = [], [], []
    for sp in spans:
        dispatch = sp.attrs["now"]
        children = [c for c in sp.children if c.name == "fleet.submit"]
        for flush, child in zip(sp.attrs.get("flushes", ()), children):
            flushes.append(flush)
            for request in flush.requests:
                batch_waits.append(dispatch - request.arrival_s)
                if request.completion_s is not None:
                    lane_waits.append(request.completion_s
                                      - child.attrs["device_s"] - dispatch)
    return flushes, batch_waits, lane_waits


def per_layer(bench, probe_result: dict) -> dict:
    traced = bench.of("traced")
    fixed = bench.of("traced", fixed=True)
    all_spans = [by_name(s.loop_span) for s in traced]
    fixed_spans = all_spans[:len(fixed)]

    def gather(groups, *names):
        return [sp for group in groups for name in names
                for sp in group.get(name, ())]

    values: dict[str, float] = {}

    calls = gather(all_spans, "serve.submit", "serve.pump")
    self_us = [sp.self_seconds * 1e6 for sp in calls]
    values["serve.submit.host_us.p50"] = percentile(self_us, 50)
    values["serve.submit.host_us.p99"] = percentile(self_us, 99)
    flushes, batch_waits, lane_waits = _flush_waits(
        gather(fixed_spans, "serve.submit", "serve.pump"))
    rows = sum(len(f.requests) for f in flushes)
    values["serve.rows_per_flush"] = rows / len(flushes)
    values["serve.pad_frac"] = sum(f.padding for f in flushes) / \
        sum(f.bucket for f in flushes)
    values["serve.slo_flush_frac"] = \
        sum(f.trigger == "slo" for f in flushes) / len(flushes)
    values["serve.batch_wait_ms.p99"] = percentile(batch_waits, 99) * 1e3
    values["serve.lane_wait_ms.p99"] = percentile(lane_waits, 99) * 1e3

    fleet_fixed = gather(fixed_spans, "fleet.submit")
    values["fleet.submit.calls"] = len(fleet_fixed)
    values["fleet.submit.host_us.p50"] = percentile(
        [sp.self_seconds * 1e6
         for sp in gather(all_spans, "fleet.submit")], 50)
    values["fleet.attempts_per_submit"] = \
        sum(sp.attrs["attempts"] for sp in fleet_fixed) / len(fleet_fixed)

    values["runtime.enqueue_task.host_us.p50"] = percentile(
        [sp.self_seconds * 1e6
         for sp in gather(all_spans, "runtime.enqueue_task")], 50)
    values["runtime.engine_builds"] = len(
        gather(fixed_spans, "nn.engine_build"))
    device_ms = [sp.attrs["device_s"] * 1e3
                 for sp in gather(fixed_spans, "runtime.enqueue_task")]
    values["runtime.device_ms.p50"] = percentile(device_ms, 50)
    values["runtime.device_ms.p99"] = percentile(device_ms, 99)
    values["runtime.queue_events"] = max(s.queue_events for s in fixed)

    values["hw.estimate_performance.calls"] = len(
        gather(fixed_spans, "hw.estimate_performance"))
    values["hw.estimate_performance.host_frac"] = sum(
        sp.seconds for sp in gather(all_spans, "hw.estimate_performance")
    ) / sum(s.loop_span.seconds for s in traced)

    probe_spans = by_name(probe_result["root"])
    billed = {sp.attrs["batch"]: sp.attrs["cycles"]
              for sp in probe_spans["runtime.enqueue_task"]}
    for bucket, simulated in probe_result["simulated"].items():
        values[f"hw.billed_cycles.b{bucket}"] = billed[bucket]
        values[f"hw.sim_cycles.b{bucket}"] = simulated
        values[f"hw.billed_vs_sim.b{bucket}"] = \
            billed[bucket] / simulated - 1
        values[f"nn.forward_batch.host_us_per_row.b{bucket}"] = percentile(
            [sp.seconds / bucket * 1e6
             for sp in probe_spans["nn.forward_batch"]
             if sp.attrs["rows"] == bucket], 50)
    values["nn.plan_hit_frac"] = sum(s.plan_hits for s in fixed) / \
        sum(s.plan_lookups for s in fixed)

    plain_fixed = bench.of("plain", fixed=True)
    values["obs.spans_per_req"] = \
        sum(s.program_spans for s in plain_fixed) / \
        sum(s.report.offered for s in plain_fixed)
    values["obs.manifest_mb"] = statistics.mean(
        s.manifest_bytes for s in plain_fixed) / 1e6
    plain_rps = host_rps(bench.of("plain"))
    values["serve.host_rps"] = plain_rps
    values["obs.export_s"] = statistics.median(
        s.export_s for s in bench.of("plain"))
    values["obs.recording_cost_frac"] = \
        host_rps(bench.of("recording_off")) / plain_rps - 1
    values["trace.overhead_frac"] = plain_rps / host_rps(traced) - 1

    per_setup = defaultdict(list)
    roots = {id(s.setup_span): s.setup_span for s in traced}
    for root in roots.values():
        setup = by_name(root)
        flow = setup["flow.run"][0]
        layer_s = dict.fromkeys(SETUP_LAYERS, 0.0)
        for sp in [flow, *(s for group in by_name(flow).values()
                           for s in group)]:
            layer_s[sp.layer] += sp.self_seconds
        for layer, seconds in layer_s.items():
            per_setup[f"setup.{layer}_s"].append(seconds)
        per_setup["setup.fleet_s"].append(setup["setup.fleet"][0].seconds)
        per_setup["setup.warmup_s"].append(
            setup["setup.warmup"][0].seconds)
        per_setup["dse.evaluations"].append(len(setup["dse.evaluate"]))
    for name, samples in per_setup.items():
        values[name] = statistics.median(samples)
    return values


def write_spans(tracer, path) -> None:
    """All recorded spans as JSON lines, parents by index."""
    ids = {id(sp): i for i, sp in enumerate(tracer.spans)}
    with path.open("w") as fh:
        for i, sp in enumerate(tracer.spans):
            attrs = {k: v for k, v in sp.attrs.items() if k != "flushes"}
            if "flushes" in sp.attrs:
                attrs["flushes"] = [
                    {"bucket": f.bucket, "trigger": f.trigger,
                     "requests": [r.request_id for r in f.requests]}
                    for f in sp.attrs["flushes"]]
            fh.write(json.dumps({
                "id": i,
                "parent": ids.get(id(sp.parent)),
                "name": sp.name,
                "layer": sp.layer,
                "start": sp.start,
                "end": sp.end,
                "request": sp.request_id,
                "attrs": attrs,
            }, default=float) + "\n")
