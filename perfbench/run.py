#!/usr/bin/env python3
"""The repository benchmark: the paper's build -> AFI flow, then serving.

Run from the repository root::

    python3 perfbench/run.py --workload tc1-trickle --seed 1 \\
        --seconds 20 --trace 0

One run of a workload repeats rounds until ``--seconds`` have passed.
Each round

1. sets up: ``CondorFlow.run`` on the model's Condor JSON (DSE on,
   AWS-F1 deployment, a fresh work directory), 2 x ``f1.4xlarge`` from
   the flow's AWS session (4 slots) under ``FleetConfig(scrub_every=0)``
   as ``condor serve`` uses, and one flush per slot per bucket so every
   execution plan is warm;
2. serves a few sessions on that fleet: open-loop Poisson load through
   a fresh ``InferenceServer`` and ``run_load`` on the virtual clock
   with program telemetry recording, then the ``telemetry.json`` export
   that ``condor serve`` does;
3. releases the fleet and compares every completed request's output
   bit for bit with the golden engine.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json
and, beside them, host_rps and export_s, which carry no bound
(``spec.json`` says why).  ``--trace 1`` runs rounds with and without
the benchmark's own spans (see ``tracing.py``) and prints the
per-layer metrics.  The last line of standard output is the JSON
result; a run with any wrong output exits 1.  Workload settings and
the reasoning behind every metric are in ``spec.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from layers import host_rps, percentile
from tracing import (
    NULL_TRACER,
    Tracer,
    serving_entry_points,
    setup_entry_points,
)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
#: Latency comparisons against the frozen limit allow for float
#: rounding in completion - arrival.
LIMIT_TOLERANCE_S = 1e-9


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def session_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Setup:
    fleet: object
    clock: object
    #: The ``setup`` span of a traced set-up, else ``None``.
    root: object


@dataclass
class Session:
    mode: str
    setup_span: object = None
    report: object = None
    loop_s: float = 0.0
    loop_span: object = None
    export_s: float | None = None
    program_spans: int = 0
    manifest_bytes: int = 0
    queue_events: int = 0
    plan_hits: int = 0
    plan_lookups: int = 0
    latencies_ms: list = field(default_factory=list)
    good: int = 0
    wrong: int = 0


class Bench:
    """One workload run: settings, work directory and sessions."""

    def __init__(self, args, spec: dict, tracer, work: Path):
        from repro.fleet import servable_model
        from repro.frontend.condor_format import save_condor_json
        from repro.serve import TenantSpec

        self.args = args
        self.seed = args.seed
        self.wl = spec["workloads"][args.workload]
        serving = spec["serving"]
        self.tenants = tuple(TenantSpec(name, weight=weight)
                             for name, weight in serving["tenants"])
        self.slo_s = serving["slo_ms"] / 1e3
        self.buckets = tuple(serving["buckets"])
        self.max_queue = serving["max_queue_depth"]
        self.instances = serving["instances"]
        self.instance_type = serving["instance_type"]
        self.tracer = tracer
        self.work = work
        self.work.mkdir(parents=True)
        self.model_json = self.work / f"{self.wl['model']}.condor.json"
        save_condor_json(servable_model(self.wl["model"]), self.model_json)
        self.sessions: list[Session] = []
        self.setups: list[float] = []
        #: Peak RSS once the fixed sessions are served, before their
        #: outputs are checked.
        self.peak_rss: int | None = None
        self.last_traced_setup: Setup | None = None

    # -- set-up -------------------------------------------------------------

    def build(self, index: int, traced: bool) -> Setup:
        from repro.cloud.client import AWSSession
        from repro.fleet import FleetConfig, FleetManager
        from repro.flow.condor import CondorFlow, FlowInputs
        from repro.frontend.condor_format import DeploymentOption
        from repro.nn.plan import default_plan_cache
        from repro.obs import REGISTRY
        from repro.resilience.boundary import reset_breakers
        from repro.resilience.clock import VirtualClock

        tracer = self.tracer if traced else NULL_TRACER
        # start from the process state a fresh `condor serve` sees
        REGISTRY.reset()
        default_plan_cache().clear()
        reset_breakers()
        aws = AWSSession()
        flow = CondorFlow(self.work / f"setup-{index}-{int(traced)}",
                          aws=aws)
        inputs = FlowInputs(condor_json=self.model_json, run_dse=True,
                            deployment=DeploymentOption.AWS_F1)
        points = setup_entry_points(aws) if traced else []
        start = time.perf_counter()
        with tracer.span("setup", "bench") as root:
            with tracer.span("flow.run", "flow"), tracer.patched(points):
                result = flow.run(inputs)
            if result.degraded or result.agfi_id is None:
                raise BenchError(f"flow run did not create an AFI:"
                                 f" {result.degradation}")
            with tracer.span("setup.fleet", "bench"):
                clock = VirtualClock()
                fleet = FleetManager(
                    [aws.run_f1_instance(self.instance_type)
                     for _ in range(self.instances)],
                    result.agfi_id, result.weights,
                    config=FleetConfig(scrub_every=0), clock=clock)
            with tracer.span("setup.warmup", "bench"):
                shape = fleet.net.input_shape().as_tuple()
                for bucket in self.buckets:
                    batch = np.zeros((bucket,) + shape, dtype=np.float32)
                    for _ in fleet.slots:
                        fleet.submit(batch)
        self.setups.append(time.perf_counter() - start)
        return Setup(fleet, clock, root)

    # -- serving ------------------------------------------------------------

    def serve(self, setup: Setup, index: int, mode: str) \
            -> tuple[Session, list]:
        """One session on ``setup``'s fleet; returns it with its
        requests.  ``mode`` is ``plain`` (what users run), ``traced``
        (plus benchmark spans) or ``recording_off``."""
        import repro.obs as obs
        from repro.nn.plan import default_plan_cache
        from repro.serve import (
            InferenceServer,
            LoadSpec,
            ServeConfig,
            run_load,
        )

        traced = mode == "traced"
        tracer = self.tracer if traced else NULL_TRACER
        wl = self.wl
        spec = LoadSpec(rate_rps=wl["rate_rps"],
                        duration_s=wl["session_requests"] / wl["rate_rps"],
                        seed=session_seed(self.seed, index),
                        tenants=self.tenants)
        obs.REGISTRY.reset()
        cache = default_plan_cache()
        points = serving_entry_points() if traced else []
        recorder_ctx = obs.recording() if mode != "recording_off" \
            else contextlib.nullcontext()
        session = Session(mode=mode, setup_span=setup.root)
        with tracer.patched(points):
            with recorder_ctx as recorder:
                server = InferenceServer(
                    setup.fleet, self.tenants,
                    config=ServeConfig(name=wl["model"], slo_s=self.slo_s,
                                       buckets=self.buckets,
                                       max_queue_depth=self.max_queue),
                    clock=setup.clock)
                before = cache.stats()
                with tracer.span("serve.loop", "bench") as loop:
                    start = time.perf_counter()
                    report = run_load(server, spec, keep_requests=True)
                    session.loop_s = time.perf_counter() - start
                after = cache.stats()
            if recorder is not None:
                outdir = self.work / f"serve-{index}-{mode}"
                outdir.mkdir()
                start = time.perf_counter()
                manifest = obs.build_manifest(
                    recorder=recorder, workdir=outdir,
                    run={"command": "serve", "network": wl["model"],
                         "rate_rps": spec.rate_rps,
                         "duration_s": spec.duration_s,
                         "seed": spec.seed, "status": "ok"},
                    steps=[], snapshots={"serve": report.to_dict()})
                path = obs.write_manifest(outdir, manifest)
                session.export_s = time.perf_counter() - start
                session.program_spans = len(recorder)
                session.manifest_bytes = path.stat().st_size
        session.report = report
        session.loop_span = loop
        session.queue_events = sum(len(slot.queue.events)
                                   for slot in setup.fleet.slots)
        session.plan_hits = after["hits"] - before["hits"]
        session.plan_lookups = session.plan_hits + \
            after["misses"] - before["misses"]
        requests, report.requests = report.requests, []
        self.sessions.append(session)
        return session, requests

    def run(self, modes: tuple[str, ...]) -> None:
        """Rounds of sessions until the time is up.  Each round gives
        every mode a fresh set-up serving the same session seeds."""
        from repro.obs import peak_rss_bytes

        per_setup = self.wl["sessions_per_setup"]
        deadline = time.perf_counter() + self.args.seconds
        first = 0
        while first < self.wl["fixed_sessions"] or \
                time.perf_counter() < deadline:
            for mode in modes:
                setup = self.build(first, mode == "traced")
                served = [self.serve(setup, index, mode)
                          for index in range(first, first + per_setup)]
                golden = setup.fleet.golden
                if mode == "traced":
                    self.last_traced_setup = setup
                del setup
                # free the fleet now, not at whichever later allocation
                # triggers the collector, so peak RSS repeats
                gc.collect()
                if self.peak_rss is None and \
                        first + per_setup >= self.wl["fixed_sessions"]:
                    # the fixed sessions are the same work on every
                    # host; later rounds depend on host speed
                    self.peak_rss = peak_rss_bytes()
                for session, requests in served:
                    self.check(session, requests, golden)
            first += per_setup

    def of(self, mode: str, fixed: bool = False) -> list[Session]:
        found = [s for s in self.sessions if s.mode == mode]
        return found[:self.wl["fixed_sessions"]] if fixed else found

    # -- correctness --------------------------------------------------------

    def check(self, session: Session, requests, golden) -> None:
        """Compare every completed output bit for bit with the golden
        engine, in bucket-sized chunks, and record each request's
        latency and whether it met the workload's latency limit.

        Runs once the round's fleet is released.
        """
        chunk = max(self.buckets)
        limit_s = self.wl["latency_limit_ms"] / 1e3 + LIMIT_TOLERANCE_S
        done = [r for r in requests if r.ok]
        for lo in range(0, len(done), chunk):
            part = done[lo:lo + chunk]
            want = golden.forward_batch(np.stack([r.image for r in part]))
            want = want.reshape(len(part), -1).view(np.uint32)
            got = np.stack([r.output for r in part]) \
                .reshape(len(part), -1).view(np.uint32)
            for request, bad in zip(part, (got != want).any(axis=1)):
                latency = request.completion_s - request.arrival_s
                session.latencies_ms.append(latency * 1e3)
                if bad:
                    session.wrong += 1
                elif latency <= limit_s:
                    session.good += 1

    def counts(self) -> dict:
        offered = sum(s.report.offered for s in self.sessions)
        completed = sum(s.report.completed for s in self.sessions)
        shed = sum(sum(s.report.shed.values()) for s in self.sessions)
        failed = sum(s.report.failed for s in self.sessions)
        wrong = sum(s.wrong for s in self.sessions)
        return {"sessions": len(self.sessions), "offered": offered,
                "completed": completed, "shed": shed, "failed": failed,
                "wrong": wrong,
                "failed_share": (shed + failed + wrong) / offered}

    # -- end-to-end metrics -------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        """The gated end-to-end values, and the details printed beside
        them: sample counts and the unbounded host timings."""
        plain = self.of("plain")
        fixed = self.of("plain", fixed=True)
        latencies = [v for s in fixed for v in s.latencies_ms]
        if len(latencies) < 1000:
            raise BenchError(f"only {len(latencies)} completed requests"
                             " in the fixed sessions; p99 needs 1000")
        p99 = percentile(latencies, 99)
        values = {
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": self.peak_rss / 1e6,
            "p50_ms": percentile(latencies, 50),
            "p99_ms": p99,
            "goodput_frac": sum(s.good for s in fixed)
            / sum(s.report.offered for s in fixed),
        }
        detail = {
            "unbounded": {
                "host_rps": {"value": host_rps(plain), "unit": "req/s"},
                "export_s": {"value": statistics.median(
                    s.export_s for s in plain), "unit": "s"},
            },
            "latency_samples": len(latencies),
            "p99_samples_beyond": sum(v > p99 for v in latencies),
            "setups": len(self.setups),
            "serving_host_s": sum(s.loop_s for s in plain),
        }
        return values, detail


def provenance(args) -> dict:
    from repro.obs import git_sha

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha() if (ROOT / ".git").exists() else None,
        "src_sha256": digest.hexdigest(),
    }


def emit(names: list[tuple[str, str]], values: dict) -> dict:
    missing = [name for name, _ in names if name not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: ./src/repro not found; run from the root of a"
              " checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    bench_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; known:"
              f" {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    layer_names = [(m["name"], m["unit"]) for m in bench_doc["per_layer"]]
    if sorted(n for n, _ in layer_names) != sorted(spec["per_layer"]):
        print("perfbench: per-layer metrics in BENCHMARK.json and"
              " spec.json differ", file=sys.stderr)
        return 2
    # the program reads these switches; a run measures its defaults
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))

    tracer = Tracer()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args, spec, tracer, work)
        if args.trace:
            bench.run(("plain", "traced", "recording_off"))
            probe = layers.probe(bench, tracer)
        else:
            bench.run(("plain",))
        counts = bench.counts()
        if args.trace:
            values = layers.per_layer(bench, probe)
            metrics = emit(layer_names, values)
            detail = {}
            OUT.mkdir(exist_ok=True)
            layers.write_spans(
                tracer, OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            values, detail = bench.end_to_end()
            metrics = emit([(m["name"], m["unit"])
                            for m in bench_doc["end_to_end"]], values)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    for name, metric in detail.get("unbounded", {}).items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}"
              "  (no bound: host drift)")
    print(json.dumps({"provenance": provenance(args), "counts": counts,
                      **detail}))
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["offered"],
        "failed": counts["shed"] + counts["failed"] + counts["wrong"],
        "metrics": metrics,
    }))
    return 1 if counts["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
