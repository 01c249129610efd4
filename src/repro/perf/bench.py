"""The ``condor bench`` performance-regression harness.

Times the three hot paths this codebase optimises — the batched
reference engine, the memoized design-space explorer, and the
discrete-event simulator — on zoo models, under the telemetry spans, and
writes the results as ``BENCH_perf.json``::

    {"schema": "condor-bench/v1",
     "results": [{"op": "engine", "model": "tc1", "wall_s": ...,
                  "cycles": null, "cache_hits": null,
                  "speedup_vs_baseline": 2.7}, ...]}

Per-op semantics:

* ``engine`` — batch amortization on the production (planned) path: a
  batch-32 :meth:`ReferenceEngine.run_batch` against 32 single-sample
  :meth:`~ReferenceEngine.forward` calls, both replaying warm plans.
  ``speedup_vs_baseline`` is the single/batched wall-clock ratio; the
  batched outputs are asserted bit-identical to the per-sample path
  before any number is reported.
* ``engine-steady`` — the plan win per sample: warm-cache planned
  ``forward`` (:mod:`repro.nn.plan`) against the oracle ``forward``
  (``use_plans=False``) over the same 32 images, after a compile pass.
  ``speedup_vs_baseline`` is the oracle/planned ratio, ``cache_hits``
  the plan-cache hits of the timed replays; outputs are asserted
  bit-identical first.
* ``dse`` — the memoized serial :func:`repro.dse.explore` against the
  evaluate-from-scratch baseline (``memoize=False``).  ``cycles`` is the
  best initiation interval, ``cache_hits`` the evaluation-cache hits of
  the final (warm) run.
  Both runs must choose the same mapping or the bench aborts.
* ``sim`` — :func:`repro.sim.dataflow.simulate_accelerator` on a small
  batch.  ``cycles`` is the simulated total — fully deterministic, so
  the regression gate can hold it to zero drift across machines.
* ``serve`` — the dynamic-batching serving path
  (:mod:`repro.serve`) against the same seeded saturating workload
  served one request per fleet submission.  ``speedup_vs_baseline``
  is the single/batched virtual-makespan ratio — the throughput
  multiple batching buys — fully deterministic, and per-request
  outputs are asserted bit-identical across the two runs first.
* ``obs-overhead`` — batched inference with a live span recorder
  against the same inference with recording suspended and
  ``REPRO_NO_OBS=1``.  ``speedup_vs_baseline`` holds the
  instrumented/plain wall ratio, gated *absolutely* at
  :data:`OBS_OVERHEAD_LIMIT` — telemetry must stay under 5% whatever
  the committed baseline says.
* ``tsan-overhead`` — an uncontended acquire/release loop on an
  instrumented sanitizer lock against the same loop on a raw
  ``threading.RLock``.  ``speedup_vs_baseline`` holds the
  instrumented/plain ratio; the row is informational only (never
  gated), since the sanitizer is an opt-in ``REPRO_TSAN=1`` debugging
  tool, not a serving-path cost.

Timings take the best of a few repetitions after a warmup pass: the
minimum is the least noisy location statistic for a cold-cache-free
measurement, and the DSE fast path is *meant* to keep its evaluation
cache warm across repetitions (that reuse is the feature under test).
The speedup-row timed loops run under
:func:`~repro.obs.spans.no_recording` so the spans the engine and the
explorer emit are charged to the ``obs-overhead`` row only, not booked
as a phantom regression in every other row.

``compare_benchmarks`` diffs a fresh run against a committed baseline:
``cycles`` growth or ``speedup_vs_baseline`` decay beyond the threshold
is a violation; ``wall_s`` is informational only (it is machine-bound,
the derived ratios are not).
"""

from __future__ import annotations

import contextlib
import json
import os
import timeit
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.dse import EvaluationCache, explore
from repro.errors import BenchError
from repro.frontend.weights import WeightStore
from repro.hw.accelerator import build_accelerator
from repro.nn.engine import ReferenceEngine
from repro.nn.plan import PlanCache
from repro.obs import SpanRecorder, no_recording, recording, span
from repro.obs.spans import DISABLE_ENV

SCHEMA = "condor-bench/v1"

#: Batch size of the engine benchmark — large enough that the stacked
#: GEMMs dominate per-call dispatch overhead.
ENGINE_BATCH = 32

#: Absolute ceiling on the ``obs-overhead`` instrumented/plain ratio.
OBS_OVERHEAD_LIMIT = 1.05


def _zoo_builders() -> dict[str, Callable]:
    from repro.frontend.zoo import (
        cifar10_model,
        lenet_model,
        tc1_model,
        vgg16_model,
    )
    return {"tc1": tc1_model, "lenet": lenet_model,
            "cifar10": cifar10_model, "vgg16": vgg16_model}


def _build(name: str):
    builders = _zoo_builders()
    if name not in builders:
        raise BenchError(f"unknown zoo model {name!r};"
                         f" known: {sorted(builders)}")
    model = builders[name]()
    return model, WeightStore.initialize(model.network)


def _best_of(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall-clock of ``reps`` calls (after the caller's warmup)."""
    best = float("inf")
    for _ in range(max(1, reps)):
        start = timeit.default_timer()
        fn()
        best = min(best, timeit.default_timer() - start)
    return best


@dataclass(frozen=True)
class BenchResult:
    """One benchmark measurement (one row of ``BENCH_perf.json``)."""

    op: str
    model: str
    wall_s: float
    cycles: int | None
    cache_hits: int | None
    speedup_vs_baseline: float | None

    def key(self) -> tuple[str, str]:
        return (self.op, self.model)


def bench_engine(name: str, *, batch: int = ENGINE_BATCH,
                 reps: int = 5, rng_seed: int = 0) -> BenchResult:
    """Batched inference vs ``batch`` single-sample calls.

    Both sides replay plans from a private cache, and both are warmed
    by the bit-identity check below, so this row measures batch
    amortization on the production path alone; the plan win itself is
    the separate ``engine-steady`` row.
    """
    with span("bench.engine", model=name, batch=batch):
        model, weights = _build(name)
        net = model.network
        engine = ReferenceEngine(net, weights, plan_cache=PlanCache())
        rng = np.random.default_rng(rng_seed)
        images = rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
            .astype(np.float32)

        singles = np.stack([engine.forward(im) for im in images])
        batched = engine.run_batch(images)
        if not np.array_equal(singles, batched):
            raise BenchError(
                f"batched engine output diverged from the per-sample"
                f" path on {name!r} — refusing to report a speedup for"
                " a wrong answer")

        # interleave the two paths and take the median per-pair ratio:
        # machine-load drift then hits both sides of each ratio alike,
        # which keeps the reported speedup stable across runs
        ratios, batch_times = [], []
        with no_recording():
            for _ in range(max(1, reps)):
                single_s = _best_of(
                    lambda: [engine.forward(im) for im in images], 1)
                batch_s = _best_of(lambda: engine.run_batch(images), 1)
                ratios.append(single_s / batch_s)
                batch_times.append(batch_s)
    return BenchResult(op="engine", model=name,
                       wall_s=float(np.median(batch_times)),
                       cycles=None, cache_hits=None,
                       speedup_vs_baseline=float(np.median(ratios)))


def bench_engine_steady(name: str, *, batch: int = ENGINE_BATCH,
                        reps: int = 5, rng_seed: int = 0) -> BenchResult:
    """Warm-cache planned ``forward`` vs the oracle ``forward``, per sample.

    The steady-state serving scenario: the same shapes arrive over and
    over, so every layer replays a compiled plan (precomputed gather
    maps, packed weights, reused scratch — :mod:`repro.nn.plan`) where
    the oracle re-derives geometry in the single-sample kernels.  Each
    side runs ``batch`` single-sample calls.  The first pass compiles
    and is excluded; ``cache_hits`` reports the plan cache hits
    accumulated over the timed replays, and outputs are asserted
    bit-identical to the oracle before any number is reported.
    """
    with span("bench.engine_steady", model=name, batch=batch):
        model, weights = _build(name)
        net = model.network
        oracle = ReferenceEngine(net, weights, use_plans=False)
        planned = ReferenceEngine(net, weights, plan_cache=PlanCache())
        rng = np.random.default_rng(rng_seed)
        images = rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
            .astype(np.float32)

        baseline = np.stack([oracle.forward(im) for im in images])
        # compile pass, not timed
        warm = np.stack([planned.forward(im) for im in images])
        if not np.array_equal(baseline, warm):
            raise BenchError(
                f"planned engine output diverged from the oracle"
                f" path on {name!r} — refusing to report a speedup for"
                " a wrong answer")

        ratios, fast_times = [], []
        with no_recording():
            for _ in range(max(1, reps)):
                base_s = _best_of(
                    lambda: [oracle.forward(im) for im in images], 1)
                fast_s = _best_of(
                    lambda: [planned.forward(im) for im in images], 1)
                ratios.append(base_s / fast_s)
                fast_times.append(fast_s)
        hits = int(planned.plan_stats()["hits"])
    return BenchResult(op="engine-steady", model=name,
                       wall_s=float(np.median(fast_times)),
                       cycles=None, cache_hits=hits,
                       speedup_vs_baseline=float(np.median(ratios)))


def bench_dse(name: str, *, reps: int = 9) -> BenchResult:
    """Memoized explorer vs the evaluate-from-scratch baseline.

    Baseline and memoized reps are interleaved and the per-rep ratios
    medianed (the ``bench_engine`` idiom) — the warm explorer finishes
    in ~100us on the small models, so ratioing two independently-taken
    minima is noise-dominated.
    """
    with span("bench.dse", model=name):
        model, _ = _build(name)
        baseline = explore(model, memoize=False)

        cache = EvaluationCache()
        result = explore(model, cache=cache)
        if result.mapping != baseline.mapping:
            raise BenchError(
                f"memoized DSE chose a different mapping than the"
                f" from-scratch baseline on {name!r}")
        holder: list = [result]

        def run() -> None:
            holder[0] = explore(model, cache=cache)

        ratios = []
        fast_times = []
        with no_recording():
            for _ in range(max(1, reps)):
                baseline_s = _best_of(
                    lambda: explore(model, memoize=False), 1)
                fast_s = _best_of(run, 1)
                ratios.append(baseline_s / fast_s)
                fast_times.append(fast_s)
        result = holder[0]
    return BenchResult(op="dse", model=name,
                       wall_s=float(np.median(fast_times)),
                       cycles=result.performance.ii_cycles,
                       cache_hits=result.cache_hits,
                       speedup_vs_baseline=float(np.median(ratios)))


def bench_sim(name: str, *, batch: int = 4, reps: int = 1,
              rng_seed: int = 0) -> BenchResult:
    """Event-driven simulation of a small batch; cycles are exact."""
    from repro.sim.dataflow import simulate_accelerator

    with span("bench.sim", model=name, batch=batch):
        model, weights = _build(name)
        acc = build_accelerator(model)
        rng = np.random.default_rng(rng_seed)
        images = rng.normal(
            size=(batch,) + model.network.input_shape().as_tuple()) \
            .astype(np.float32)
        holder: list = [None]

        def run() -> None:
            holder[0] = simulate_accelerator(acc, weights, images)

        wall_s = _best_of(run, reps)
        result = holder[0]
    return BenchResult(op="sim", model=name, wall_s=wall_s,
                       cycles=result.total_cycles, cache_hits=None,
                       speedup_vs_baseline=None)


@contextlib.contextmanager
def _obs_disabled_env():
    """Set ``REPRO_NO_OBS=1`` for the extent, restoring the old value."""
    saved = os.environ.get(DISABLE_ENV)
    os.environ[DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(DISABLE_ENV, None)
        else:
            os.environ[DISABLE_ENV] = saved


def bench_obs_overhead(name: str, *, batch: int = ENGINE_BATCH,
                       reps: int = 100, rng_seed: int = 0) -> BenchResult:
    """Cost of the telemetry layer on the serving hot path.

    Interleaves plan-replay inference under a live
    :class:`~repro.obs.spans.SpanRecorder` (spans recorded, sketches
    fed, registry metrics live) with the same inference under
    ``REPRO_NO_OBS=1`` and a suspended recorder, and reports the median
    instrumented/plain wall ratio in ``speedup_vs_baseline``.  CI fails
    the row when the ratio exceeds :data:`OBS_OVERHEAD_LIMIT`.

    Measurement shape: ``reps`` *adjacent single-call pairs*, ratioed
    pairwise and medianed, alternating which side of the pair runs
    first.  Machine drift here moves on the hundreds-of-milliseconds
    scale, so back-to-back calls see the same weather (the pair ratio
    cancels it), the alternation cancels the second-slot-runs-warmer
    bias, and the median over many pairs shrinks what survives —
    best-of-N per side was measurably *worse*, because it widens the
    gap between the two sides of each pair to several drift periods.
    """
    model, weights = _build(name)
    net = model.network
    engine = ReferenceEngine(net, weights, plan_cache=PlanCache())
    rng = np.random.default_rng(rng_seed)
    images = rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
        .astype(np.float32)
    engine.run_batch(images)  # compile pass, not timed

    def instrumented() -> float:
        with recording(SpanRecorder()):
            return _best_of(lambda: engine.run_batch(images), 1)

    def plain() -> float:
        with _obs_disabled_env(), no_recording():
            return _best_of(lambda: engine.run_batch(images), 1)

    ratios, instr_times = [], []
    for rep in range(max(1, reps)):
        if rep % 2 == 0:
            instr_s, plain_s = instrumented(), plain()
        else:
            plain_s, instr_s = plain(), instrumented()
        ratios.append(instr_s / plain_s)
        instr_times.append(instr_s)
    return BenchResult(op="obs-overhead", model=name,
                       wall_s=float(np.median(instr_times)),
                       cycles=None, cache_hits=None,
                       speedup_vs_baseline=float(np.median(ratios)))


def bench_tsan_overhead(name: str, *, iters: int = 20_000,
                        reps: int = 9) -> BenchResult:
    """Cost of the runtime lock sanitizer on a bare acquire/release loop.

    Times ``iters`` uncontended ``with lock:`` round-trips on an
    :class:`~repro.sanitizer.InstrumentedRLock` (private
    :class:`~repro.sanitizer.SanitizerState`, so the process realm stays
    untouched) against the same loop on a raw ``threading.RLock``, using
    the adjacent-pair/median-ratio idiom of :func:`bench_obs_overhead`.
    ``speedup_vs_baseline`` holds the instrumented/plain ratio.

    This row is *informational only*: ``compare_benchmarks`` never gates
    it.  The sanitizer is a debugging tool enabled by ``REPRO_TSAN=1``
    (CI's sanitizer job, local deadlock hunts) — its cost budget is
    "cheap enough to leave on in CI", not a serving-path guarantee, and
    per-acquire Python bookkeeping is far too machine- and
    interpreter-sensitive to hold to a committed trend line.
    """
    import threading

    from repro.sanitizer.lockcheck import InstrumentedRLock, SanitizerState

    # conc: allow CONC006 -- the raw lock IS the measured baseline
    plain_lock = threading.RLock()
    checked_lock = InstrumentedRLock("perf.bench.tsan", SanitizerState())

    def spin(lock) -> Callable[[], None]:
        def run() -> None:
            for _ in range(iters):
                with lock:
                    pass
        return run

    plain, checked = spin(plain_lock), spin(checked_lock)
    plain()
    checked()  # warmup both sides
    ratios, checked_times = [], []
    for rep in range(max(1, reps)):
        if rep % 2 == 0:
            checked_s, plain_s = _best_of(checked, 1), _best_of(plain, 1)
        else:
            plain_s, checked_s = _best_of(plain, 1), _best_of(checked, 1)
        ratios.append(checked_s / plain_s)
        checked_times.append(checked_s)
    return BenchResult(op="tsan-overhead", model=name,
                       wall_s=float(np.median(checked_times)),
                       cycles=None, cache_hits=None,
                       speedup_vs_baseline=float(np.median(ratios)))


def bench_serve(name: str, *, workdir: Path | str,
                requests: int = 2048, rate_rps: float = 100_000.0,
                seed: int = 0) -> BenchResult:
    """Dynamic batching vs the batch-size-1 serving path.

    Builds one AFI with a Condor flow run in ``workdir``, then serves
    the *same* seeded workload twice on fresh single-slot fleets over
    fresh virtual clocks: once with the full bucket ladder (requests
    coalesce into padded batches), once with ``buckets=(1,)`` (every
    request is its own fleet submission).
    The offered rate saturates the slot, so both runs are
    service-limited and ``speedup_vs_baseline`` — the single/batched
    *virtual makespan* ratio — is exactly the throughput multiple that
    batching buys the serving path.  Fully deterministic (modeled
    device time, seeded arrivals), so the regression gate can hold it;
    per-request outputs are asserted bit-identical across the two runs
    before any number is reported.
    """
    from repro.fleet import FleetConfig, FleetManager, servable_model
    from repro.flow.condor import CondorFlow, FlowInputs
    from repro.resilience.clock import VirtualClock
    from repro.serve import (
        InferenceServer,
        LoadSpec,
        ServeConfig,
        TenantSpec,
        run_load,
    )

    with span("bench.serve", model=name, requests=requests):
        flow = CondorFlow(workdir)
        build = flow.run(FlowInputs(model=servable_model(name)))
        tenants = (TenantSpec("bench"),)
        spec = LoadSpec(rate_rps=rate_rps,
                        duration_s=requests / rate_rps, seed=seed,
                        tenants=tenants)

        def run_once(buckets, tag):
            clock = VirtualClock()
            fleet = FleetManager(
                [flow.aws.run_f1_instance("f1.2xlarge")],
                build.agfi_id, build.weights,
                config=FleetConfig(scrub_every=0), clock=clock)
            server = InferenceServer(
                fleet, tenants,
                config=ServeConfig(name=f"bench-{name}-{tag}",
                                   buckets=buckets,
                                   max_queue_depth=10 ** 9),
                clock=clock)
            start = timeit.default_timer()
            report = run_load(server, spec, keep_requests=True)
            return report, timeit.default_timer() - start

        with no_recording():
            batched, batched_wall = run_once((1, 2, 4, 8), "batched")
            single, _ = run_once((1,), "single")
        if batched.completed != batched.offered or \
                single.completed != single.offered:
            raise BenchError(
                f"serve bench shed or failed requests (batched"
                f" {batched.completed}/{batched.offered}, single"
                f" {single.completed}/{single.offered})")
        for left, right in zip(batched.requests, single.requests):
            if not np.array_equal(left.output, right.output):
                raise BenchError(
                    f"serve bench: coalesced output for request"
                    f" {left.request_id} diverges from the"
                    " batch-size-1 path")
        return BenchResult(
            op="serve", model=name, wall_s=batched_wall,
            cycles=None, cache_hits=None,
            speedup_vs_baseline=single.makespan_s / batched.makespan_s)


#: (op, model, kwargs) rows of the two suites.  The quick suite is the
#: CI gate; the full suite adds the slow rows (VGG-16 DSE carries the
#: headline cache speedup) and produces the committed baseline.
QUICK_SUITE: tuple[tuple[str, str, dict], ...] = (
    ("engine", "tc1", {}),
    ("engine-steady", "tc1", {}),
    ("engine-steady", "lenet", {}),
    ("dse", "tc1", {}),
    ("dse", "lenet", {}),
    ("sim", "tc1", {"batch": 4}),
    ("serve", "tc1", {}),
    ("obs-overhead", "lenet", {"batch": 64}),
    ("tsan-overhead", "locks", {}),
)

FULL_SUITE: tuple[tuple[str, str, dict], ...] = QUICK_SUITE + (
    ("engine", "lenet", {}),
    ("engine-steady", "cifar10", {}),
    ("dse", "vgg16", {}),
    ("sim", "lenet", {"batch": 2}),
)

_OPS: dict[str, Callable[..., BenchResult]] = {
    "engine": bench_engine,
    "engine-steady": bench_engine_steady,
    "dse": bench_dse,
    "sim": bench_sim,
    "serve": bench_serve,
    "obs-overhead": bench_obs_overhead,
    "tsan-overhead": bench_tsan_overhead,
}


def run_bench(*, workdir: Path | str, quick: bool = False,
              ops: "set[str] | None" = None,
              progress: Callable[[str], None] | None = None) \
        -> list[BenchResult]:
    """Run the quick or full suite; returns one result per row.

    ``ops`` restricts the suite to the named operations (e.g.
    ``{"engine-steady"}`` for ``condor bench --op engine-steady``).
    ``serve`` rows build their AFI under ``workdir/serve-<model>``.
    """
    if ops is not None:
        unknown = ops - set(_OPS)
        if unknown:
            raise BenchError(f"unknown bench op(s) {sorted(unknown)};"
                             f" known: {sorted(_OPS)}")
    suite = QUICK_SUITE if quick else FULL_SUITE
    results = []
    with span("bench.suite", quick=quick):
        for op, model, kwargs in suite:
            if ops is not None and op not in ops:
                continue
            if progress is not None:
                progress(f"bench {op}:{model} ...")
            if op == "serve":
                kwargs = {**kwargs,
                          "workdir": Path(workdir) / f"serve-{model}"}
            results.append(_OPS[op](model, **kwargs))
    return results


# -- persistence + regression gate ------------------------------------------


def merge_benchmarks(existing: list[BenchResult],
                     fresh: list[BenchResult]) -> list[BenchResult]:
    """Overlay ``fresh`` rows onto ``existing`` by ``(op, model)`` key.

    A partial run (``condor bench --op ...``) refreshes only the rows it
    measured; every other committed row survives, in its original order,
    with genuinely new rows appended.
    """
    fresh_by_key = {r.key(): r for r in fresh}
    merged = [fresh_by_key.pop(r.key(), r) for r in existing]
    merged.extend(r for r in fresh if r.key() in fresh_by_key)
    return merged


def write_benchmarks(results: list[BenchResult], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": SCHEMA, "results": [asdict(r) for r in results]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_benchmarks(path: str | Path) -> list[BenchResult]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark file {path}: {exc}") \
            from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise BenchError(
            f"{path} is not a {SCHEMA!r} benchmark file"
            f" (schema={doc.get('schema')!r})"
            if isinstance(doc, dict) else
            f"{path} is not a {SCHEMA!r} benchmark file")
    try:
        return [BenchResult(**row) for row in doc["results"]]
    except (KeyError, TypeError) as exc:
        raise BenchError(f"malformed benchmark row in {path}: {exc}") \
            from exc


def compare_benchmarks(current: list[BenchResult],
                       baseline: list[BenchResult],
                       max_regression: float = 0.20,
                       notes: list[str] | None = None) -> list[str]:
    """Regressions of ``current`` against ``baseline``.

    Gated per matching ``(op, model)`` row: simulated ``cycles`` may not
    grow, and ``speedup_vs_baseline`` may not decay, by more than
    ``max_regression`` (fractional).  ``wall_s`` is never gated — it
    measures the machine, not the code.  Rows present on only one side
    are *informational, never a failure*: the quick suite is a subset
    of the committed full one, and a brand-new op must be able to land
    in the same PR that refreshes ``BENCH_perf.json``.  Pass ``notes``
    (a list) to collect one message per candidate row the baseline
    lacks, so new-op runs are visible in CI logs instead of silently
    skipped.  ``obs-overhead`` is gated *absolutely* at
    :data:`OBS_OVERHEAD_LIMIT` whether or not the baseline has the row —
    telemetry overhead is a budget, not a trend.  ``tsan-overhead`` is
    never gated at all: the row exists to make the sanitizer's cost
    visible, not to hold it to one.
    """
    base = {b.key(): b for b in baseline}
    violations = []
    for cur in current:
        tag = f"{cur.op}:{cur.model}"
        if cur.op == "obs-overhead":
            # a lower ratio is strictly better, so the relative decay
            # check below does not apply; only the ceiling does
            if (cur.speedup_vs_baseline is not None
                    and cur.speedup_vs_baseline > OBS_OVERHEAD_LIMIT):
                violations.append(
                    f"{tag}: telemetry overhead"
                    f" {(cur.speedup_vs_baseline - 1.0) * 100:.1f}%"
                    f" exceeds the"
                    f" {(OBS_OVERHEAD_LIMIT - 1.0) * 100:.0f}% budget")
            continue
        if cur.op == "tsan-overhead":
            # informational only: the sanitizer is an opt-in debugging
            # tool, and per-acquire Python bookkeeping is too
            # interpreter-sensitive to gate as a trend
            continue
        ref = base.get(cur.key())
        if ref is None:
            if notes is not None:
                speedup = (f" (speedup {cur.speedup_vs_baseline:.2f}x)"
                           if cur.speedup_vs_baseline is not None
                           else "")
                notes.append(
                    f"{tag}: not in baseline — informational only;"
                    f" commit a refreshed BENCH_perf.json to gate"
                    f" it{speedup}")
            continue
        if (cur.cycles is not None and ref.cycles is not None
                and ref.cycles > 0
                and cur.cycles > ref.cycles * (1.0 + max_regression)):
            violations.append(
                f"{tag}: cycles regressed {ref.cycles} ->"
                f" {cur.cycles}"
                f" (+{(cur.cycles / ref.cycles - 1.0) * 100:.1f}%,"
                f" limit {max_regression * 100:.0f}%)")
        if (cur.speedup_vs_baseline is not None
                and ref.speedup_vs_baseline is not None
                and ref.speedup_vs_baseline > 0
                and cur.speedup_vs_baseline
                < ref.speedup_vs_baseline * (1.0 - max_regression)):
            violations.append(
                f"{tag}: speedup regressed"
                f" {ref.speedup_vs_baseline:.2f}x ->"
                f" {cur.speedup_vs_baseline:.2f}x"
                f" (limit {max_regression * 100:.0f}%)")
    return violations
