"""Concurrency guarantees of the plan layer: double-checked default
cache init, shared-cache replay from many threads (bit-identical to
serial), and threads hammering one shared DSE evaluation cache.

Runs meaningfully both ways: plain (plain locks) and under
``REPRO_TSAN=1`` (CI), where every lock below is instrumented and the
autouse conftest fixture fails the test on any sanitizer error.
"""

import threading

import numpy as np
import pytest

import repro.nn.plan as plan_mod
from repro.frontend.weights import WeightStore
from repro.nn.engine import ReferenceEngine
from repro.nn.plan import PlanCache, default_plan_cache

THREADS = 8


def _run_threads(n, fn):
    """Barrier-start ``n`` threads on ``fn(i)``; re-raise any failure."""
    barrier = threading.Barrier(n)
    errors = []

    def body(i):
        barrier.wait(timeout=10)
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "worker hung"
    if errors:
        raise errors[0]


def test_default_cache_first_call_race(monkeypatch):
    """16 threads racing the very first ``default_plan_cache()`` call
    must agree on one instance, constructed exactly once."""
    monkeypatch.setattr(plan_mod, "_DEFAULT_CACHE", None)
    inits = []
    original = PlanCache.__init__

    def counting(self, *args, **kwargs):
        inits.append(id(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(PlanCache, "__init__", counting)
    got = [None] * 16
    _run_threads(16, lambda i: got.__setitem__(i, default_plan_cache()))
    assert all(c is got[0] for c in got)
    assert len(inits) == 1
    assert plan_mod._DEFAULT_CACHE is got[0]


def test_shared_default_cache_threaded_replay_bit_identical(
        monkeypatch, zoo_model, zoo_weights):
    """N engines in N threads sharing the (fresh) default plan cache
    replay bit-identically to the serial unplanned oracle."""
    monkeypatch.setattr(plan_mod, "_DEFAULT_CACHE", None)
    net = zoo_model("tc1").network
    store = zoo_weights("tc1")
    rng = np.random.default_rng(42)
    images = rng.normal(
        size=(6,) + net.input_shape().as_tuple()).astype(np.float32)
    oracle = ReferenceEngine(net, store, use_plans=False)
    expected = [oracle.forward(img) for img in images]
    results = [None] * THREADS

    def work(i):
        # every thread constructs its own engine; all of them share
        # default_plan_cache() (first caller compiles, rest replay)
        engine = ReferenceEngine(net, store)
        results[i] = [engine.forward(img) for img in images]

    _run_threads(THREADS, work)
    for outs in results:
        for got, want in zip(outs, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    cache = default_plan_cache()
    stats = cache.stats()
    # every layer compiled at least once, and the shared cache served
    # the other threads' replays
    assert stats["entries"] > 0
    assert stats["hits"] > 0


def test_single_plan_concurrent_replay_bit_identical():
    """One compiled plan replayed from many threads at once: the
    per-thread scratch buffers keep results exact."""
    from repro.ir.layers import ConvLayer

    layer = ConvLayer(name="conv", num_output=3, kernel=(3, 3))
    store = WeightStore()
    rng = np.random.default_rng(7)
    store.set("conv", "weights",
              rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    store.set("conv", "bias",
              rng.normal(size=(3,)).astype(np.float32))
    cache = PlanCache()
    plan = cache.lookup(layer, (2, 10, 10), store)
    inputs = rng.normal(size=(THREADS, 2, 10, 10)).astype(np.float32)
    # run_batch returns the (per-thread) scratch output buffer, which
    # the next replay overwrites: copy anything kept across calls
    expected = [plan.run_batch(x[None]).copy() for x in inputs]
    results = [None] * THREADS

    def work(i):
        for _ in range(20):
            results[i] = plan.run_batch(inputs[i][None]).copy()

    _run_threads(THREADS, work)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [4])
def test_evaluation_cache_counters_exact_under_contention(zoo_model,
                                                          workers):
    """hits + misses must equal total lookups even when hammered —
    the locked read-modify-write cannot tear."""
    from repro.dse.evaluator import CachedEvaluator, EvaluationCache
    from repro.hw.mapping import default_mapping

    model = zoo_model("tc1")
    mapping = default_mapping(model.network)
    cache = EvaluationCache()
    per_thread = 25

    def work(i):
        evaluator = CachedEvaluator(model, cache=cache)
        for _ in range(per_thread):
            evaluator.evaluate(mapping)

    _run_threads(workers, work)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == workers * per_thread
    assert stats["misses"] >= 1  # at least the first compile
