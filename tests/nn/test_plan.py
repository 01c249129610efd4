"""The execution-plan cache: bit-identical replay, LRU bounds,
weight-mutation invalidation and dtype keying.

Every equivalence assertion here is ``np.array_equal`` — plans replay
the exact arithmetic of the unplanned kernels (gathers are pure data
movement, max is an exact reduction, the GEMMs see the same operands),
so tolerance would only hide a broken plan.
"""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.errors import ShapeError
from repro.frontend.weights import WeightStore
from repro.ir.layers import ConvLayer
from repro.nn.engine import ReferenceEngine
from repro.nn.plan import (
    SIZE_ENV,
    PlanCache,
    compile_plan,
    default_plan_cache,
)
from repro.quant.apply import QuantizedEngine
from repro.quant.scheme import QuantScheme

_BATCH = {"tc1": 5, "lenet": 4, "cifar10": 3, "vgg16": 2}


def _images(net, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
        .astype(np.float32)


def _engines(net, weights):
    """A planned engine (private cache) and the unplanned oracle."""
    planned = ReferenceEngine(net, weights, plan_cache=PlanCache())
    oracle = ReferenceEngine(net, weights, use_plans=False)
    return planned, oracle


# -- equivalence across the zoo ----------------------------------------------


@pytest.mark.parametrize("name", ["tc1", "lenet", "cifar10", "vgg16"])
def test_planned_forward_bit_identical(name, zoo_model, zoo_weights):
    net = zoo_model(name).network
    planned, oracle = _engines(net, zoo_weights(name))
    images = _images(net, _BATCH[name])
    for image in images:  # first pass compiles, later passes replay
        expected = oracle.forward(image)
        got = planned.forward(image)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", ["tc1", "lenet", "cifar10", "vgg16"])
def test_planned_run_batch_bit_identical(name, zoo_model, zoo_weights):
    net = zoo_model(name).network
    planned, oracle = _engines(net, zoo_weights(name))
    images = _images(net, _BATCH[name], seed=1)
    expected = oracle.run_batch(images)
    assert np.array_equal(planned.run_batch(images), expected)
    # warm replay (plans + batch scratch already exist) stays identical
    assert np.array_equal(planned.run_batch(images), expected)


def test_replay_does_not_corrupt_previous_output(zoo_model, zoo_weights):
    """Plan scratch is reused across calls; the engine must copy the
    final output so an earlier result survives a later forward pass."""
    net = zoo_model("lenet").network
    planned, oracle = _engines(net, zoo_weights("lenet"))
    images = _images(net, 2, seed=2)
    first = planned.forward(images[0])
    expected_first = first.copy()
    planned.forward(images[1])  # would overwrite shared scratch
    assert np.array_equal(first, expected_first)
    assert np.array_equal(first, oracle.forward(images[0]))


def test_run_and_predict_share_batched_path(zoo_model, zoo_weights):
    net = zoo_model("lenet").network
    planned, oracle = _engines(net, zoo_weights("lenet"))
    image = _images(net, 1, seed=3)[0]
    expected = oracle.forward(image)
    assert np.array_equal(planned.run_batch(image[None])[0], expected)
    assert planned.predict(image) == int(np.argmax(expected))


def test_quantized_engine_planned_parity(zoo_model, zoo_weights):
    """Dynamic activation scales live in the ``_post_layer`` hook,
    outside the cached plans — quantized outputs must match the
    unplanned quantized engine exactly."""
    net = zoo_model("tc1").network
    scheme = QuantScheme(bits=8)
    planned = QuantizedEngine(net, zoo_weights("tc1"), scheme,
                              plan_cache=PlanCache())
    oracle = QuantizedEngine(net, zoo_weights("tc1"), scheme,
                             use_plans=False)
    images = _images(net, 4, seed=4)
    for image in images:
        assert np.array_equal(planned.forward(image),
                              oracle.forward(image))
    assert np.array_equal(planned.run_batch(images),
                          oracle.run_batch(images))


def test_planned_path_rejects_wrong_shape(zoo_model, zoo_weights):
    net = zoo_model("tc1").network
    planned, _ = _engines(net, zoo_weights("tc1"))
    with pytest.raises(ShapeError):
        planned.forward(np.zeros((1, 5, 5), dtype=np.float32))


# -- the functional gather kernels -------------------------------------------


def test_im2col_index_map_matches_im2col():
    rng = np.random.default_rng(0)
    for in_shape, kernel, stride, pad in [
        ((3, 8, 8), (3, 3), (1, 1), (0, 0)),
        ((2, 9, 7), (2, 4), (2, 1), (1, 2)),
        ((1, 5, 5), (5, 5), (1, 1), (0, 0)),
    ]:
        x = rng.normal(size=in_shape).astype(np.float32)
        idx = F.im2col_index_map(in_shape, kernel, stride, pad)
        padded = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1])))
        got = padded.reshape(-1).take(idx)
        assert np.array_equal(got, F.im2col(x, kernel, stride, pad))


def test_pool_index_map_matches_max_pool():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 8, 8)).astype(np.float32)
    idx = F.pool_index_map((3, 8, 8), (2, 2), (2, 2))
    gathered = x.reshape(-1).take(idx)
    got = np.maximum.reduce(gathered, axis=0).reshape(3, 4, 4)
    assert np.array_equal(got, F.max_pool2d(x, (2, 2), (2, 2)))


def test_index_map_rejects_oversized_window():
    with pytest.raises(ShapeError):
        F.im2col_index_map((1, 3, 3), (5, 5))
    with pytest.raises(ShapeError):
        F.pool_index_map((1, 3, 3), (5, 5), (1, 1))


# -- the cache itself ---------------------------------------------------------


def _conv_setup(f=2, c=1, hw=6, k=3):
    layer = ConvLayer(name="conv", num_output=f, kernel=(k, k))
    store = WeightStore()
    rng = np.random.default_rng(5)
    store.set("conv", "weights",
              rng.normal(size=(f, c, k, k)).astype(np.float32))
    store.set("conv", "bias", rng.normal(size=(f,)).astype(np.float32))
    return layer, store, (c, hw, hw)


def test_lookup_hits_and_misses():
    layer, store, in_shape = _conv_setup()
    cache = PlanCache(capacity=4)
    first = cache.lookup(layer, in_shape, store)
    again = cache.lookup(layer, in_shape, store)
    assert again is first
    stats = cache.stats()
    assert stats["misses"] == stats["compiles"] == 1
    assert stats["hits"] == 1
    assert stats["entries"] == len(cache) == 1


def test_lru_capacity_and_eviction():
    layer, store, _ = _conv_setup(hw=8)
    cache = PlanCache(capacity=2)
    shapes = [(1, 8, 8), (1, 10, 10), (1, 12, 12)]
    plans = [cache.lookup(layer, s, store) for s in shapes]
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    # the oldest shape was evicted: looking it up again recompiles
    assert cache.lookup(layer, shapes[0], store) is not plans[0]
    # the most recent one is still cached
    assert cache.lookup(layer, shapes[2], store) is plans[2]


def test_lru_touch_on_hit():
    layer, store, _ = _conv_setup(hw=8)
    cache = PlanCache(capacity=2)
    a = cache.lookup(layer, (1, 8, 8), store)
    cache.lookup(layer, (1, 10, 10), store)
    assert cache.lookup(layer, (1, 8, 8), store) is a  # touch a
    cache.lookup(layer, (1, 12, 12), store)  # evicts the 10x10 plan
    assert cache.lookup(layer, (1, 8, 8), store) is a


def test_weight_mutation_invalidates():
    layer, store, in_shape = _conv_setup()
    cache = PlanCache(capacity=8)
    x = np.random.default_rng(6).normal(size=in_shape) \
        .astype(np.float32)
    before = cache.lookup(layer, in_shape, store).run_batch(x[None])[0] \
        .copy()
    store.set("conv", "weights",
              2.0 * store.get("conv", "weights"))
    replanned = cache.lookup(layer, in_shape, store)
    assert cache.stats()["misses"] == 2  # version bump forced a recompile
    after = replanned.run_batch(x[None])[0]
    expected = F.conv2d(x, store.get("conv", "weights"),
                        store.get("conv", "bias"))
    assert np.array_equal(after, expected)
    assert not np.array_equal(after, before)


def test_engine_sees_weight_mutation(zoo_model, zoo_weights):
    """The per-engine memo re-checks the weight version on every pass."""
    net = zoo_model("tc1").network
    weights = WeightStore(
        {layer: dict(zoo_weights("tc1").blobs(layer))
         for layer in zoo_weights("tc1").layers()})
    planned, _ = _engines(net, weights)
    image = _images(net, 1, seed=7)[0]
    planned.forward(image)  # compile against the original weights
    name = weights.layers()[0]
    for blob, array in weights.blobs(name).items():
        weights.set(name, blob, array * 3.0)
    fresh_oracle = ReferenceEngine(net, weights, use_plans=False)
    assert np.array_equal(planned.forward(image),
                          fresh_oracle.forward(image))


def test_dtype_keys_separate_plans():
    layer, store, in_shape = _conv_setup()
    cache = PlanCache(capacity=8)
    p32 = cache.lookup(layer, in_shape, store, np.float32)
    p64 = cache.lookup(layer, in_shape, store, np.float64)
    assert p32 is not p64
    assert len(cache) == 2
    x = np.random.default_rng(8).normal(size=in_shape)
    out64 = p64.run_batch(x[None].astype(np.float64))
    assert out64.dtype == np.float64
    out32 = p32.run_batch(x[None].astype(np.float32))
    assert out32.dtype == np.float32


def test_store_tokens_separate_plans():
    layer, store_a, in_shape = _conv_setup()
    _, store_b, _ = _conv_setup()
    cache = PlanCache(capacity=8)
    pa = cache.lookup(layer, in_shape, store_a)
    pb = cache.lookup(layer, in_shape, store_b)
    assert pa is not pb and len(cache) == 2


def test_invalidate_by_store_and_layer():
    layer, store, in_shape = _conv_setup()
    other_layer = ConvLayer(name="conv2", num_output=1, kernel=(3, 3))
    store.set("conv2", "weights",
              np.ones((1, 1, 3, 3), dtype=np.float32))
    store.set("conv2", "bias", np.zeros(1, dtype=np.float32))
    cache = PlanCache(capacity=8)
    cache.lookup(layer, in_shape, store)
    cache.lookup(other_layer, in_shape, store)
    assert cache.invalidate(store=store, layer="conv") == 1
    assert len(cache) == 1
    assert cache.invalidate() == 1  # drop everything
    assert len(cache) == 0
    assert cache.stats()["invalidations"] == 2


def test_engine_invalidate_plans(zoo_model, zoo_weights):
    net = zoo_model("tc1").network
    cache = PlanCache()
    engine = ReferenceEngine(net, zoo_weights("tc1"), plan_cache=cache)
    engine.forward(_images(net, 1, seed=9)[0])
    assert len(cache) > 0
    dropped = engine.invalidate_plans()
    assert dropped == cache.stats()["invalidations"] > 0
    assert len(cache) == 0
    assert engine.plan_stats()["resolved_layers"] == 0


def test_capacity_env_and_validation(monkeypatch):
    monkeypatch.setenv(SIZE_ENV, "3")
    assert PlanCache().capacity == 3
    monkeypatch.setenv(SIZE_ENV, "not-a-number")
    assert PlanCache().capacity == 256
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# -- stats & defaults ---------------------------------------------------------


def test_plan_stats_shape(zoo_model, zoo_weights):
    net = zoo_model("tc1").network
    engine = ReferenceEngine(net, zoo_weights("tc1"),
                             plan_cache=PlanCache())
    images = _images(net, 2, seed=11)
    engine.run_batch(images)
    engine.run_batch(images)
    stats = engine.plan_stats()
    assert stats["plans_active"] is True
    assert stats["misses"] == stats["compiles"] == len(net.layers)
    assert stats["resolved_layers"] == len(net.layers)
    # second pass replayed every layer from the memo
    assert stats["hits"] >= len(net.layers)
    assert stats["capacity"] >= 1
    assert stats["compile_seconds"] >= 0.0


def test_default_cache_is_shared():
    assert default_plan_cache() is default_plan_cache()


def test_compile_plan_kinds(zoo_model, zoo_weights):
    net = zoo_model("lenet").network
    weights = zoo_weights("lenet")
    kinds = {compile_plan(layer, net.input_shape(layer).as_tuple(),
                          weights).kind
             for layer in net.layers}
    assert {"input", "conv", "max-pool", "fc"} <= kinds
