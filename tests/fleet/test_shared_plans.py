"""One plan set per weight content: a fleet's slots and its golden
engine replay the same compiled execution plans, and a slot whose
weight buffer is corrupted in place gets plans of its own without
touching its siblings'."""

import numpy as np
import pytest

from repro.cloud.f1 import F1Instance
from repro.fleet import FleetConfig, FleetManager
from repro.nn import plan as plan_mod
from repro.nn.engine import ReferenceEngine
from repro.resilience.boundary import inject_faults, reset_breakers
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec

BUCKETS = (1, 2, 4, 8)


@pytest.fixture
def cache(monkeypatch):
    """A fresh process-wide plan cache, so compile counts start at 0."""
    reset_breakers()
    fresh = plan_mod.PlanCache()
    monkeypatch.setattr(plan_mod, "_DEFAULT_CACHE", fresh)
    yield fresh
    reset_breakers()


@pytest.fixture
def fleet(image, weights, cache):
    """A warmed 4-slot tc1 fleet: one submission per slot per bucket."""
    aws, result = image
    instances = [F1Instance("f1.4xlarge", aws.afi) for _ in range(2)]
    fleet = FleetManager(instances, result.agfi_id, weights,
                         config=FleetConfig(scrub_every=0),
                         clock=VirtualClock())
    assert len(fleet.slots) == 4
    shape = fleet.net.input_shape().as_tuple()
    for bucket in BUCKETS:
        batch = np.zeros((bucket,) + shape, dtype=np.float32)
        for _ in fleet.slots:
            fleet.submit(batch)
    return fleet


def _engine(managed) -> ReferenceEngine:
    return managed.kernel._engine[2]


def _plans(engine: ReferenceEngine) -> dict:
    return {name: memo[3] for name, memo in engine._resolved.items()}


def _images(fleet, n, seed):
    shape = (n,) + fleet.net.input_shape().as_tuple()
    return np.random.default_rng(seed).standard_normal(shape) \
        .astype(np.float32)


def _oracle(fleet, weights, images):
    oracle = ReferenceEngine(fleet.net, weights, use_plans=False)
    return oracle.run_batch(images).reshape(images.shape[0], -1)


def _corrupt(fleet, victim, images):
    """Flip bits in ``victim``'s weight buffer on its next launch while
    serving one batch per slot.  Nothing scrubs, so the corruption is
    silent and stays in the buffer; returns the receipts."""
    plan = FaultPlan([FaultSpec(victim.slot.device.fault_boundary,
                                FaultKind.BITFLIP)], seed=4)
    with inject_faults(plan):
        receipts = [fleet.submit(images) for _ in fleet.slots]
    assert plan.total_injected == 1
    assert victim.label in {r.slot for r in receipts}
    return receipts


def _differing_layers(a, b) -> set[str]:
    """Layers whose blobs differ bit for bit between two stores."""
    return {layer for layer in a.layers()
            if any(not np.array_equal(blob.view(np.uint32),
                                      b.get(layer, name).view(np.uint32))
                   for name, blob in a.blobs(layer).items())}


def test_slots_and_golden_share_one_plan_set(fleet, cache, weights):
    layers = fleet.net.layers
    stats = cache.stats()
    # the golden engine compiled every layer at construction; four
    # slots warmed at four batch sizes added no compile
    assert stats["compiles"] == stats["misses"] == len(layers)
    assert {(key[0].name, key[1]) for key in cache._plans} == \
        {(layer.name, fleet.net.input_shape(layer).as_tuple())
         for layer in layers}
    golden = _plans(fleet.golden)
    assert len(golden) == len(layers)
    for managed in fleet.slots:
        plans = _plans(_engine(managed))
        assert plans.keys() == golden.keys()
        assert all(plans[name] is golden[name] for name in golden)
    images = _images(fleet, 4, seed=1)
    want = _oracle(fleet, weights, images)
    for _ in fleet.slots:
        assert np.array_equal(fleet.run(images), want)


def test_corrupted_slot_gets_its_own_plans(fleet, cache, weights):
    victim = fleet.slots[0]
    images = _images(fleet, 4, seed=2)
    want = _oracle(fleet, weights, images)
    # re-resolve every engine so the shared set is compiled from the
    # victim's own weight buffer: the case where a plan viewing its
    # source arrays would carry the corruption to everyone else
    for engine in [_engine(m) for m in fleet.slots] + [fleet.golden]:
        engine.invalidate_plans()
    for _ in fleet.slots:  # the victim launches first and compiles
        fleet.submit(images)
    fleet.golden.run_batch(images)
    assert all(plan is _plans(_engine(victim))[name]
               for name, plan in _plans(fleet.golden).items())
    compiles = cache.stats()["compiles"]
    receipts = _corrupt(fleet, victim, images)

    # golden and every clean slot stay bit-identical to the oracle
    for receipt in receipts:
        if receipt.slot != victim.label:
            assert np.array_equal(receipt.outputs, want)
    assert np.array_equal(
        fleet.golden.run_batch(images).reshape(4, -1), want)

    # the victim's engine compiled plans for exactly the corrupted
    # layers and shares the rest
    corrupted_engine = _engine(victim)
    corrupted = _differing_layers(corrupted_engine.weights, weights)
    assert corrupted
    assert cache.stats()["compiles"] == compiles + len(corrupted)
    golden = _plans(fleet.golden)
    mine = _plans(corrupted_engine)
    for name, plan in golden.items():
        assert (mine[name] is plan) == (name not in corrupted)
    # and the siblings still replay the golden plans
    for managed in fleet.slots:
        if managed is not victim:
            plans = _plans(_engine(managed))
            assert all(plans[name] is golden[name] for name in golden)
            assert np.array_equal(
                _engine(managed).run_batch(images).reshape(4, -1), want)


def test_repaired_slot_rejoins_the_shared_plans(fleet, cache, weights):
    victim = fleet.slots[1]
    images = _images(fleet, 2, seed=3)
    want = _oracle(fleet, weights, images)
    _corrupt(fleet, victim, images)
    compiles = cache.stats()["compiles"]
    # a verified pass over the fleet: the victim's scrub catches the
    # corrupted buffer and rewrites the golden weights
    for _ in fleet.slots:
        assert np.array_equal(fleet.submit(images, verify=True).outputs,
                              want)
    assert fleet.stats()["actions"]["scrub_catch"] == 1

    served = []
    for _ in range(2 * len(fleet.slots)):
        receipt = fleet.submit(images)
        served.append(receipt.slot)
        assert np.array_equal(receipt.outputs, want)
        if receipt.slot == victim.label:
            break
    assert served[-1] == victim.label

    # the repaired slot rebuilt its engine on the rewritten golden
    # weights and resolved every layer to the shared plans: no compile
    assert cache.stats()["compiles"] == compiles
    golden = _plans(fleet.golden)
    plans = _plans(_engine(victim))
    assert all(plans[name] is golden[name] for name in golden)
