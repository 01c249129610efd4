"""FleetManager tests: health machine, watchdog, scrub, failover."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cloud.f1 import F1Instance
from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetManager, SlotState
from repro.resilience.boundary import (
    breaker_states,
    inject_faults,
    reset_breakers,
)
from repro.resilience.breaker import HALF_OPEN, OPEN
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import (
    DEVICE_PATTERN,
    FaultKind,
    FaultPlan,
    FaultSpec,
)


@pytest.fixture(autouse=True)
def fresh_realm():
    reset_breakers()
    yield
    reset_breakers()


def make_fleet(image, weights, *, clock, count=1, config=None):
    aws, result = image
    instances = [F1Instance("f1.4xlarge", aws.afi) for _ in range(count)]
    return FleetManager(instances, result.agfi_id, weights,
                        config=config, clock=clock)


def batch_for(fleet, rng, n=2):
    shape = (n,) + fleet.net.input_shape().as_tuple()
    return rng.standard_normal(shape).astype(np.float32)


def golden_for(fleet, images):
    return fleet.golden.forward_batch(images) \
        .reshape(images.shape[0], -1)


class TestHealthyFleet:
    def test_bit_correct_and_round_robin(self, image, weights):
        fleet = make_fleet(image, weights, clock=VirtualClock())
        rng = np.random.default_rng(1)
        for _ in range(4):
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            assert np.array_equal(outputs, golden_for(fleet, images))
        # round-robin spread the four submissions over both slots
        assert [s.submissions for s in fleet.slots] == [2, 2]
        assert fleet.health() == {"i0.slot0": SlotState.OK,
                                  "i0.slot1": SlotState.OK}
        stats = fleet.stats()
        assert stats["actions"] == {"submission": 4}
        assert stats["healthy_slots"] == 2
        assert stats["quarantined"] == []

    def test_slot_breakers_live_in_the_realm(self, image, weights):
        make_fleet(image, weights, clock=VirtualClock())
        states = breaker_states()
        assert "fleet.i0.slot0" in states
        assert "fleet.i0.slot1" in states
        assert states["fleet.i0.slot0"]["state"] == "closed"

    def test_batch_over_capacity_rejected(self, image, weights):
        config = FleetConfig(capacity=2)
        fleet = make_fleet(image, weights, clock=VirtualClock(),
                           config=config)
        rng = np.random.default_rng(2)
        with pytest.raises(FleetError, match="capacity"):
            fleet.run(batch_for(fleet, rng, n=3))

    def test_empty_fleet_rejected(self, image, weights):
        _, result = image
        with pytest.raises(FleetError, match="at least one instance"):
            FleetManager([], result.agfi_id, weights)


class TestFaultHandling:
    def test_watchdog_trips_hang_and_fails_over(self, image, weights):
        clock = VirtualClock()
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.KERNEL_HANG,
                                    delay_s=600.0)], seed=3)
        rng = np.random.default_rng(3)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            stats = fleet.stats()
        assert np.array_equal(outputs, golden_for(fleet, images))
        assert plan.total_injected == 1
        assert stats["actions"]["watchdog_trip"] == 1
        assert stats["actions"]["failover"] == 1
        assert clock.now >= 600.0  # the hang burned virtual time

    def test_scrub_catches_silent_bitflip(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(scrub_every=1, capacity=4)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN, FaultKind.BITFLIP)],
                         seed=4)
        rng = np.random.default_rng(4)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            stats = fleet.stats()
        # the corruption was silent; scrubbing caught it, repaired the
        # slot, and the retried submission is still bit-correct
        assert np.array_equal(outputs, golden_for(fleet, images))
        assert plan.total_injected == 1
        assert stats["actions"]["scrub_catch"] >= 1
        assert stats["actions"]["reload"] >= 1
        assert stats["actions"]["failover"] >= 1

    def test_crash_quarantine_then_recovery(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(scrub_every=0, failure_threshold=1,
                             recovery_s=100.0)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.SLOT_CRASH)], seed=5)
        rng = np.random.default_rng(5)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            assert np.array_equal(outputs, golden_for(fleet, images))
            assert fleet.health()["i0.slot0"] is SlotState.QUARANTINED
            assert fleet.healthy_slot_count() == 1

            clock.sleep(config.recovery_s + 1)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            assert np.array_equal(outputs, golden_for(fleet, images))
            stats = fleet.stats()
        assert fleet.health() == {"i0.slot0": SlotState.OK,
                                  "i0.slot1": SlotState.OK}
        assert stats["actions"]["quarantine"] == 1
        assert stats["actions"]["recovery"] == 1
        assert stats["actions"]["reload"] >= 1
        assert stats["quarantined"] == []
        assert stats["slots"]["i0.slot0"]["reloads"] >= 1

    def test_total_loss_degrades_to_fleet_error(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(failure_threshold=1, max_attempts=4)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.PERMANENT)], seed=6)
        rng = np.random.default_rng(6)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            images = batch_for(fleet, rng)
            with pytest.raises(FleetError, match="healthy slot"):
                fleet.run(images)
            assert fleet.healthy_slot_count() == 0
            assert sorted(fleet.stats()["quarantined"]) == \
                ["i0.slot0", "i0.slot1"]


class TestHealthStateMachine:
    def test_ok_suspect_quarantined_halfopen(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(failure_threshold=2, recovery_s=50.0)
        fleet = make_fleet(image, weights, clock=clock, config=config)
        managed = fleet.slots[0]
        assert managed.health is SlotState.OK
        managed.breaker.record_failure()
        assert managed.health is SlotState.SUSPECT
        managed.breaker.record_failure()
        assert managed.breaker.state == OPEN
        assert managed.health is SlotState.QUARANTINED
        clock.sleep(51.0)
        assert managed.breaker.state == HALF_OPEN
        assert managed.health is SlotState.SUSPECT  # probing
        managed.breaker.allow()
        managed.breaker.record_success()
        assert managed.health is SlotState.OK


class TestConcurrency:
    def test_parallel_submissions_stay_bit_correct(self, image, weights):
        fleet = make_fleet(image, weights, clock=VirtualClock())
        rng = np.random.default_rng(7)
        batches = [batch_for(fleet, rng) for _ in range(8)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            outputs = list(pool.map(fleet.run, batches))
        for images, out in zip(batches, outputs):
            assert np.array_equal(out, golden_for(fleet, images))
        assert sum(s.submissions for s in fleet.slots) == 8
        assert fleet.stats()["actions"] == {"submission": 8}
