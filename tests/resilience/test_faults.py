"""Fault plans: seeded determinism, boundary hooks, realm isolation."""

import pytest

from repro.errors import AFIError, CircuitOpenError, TransientError
from repro.resilience import (
    ALL_BOUNDARIES,
    CLOUD_BOUNDARIES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    VirtualClock,
    active_plan,
    breaker_for,
    inject_faults,
    run_boundary,
)
from repro.resilience.faults import BOUNDARY_ERRORS


class TestSpecs:
    def test_exact_match(self):
        spec = FaultSpec("cloud.upload", FaultKind.TRANSIENT)
        assert spec.matches("cloud.upload")
        assert not spec.matches("cloud.wait-for-afi")

    def test_glob_match(self):
        spec = FaultSpec("cloud.*", FaultKind.TRANSIENT)
        assert all(spec.matches(b) for b in CLOUD_BOUNDARIES)
        assert not spec.matches("toolchain.hls-csynth")

    def test_every_boundary_has_a_native_error(self):
        for boundary in ALL_BOUNDARIES:
            assert issubclass(BOUNDARY_ERRORS[boundary], Exception)


class TestInjection:
    def test_transient_clears_after_times(self):
        plan = FaultPlan([FaultSpec("b", FaultKind.TRANSIENT, times=2)])
        clock = VirtualClock()
        for _ in range(2):
            with pytest.raises(TransientError):
                plan.on_attempt("b", clock)
        plan.on_attempt("b", clock)  # cleared
        assert plan.injected[("b", "transient")] == 2

    def test_permanent_never_clears_and_is_native(self):
        plan = FaultPlan([FaultSpec("cloud.create-fpga-image",
                                    FaultKind.PERMANENT)])
        clock = VirtualClock()
        for _ in range(5):
            with pytest.raises(AFIError):
                plan.on_attempt("cloud.create-fpga-image", clock)

    def test_slow_advances_clock(self):
        plan = FaultPlan([FaultSpec("b", FaultKind.SLOW, delay_s=30.0)])
        clock = VirtualClock()
        plan.on_attempt("b", clock)
        assert clock.now == 30.0
        plan.on_attempt("b", clock)  # times=1: fired once
        assert clock.now == 30.0

    def test_corrupt_is_deterministic_and_bounded(self):
        payload = bytes(range(256)) * 64
        a = FaultPlan([FaultSpec("cloud.upload", FaultKind.CORRUPT)],
                      seed=5)
        b = FaultPlan([FaultSpec("cloud.upload", FaultKind.CORRUPT)],
                      seed=5)
        mutated = a.corrupt("cloud.upload", payload)
        assert mutated != payload
        assert len(mutated) == len(payload)
        assert mutated == b.corrupt("cloud.upload", payload)
        # exhausted after `times`
        assert a.corrupt("cloud.upload", payload) == payload

    def test_corrupt_other_boundary_untouched(self):
        plan = FaultPlan([FaultSpec("cloud.upload", FaultKind.CORRUPT)])
        assert plan.corrupt("toolchain.hls-csynth", b"abc") == b"abc"


class TestDeterminism:
    def test_random_plan_reproducible(self):
        a, b = FaultPlan.random(11), FaultPlan.random(11)
        assert [s.to_dict() for s in a.specs] == \
            [s.to_dict() for s in b.specs]

    def test_random_plans_differ_across_seeds(self):
        plans = [[s.to_dict() for s in FaultPlan.random(seed).specs]
                 for seed in range(8)]
        assert len({str(p) for p in plans}) > 1

    def test_permanent_confined_to_cloud(self):
        for seed in range(64):
            for spec in FaultPlan.random(seed).specs:
                if spec.kind is FaultKind.PERMANENT:
                    assert spec.boundary in CLOUD_BOUNDARIES

    def test_transient_counts_stay_survivable(self):
        for seed in range(64):
            for spec in FaultPlan.random(seed).specs:
                if spec.kind is FaultKind.TRANSIENT:
                    assert spec.times <= 2  # below max_attempts=3

    def test_replay_identical_injection_sequence(self):
        clock = VirtualClock()
        outcomes = []
        for _ in range(2):
            plan = FaultPlan.random(23)
            seen = []
            for boundary in ALL_BOUNDARIES * 3:
                try:
                    plan.on_attempt(boundary, clock)
                    seen.append((boundary, None))
                except Exception as exc:
                    seen.append((boundary, type(exc).__name__))
            outcomes.append(seen)
        assert outcomes[0] == outcomes[1]


class TestHarness:
    def test_inject_faults_activates_plan(self):
        plan = FaultPlan()
        assert active_plan() is None
        with inject_faults(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_run_boundary_retries_injected_transients(self):
        plan = FaultPlan([FaultSpec("b", FaultKind.TRANSIENT, times=2)])
        calls = []
        with inject_faults(plan):
            result = run_boundary("b", lambda: calls.append(1) or "ok")
        assert result == "ok"
        assert len(calls) == 1  # faults fired before fn on 2 attempts
        assert plan.injected[("b", "transient")] == 2

    def test_breaker_realm_isolated(self):
        outside = breaker_for("realm-test")
        with inject_faults(FaultPlan()):
            inside = breaker_for("realm-test")
            assert inside is not outside
        assert breaker_for("realm-test") is outside

    def test_breaker_opens_under_sustained_transients(self):
        plan = FaultPlan([FaultSpec("b", FaultKind.TRANSIENT,
                                    times=100)])
        with inject_faults(plan):
            # call 1: three transient failures, retry budget exhausted
            with pytest.raises(TransientError):
                run_boundary("b", lambda: "never")
            # call 2: failures 4 and 5 trip the breaker (threshold 5);
            # the third attempt is rejected by the open circuit
            with pytest.raises(CircuitOpenError):
                run_boundary("b", lambda: "never")
            with pytest.raises(CircuitOpenError):
                run_boundary("b", lambda: "never")


class TestDeviceFaults:
    """The device-level kinds fire only through the device hooks."""

    def _device(self):
        from repro.hw.resources import device_for_board
        from repro.runtime.opencl import SimDevice
        return SimDevice("card", device_for_board("aws-f1-xcvu9p"))

    def test_on_attempt_ignores_device_kinds(self):
        from repro.resilience import DEVICE_PATTERN
        clock = VirtualClock()
        plan = FaultPlan([
            FaultSpec(DEVICE_PATTERN, FaultKind.SLOT_CRASH),
            FaultSpec(DEVICE_PATTERN, FaultKind.KERNEL_HANG),
            FaultSpec(DEVICE_PATTERN, FaultKind.SLOW_DEVICE),
        ])
        plan.on_attempt("device.i-1.slot0", clock)  # no raise, no sleep
        assert clock.now == 0.0
        assert plan.total_injected == 0

    def test_device_hook_ignores_build_kinds(self):
        clock = VirtualClock()
        plan = FaultPlan([FaultSpec("device.*", FaultKind.TRANSIENT),
                          FaultSpec("device.*", FaultKind.SLOW)])
        plan.on_device_attempt("device.i-1.slot0", clock)
        assert clock.now == 0.0
        assert plan.total_injected == 0

    def test_slot_crash_kills_the_card_once(self):
        clock = VirtualClock()
        device = self._device()
        plan = FaultPlan([FaultSpec("device.*", FaultKind.SLOT_CRASH)])
        from repro.errors import DeviceLostError
        with pytest.raises(DeviceLostError):
            plan.on_device_attempt("device.i-1.slot0", clock,
                                   device=device)
        assert device.alive is False
        # cleared after `times`
        plan.on_device_attempt("device.i-1.slot0", clock, device=device)

    def test_permanent_device_loss_never_clears(self):
        clock = VirtualClock()
        device = self._device()
        plan = FaultPlan([FaultSpec("device.*", FaultKind.PERMANENT)])
        from repro.errors import DeviceLostError
        for _ in range(3):
            device.alive = True
            with pytest.raises(DeviceLostError):
                plan.on_device_attempt("device.i-1.slot0", clock,
                                       device=device)
            assert device.alive is False

    def test_hang_and_slow_advance_the_clock(self):
        clock = VirtualClock()
        plan = FaultPlan([
            FaultSpec("device.*", FaultKind.KERNEL_HANG, delay_s=600.0),
            FaultSpec("device.*", FaultKind.SLOW_DEVICE, delay_s=20.0),
        ])
        plan.on_device_attempt("device.i-1.slot0", clock)
        assert clock.now == 620.0
        plan.on_device_attempt("device.i-1.slot0", clock)  # exhausted
        assert clock.now == 620.0

    def test_bitflip_corrupts_in_place_and_is_seeded(self):
        import numpy as np
        a = FaultPlan([FaultSpec("device.*", FaultKind.BITFLIP)], seed=9)
        b = FaultPlan([FaultSpec("device.*", FaultKind.BITFLIP)], seed=9)
        buf_a = np.arange(512, dtype=np.float32)
        buf_b = np.arange(512, dtype=np.float32)
        assert a.corrupt_device_weights("device.i-1.slot0", buf_a) > 0
        assert not np.array_equal(buf_a, np.arange(512,
                                                   dtype=np.float32))
        b.corrupt_device_weights("device.i-1.slot0", buf_b)
        assert np.array_equal(buf_a, buf_b)  # same seed, same flips
        # exhausted after `times`
        before = buf_a.copy()
        assert a.corrupt_device_weights("device.i-1.slot0", buf_a) == 0
        assert np.array_equal(buf_a, before)

    def test_random_without_devices_unchanged(self):
        """``FaultPlan.random`` draws build-path weather only, and each
        seed's plan is pinned: device weather moved to the fleet
        drill's ``mixed`` kind without shifting the boundary draws."""
        plan = FaultPlan.random(17)
        assert [s.to_dict() for s in plan.specs] == [
            {"boundary": "cloud.upload", "kind": "transient",
             "times": 1, "delay_s": 30.0},
            {"boundary": "cloud.upload", "kind": "corrupt-payload",
             "times": 1, "delay_s": 30.0},
            {"boundary": "cloud.create-fpga-image", "kind": "transient",
             "times": 2, "delay_s": 30.0},
            {"boundary": "cloud.wait-for-afi", "kind": "slow",
             "times": 1, "delay_s": 7.9},
            {"boundary": "toolchain.xocc-link", "kind": "transient",
             "times": 2, "delay_s": 30.0},
            {"boundary": "toolchain.package-xo", "kind": "transient",
             "times": 1, "delay_s": 30.0},
            {"boundary": "cloud.create-fpga-image", "kind": "permanent",
             "times": 1, "delay_s": 30.0},
        ]
        for seed in range(64):
            assert all(not s.boundary.startswith("device")
                       for s in FaultPlan.random(seed).specs)