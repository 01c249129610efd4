"""InferenceServer: batching correctness, shedding, the lane model.

The acceptance bar for the serving layer is bit-identity: a request
served out of a coalesced (and possibly padded) batch must produce
exactly the output the same image gets from a per-request run.  The
zoo-wide cases run on the engine-backed :class:`StubFleet`; one case
runs the full path over a real tc1 fleet.
"""

import math

import numpy as np
import pytest

from repro.errors import FleetError, ServeError, ShedError
from repro.obs import REGISTRY
from repro.resilience.clock import VirtualClock
from repro.serve import (
    InferenceServer,
    LoadSpec,
    ServeConfig,
    TenantSpec,
    run_load,
)
from tests.serve.conftest import StubFleet, make_fleet

TENANTS = (TenantSpec("alpha"), TenantSpec("beta"))


def make_server(fleet, name, **overrides):
    config = ServeConfig(name=name, **overrides)
    return InferenceServer(fleet, TENANTS, config=config)


def images_for(fleet, rng, n):
    shape = (n,) + fleet.net.input_shape().as_tuple()
    return rng.standard_normal(shape).astype(np.float32)


class TestBatchingCorrectness:
    @pytest.mark.parametrize("model", ["tc1", "lenet", "cifar10"])
    def test_coalesced_outputs_bit_identical_across_zoo(
            self, model, server_name):
        # one lane, 10 ms per row: the first request takes the idle
        # lane, the other eleven queue behind it and coalesce
        fleet = StubFleet(model, slots=1, device_seconds=0.010)
        server = make_server(fleet, server_name, slo_s=0.010)
        rng = np.random.default_rng(11)
        pool = images_for(fleet, rng, 12)
        requests = []
        for i in range(12):
            requests.append(
                server.submit("alpha", pool[i], now=0.0001 * i))
        assert fleet.batch_sizes == [1]
        assert server.advance(math.inf) == 3
        # eight fill the largest bucket; of the three left, two fill
        # bucket 2 and the last runs alone: no pad row
        assert [r.bucket for r in requests] == \
            [1] + [8] * 8 + [2] * 2 + [1]
        assert fleet.batch_sizes == [1, 8, 2, 1]
        for i, request in enumerate(requests):
            single = fleet.golden.forward_batch(pool[i][None]) \
                .reshape(1, -1)[0]
            assert request.ok
            assert np.array_equal(request.output, single)

    def test_padding_rows_never_leak_into_outputs(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(4,))
        rng = np.random.default_rng(12)
        pool = images_for(fleet, rng, 1)
        # an idle lane: 1 request dispatches at once, padded to bucket 4
        request = server.submit("alpha", pool[0], now=0.0)
        assert request.bucket == 4
        assert fleet.batch_sizes == [4]
        single = fleet.golden.forward_batch(pool[0][None]) \
            .reshape(1, -1)[0]
        assert np.array_equal(request.output, single)
        stats = server.stats()
        assert stats["padded_samples"] == 3
        assert stats["completed"] == 1  # pad rows are not requests

    def test_flush_triggers_are_deterministic_on_the_clock(
            self, server_name):
        fleet = StubFleet("tc1", slots=1, device_seconds=1e-3)
        server = make_server(fleet, server_name, slo_s=0.010,
                             buckets=(1, 2, 4, 8))
        rng = np.random.default_rng(13)
        pool = images_for(fleet, rng, 10)
        reqs = [server.submit("alpha", pool[i], now=0.0)
                for i in range(8)]
        # the first takes the idle lane; the rest wait for it to free
        assert reqs[0].completion_s == pytest.approx(1e-3)
        assert all(r.completion_s is None for r in reqs[1:])
        assert server.pump(0.0009) == 0  # a tick early: lane busy
        # seven queued fill bucket 4, then 2, then 1, one per lane-free
        # instant
        assert server.pump(1e-3) == 1
        assert [r.bucket for r in reqs[1:5]] == [4] * 4
        assert all(r.completion_s is None for r in reqs[5:])
        assert server.pump(5e-3) == 1
        assert server.pump(7e-3) == 1
        assert [r.bucket for r in reqs[5:]] == [2, 2, 1]
        # eight real rows and no pad row: the lane is done at 8 ms
        assert reqs[7].completion_s == pytest.approx(8e-3)
        # late arrivals find the lane free again and run alone
        late = [server.submit("beta", pool[8 + i], now=0.020 + 0.002 * i)
                for i in range(2)]
        assert [r.bucket for r in late] == [1, 1]
        assert [r.completion_s for r in late] == \
            [pytest.approx(0.021), pytest.approx(0.023)]
        stats = server.stats()
        assert stats["batches"] == {1: 4, 2: 1, 4: 1}
        assert stats["padded_samples"] == 0


class TestWorkConservingDispatch:
    """The one release rule: dispatch as soon as a lane is free."""

    def test_idle_lane_dispatches_at_arrival(self, server_name):
        fleet = StubFleet("tc1", slots=2, device_seconds=1e-3)
        server = make_server(fleet, server_name)
        pool = images_for(fleet, np.random.default_rng(21), 1)
        request = server.submit("alpha", pool[0], now=0.5)
        assert request.bucket == 1
        assert request.dispatch_s == 0.5
        assert request.completion_s == pytest.approx(0.5 + 1e-3)
        assert server.batcher.depth == 0

    def test_busy_lanes_hold_the_queue_and_release_it_fifo(
            self, server_name):
        fleet = StubFleet("tc1", slots=2, device_seconds=1e-3)
        server = make_server(fleet, server_name)
        pool = images_for(fleet, np.random.default_rng(22), 13)
        first = [server.submit("alpha", pool[i], now=0.0)
                 for i in range(2)]
        assert [r.bucket for r in first] == [1, 1]  # one per lane
        held = [server.submit("alpha", pool[2 + i], now=5e-5 * (i + 1))
                for i in range(11)]
        assert server.batcher.depth == 11
        assert all(r.completion_s is None for r in held)
        # both lanes free at 1 ms: the oldest eight fill the largest
        # bucket on one lane and the next two bucket 2 on the other;
        # the last waits for that lane to free at 3 ms
        assert server.advance(math.inf) == 3
        assert [r.dispatch_s for r in held] == [1e-3] * 10 + [3e-3]
        assert [r.bucket for r in held] == [8] * 8 + [2] * 2 + [1]
        assert fleet.batch_sizes == [1, 1, 8, 2, 1]
        assert server.clock.now == 3e-3

    def test_advance_stops_at_the_last_lane_free_instant(
            self, server_name):
        fleet = StubFleet("tc1", slots=1, device_seconds=1e-3)
        server = make_server(fleet, server_name, buckets=(1,))
        pool = images_for(fleet, np.random.default_rng(23), 4)
        for i in range(4):
            server.submit("alpha", pool[i], now=0.0)
        # the lane frees at 1, 2 and 3 ms; only the first two are due
        assert server.advance(2.5e-3) == 2
        assert server.clock.now == pytest.approx(2e-3)
        assert server.batcher.depth == 1
        assert server.advance(math.inf) == 1
        assert server.clock.now == pytest.approx(3e-3)

    def test_no_request_waits_on_a_lane(self, server_name):
        fleet = StubFleet("tc1", slots=2, device_seconds=1e-3)
        server = make_server(fleet, server_name,
                             max_queue_depth=10 ** 6)
        spec = LoadSpec(rate_rps=3000.0, duration_s=0.2, seed=3,
                        tenants=TENANTS)
        report = run_load(server, spec, keep_requests=True)
        assert report.completed == report.offered
        assert len(report.batches) > 1  # lanes were busy at times
        for request in report.requests:
            device = fleet.device_seconds * request.bucket
            assert request.completion_s - device == \
                pytest.approx(request.dispatch_s, abs=1e-12)
            assert request.dispatch_s >= request.arrival_s

    def test_slo_misses_counted_not_flushed(self, server_name):
        fleet = StubFleet("tc1", slots=1, device_seconds=4e-3)
        server = make_server(fleet, server_name, slo_s=0.010)
        pool = images_for(fleet, np.random.default_rng(24), 5)
        early = server.submit("alpha", pool[0], now=0.0)
        late = [server.submit("alpha", pool[1 + i], now=1e-3)
                for i in range(4)]
        server.advance(math.inf)
        assert early.latency_s == pytest.approx(4e-3)
        # held until 4 ms, then 16 ms on the device: 19 ms > 10 ms
        assert [r.latency_s for r in late] == [pytest.approx(0.019)] * 4
        stats = server.stats()
        assert stats["slo_missed"] == 4
        assert stats["completed"] == 5

    def test_random_arrivals_run_pad_free_fifo_and_bit_identical(
            self, server_name):
        """On the default ladder no pad row ever runs, whatever the
        arrival pattern and lane count."""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60, deadline=None)
        @given(gaps=st.lists(st.integers(0, 6), min_size=1, max_size=40),
               lanes=st.integers(1, 3))
        def run(gaps, lanes):
            fleet = StubFleet("tc1", slots=lanes, device_seconds=1e-3)
            server = make_server(fleet, server_name,
                                 buckets=(1, 2, 4, 8))
            pool = images_for(fleet, np.random.default_rng(len(gaps)),
                              len(gaps))
            # gaps of 0-0.6 ms against 1 ms per row: lanes are mostly
            # busy and bursts queue
            arrivals = np.cumsum(gaps) * 1e-4
            requests = []
            for i, arrival in enumerate(arrivals):
                server.advance(arrival)
                requests.append(server.submit(
                    TENANTS[i % 2].name, pool[i], now=arrival))
            server.advance(math.inf)
            assert server.stats()["padded_samples"] == 0
            assert sum(fleet.batch_sizes) == len(requests)
            # FIFO: flush k carries the next batch_sizes[k] requests
            dispatched = [r.dispatch_s for r in requests]
            assert dispatched == sorted(dispatched)
            start = 0
            for size in fleet.batch_sizes:
                flush = requests[start:start + size]
                start += size
                assert {r.bucket for r in flush} == {size}
                assert len({r.dispatch_s for r in flush}) == 1
            for i, request in enumerate(requests):
                device = fleet.device_seconds * request.bucket
                assert request.completion_s - device == \
                    pytest.approx(request.dispatch_s, abs=1e-12)
                single = fleet.golden.forward_batch(pool[i][None]) \
                    .reshape(1, -1)[0]
                assert np.array_equal(request.output, single)

        run()


class TestAdmissionPath:
    def test_queue_bound_sheds_typed(self, server_name):
        # one lane kept busy, so requests after the first stay queued
        fleet = StubFleet("tc1", slots=1, device_seconds=1.0)
        server = make_server(fleet, server_name, buckets=(8,),
                             max_queue_depth=4)
        rng = np.random.default_rng(14)
        pool = images_for(fleet, rng, 6)
        for i in range(5):
            server.submit("alpha", pool[i], now=0.0)
        assert server.batcher.depth == 4
        with pytest.raises(ShedError) as info:
            server.submit("alpha", pool[5], now=0.0)
        assert info.value.reason == "queue"
        assert server.stats()["shed"] == {"queue": 1}

    def test_unknown_tenant_raises_serve_error(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name)
        with pytest.raises(ServeError, match="unknown tenant"):
            server.submit("nobody",
                          images_for(fleet,
                                     np.random.default_rng(0), 1)[0])

    def test_nonpositive_slo_rejected(self, server_name):
        with pytest.raises(ServeError, match="SLO must be positive"):
            make_server(StubFleet("tc1"), server_name, slo_s=0.0)

    def test_oversize_bucket_ladder_rejected(self, server_name):
        fleet = StubFleet("tc1", capacity=4)
        with pytest.raises(ServeError, match="exceeds fleet"):
            make_server(fleet, server_name, buckets=(1, 8))


class TestFailureAndLanes:
    def test_fleet_error_marks_requests_failed_not_raised(
            self, server_name):
        fleet = StubFleet("tc1", fail=FleetError("all slots down"))
        server = make_server(fleet, server_name, buckets=(1,))
        rng = np.random.default_rng(15)
        request = server.submit("alpha",
                                images_for(fleet, rng, 1)[0], now=0.0)
        assert not request.ok
        assert "all slots down" in request.error
        assert server.stats()["failed"] == 1

    def test_single_lane_serializes_completions(self, server_name):
        fleet = StubFleet("tc1", slots=1, device_seconds=1e-4)
        server = make_server(fleet, server_name, buckets=(1,))
        rng = np.random.default_rng(16)
        pool = images_for(fleet, rng, 2)
        first = server.submit("alpha", pool[0], now=0.0)
        second = server.submit("alpha", pool[1], now=0.0)
        assert first.completion_s == pytest.approx(1e-4)
        # the second request is held until the only lane frees
        assert second.completion_s is None
        assert server.advance(math.inf) == 1
        assert second.dispatch_s == pytest.approx(1e-4)
        assert second.completion_s == pytest.approx(2e-4)
        assert second.latency_s == pytest.approx(2e-4)

    def test_metrics_land_in_the_registry(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(1,))
        rng = np.random.default_rng(17)
        server.submit("alpha", images_for(fleet, rng, 1)[0], now=0.0)
        latency = REGISTRY.summary(
            "condor_serve_latency_seconds",
            "End-to-end request latency on the virtual timeline,"
            " per server")
        assert latency.quantile(0.99, server=server_name) is not None
        depth = REGISTRY.gauge(
            "condor_serve_queue_depth_count",
            "Requests waiting in the batcher, per server")
        assert depth.value(server=server_name) == 0.0


class TestEventSchedule:
    def test_advance_dispatches_at_each_lane_free_instant(
            self, server_name):
        fleet = StubFleet("tc1", slots=1, device_seconds=1e-3)
        server = make_server(fleet, server_name, slo_s=0.010)
        clock = server.clock
        pool = images_for(fleet, np.random.default_rng(19), 4)
        assert server.advance(1.0) == 0  # empty queue: clock stays
        assert clock.now == 0.0
        first = server.submit("alpha", pool[0], now=0.0)
        assert first.completion_s == pytest.approx(1e-3)  # idle lane
        second = server.submit("alpha", pool[1], now=2e-4)
        third = server.submit("alpha", pool[2], now=4e-4)
        assert server.advance(5e-4) == 0  # the lane frees at 1 ms
        assert clock.now == 0.0
        assert second.completion_s is None
        # arrivals walk the clock the way run_load does: advance to the
        # arrival, then submit
        assert server.advance(1.5e-3) == 1
        assert clock.now == pytest.approx(1e-3)
        assert second.bucket == third.bucket == 2
        assert third.completion_s == pytest.approx(3e-3)
        fourth = server.submit("alpha", pool[3], now=1.5e-3)
        assert server.advance(2e-3) == 0
        assert fourth.completion_s is None
        assert server.advance(math.inf) == 1
        assert clock.now == pytest.approx(3e-3)
        assert fourth.completion_s == pytest.approx(4e-3)
        now = clock.now
        assert server.advance(math.inf) == 0  # drained: clock stays
        assert clock.now == now
        assert fleet.batch_sizes == [1, 2, 1]


class TestRealFleetServing:
    def test_coalesced_equals_per_request_on_the_fleet(
            self, image, weights, server_name):
        fleet = make_fleet(image, weights, clock=VirtualClock())
        server = make_server(fleet, server_name, slo_s=0.010)
        rng = np.random.default_rng(18)
        pool = images_for(fleet, rng, 13)
        # a burst: the first two take the two idle lanes, the other
        # eleven queue and leave as buckets 8, 2 and 1, no pad row
        requests = [server.submit("alpha", pool[i], now=0.0)
                    for i in range(13)]
        server.advance(math.inf)
        assert all(r.ok for r in requests)
        for i, request in enumerate(requests):
            assert np.array_equal(request.output,
                                  fleet.run(pool[i][None])[0])
        stats = server.stats()
        assert stats["completed"] == 13
        assert stats["batches"] == {1: 3, 2: 1, 8: 1}
        assert stats["padded_samples"] == 0


    def test_serving_makes_no_per_flush_estimate(
            self, image, weights, server_name, monkeypatch):
        """Each loaded program computes its performance model once;
        flushes bill from it instead of re-estimating."""
        import repro.runtime.opencl as runtime

        calls = []
        real = runtime.estimate_performance
        monkeypatch.setattr(
            runtime, "estimate_performance",
            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        fleet = make_fleet(image, weights, clock=VirtualClock())
        assert len(calls) == len(fleet.slots)  # one per AFI load
        calls.clear()
        server = make_server(fleet, server_name, slo_s=0.010)
        pool = images_for(fleet, np.random.default_rng(20), 11)
        requests = [server.submit("alpha", pool[i], now=0.001 * i)
                    for i in range(11)]
        server.pump(1.0)
        assert all(r.ok for r in requests)
        assert sum(server.stats()["batches"].values()) >= 2
        assert calls == []


class TestRecordedSession:
    def test_span_tree_matches_children_walk(self, image, weights,
                                             server_name):
        """The one-pass ``span_tree`` index nests a recorded serve
        session exactly as walking ``children()`` per node does."""
        import json

        from repro.obs import recording

        def walk(rec):
            def node(sp):
                out = sp.to_dict()
                kids = rec.children(sp)
                if kids:
                    out["children"] = [node(k) for k in kids]
                return out
            return [node(r) for r in
                    sorted(rec.roots(), key=lambda s: s.start_perf)]

        with recording() as rec:
            fleet = make_fleet(image, weights, clock=VirtualClock())
            server = make_server(fleet, server_name, slo_s=0.010)
            pool = images_for(fleet, np.random.default_rng(19), 11)
            requests = [server.submit("alpha", pool[i], now=0.001 * i)
                        for i in range(11)]
            server.pump(1.0)
        assert all(r.ok for r in requests)
        assert rec.find("engine.layer")  # the tree reaches the engine
        assert json.dumps(rec.span_tree()) == json.dumps(walk(rec))
