"""Autoscaler: registry-driven scale up/down with cooldown and bounds."""

import numpy as np
import pytest

from repro.obs import REGISTRY
from repro.resilience.clock import VirtualClock
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    InferenceServer,
    ServeConfig,
    TenantSpec,
)
from tests.serve.conftest import make_fleet

CONFIG = AutoscalerConfig(interval_s=0.25, cooldown_s=0.5,
                          depth_high=4, p99_high_s=0.050,
                          idle_evals=2, min_instances=1,
                          max_instances=3)


def build(image, weights, name, *, count=1):
    clock = VirtualClock()
    fleet = make_fleet(image, weights, clock=clock, count=count,
                       instance_type="f1.2xlarge")
    server = InferenceServer(
        fleet, (TenantSpec("alpha"),),
        config=ServeConfig(name=name, buckets=(1, 2, 4, 8)))
    aws, _ = image

    def launch():
        return aws.run_f1_instance("f1.2xlarge")

    return clock, fleet, server, Autoscaler(server, launch,
                                            config=CONFIG)


def queue_up(server, fleet, n, now=0.0):
    shape = fleet.net.input_shape().as_tuple()
    rng = np.random.default_rng(21)
    for _ in range(n):
        server.submit(
            "alpha", rng.standard_normal(shape).astype(np.float32),
            now=now)


class TestScaleUp:
    def test_queue_depth_triggers_growth(self, image, weights,
                                         server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name)
        queue_up(server, fleet, CONFIG.depth_high)  # gauge hits high
        assert scaler.evaluate(0.25) == "up"
        assert len(fleet.instances) == 2
        assert server.stats()["lanes"] == len(fleet.slots)
        assert scaler.events[0][1] == "up"

    def test_cooldown_blocks_back_to_back_actions(self, image, weights,
                                                  server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name)
        queue_up(server, fleet, CONFIG.depth_high)
        assert scaler.evaluate(0.25) == "up"
        assert scaler.evaluate(0.5) is None  # still hot, inside cooldown
        assert scaler.evaluate(0.25 + CONFIG.cooldown_s) == "up"
        assert len(fleet.instances) == 3

    def test_max_instances_bounds_growth(self, image, weights,
                                         server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name,
                                             count=CONFIG.max_instances)
        queue_up(server, fleet, CONFIG.depth_high)
        assert scaler.evaluate(0.25) is None
        assert len(fleet.instances) == CONFIG.max_instances

    def test_p99_latency_triggers_growth(self, image, weights,
                                         server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name)
        latency = REGISTRY.summary(
            "condor_serve_latency_seconds",
            "End-to-end request latency on the virtual timeline,"
            " per server")
        for _ in range(8):
            latency.observe(CONFIG.p99_high_s * 2, server=server_name)
        assert scaler.signals(0.25)["queue_depth"] == 0.0
        assert scaler.evaluate(0.25) == "up"


class TestScaleDown:
    def test_observed_idleness_drains_an_instance(self, image, weights,
                                                  server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name, count=2)
        # two idle evaluations past the cooldown window drain one
        assert scaler.evaluate(1.0) is None
        assert scaler.evaluate(1.25) == "down"
        assert len(fleet.instances) == 1
        assert server.stats()["lanes"] == len(fleet.slots)
        assert scaler.events[0][1] == "down"

    def test_min_instances_is_a_floor(self, image, weights,
                                      server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name, count=1)
        for step in range(6):
            assert scaler.evaluate(1.0 + 0.25 * step) is None
        assert len(fleet.instances) == 1

    def test_backlog_defers_idleness(self, image, weights,
                                     server_name):
        clock, fleet, server, scaler = build(image, weights,
                                             server_name, count=2)
        queue_up(server, fleet, 8)  # size flush: queue 0, backlog > 0
        backlog = server.backlog_s(0.0)
        assert backlog > 0.0
        assert scaler.evaluate(backlog / 2) is None  # busy: streak 0
        assert scaler.evaluate(backlog + 1.00) is None  # idle streak 1
        assert scaler.evaluate(backlog + 1.25) == "down"
