"""Shared serving fixtures: fleets on the real tc1 image (``image`` and
``weights`` come from ``tests/conftest.py``) and an engine-backed stub
fleet for zoo-wide batching-correctness tests without AFI builds."""

import itertools

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetManager,
    Submission,
    servable_model,
)
from repro.frontend.weights import WeightStore
from repro.nn.engine import ReferenceEngine
from repro.resilience.boundary import reset_breakers
from repro.resilience.clock import VirtualClock

_server_names = itertools.count(0)


@pytest.fixture(autouse=True)
def fresh_realm():
    reset_breakers()
    yield
    reset_breakers()


@pytest.fixture
def server_name():
    """A unique metrics label per test so registry reads don't bleed."""
    return f"test-serve-{next(_server_names)}"


def make_fleet(image, weights, *, clock, count=1,
               instance_type="f1.4xlarge", config=None):
    aws, result = image
    instances = [aws.run_f1_instance(instance_type)
                 for _ in range(count)]
    fleet_config = config if config is not None \
        else FleetConfig(scrub_every=0)
    return FleetManager(instances, result.agfi_id, weights,
                        config=fleet_config, clock=clock)


class _StubConfig:
    def __init__(self, capacity):
        self.capacity = capacity


class StubFleet:
    """A fleet-shaped facade over the reference engine.

    Gives the server everything it touches (``net``, ``clock``,
    ``slots``, ``config.capacity``, ``instances``, ``submit``,
    ``stats``) while every submission runs on the batched reference
    engine — so batching-correctness tests cover the whole zoo without
    paying an AFI build per model.
    """

    def __init__(self, model_name, *, clock=None, slots=2, capacity=8,
                 seed=0, device_seconds=1e-4, fail=None):
        model = servable_model(model_name)
        self.net = model.network
        weights = WeightStore.initialize(self.net, seed=seed)
        self.golden = ReferenceEngine(self.net, weights)
        self.clock = clock if clock is not None else VirtualClock()
        self.config = _StubConfig(capacity)
        self.slots = list(range(slots))
        self.instances = ["stub-instance"]
        self.device_seconds = device_seconds
        #: Optional exception raised instead of executing.
        self.fail = fail
        self.batch_sizes: list[int] = []

    def submit(self, images, *, verify=False, wait=False):
        if self.fail is not None:
            raise self.fail
        batch = np.asarray(images, dtype=np.float32)
        self.batch_sizes.append(batch.shape[0])
        outputs = self.golden.forward_batch(batch) \
            .reshape(batch.shape[0], -1)
        return Submission(outputs=outputs,
                          device_seconds=self.device_seconds
                          * batch.shape[0],
                          slot="stub.slot0", attempts=1)

    def stats(self):
        return {"instances": len(self.instances),
                "healthy_slots": len(self.slots)}
