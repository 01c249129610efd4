"""Reference engine tests."""

import numpy as np
import pytest

from repro.errors import ShapeError, WeightsError
from repro.frontend.weights import WeightStore
from repro.ir.layers import (
    Activation,
    ActivationLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    PoolLayer,
    PoolOp,
    SoftmaxLayer,
)
from repro.ir.network import chain
from repro.nn import functional as F
from repro.nn.engine import ReferenceEngine


@pytest.fixture
def small_net():
    return chain("small", (1, 8, 8), [
        ConvLayer("c1", num_output=4, kernel=3, activation=Activation.RELU),
        PoolLayer("p1", op=PoolOp.MAX, kernel=2),
        FlattenLayer("flat"),
        FullyConnectedLayer("fc", num_output=5),
        SoftmaxLayer("prob", log=True),
    ])


@pytest.fixture
def engine(small_net):
    return ReferenceEngine(small_net, WeightStore.initialize(small_net, 7))


class TestForward:
    def test_output_shape(self, engine):
        x = np.zeros((1, 8, 8), dtype=np.float32)
        assert engine.forward(x).shape == (5, 1, 1)

    def test_log_softmax_output_normalized(self, engine):
        rng = np.random.default_rng(3)
        out = engine.forward(rng.normal(size=(1, 8, 8)))
        assert np.exp(out).sum() == pytest.approx(1.0, rel=1e-5)

    def test_wrong_input_shape_rejected(self, engine):
        with pytest.raises(ShapeError):
            engine.forward(np.zeros((3, 8, 8)))

    def test_deterministic(self, engine):
        x = np.random.default_rng(1).normal(size=(1, 8, 8))
        np.testing.assert_array_equal(engine.forward(x), engine.forward(x))

    def test_manual_composition_matches(self, small_net):
        """The engine must equal a hand-rolled composition of F kernels."""
        weights = WeightStore.initialize(small_net, 42)
        engine = ReferenceEngine(small_net, weights)
        x = np.random.default_rng(0).normal(size=(1, 8, 8)).astype(np.float32)
        y = F.relu(F.conv2d(x, weights.get("c1", "weights"),
                            weights.get("c1", "bias")))
        y = F.max_pool2d(y, (2, 2))
        y = F.fully_connected(y, weights.get("fc", "weights"),
                              weights.get("fc", "bias"))
        y = F.log_softmax(y).reshape(5, 1, 1)
        np.testing.assert_allclose(engine.forward(x), y, rtol=1e-5)


class TestBatch:
    def test_forward_batch(self, engine):
        batch = np.random.default_rng(0).normal(size=(4, 1, 8, 8))
        out = engine.forward_batch(batch)
        assert out.shape == (4, 5, 1, 1)
        np.testing.assert_allclose(out[2], engine.forward(batch[2]),
                                   rtol=1e-6)

    def test_batch_rank_checked(self, engine):
        with pytest.raises(ShapeError):
            engine.forward_batch(np.zeros((1, 8, 8)))


class TestTracing:
    @pytest.mark.parametrize("use_plans", [True, False],
                             ids=["planned", "oracle"])
    @pytest.mark.parametrize("name", ["tc1", "lenet"])
    def test_traced_run_batch(self, name, use_plans, zoo_model,
                              zoo_weights):
        """Under a recorder, ``run_batch`` returns the untraced output
        bit for bit and emits one ``engine.run_batch`` span with one
        ``engine.layer`` child per network layer, in layer order."""
        from repro.nn.plan import PlanCache
        from repro.obs import recording

        net = zoo_model(name).network
        engine = ReferenceEngine(net, zoo_weights(name),
                                 plan_cache=PlanCache(),
                                 use_plans=use_plans)
        batch = np.random.default_rng(3).normal(
            size=(3,) + net.input_shape().as_tuple()).astype(np.float32)
        plain = engine.run_batch(batch)
        with recording() as rec:
            traced = engine.run_batch(batch)
        assert np.array_equal(traced, plain)
        (root,) = rec.find("engine.run_batch")
        assert root.attrs == {"batch": 3, "layers": len(net.layers)}
        layers = rec.children(root)
        assert [sp.name for sp in layers] == \
            ["engine.layer"] * len(net.layers)
        assert [sp.attrs["layer"] for sp in layers] == \
            [layer.name for layer in net.layers]
        assert len(rec.find("engine.layer")) == len(net.layers)


class TestActivationsAndPredict:
    def test_activations_keys_and_chaining(self, engine, small_net):
        x = np.random.default_rng(2).normal(size=(1, 8, 8))
        acts = engine.activations(x)
        assert list(acts) == [l.name for l in small_net.layers]
        assert acts["c1"].shape == (4, 6, 6)
        np.testing.assert_array_equal(acts["prob"], engine.forward(x))

    def test_relu_layer_applied(self, engine):
        x = np.random.default_rng(2).normal(size=(1, 8, 8))
        assert (engine.activations(x)["c1"] >= 0).all()

    def test_predict_returns_argmax(self, engine):
        x = np.random.default_rng(5).normal(size=(1, 8, 8))
        assert engine.predict(x) == int(np.argmax(engine.forward(x)))


class TestWeightValidation:
    def test_missing_weights_rejected(self, small_net):
        with pytest.raises(WeightsError):
            ReferenceEngine(small_net, WeightStore())

    def test_wrong_shape_rejected(self, small_net):
        store = WeightStore.initialize(small_net, 0)
        store.set("c1", "weights", np.zeros((4, 1, 3, 4), dtype=np.float32))
        with pytest.raises(WeightsError):
            ReferenceEngine(small_net, store)


class TestStandaloneLayers:
    def test_standalone_activation_layer(self):
        net = chain("act", (2, 3, 3), [
            ActivationLayer("tanh", kind=Activation.TANH),
        ])
        engine = ReferenceEngine(net, WeightStore())
        x = np.random.default_rng(0).normal(size=(2, 3, 3))
        np.testing.assert_allclose(engine.forward(x), np.tanh(x), rtol=1e-6)

    def test_avg_pool_layer(self):
        net = chain("pool", (1, 4, 4), [
            PoolLayer("p", op=PoolOp.AVG, kernel=2),
        ])
        engine = ReferenceEngine(net, WeightStore())
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        np.testing.assert_array_equal(engine.forward(x),
                                      [[[2.5, 4.5], [10.5, 12.5]]])
