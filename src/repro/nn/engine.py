"""The reference engine: execute an IR network with numpy kernels.

This is the functional oracle for the generated accelerator and the software
baseline for the evaluation harness.

Two execution paths produce bit-identical outputs:

* the **planned** path (production) — each (layer, input shape, dtype)
  configuration is compiled once into an
  :class:`repro.nn.plan.ExecutionPlan` (precomputed gather-index maps,
  packed weights, scratch buffers) and replayed over the whole
  ``(N, C, H, W)`` batch from a process-wide LRU cache;
* the **oracle** path (:meth:`ReferenceEngine.run_layer`) — single-sample
  stride-trick kernels from :mod:`repro.nn.functional` that re-derive
  geometry on every call.  The simulator and :meth:`activations` use it
  directly; ``ReferenceEngine(..., use_plans=False)`` loops it per sample.

:meth:`~ReferenceEngine.run_batch` is the one network-level loop;
:meth:`~ReferenceEngine.forward` is a batch of one through it.  While a
span recorder is active the loop wraps itself in an ``engine.run_batch``
span and each layer in an ``engine.layer`` span.  The engine hot loop
deliberately allocates nothing shape-derived — all scratch lives inside
plans (enforced by the ``engine-plan-alloc`` lint rule).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frontend.weights import WeightStore
from repro.ir.layers import (
    Activation,
    ActivationLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    InputLayer,
    Layer,
    PoolLayer,
    PoolOp,
    SoftmaxLayer,
)
from repro.ir.network import Network
from repro.nn import functional as F
from repro.nn.plan import ExecutionPlan, PlanCache, default_plan_cache
from repro.obs import current_recorder, span

_ACTIVATIONS = {
    Activation.RELU: F.relu,
    Activation.SIGMOID: F.sigmoid,
    Activation.TANH: F.tanh,
}


class ReferenceEngine:
    """Forward inference over a network with a weight store.

    ``plan_cache`` defaults to the process-wide cache, which is safe to
    share across threads — compiled plans keep their replay scratch in
    per-thread storage; pass a private
    :class:`~repro.nn.plan.PlanCache` only to isolate cache statistics
    or eviction behaviour.  ``use_plans=False`` runs the oracle instead:
    :meth:`run_layer` looped over the samples of each batch.
    """

    def __init__(self, net: Network, weights: WeightStore, *,
                 plan_cache: PlanCache | None = None,
                 use_plans: bool = True):
        weights.validate(net)
        self.net = net
        self.weights = weights
        self.plan_cache = plan_cache if plan_cache is not None \
            else default_plan_cache()
        self.use_plans = use_plans
        #: layer name -> (weight version, in_shape, dtype, plan) — the
        #: steady-state fast path that skips the cache dict entirely.
        self._resolved: dict[str, tuple[int, tuple[int, ...], np.dtype,
                                        ExecutionPlan]] = {}

    # -- single-layer dispatch (the oracle path) -----------------------------

    def run_layer(self, layer: Layer, x: np.ndarray) -> np.ndarray:
        """Execute one layer on a (C, H, W) activation."""
        if isinstance(layer, InputLayer):
            expected = layer.shape.as_tuple()
            if tuple(x.shape) != expected:
                raise ShapeError(
                    f"input shape {tuple(x.shape)} does not match declared"
                    f" {expected}")
            return x
        if isinstance(layer, ConvLayer):
            out = F.conv2d(
                x,
                self.weights.get(layer.name, "weights"),
                self.weights.get(layer.name, "bias") if layer.bias else None,
                stride=layer.stride,
                pad=layer.pad,
            )
            if layer.activation is not Activation.NONE:
                out = _ACTIVATIONS[layer.activation](out)
            return out
        if isinstance(layer, PoolLayer):
            assert layer.stride is not None
            pool = F.max_pool2d if layer.op is PoolOp.MAX else F.avg_pool2d
            return pool(x, layer.kernel, layer.stride, layer.pad,
                        ceil_mode=layer.ceil_mode)
        if isinstance(layer, ActivationLayer):
            return _ACTIVATIONS[layer.kind](x)
        if isinstance(layer, FlattenLayer):
            return x.reshape(-1, 1, 1)
        if isinstance(layer, FullyConnectedLayer):
            out = F.fully_connected(
                x,
                self.weights.get(layer.name, "weights"),
                self.weights.get(layer.name, "bias") if layer.bias else None,
            )
            if layer.activation is not Activation.NONE:
                out = _ACTIVATIONS[layer.activation](out)
            return out.reshape(-1, 1, 1)
        if isinstance(layer, SoftmaxLayer):
            fn = F.log_softmax if layer.log else F.softmax
            return fn(x)
        raise TypeError(f"unknown layer type {type(layer).__name__}")

    # -- execution plans ------------------------------------------------------

    def _plan_for(self, layer: Layer, in_shape: tuple[int, ...],
                  dtype: np.dtype) -> ExecutionPlan:
        """Resolve the plan for one layer configuration.

        The per-engine memo makes the steady-state path a dict probe and
        a version compare; the shared LRU cache is only consulted when
        the memo misses (first call, weight mutation, shape change).
        """
        version = self.weights.version_of(layer.name)
        memo = self._resolved.get(layer.name)
        if memo is not None:
            if memo[0] == version and memo[1] == in_shape \
                    and memo[2] == dtype:
                self.plan_cache.record_hit()
                return memo[3]
        plan = self.plan_cache.lookup(layer, in_shape, self.weights, dtype)
        self._resolved[layer.name] = (version, in_shape, dtype, plan)
        return plan

    def _post_layer(self, layer: Layer, out: np.ndarray) -> np.ndarray:
        """Hook applied to the batch output of every planned layer.

        The base engine is the identity; :class:`~repro.quant.apply.
        QuantizedEngine` rounds activations here so its dynamic
        per-tensor scales stay outside the shape-keyed plans.
        """
        return out

    def plan_stats(self) -> dict:
        """Plan-cache counters + this engine's resolution state."""
        stats = self.plan_cache.stats()
        stats["plans_active"] = self.use_plans
        stats["resolved_layers"] = len(self._resolved)
        return stats

    def invalidate_plans(self) -> int:
        """Drop this engine's memo and its store's cached plans."""
        self._resolved.clear()
        return self.plan_cache.invalidate(store=self.weights)

    # -- network-level API ----------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run one sample through the whole network (a batch of one)."""
        x = np.asarray(x, dtype=np.float32)
        return self._run_batch(x[None])[0]

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run an (N, C, H, W) batch through the whole network.

        The whole batch moves through each layer at once (one plan
        replay per layer), which amortizes the per-layer dispatch over
        the batch; outputs are bit-identical to :meth:`forward` of each
        sample.
        """
        return self._run_batch(batch)

    def _run_batch(self, batch: np.ndarray) -> np.ndarray:
        """The network loop behind :meth:`run_batch` and :meth:`forward`.

        Kept apart from :meth:`run_batch` so a subclass that overrides
        the batch entry point per sample (:class:`~repro.quant.apply.
        QuantizedEngine`) can still run its samples through this loop.
        """
        batch = np.asarray(batch, dtype=np.float32)
        if batch.ndim != 4:
            raise ShapeError(
                f"run_batch expects (N, C, H, W), got {batch.shape}")
        if current_recorder() is None:
            return self._run_layers(batch, traced=False)
        with span("engine.run_batch", batch=int(batch.shape[0]),
                  layers=len(self.net.layers)):
            return self._run_layers(batch, traced=True)

    def _run_layers(self, x: np.ndarray, traced: bool) -> np.ndarray:
        owns_output = True
        for layer in self.net.layers:
            if traced:
                with span("engine.layer", layer=layer.name):
                    x, owns_output = self._layer_step(layer, x)
            else:
                x, owns_output = self._layer_step(layer, x)
        # never hand plan-owned scratch to the caller — the next pass
        # would overwrite it in place
        return x if owns_output else x.copy()

    def _layer_step(self, layer: Layer, x: np.ndarray) \
            -> tuple[np.ndarray, bool]:
        """One layer over a batch; returns ``(output, output is ours)``.

        ``False`` in the second slot means the output aliases plan
        scratch and must be copied before it leaves the engine.
        """
        if not self.use_plans:
            return F.map_samples(
                lambda sample: self.run_layer(layer, sample), x), True
        plan = self._plan_for(layer, tuple(x.shape[1:]), x.dtype)
        out = plan.run_batch(x)
        x = self._post_layer(layer, out)
        return x, not plan.returns_scratch or x is not out

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run an (N, C, H, W) batch (alias of :meth:`run_batch`)."""
        return self.run_batch(batch)

    def predict_batch(self, batch: np.ndarray) -> np.ndarray:
        """Class indices of the most probable outputs, shape ``(N,)``."""
        out = self.run_batch(batch)
        return np.argmax(out.reshape(out.shape[0], -1), axis=1)

    def activations(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-layer output activations for one sample (keyed by name).

        Always runs the oracle kernels: every layer output must survive
        the whole pass, which is exactly what plan scratch reuse forbids.
        """
        x = np.asarray(x, dtype=np.float32)
        outputs: dict[str, np.ndarray] = {}
        for layer in self.net.layers:
            x = self.run_layer(layer, x)
            outputs[layer.name] = x
        return outputs

    def predict(self, x: np.ndarray) -> int:
        """Class index of the most probable output.

        Routed through :meth:`run_batch` with a singleton batch so
        single-sample serving shares the batched kernels and the plan
        cache (bit-identical to ``argmax(forward(x))``).
        """
        x = np.asarray(x, dtype=np.float32)
        return int(self.predict_batch(x[None])[0])
