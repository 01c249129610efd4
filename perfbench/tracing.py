"""Span tracing applied from outside the program, at run time.

The program's own telemetry (``repro.obs``) is part of what the
benchmark measures, so the benchmark never records into it.  Instead a
:class:`Tracer` replaces public entry points of the program with thin
wrappers for the duration of a ``with tracer.patched(...)`` block.  Each
call becomes a :class:`Span` kept in memory: name, layer (the module the
entry point belongs to), start, end and the span that caused it.  A
request's spans share the id of the ``serve.submit`` span at their root.

The serving loop and the flow run on one thread; calls arriving on any
other thread (the flow's metrics sampler) pass through unrecorded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
import types

import numpy as np


class Span:
    """One recorded call."""

    __slots__ = ("name", "layer", "parent", "start", "end", "attrs",
                 "children")

    def __init__(self, name: str, layer: str, parent: "Span | None",
                 attrs: dict):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.attrs = attrs
        self.children: list[Span] = []
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.seconds - sum(c.seconds for c in self.children)

    @property
    def request_id(self) -> int | None:
        """The id of the request whose ``serve.submit`` caused this."""
        sp: Span | None = self
        while sp is not None:
            if "req" in sp.attrs:
                return sp.attrs["req"]
            sp = sp.parent
        return None


class Tracer:
    """In-memory span store plus reversible run-time wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._thread = threading.get_ident()

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str, layer: str, attrs: dict | None = None) \
            -> Span:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, layer, parent, attrs if attrs is not None else {})
        if parent is not None:
            parent.children.append(sp)
        self._stack.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        sp = self.begin(name, layer, attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- wrappers -------------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: str, note, record: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            if not record:
                result = fn(*args, **kwargs)
                note(tracer.current(), args, kwargs, result)
                return result
            sp = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sp)
            if note is not None:
                note(sp, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, entry_points):
        """Wrap every ``(owner, attr, name, layer, note, record)`` entry
        point for the extent of the block.

        ``owner`` is a module, a class or an instance.  ``note(span,
        args, kwargs, result)`` adds attributes after the call; with
        ``record=False`` no span is made and ``note`` receives the
        innermost open span.
        """
        undo = []
        try:
            for owner, attr, name, layer, note, record in entry_points:
                static = inspect.getattr_static(owner, attr)
                owned = attr in vars(owner)
                if isinstance(owner, (type, types.ModuleType)):
                    if isinstance(static, (classmethod, staticmethod)):
                        replacement = type(static)(self._wrapper(
                            static.__func__, name, layer, note, record))
                    else:
                        replacement = self._wrapper(
                            static, name, layer, note, record)
                else:
                    replacement = self._wrapper(
                        getattr(owner, attr), name, layer, note, record)
                setattr(owner, attr, replacement)
                undo.append((owner, attr, static, owned))
            yield self
        finally:
            for owner, attr, static, owned in reversed(undo):
                if owned:
                    setattr(owner, attr, static)
                else:
                    delattr(owner, attr)


class _NullTracer:
    """Stands in for :class:`Tracer` in runs without benchmark spans."""

    def span(self, name: str, layer: str, **attrs):
        return contextlib.nullcontext()

    def patched(self, entry_points):
        return contextlib.nullcontext(self)


NULL_TRACER = _NullTracer()


def entry(owner, attr: str, name: str, layer: str, note=None,
          record: bool = True) -> tuple:
    """One entry point for :meth:`Tracer.patched`."""
    return owner, attr, name, layer, note, record


# -- the program's entry points ---------------------------------------------


def setup_entry_points(aws) -> list[tuple]:
    """The flow's calls into each layer, plus ``aws``'s cloud verbs.

    Module-level names are wrapped where the flow module looks them up,
    so calls made elsewhere (the fleet, the runtime) stay unrecorded.
    """
    import repro.flow.condor as flow
    from repro.analysis.pipeline import AnalysisPipeline
    from repro.codegen.bundle import SourceBundle
    from repro.dse.evaluator import CachedEvaluator
    from repro.frontend.weights import WeightStore

    points = [
        entry(WeightStore, "initialize", "frontend.initialize_weights",
              "frontend"),
        entry(WeightStore, "validate", "frontend.validate_weights",
              "frontend"),
        entry(WeightStore, "save", "frontend.save_weights", "frontend"),
        entry(CachedEvaluator, "evaluate", "dse.evaluate", "dse"),
        entry(AnalysisPipeline, "run", "analysis.run", "analysis"),
        entry(SourceBundle, "write_to", "codegen.write_to", "codegen"),
    ]
    for attr, layer in (
            ("load_condor_json", "frontend"),
            ("save_condor_json", "frontend"),
            ("model_from_json", "frontend"),
            ("model_to_json", "frontend"),
            ("explore", "dse"),
            ("build_accelerator", "hw"),
            ("estimate_accelerator", "hw"),
            ("estimate_performance", "hw"),
            ("estimate_power_watts", "hw"),
            ("mapping_from_model", "hw"),
            ("default_mapping", "hw"),
            ("generate_sources", "codegen"),
            ("generate_host_source", "codegen"),
            ("build_network_ip", "toolchain"),
            ("generate_kernel_xml", "toolchain"),
            ("package_xo", "toolchain"),
            ("xocc_link", "toolchain"),
            ("write_xclbin", "toolchain"),
            ("read_xclbin", "toolchain")):
        points.append(entry(flow, attr, f"{layer}.{attr}", layer))
    for verb in ("upload", "create_fpga_image", "wait_for_afi"):
        points.append(entry(aws, verb, f"cloud.{verb}", "cloud"))
    return points


def _dispatch(args, now) -> float:
    """The virtual time a ``submit``/``pump`` call dispatched at."""
    return args[0].clock.now if now is None else now


def _note_submit(sp, args, kwargs, result) -> None:
    sp.attrs["now"] = _dispatch(args, kwargs.get("now"))
    sp.attrs["req"] = result.request_id


def _note_pump(sp, args, kwargs, result) -> None:
    sp.attrs["now"] = _dispatch(
        args, args[1] if len(args) > 1 else kwargs.get("now"))


def _note_flush(sp, args, kwargs, result) -> None:
    if result is not None and sp is not None:
        sp.attrs.setdefault("flushes", []).append(result)


def _note_fleet(sp, args, kwargs, result) -> None:
    sp.attrs["attempts"] = result.attempts
    sp.attrs["device_s"] = result.device_seconds


def _note_task(sp, args, kwargs, result) -> None:
    sp.attrs["batch"] = result.extra["batch"]
    sp.attrs["cycles"] = result.end_cycles
    sp.attrs["device_s"] = result.device_seconds


def _note_rows(sp, args, kwargs, result) -> None:
    sp.attrs["rows"] = int(np.shape(args[1])[0])


def serving_entry_points() -> list[tuple]:
    """The request path, from admission down to the engine."""
    import repro.obs as obs
    import repro.runtime.opencl as runtime
    from repro.fleet.manager import FleetManager
    from repro.nn.engine import ReferenceEngine
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.server import InferenceServer

    return [
        entry(InferenceServer, "submit", "serve.submit", "serve",
              _note_submit),
        entry(InferenceServer, "pump", "serve.pump", "serve",
              _note_pump),
        entry(DynamicBatcher, "offer", "serve.offer", "serve",
              _note_flush, record=False),
        entry(DynamicBatcher, "due", "serve.due", "serve",
              _note_flush, record=False),
        entry(FleetManager, "submit", "fleet.submit", "fleet",
              _note_fleet),
        entry(runtime.CommandQueue, "enqueue_task",
              "runtime.enqueue_task", "runtime", _note_task),
        entry(runtime, "estimate_performance",
              "hw.estimate_performance", "hw"),
        entry(ReferenceEngine, "__init__", "nn.engine_build", "nn"),
        entry(ReferenceEngine, "forward_batch", "nn.forward_batch", "nn",
              _note_rows),
        entry(obs, "build_manifest", "obs.build_manifest", "obs"),
        entry(obs, "write_manifest", "obs.write_manifest", "obs"),
    ]
