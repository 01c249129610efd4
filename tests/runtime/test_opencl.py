"""OpenCL-flavoured runtime tests."""

import numpy as np
import pytest

from repro.errors import RuntimeAPIError
from repro.frontend.condor_format import DeploymentOption
from repro.frontend.zoo import tc1_model
from repro.hw.accelerator import build_accelerator
from repro.hw.resources import device_for_board
from repro.nn.engine import ReferenceEngine
from repro.runtime.opencl import (
    Buffer,
    CommandQueue,
    Context,
    Kernel,
    Program,
    SimDevice,
    get_platforms,
    pack_weights,
)
from repro.frontend.weights import WeightStore
from repro.toolchain.assemble import build_network_ip
from repro.toolchain.hls import VivadoHLS
from repro.toolchain.sdaccel import (
    generate_kernel_xml,
    package_xo,
    xocc_link,
)
from repro.toolchain.xclbin import write_xclbin


@pytest.fixture(scope="module")
def xclbin_bytes():
    model = tc1_model(DeploymentOption.ON_PREMISE)
    acc = build_accelerator(model)
    hls = VivadoHLS("xcvu9p", model.frequency_hz)
    assembly = build_network_ip(acc, hls)
    xo = package_xo(assembly.accelerator_ip,
                    generate_kernel_xml(assembly.accelerator_ip),
                    model=model)
    xclbin = xocc_link(xo, device_for_board("aws-f1-xcvu9p"),
                       model.frequency_hz)
    return write_xclbin(xclbin)


@pytest.fixture
def session(xclbin_bytes):
    device = get_platforms()[0].get_devices()[0]
    context = Context(device)
    program = Program(context, xclbin_bytes)
    kernel = Kernel(program, "tc1")
    return context, program, kernel


def run_batch(context, program, kernel, images, weights_store,
              emulation="fast"):
    queue = CommandQueue(context, emulation=emulation)
    net = program.accelerator.network
    batch = len(images)
    in_buf = Buffer(context, Buffer.READ_ONLY, images.nbytes)
    out_buf = Buffer(context, Buffer.WRITE_ONLY,
                     batch * net.output_shape().size * 4)
    packed = pack_weights(net, weights_store)
    w_buf = Buffer(context, Buffer.READ_ONLY, packed.nbytes)
    queue.enqueue_write_buffer(in_buf, images)
    queue.enqueue_write_buffer(w_buf, packed)
    kernel.set_arg(0, in_buf)
    kernel.set_arg(1, out_buf)
    kernel.set_arg(2, w_buf)
    kernel.set_arg(3, batch)
    event = queue.enqueue_task(kernel)
    out = queue.enqueue_read_buffer(out_buf,
                                    batch * net.output_shape().size)
    return event, out.reshape(batch, -1), queue


class TestProgramLoading:
    def test_platform_enumeration(self):
        platforms = get_platforms()
        assert platforms and platforms[0].get_devices()

    def test_program_reconstructs_network(self, session):
        _, program, _ = session
        assert program.kernel_names() == ["tc1"]
        net = program.accelerator.network
        assert net.name == "tc1"
        assert net.input_shape().as_tuple() == (1, 16, 16)

    def test_program_uses_achieved_frequency(self, session):
        _, program, _ = session
        assert program.accelerator.frequency_hz == \
            program.xclbin.frequency_hz

    def test_part_mismatch_rejected(self, xclbin_bytes):
        device = SimDevice("small", device_for_board("pynq-z1"))
        with pytest.raises(RuntimeAPIError, match="targets"):
            Program(Context(device), xclbin_bytes)

    def test_unknown_kernel_rejected(self, session):
        _, program, _ = session
        with pytest.raises(RuntimeAPIError, match="no kernel"):
            Kernel(program, "other")


class TestExecution:
    def test_fast_mode_matches_reference(self, session):
        context, program, kernel = session
        net = program.accelerator.network
        weights = WeightStore.initialize(net, 5)
        images = np.random.default_rng(0).normal(
            size=(4, 1, 16, 16)).astype(np.float32)
        event, out, _ = run_batch(context, program, kernel, images,
                                  weights)
        ref = ReferenceEngine(net, weights).forward_batch(images)
        np.testing.assert_allclose(out, ref.reshape(4, -1), rtol=1e-5)
        assert event.end_cycles > 0
        assert event.extra["mode"] == "fast"

    def test_event_mode_matches_fast_mode(self, session):
        context, program, kernel = session
        net = program.accelerator.network
        weights = WeightStore.initialize(net, 5)
        images = np.random.default_rng(1).normal(
            size=(2, 1, 16, 16)).astype(np.float32)
        _, out_fast, _ = run_batch(context, program, kernel, images,
                                   weights, "fast")
        _, out_event, _ = run_batch(context, program, kernel, images,
                                    weights, "event")
        np.testing.assert_allclose(out_event, out_fast, rtol=1e-3,
                                   atol=1e-5)

    def test_device_time_accumulates(self, session):
        context, program, kernel = session
        net = program.accelerator.network
        weights = WeightStore.initialize(net, 5)
        images = np.zeros((2, 1, 16, 16), dtype=np.float32)
        event, _, queue = run_batch(context, program, kernel, images,
                                    weights)
        assert queue.finish() >= event.device_seconds > 0

    def test_batch_amortization_visible(self, session):
        context, program, kernel = session
        net = program.accelerator.network
        weights = WeightStore.initialize(net, 5)
        times = []
        for batch in (1, 8):
            images = np.zeros((batch, 1, 16, 16), dtype=np.float32)
            event, _, _ = run_batch(context, program, kernel, images,
                                    weights)
            times.append(event.device_seconds / batch)
        assert times[1] < times[0]

    def test_missing_args_rejected(self, session):
        context, program, kernel = session
        queue = CommandQueue(context)
        kernel.args.clear()
        with pytest.raises(RuntimeAPIError, match="argument"):
            queue.enqueue_task(kernel)

    def test_bad_arg_index(self, session):
        _, _, kernel = session
        with pytest.raises(RuntimeAPIError):
            kernel.set_arg(7, 1)


class TestPerformanceModel:
    def test_billed_cycles_match_a_fresh_estimate(self, session):
        from repro.hw.perf import estimate_performance

        context, program, kernel = session
        acc = build_accelerator(program.model)
        acc.frequency_hz = program.xclbin.frequency_hz
        fresh = estimate_performance(acc)
        net = program.accelerator.network
        weights = WeightStore.initialize(net, 5)
        for batch in range(1, 9):
            images = np.zeros((batch, 1, 16, 16), dtype=np.float32)
            event, _, _ = run_batch(context, program, kernel, images,
                                    weights)
            assert event.end_cycles == \
                fresh.batch_cycles(batch) + fresh.config_cycles
            assert event.device_seconds == \
                event.end_cycles / acc.frequency_hz


class TestBuffers:
    def test_validation(self, session):
        context, _, _ = session
        with pytest.raises(RuntimeAPIError):
            Buffer(context, Buffer.READ_ONLY, 0)
        with pytest.raises(RuntimeAPIError):
            Buffer(context, "x", 4)
        buf = Buffer(context, Buffer.READ_WRITE, 16)
        queue = CommandQueue(context)
        with pytest.raises(RuntimeAPIError, match="exceeds"):
            queue.enqueue_write_buffer(buf, np.zeros(100))
        with pytest.raises(RuntimeAPIError, match="exceeds"):
            queue.enqueue_read_buffer(buf, 100)

    def test_bad_emulation_mode(self, session):
        context, _, _ = session
        with pytest.raises(RuntimeAPIError):
            CommandQueue(context, emulation="rtl")


class TestWeightPacking:
    def test_pack_unpack_roundtrip(self, session):
        from repro.runtime.opencl import _weights_from_buffer

        _, program, _ = session
        net = program.accelerator.network
        store = WeightStore.initialize(net, 8)
        packed = pack_weights(net, store)
        back = _weights_from_buffer(net, packed)
        for layer in store.layers():
            for blob, array in store.blobs(layer).items():
                np.testing.assert_array_equal(back.get(layer, blob), array)


class TestWeightUpdateWithoutResynthesis:
    """Paper §3.1.1: weights "are loaded dynamically at runtime.  This
    enables the update of the network (for instance if better accuracy is
    achieved) without the need for re-synthesizing the accelerator."
    The same xclbin must serve successive weight sets."""

    def test_same_xclbin_new_weights(self, session):
        context, program, kernel = session
        net = program.accelerator.network
        image = np.random.default_rng(3).normal(
            size=(1, 1, 16, 16)).astype(np.float32)

        outputs = []
        for seed in (1, 2):
            weights = WeightStore.initialize(net, seed)
            _, out, _ = run_batch(context, program, kernel, image,
                                  weights)
            ref = ReferenceEngine(net, weights).forward(image[0])
            np.testing.assert_allclose(out[0], ref.reshape(-1), rtol=1e-5)
            outputs.append(out[0])
        # the two weight sets genuinely produce different results
        assert not np.allclose(outputs[0], outputs[1])
        # and the device was programmed exactly once (no re-synthesis,
        # no re-program)
        assert context.device.programmed is program.xclbin


class TestEngineReuse:
    """Steady-state serving re-enqueues with the same weights buffer;
    the kernel must reuse its engine (and warm execution plans) instead
    of rebuilding a weight store per launch."""

    def test_engine_reused_until_weights_rewritten(self, session):
        context, program, kernel = session
        net = program.accelerator.network
        queue = CommandQueue(context, emulation="fast")
        weights = WeightStore.initialize(net, 5)
        images = np.random.default_rng(4).normal(
            size=(2, 1, 16, 16)).astype(np.float32)
        in_buf = Buffer(context, Buffer.READ_ONLY, images.nbytes)
        out_buf = Buffer(context, Buffer.WRITE_ONLY,
                         2 * net.output_shape().size * 4)
        packed = pack_weights(net, weights)
        w_buf = Buffer(context, Buffer.READ_ONLY, packed.nbytes)
        queue.enqueue_write_buffer(in_buf, images)
        queue.enqueue_write_buffer(w_buf, packed)
        for index, value in enumerate((in_buf, out_buf, w_buf, 2)):
            kernel.set_arg(index, value)

        queue.enqueue_task(kernel)
        first_engine = kernel._engine[2]
        queue.enqueue_task(kernel)
        assert kernel._engine[2] is first_engine  # same weights: reuse

        # rewriting the weights buffer bumps its generation and forces
        # a fresh engine (the §3.1.1 dynamic-update contract)
        queue.enqueue_write_buffer(
            w_buf, pack_weights(net, WeightStore.initialize(net, 6)))
        queue.enqueue_task(kernel)
        assert kernel._engine[2] is not first_engine
        out = queue.enqueue_read_buffer(out_buf,
                                        2 * net.output_shape().size)
        ref = ReferenceEngine(
            net, WeightStore.initialize(net, 6)).forward_batch(images)
        np.testing.assert_allclose(out.reshape(2, -1),
                                   ref.reshape(2, -1), rtol=1e-5)


class TestDeviceLifecycle:
    """Dead-card semantics and the clock-gated device fault hook."""

    def _weights(self, program):
        return WeightStore.initialize(program.accelerator.network)

    def test_dead_device_rejects_tasks_until_reprogrammed(self, session):
        from repro.errors import DeviceLostError
        context, program, kernel = session
        net = program.accelerator.network
        images = np.zeros((1,) + net.input_shape().as_tuple(),
                          dtype=np.float32)
        store = self._weights(program)
        context.device.alive = False
        with pytest.raises(DeviceLostError, match="reprogram"):
            run_batch(context, program, kernel, images, store)
        # reprogramming (an AFI re-load) revives the card
        Program(context, program.xclbin)
        assert context.device.alive is True
        run_batch(context, program, kernel, images, store)

    def test_device_faults_only_fire_with_a_clock(self, session):
        from repro.resilience import (
            FaultKind,
            FaultPlan,
            FaultSpec,
            VirtualClock,
            inject_faults,
        )
        context, program, kernel = session
        net = program.accelerator.network
        images = np.zeros((1,) + net.input_shape().as_tuple(),
                          dtype=np.float32)
        store = self._weights(program)
        plan = FaultPlan([FaultSpec("device.*", FaultKind.SLOW_DEVICE,
                                    delay_s=40.0, times=100)])
        with inject_faults(plan):
            # no clock on the queue: plain runtime users are never
            # injected with device weather
            run_batch(context, program, kernel, images, store)
            assert plan.total_injected == 0
            # a clocked queue opts in (what the fleet layer does)
            clock = VirtualClock()
            queue = CommandQueue(context, clock=clock)
            queue.enqueue_task(kernel)
            assert plan.total_injected == 1
            assert clock.now == 40.0

    def test_bitflip_changes_outputs_and_generation(self, session):
        from repro.resilience import (
            FaultKind,
            FaultPlan,
            FaultSpec,
            VirtualClock,
            inject_faults,
        )
        context, program, kernel = session
        net = program.accelerator.network
        rng = np.random.default_rng(3)
        images = rng.standard_normal(
            (2,) + net.input_shape().as_tuple()).astype(np.float32)
        store = self._weights(program)
        _, clean, _ = run_batch(context, program, kernel, images, store)
        plan = FaultPlan([FaultSpec("device.*", FaultKind.BITFLIP)],
                         seed=4)
        w_buf = kernel.args[2]
        generation = w_buf.generation
        with inject_faults(plan):
            queue = CommandQueue(context, clock=VirtualClock())
            queue.enqueue_task(kernel)
            corrupted = queue.enqueue_read_buffer(
                kernel.args[1], 2 * net.output_shape().size) \
                .reshape(2, -1)
        # silent corruption: no error, wrong answer, generation bumped
        assert w_buf.generation == generation + 1
        assert not np.array_equal(corrupted, clean)
