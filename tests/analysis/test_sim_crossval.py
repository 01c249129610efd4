"""Cross-validate the FIFO analysis against the event simulator.

The fifo-deadlock pass predicts that a stream FIFO below the decoupling
minimum exposes the producer to the consumer's ingest phase — measured
by the simulator as producer ``pe_blocked_cycles``.

The strict iff-check uses the TC1 *features* pipeline (conv → pool),
which is rate-balanced: with builder-chosen depths the producer never
blocks, so any stall is attributable to the FIFO under test.  (A full
network with a slow classifier back-pressures its producers through any
FIFO depth, which would confound the measurement.)  A linear pipeline
keeps flowing, so the stall — not a full cyclic deadlock — is the
observable symptom; a true cyclic wait would raise ``DeadlockError``.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import check_model
from repro.frontend.condor_format import CondorModel
from repro.frontend.weights import WeightStore
from repro.frontend.zoo import broken, tc1_model
from repro.hw.accelerator import build_accelerator
from repro.sim.dataflow import simulate_accelerator

BATCH = 3
SEED = 0
SHRUNK_DEPTH = 4


def _features_model() -> CondorModel:
    base = tc1_model()
    return CondorModel(network=base.network.features_subnetwork(),
                       board=base.board,
                       frequency_hz=base.frequency_hz)


def _shrink_first_inter_pe_fifo(acc, depth):
    edge = next(e for e in acc.edges
                if e.source == acc.pes[0].name
                and e.dest == acc.pes[1].name)
    acc.edges[acc.edges.index(edge)] = dataclasses.replace(
        edge, fifo=dataclasses.replace(edge.fifo, depth=depth))
    return acc


def _simulate(model, acc):
    weights = WeightStore.initialize(model.network)
    rng = np.random.default_rng(SEED)
    images = rng.normal(
        size=(BATCH,) + model.network.input_shape().as_tuple()) \
        .astype(np.float32)
    return simulate_accelerator(acc, weights, images)


@pytest.fixture(scope="module")
def clean():
    model = _features_model()
    acc = build_accelerator(model)
    report = check_model(model, accelerator=acc,
                         select=["fifo-deadlock"])
    return model, acc, report, _simulate(model, acc)


@pytest.fixture(scope="module")
def undersized():
    model = _features_model()
    acc = _shrink_first_inter_pe_fifo(build_accelerator(model),
                                      SHRUNK_DEPTH)
    report = check_model(model, accelerator=acc,
                         select=["fifo-deadlock"])
    return model, acc, report, _simulate(model, acc)


def test_analyzer_quiet_and_no_stall_on_builder_depths(clean):
    model, acc, report, sim = clean
    assert len(report) == 0
    producer = acc.pes[0].name
    assert sim.pe_blocked_cycles[producer] == 0


def test_analyzer_flags_and_sim_stalls_on_undersized_fifo(undersized):
    model, acc, report, sim = undersized
    # the analyzer names the exact shrunk channel, at ERROR severity
    assert not report.ok
    shrunk = next(e for e in acc.edges
                  if e.fifo.depth == SHRUNK_DEPTH)
    flagged = {d.location.channel for d in report.errors}
    assert shrunk.fifo.name in flagged
    # and the simulator shows the predicted producer stall on that edge
    assert sim.pe_blocked_cycles[shrunk.source] > 1000


def test_stall_costs_total_cycles(clean, undersized):
    # the stall is not free: the undersized design is strictly slower
    # end-to-end on the identical workload
    _, _, _, sim_clean = clean
    _, _, _, sim_bad = undersized
    assert sim_bad.total_cycles > sim_clean.total_cycles


def test_functional_output_unchanged(clean, undersized):
    # an undersized FIFO costs time, not correctness: both runs compute
    # the same numbers (same weights, same inputs)
    _, _, _, sim_clean = clean
    _, _, _, sim_bad = undersized
    for got, want in zip(sim_bad.outputs, sim_clean.outputs):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_full_network_fixture_also_flags_and_stalls():
    # the broken-zoo LeNet fixture: the analyzer flags the edge and the
    # producer's stall grows far beyond the builder-depth baseline
    model, acc = broken.undersized_stream_accelerator(depth=SHRUNK_DEPTH)
    report = check_model(model, accelerator=acc,
                         select=["fifo-deadlock"])
    assert not report.ok
    baseline = _simulate(model, build_accelerator(model))
    stalled = _simulate(model, acc)
    producer = acc.pes[0].name
    # the slow classifier back-pressures the producer even at builder
    # depths; the undersized FIFO must add a clear stall on top of that
    assert stalled.pe_blocked_cycles[producer] > \
        baseline.pe_blocked_cycles[producer] + 10_000
