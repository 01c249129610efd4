"""The fleet survival drill behind ``condor fleet drill``.

The repo's one fault-under-load harness.  For every servable zoo model
(tc1, lenet, cifar10) the drill builds a real AFI through the Condor
flow (``CondorFlow.run``, the same pipeline ``condor build`` runs),
then runs a seeded model × fault-kind × recovery-action ×
result-correctness matrix: for each (fault kind, seed) cell a fresh
two-instance fleet, launched from the flow's AWS session, serves a
paced workload while that kind's device faults fire, recovery windows
elapse on a per-cell virtual clock, and a final *verified* submission
is compared bit-exactly against the reference engine.

Expectations encoded in the report:

* every **recoverable** kind (``seu-bitflip``, ``kernel-hang``,
  ``slow-device``, ``slot-crash`` and ``mixed`` — seeded combined
  weather of all four, see :func:`mixed_weather`) ends ``ok`` — no
  quarantined slots remain and the final outputs are bit-correct;
* **instance-loss** (a permanent whole-instance fault) ends
  ``degraded`` — the dead instance's slots stay quarantined, work
  survives on the sibling instance, nothing hangs.

Reports are deterministic per seed: slots are labeled by fleet ordinal
(``i0.slot1``), never by raw instance id, only kind-level injection
tallies are included, and every cell names its model.
"""

from __future__ import annotations

import random
import zlib
from pathlib import Path

import numpy as np

from repro.cloud.client import AWSSession
from repro.cloud.f1 import F1Instance
from repro.errors import FleetError
from repro.flow.condor import CondorFlow, FlowInputs, FlowResult
from repro.resilience.boundary import breaker_states, inject_faults
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import (
    DEVICE_PATTERN,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.util.logging import get_logger

from repro.fleet.image import SERVABLE_MODELS, servable_model
from repro.fleet.manager import FleetConfig, FleetManager

__all__ = ["DRILL_KINDS", "RECOVERABLE_KINDS", "mixed_weather",
           "run_drill"]

_log = get_logger("fleet.drill")

#: Kinds a healthy fleet must fully absorb: final state ``ok``.
RECOVERABLE_KINDS: tuple[str, ...] = (
    FaultKind.BITFLIP.value,      # seu-bitflip
    FaultKind.KERNEL_HANG.value,  # kernel-hang
    FaultKind.SLOW_DEVICE.value,  # slow-device
    FaultKind.SLOT_CRASH.value,   # slot-crash
    "mixed",                      # all four, seeded per cell
)

#: All drilled kinds; ``instance-loss`` must degrade gracefully.
DRILL_KINDS: tuple[str, ...] = RECOVERABLE_KINDS + ("instance-loss",)

#: Drill-tuned fleet policy: tight scrub cadence and a short quarantine
#: so a ten-step paced workload exercises catch → quarantine → recover.
DRILL_CONFIG = FleetConfig(watchdog_s=60.0, scrub_every=2,
                           failure_threshold=2, recovery_s=120.0,
                           max_attempts=12, capacity=4)

#: Paced workload shape (virtual seconds between submissions).
WORKLOAD_STEPS = 10
WORKLOAD_BATCH = 2
WORKLOAD_PACE_S = 30.0


def mixed_weather(seed: int) -> list[FaultSpec]:
    """Seeded combined device weather over every slot (``device.*``).

    Each recoverable kind is drawn independently: SEU bit-flips (p=0.5),
    hangs of 300-900 s that trip the watchdog (p=0.35), one or two
    sub-watchdog slowdowns of 15-50 s (p=0.5) and slot crashes
    (p=0.35) — never a permanent loss, so a healthy fleet must always
    fully recover.  A seed may draw no weather at all.
    """
    rng = random.Random(seed * 0x1_0000_0000 + zlib.crc32(b"drill-mixed"))
    specs: list[FaultSpec] = []
    if rng.random() < 0.5:
        specs.append(FaultSpec(DEVICE_PATTERN, FaultKind.BITFLIP))
    if rng.random() < 0.35:
        specs.append(FaultSpec(
            DEVICE_PATTERN, FaultKind.KERNEL_HANG,
            delay_s=round(rng.uniform(300.0, 900.0), 1)))
    if rng.random() < 0.5:
        specs.append(FaultSpec(
            DEVICE_PATTERN, FaultKind.SLOW_DEVICE,
            times=rng.randint(1, 2),
            delay_s=round(rng.uniform(15.0, 50.0), 1)))
    if rng.random() < 0.35:
        specs.append(FaultSpec(DEVICE_PATTERN, FaultKind.SLOT_CRASH))
    return specs


def _specs_for(kind: str, seed: int, instances: list[F1Instance]) \
        -> list[FaultSpec]:
    """The seeded fault specs one drill cell arms."""
    if kind == FaultKind.BITFLIP.value:
        return [FaultSpec(DEVICE_PATTERN, FaultKind.BITFLIP)]
    if kind == FaultKind.KERNEL_HANG.value:
        return [FaultSpec(DEVICE_PATTERN, FaultKind.KERNEL_HANG,
                          delay_s=600.0)]
    if kind == FaultKind.SLOW_DEVICE.value:
        # sub-watchdog latency weather: absorbed, never tripped
        return [FaultSpec(DEVICE_PATTERN, FaultKind.SLOW_DEVICE,
                          times=2, delay_s=45.0)]
    if kind == FaultKind.SLOT_CRASH.value:
        return [FaultSpec(DEVICE_PATTERN, FaultKind.SLOT_CRASH)]
    if kind == "mixed":
        return mixed_weather(seed)
    if kind == "instance-loss":
        # every slot of the first instance dies on every launch —
        # AFI re-loads revive the card only until the next kernel
        return [FaultSpec(f"device.{instances[0].instance_id}.*",
                          FaultKind.PERMANENT)]
    raise FleetError(f"unknown drill fault kind {kind!r}; known:"
                     f" {list(DRILL_KINDS)}")


def _run_cell(name: str, kind: str, seed: int, aws: AWSSession,
              build: FlowResult) -> dict:
    """One (model, fault kind, seed) drill cell on a fresh two-instance
    fleet launched from the flow's AWS session."""
    clock = VirtualClock()
    instances = [aws.run_f1_instance("f1.4xlarge") for _ in range(2)]
    plan = FaultPlan(_specs_for(kind, seed, instances), seed=seed)
    rng = np.random.default_rng(seed * 977 + 11)
    in_shape = build.model.network.input_shape().as_tuple()
    workload_errors = 0
    with inject_faults(plan):
        fleet = FleetManager(instances, build.agfi_id, build.weights,
                             config=DRILL_CONFIG, clock=clock)
        for _ in range(WORKLOAD_STEPS):
            images = rng.standard_normal(
                (WORKLOAD_BATCH,) + in_shape).astype(np.float32)
            try:
                fleet.run(images)
            except FleetError:
                workload_errors += 1
            clock.sleep(WORKLOAD_PACE_S)
        # settle: let quarantine recovery windows elapse, then keep
        # serving so healing probes fire
        clock.sleep(DRILL_CONFIG.recovery_s)
        for _ in range(len(fleet.slots)):
            images = rng.standard_normal(
                (WORKLOAD_BATCH,) + in_shape).astype(np.float32)
            try:
                fleet.run(images)
            except FleetError:
                workload_errors += 1
            clock.sleep(WORKLOAD_PACE_S)
        # final verified submission, compared bit-exactly to golden
        final = rng.standard_normal(
            (WORKLOAD_BATCH,) + in_shape).astype(np.float32)
        golden = fleet.golden.forward_batch(final) \
            .reshape(WORKLOAD_BATCH, -1)
        try:
            outputs = fleet.run(final, verify=True)
            bit_correct = bool(np.array_equal(outputs, golden))
            final_error = None
        except FleetError as exc:
            bit_correct = False
            final_error = str(exc)
        stats = fleet.stats()
        breakers = breaker_states()

    if bit_correct and workload_errors == 0 and final_error is None:
        status = "ok" if not stats["quarantined"] else "degraded"
    else:
        status = "failed"
    expected = "ok" if kind in RECOVERABLE_KINDS else "degraded"
    injected_by_kind: dict[str, int] = {}
    for (_, fault_kind), count in sorted(plan.injected.items()):
        injected_by_kind[fault_kind] = \
            injected_by_kind.get(fault_kind, 0) + count
    return {
        "model": name,
        "kind": kind,
        "seed": seed,
        "recoverable": kind in RECOVERABLE_KINDS,
        "status": status,
        "expected": expected,
        "as_expected": status == expected,
        "bit_correct": bit_correct,
        "workload_errors": workload_errors,
        "final_error": final_error,
        "injected_total": plan.total_injected,
        "injected_by_kind": injected_by_kind,
        "recovery_actions": sorted(
            action for action, count in stats["actions"].items()
            if count > 0 and action not in ("submission",)),
        "actions": stats["actions"],
        "slots": stats["slots"],
        "quarantined": stats["quarantined"],
        "healthy_slots": stats["healthy_slots"],
        "breakers": breakers,
        "virtual_seconds": round(clock.now, 3),
    }


def run_drill(workdir: Path | str, seeds=(0,),
              kinds: tuple[str, ...] | None = None) -> dict:
    """The full survival matrix: servable models × ``kinds`` × ``seeds``.

    Each model's AFI is built by a Condor flow run in
    ``workdir/<model>``.  Deterministic per (kinds, seeds): rerunning
    yields an identical report.
    """
    kinds = tuple(kinds) if kinds else DRILL_KINDS
    for kind in kinds:
        if kind not in DRILL_KINDS:
            raise FleetError(f"unknown drill fault kind {kind!r};"
                             f" known: {list(DRILL_KINDS)}")
    cells = []
    for name in SERVABLE_MODELS:
        flow = CondorFlow(Path(workdir) / name)
        build = flow.run(FlowInputs(model=servable_model(name)))
        for seed in seeds:
            for kind in kinds:
                _log.info("drill cell: model=%s kind=%s seed=%d", name,
                          kind, seed)
                cells.append(_run_cell(name, kind, seed, flow.aws,
                                       build))
    recoverable = [c for c in cells if c["recoverable"]]
    return {
        "models": list(SERVABLE_MODELS),
        "seeds": [int(s) for s in seeds],
        "kinds": list(kinds),
        "cells": cells,
        "cells_total": len(cells),
        "survived_recoverable": all(
            c["status"] == "ok" for c in recoverable),
        "all_as_expected": all(c["as_expected"] for c in cells),
        "any_failed": any(c["status"] == "failed" for c in cells),
    }
