"""Fleet drill tests: survival matrix expectations and determinism."""

import json
import re

import pytest

from repro.errors import FleetError
from repro.fleet import (
    DRILL_KINDS,
    RECOVERABLE_KINDS,
    SERVABLE_MODELS,
    run_drill,
)
from repro.fleet.drill import mixed_weather
from repro.resilience import DEVICE_FAULT_KINDS, DEVICE_PATTERN
from repro.resilience.faults import FaultKind


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run_drill(tmp_path_factory.mktemp("drill"), seeds=(0,))


def cell_for(report, kind, model="tc1"):
    (cell,) = [c for c in report["cells"]
               if c["kind"] == kind and c["model"] == model]
    return cell


class TestSurvivalMatrix:
    def test_matrix_shape(self, report):
        assert report["models"] == list(SERVABLE_MODELS)
        assert report["kinds"] == list(DRILL_KINDS)
        assert "mixed" in RECOVERABLE_KINDS
        assert report["cells_total"] == \
            len(SERVABLE_MODELS) * len(DRILL_KINDS)
        assert [(c["model"], c["kind"]) for c in report["cells"]] == \
            [(m, k) for m in SERVABLE_MODELS for k in DRILL_KINDS]

    def test_every_recoverable_kind_survives(self, report):
        for model in SERVABLE_MODELS:
            for kind in RECOVERABLE_KINDS:
                cell = cell_for(report, kind, model)
                assert cell["status"] == "ok", cell
                assert cell["bit_correct"] is True
                assert cell["workload_errors"] == 0
                assert cell["final_error"] is None
                assert cell["quarantined"] == []
                assert cell["as_expected"] is True

    def test_faults_actually_fired(self, report):
        for cell in report["cells"]:
            if cell["kind"] == "mixed" and not mixed_weather(cell["seed"]):
                continue  # a seed may draw no combined weather at all
            assert cell["injected_total"] >= 1, \
                (cell["model"], cell["kind"])
        bitflip = cell_for(report, "seu-bitflip")
        assert bitflip["injected_by_kind"] == {"seu-bitflip": 1}
        assert "scrub_catch" in bitflip["recovery_actions"]
        hang = cell_for(report, "kernel-hang")
        assert "watchdog_trip" in hang["recovery_actions"]
        crash = cell_for(report, "slot-crash")
        assert {"failover", "quarantine", "recovery", "reload"} <= \
            set(crash["recovery_actions"])

    def test_mixed_weather_fires_what_it_drew(self, report):
        drawn = {spec.kind.value for spec in mixed_weather(0)}
        assert drawn  # seed 0 draws weather, so the cells must inject
        for model in SERVABLE_MODELS:
            cell = cell_for(report, "mixed", model)
            assert set(cell["injected_by_kind"]) <= drawn
            assert cell["injected_total"] >= 1

    def test_slow_device_is_absorbed(self, report):
        # sub-watchdog latency weather needs no recovery action at all
        cell = cell_for(report, "slow-device")
        assert cell["status"] == "ok"
        assert cell["recovery_actions"] == []

    def test_instance_loss_degrades_gracefully(self, report):
        for model in SERVABLE_MODELS:
            cell = cell_for(report, "instance-loss", model)
            assert cell["status"] == "degraded"
            assert cell["as_expected"] is True
            assert cell["bit_correct"] is True  # sibling served it
            assert cell["workload_errors"] == 0
            assert cell["quarantined"] == ["i0.slot0", "i0.slot1"]
            assert cell["healthy_slots"] == 2

    def test_top_level_verdicts(self, report):
        assert report["survived_recoverable"] is True
        assert report["all_as_expected"] is True
        assert report["any_failed"] is False

    def test_breaker_snapshot_uses_fleet_labels(self, report):
        cell = cell_for(report, "slot-crash")
        assert set(cell["breakers"]) == {
            "fleet.i0.slot0", "fleet.i0.slot1",
            "fleet.i1.slot0", "fleet.i1.slot1"}

    def test_report_never_leaks_raw_instance_ids(self, report):
        # raw ids embed a process-wide launch counter; reports must use
        # fleet-ordinal labels so reruns are byte-identical
        dumped = json.dumps(report)
        assert not re.search(r"i-[0-9a-f]{17}", dumped)


class TestMixedWeather:
    def test_mixed_specs_are_recoverable_and_seeded(self):
        saw = set()
        for seed in range(64):
            specs = mixed_weather(seed)
            assert [s.to_dict() for s in specs] == \
                [s.to_dict() for s in mixed_weather(seed)]
            for spec in specs:
                assert spec.boundary == DEVICE_PATTERN
                assert spec.kind in DEVICE_FAULT_KINDS
                saw.add(spec.kind)
                if spec.kind is FaultKind.SLOW_DEVICE:
                    assert spec.delay_s < 60.0  # under the watchdog
                if spec.kind is FaultKind.KERNEL_HANG:
                    assert spec.delay_s > 60.0  # trips the watchdog
        # every recoverable device kind shows up; permanent loss never
        assert saw == {FaultKind.BITFLIP, FaultKind.KERNEL_HANG,
                       FaultKind.SLOW_DEVICE, FaultKind.SLOT_CRASH}
        assert mixed_weather(0) != mixed_weather(1)


class TestDeterminism:
    def test_same_seed_same_report(self, tmp_path):
        a = run_drill(tmp_path / "a", seeds=(0,), kinds=("slot-crash",))
        b = run_drill(tmp_path / "b", seeds=(0,), kinds=("slot-crash",))
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)


class TestValidation:
    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(FleetError, match="unknown drill fault kind"):
            run_drill(tmp_path, kinds=("meteor-strike",))
