"""``condor serve``: the demo command, its report and its telemetry."""

import json

import pytest

from repro.cli import main
from repro.errors import CondorError
from repro.cli import _parse_tenants
from repro.serve import TenantSpec


def run_serve(tmp_path, capsys, *extra):
    code = main(["--workdir", str(tmp_path / "w"), "serve",
                 "--model", "tc1", "--rate", "2000",
                 "--duration", "1", "--seed", "0", *extra])
    return code, capsys.readouterr()


class TestServeCommand:
    def test_demo_meets_the_roadmap_floor(self, tmp_path, capsys):
        code, captured = run_serve(
            tmp_path, capsys, "--format", "json",
            "--fail-under-rps", "1000")
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["throughput_rps"] >= 1000.0
        assert doc["completed"] == doc["offered"]
        assert doc["latency"]["p50_s"] is not None
        assert doc["latency"]["p99_s"] is not None

    def test_telemetry_carries_serve_metrics(self, tmp_path, capsys):
        code, _ = run_serve(tmp_path, capsys)
        assert code == 0
        manifest = json.loads(
            (tmp_path / "w" / "telemetry.json").read_text())
        assert manifest["serve"]["model"] == "tc1"
        # the AFI build is a flow run one level down, with its own
        # manifest the serve manifest does not overwrite
        build = json.loads(
            (tmp_path / "w" / "build" / "telemetry.json").read_text())
        assert "serve" not in build
        assert build["run"]["network"] == "tc1"
        assert (tmp_path / "w" / "build" / "afi.json").exists()
        metrics = manifest["metrics"]
        for name in ("condor_serve_requests_total",
                     "condor_serve_batches_total",
                     "condor_serve_latency_seconds",
                     "condor_serve_queue_depth_count",
                     "condor_serve_slots_count"):
            assert name in metrics, sorted(metrics)

    def test_report_artifact_written(self, tmp_path, capsys):
        report = tmp_path / "out" / "serve-report.json"
        code, captured = run_serve(tmp_path, capsys,
                                   "--report", str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["server"] == "tc1"
        assert doc["batches"]
        # human output mentions the throughput line
        assert "req/s" in captured.out

    def test_fail_under_rps_gates(self, tmp_path, capsys):
        code, captured = run_serve(tmp_path, capsys,
                                   "--fail-under-rps", "1000000")
        assert code == 1
        assert "--fail-under-rps" in captured.err

    def test_autoscale_flag_runs(self, tmp_path, capsys):
        code, captured = run_serve(
            tmp_path, capsys, "--format", "json", "--instances", "1",
            "--autoscale", "--max-instances", "2")
        assert code == 0
        doc = json.loads(captured.out)
        assert "autoscale" in doc

    def test_bad_buckets_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--model", "vgg16"])  # not servable
        code = main(["--workdir", str(tmp_path / "w"), "serve",
                     "--buckets", "1,x"])
        assert code == 1  # CondorError surfaces as exit 1


class TestParseTenants:
    def test_default_mix_shape(self):
        tenants = _parse_tenants("alpha:3,beta:1")
        assert tenants == (TenantSpec("alpha", weight=3.0),
                           TenantSpec("beta", weight=1.0))

    def test_quota_parses_and_zero_means_unlimited(self):
        (tenant,) = _parse_tenants("gold:2:500")
        assert tenant.quota_rps == 500.0
        (free,) = _parse_tenants("free:1:0")
        assert free.quota_rps == float("inf")

    def test_bad_spec_rejected(self):
        with pytest.raises(CondorError, match="tenant"):
            _parse_tenants("")
        with pytest.raises(CondorError, match="tenant"):
            _parse_tenants("a:b:c")
