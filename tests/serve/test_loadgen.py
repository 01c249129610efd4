"""The seeded load generator: determinism, the ROADMAP demo numbers and
quota shedding — all on the virtual clock."""

import json

from repro.resilience.boundary import reset_breakers
from repro.resilience.clock import VirtualClock
from repro.serve import (
    InferenceServer,
    LoadSpec,
    ServeConfig,
    TenantSpec,
    build_serving_fleet,
    run_load,
)


def serve_tc1(workdir, name, spec):
    fleet = build_serving_fleet(workdir, "tc1", clock=VirtualClock())
    server = InferenceServer(fleet, spec.tenants,
                             config=ServeConfig(name=name))
    return run_load(server, spec)


class TestDeterminism:
    def test_same_seed_same_report(self, server_name, tmp_path):
        spec = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=7)
        first = serve_tc1(tmp_path / "a", server_name, spec)
        reset_breakers()
        second = serve_tc1(tmp_path / "b", server_name, spec)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self, server_name, tmp_path):
        spec_a = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=7)
        spec_b = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=8)
        first = serve_tc1(tmp_path / "a", server_name + "-a", spec_a)
        reset_breakers()
        second = serve_tc1(tmp_path / "b", server_name + "-b", spec_b)
        assert first.offered != second.offered or \
            first.latency != second.latency


class TestDemoNumbers:
    def test_thousand_rps_with_tail_latency(self, server_name, tmp_path):
        """The ROADMAP demo: >= 1000 synthetic req/s with p50/p99."""
        spec = LoadSpec(rate_rps=2000.0, duration_s=1.0, seed=0)
        report = serve_tc1(tmp_path, server_name, spec)
        assert report.completed == report.offered
        assert report.failed == 0
        assert report.shed == {}
        assert report.throughput_rps >= 1000.0
        assert report.latency["count"] == report.completed
        assert 0.0 < report.latency["p50_s"] <= report.latency["p99_s"]
        assert report.latency["p99_s"] <= report.latency["max_s"]
        # TC1 frees a lane long before the next arrival, so every
        # request runs alone at its arrival: no batch wait, no SLO miss
        assert report.batches == {1: report.completed}
        assert report.slo_missed == 0
        assert report.latency["max_s"] < 1e-3
        assert report.model == "tc1"
        # both demo tenants saw traffic at the 3:1 configured mix
        assert report.tenants["alpha"]["offered"] > \
            report.tenants["beta"]["offered"]

    def test_requests_kept_only_on_demand(self, server_name, tmp_path):
        spec = LoadSpec(rate_rps=1000.0, duration_s=0.2, seed=1)
        clock = VirtualClock()
        fleet = build_serving_fleet(tmp_path, "tc1", clock=clock)
        server = InferenceServer(
            fleet, spec.tenants, config=ServeConfig(name=server_name))
        report = run_load(server, spec, keep_requests=True)
        assert len(report.requests) == report.offered
        assert all(r.ok for r in report.requests)
        assert "requests" not in report.to_dict()


class TestShedding:
    def test_tight_quota_sheds_with_reason(self, server_name, tmp_path):
        tenants = (TenantSpec("alpha", quota_rps=100.0, burst=4,
                              weight=1.0),)
        spec = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=2,
                        tenants=tenants)
        report = serve_tc1(tmp_path, server_name, spec)
        assert report.shed.get("quota", 0) > 0
        assert report.tenants["alpha"]["shed"] == \
            sum(report.shed.values())
        # roughly quota * duration + burst requests got through
        assert report.completed < report.offered
        assert report.completed <= 100.0 * spec.duration_s + 4 + 8

