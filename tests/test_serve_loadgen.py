"""The load harness end-to-end against an in-process daemon."""

import json

import pytest

from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import (
    PhaseResult,
    main,
    run_load,
    run_phase,
    synthetic_request,
    verify_identity,
)


@pytest.fixture
def daemon(tmp_path):
    instance = ServeDaemon(
        ServeConfig(workers=0, cache_dir=str(tmp_path / "cache"))
    ).start()
    yield instance
    instance.stop()


class TestSyntheticRequests:
    def test_requests_are_distinct(self):
        from repro.serve.request import CompileRequest

        keys = {
            CompileRequest.from_json(synthetic_request(i)).fingerprint()
            for i in range(30)
        }
        assert len(keys) == 30

    def test_pipeline_shape_dimensions_exercised(self):
        pool = [synthetic_request(i) for i in range(35)]
        assert any(r.get("predictor") == "analytic" for r in pool)
        assert any(r.get("skip_passes") == ["balance"] for r in pool)


class TestPhaseResult:
    def test_percentiles_nearest_rank(self):
        result = PhaseResult(name="x", latencies_ms=list(range(1, 101)))
        assert result.percentile(0.50) == 51
        assert result.percentile(0.99) == 100
        assert PhaseResult(name="empty").percentile(0.99) == 0.0

    def test_to_json_shape(self):
        result = PhaseResult(
            name="x", requests=4, cache_hits=2,
            latencies_ms=[1.0, 2.0, 3.0, 4.0], wall_seconds=2.0,
        )
        entry = result.to_json()
        assert entry["completed"] == 4
        assert entry["cache_hit_rate"] == 0.5
        assert entry["throughput_rps"] == 2.0


class TestRunLoad:
    def test_cold_warm_contrast(self, daemon):
        payload = run_load(daemon.url, total_requests=12, unique=4, clients=3)
        assert payload["cold"]["completed"] == 4
        assert payload["cold"]["cache_hit_rate"] == 0.0
        assert payload["warm"]["completed"] == 8
        assert payload["warm"]["cache_hit_rate"] == 1.0
        assert payload["daemon"]["compiles"] == 4
        assert payload["cold"]["errors"] == 0
        assert payload["warm"]["errors"] == 0

    def test_identity_verification(self, daemon):
        run_load(daemon.url, total_requests=2, unique=1, clients=1)
        verify_identity(daemon.url, synthetic_request(0))

    def test_more_clients_than_requests(self, daemon):
        """Idle clients connect, wait for the clock, then find no work."""
        requests = [synthetic_request(0), synthetic_request(1)]
        result = run_phase(daemon.url, "cold", requests, clients=6)
        assert result.requests == 2
        assert len(result.latencies_ms) == 2
        assert (result.errors, result.rejected) == (0, 0)
        assert result.wall_seconds > 0
        assert daemon.service.stats()["requests"] == 2

    def test_bad_url_raises_before_any_client_starts(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="unsupported daemon URL"):
            run_phase("ftp://host", "cold", [synthetic_request(0)], clients=3)

    def test_rejects_bad_shape(self, daemon):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            run_load(daemon.url, total_requests=1, unique=2, clients=1)


class TestMain:
    def test_main_against_running_daemon(self, daemon, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        rc = main([
            "--url", daemon.url,
            "--requests", "10", "--unique", "3", "--clients", "2",
            "--out", str(out),
            "--assert-warm-hit-rate", "0.9",
            "--verify-identity",
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["identity_verified"] is True
        assert payload["warm"]["cache_hit_rate"] >= 0.9
        assert "wrote" in capsys.readouterr().out

    def test_warm_hit_rate_gate_fails_without_warm_pass(self, daemon, tmp_path):
        rc = main([
            "--url", daemon.url,
            "--requests", "2", "--unique", "2", "--clients", "1",
            "--out", str(tmp_path / "b.json"),
            "--assert-warm-hit-rate", "0.9",
        ])
        assert rc == 1

    def test_out_dir_routes_relative_outputs(self, daemon, tmp_path):
        out_dir = tmp_path / "out" / "serve"
        rc = main([
            "--url", daemon.url,
            "--requests", "4", "--unique", "2", "--clients", "1",
            "--out-dir", str(out_dir),
            "--out", "BENCH_serve_fresh.json",
        ])
        assert rc == 0
        # The relative --out landed under --out-dir, not the cwd.
        payload = json.loads((out_dir / "BENCH_serve_fresh.json").read_text())
        assert payload["total_requests"] == 4

    def test_out_dir_keeps_absolute_paths(self, daemon, tmp_path):
        target = tmp_path / "explicit.json"
        rc = main([
            "--url", daemon.url,
            "--requests", "2", "--unique", "1", "--clients", "1",
            "--out-dir", str(tmp_path / "ignored"),
            "--out", str(target),
        ])
        assert rc == 0
        assert target.exists()
