"""The load harness end-to-end against an in-process daemon."""

import pytest

from repro.errors import ServeError
from repro.serve import loadgen
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import (
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


class TestRunLoad:
    def test_cold_warm_contrast(self, daemon):
        cold, warm = run_load(daemon.url, total_requests=12, unique=4, clients=3)
        assert (cold.requests, cold.completed, cold.hit_rate) == (4, 4, 0.0)
        assert (warm.requests, warm.completed, warm.hit_rate) == (8, 8, 1.0)
        assert daemon.service.stats()["compiles"] == 4
        assert cold.errors == 0
        assert warm.errors == 0

    def test_identity_verification(self, daemon):
        run_load(daemon.url, total_requests=2, unique=1, clients=1)
        verify_identity(daemon.url, synthetic_request(0))

    def test_more_clients_than_requests(self, daemon):
        """Idle clients find no work and exit."""
        requests = [synthetic_request(0), synthetic_request(1)]
        result = run_phase(daemon.url, "cold", requests, clients=6)
        assert result.requests == 2
        assert result.completed == 2
        assert (result.errors, result.rejected) == (0, 0)
        assert daemon.service.stats()["requests"] == 2

    def test_bad_url_raises_before_any_client_starts(self):
        with pytest.raises(ServeError, match="unsupported daemon URL"):
            run_phase("ftp://host", "cold", [synthetic_request(0)], clients=3)

    def test_rejects_bad_shape(self, daemon):
        with pytest.raises(ServeError):
            run_load(daemon.url, total_requests=1, unique=2, clients=1)


def spawn_recorder(monkeypatch):
    """Replace ``spawn_daemon`` with a stub that records its output paths."""
    seen = {}

    def fake_spawn(workers, queue_depth, cache_dir, trace=""):
        seen.update(cache_dir=cache_dir, trace=trace)
        raise ServeError("no daemon in this test")

    monkeypatch.setattr(loadgen, "spawn_daemon", fake_spawn)
    return seen


class TestMain:
    def test_main_against_running_daemon(self, daemon, capsys):
        rc = main([
            "--url", daemon.url,
            "--requests", "10", "--unique", "3", "--clients", "2",
            "--assert-warm-hit-rate", "0.9",
            "--verify-identity",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity: cached artifact matches a fresh compile" in out
        assert " warm: 7/7 ok  errors=0 rejected=0  hit-rate=100.0%" in out

    def test_warm_hit_rate_gate_fails_without_warm_pass(self, daemon):
        rc = main([
            "--url", daemon.url,
            "--requests", "2", "--unique", "2", "--clients", "1",
            "--assert-warm-hit-rate", "0.9",
        ])
        assert rc == 1

    def test_out_dir_routes_relative_outputs(self, tmp_path, monkeypatch):
        seen = spawn_recorder(monkeypatch)
        out_dir = tmp_path / "out" / "serve"
        rc = main([
            "--spawn", "--out-dir", str(out_dir),
            "--trace", "serve_trace.jsonl", "--cache-dir", "cache",
        ])
        assert rc == 2
        # The relative paths landed under --out-dir, not the cwd.
        assert seen == {
            "cache_dir": str(out_dir / "cache"),
            "trace": str(out_dir / "serve_trace.jsonl"),
        }

    def test_out_dir_keeps_absolute_paths(self, tmp_path, monkeypatch):
        seen = spawn_recorder(monkeypatch)
        trace = tmp_path / "explicit.jsonl"
        rc = main([
            "--spawn", "--out-dir", str(tmp_path / "ignored"),
            "--trace", str(trace), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 2
        assert seen == {
            "cache_dir": str(tmp_path / "cache"),
            "trace": str(trace),
        }
