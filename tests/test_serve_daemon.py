"""End-to-end daemon behavior: cache, single-flight, crash recovery.

Most tests run the daemon in-process with ``workers=0`` (compile inline
in the handler thread): same HTTP surface, same cache and single-flight
paths, no fork cost.  The worker-crash test is the exception — it needs
a real worker process to kill.
"""

import json
import socket
import statistics
import threading
import time

import pytest

from repro.errors import ServeError
from repro.serve.client import ServeClient, ServeResponseError
from repro.serve.compiler import compile_bytes
from repro.serve.daemon import (
    Backpressure,
    CompileService,
    Draining,
    ServeConfig,
    ServeDaemon,
)
from repro.serve.request import CompileRequest

TINY = {"app": "tiny"}


def inline_loop(**fields):
    """An inline-program request whose one loop carries ``fields``."""
    loop = {"var": "i", "start": 0, "stop": 16, **fields}
    return {
        "program": {
            "arrays": {"A": 64, "B": 64},
            "nests": [{"loops": [loop], "body": ["A(i) = B(i)"]}],
        }
    }


def make_daemon(tmp_path, **overrides):
    options = {
        "workers": 0,
        "cache_dir": str(tmp_path / "cache"),
        "drain_grace": 5.0,
    }
    options.update(overrides)
    return ServeDaemon(ServeConfig(**options)).start()


@pytest.fixture
def daemon(tmp_path):
    instance = make_daemon(tmp_path)
    yield instance
    instance.stop()


def raw_exchange(daemon, request: str):
    """Send raw request bytes; read until the daemon closes (or 5 s pass).

    Returns the response ``(head, body)`` as text.
    """
    chunks = []
    with socket.create_connection((daemon.host, daemon.port), 5) as sock:
        sock.sendall(request.encode())
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).decode().partition("\r\n\r\n")
    return head, body


class TestHttpSurface:
    def test_miss_then_hit_byte_identical(self, daemon):
        with ServeClient(daemon.url) as client:
            first, cache1 = client.compile_raw(dict(TINY))
            second, cache2 = client.compile_raw(dict(TINY))
        assert (cache1, cache2) == ("miss", "hit")
        assert first == second

    def test_cached_equals_fresh_inprocess_compile(self, daemon):
        with ServeClient(daemon.url) as client:
            client.compile_raw(dict(TINY))  # populate
            served, cache = client.compile_raw(dict(TINY))
        assert cache == "hit"
        assert served == compile_bytes(CompileRequest.from_json(dict(TINY)))

    def test_healthz_and_stats(self, daemon):
        with ServeClient(daemon.url) as client:
            assert client.healthz() == {"status": "ok"}
            client.compile(dict(TINY))
            stats = client.stats()
        assert stats["requests"] == 1
        assert stats["cache_misses"] == 1
        assert stats["compiles"] == 1
        assert stats["store"]["puts"] == 1

    def test_batch_mixes_hits_and_misses(self, daemon):
        with ServeClient(daemon.url) as client:
            client.compile(dict(TINY))
            result = client.batch([dict(TINY), {"app": "tiny", "seed": 5}])
        assert result["cache"] == ["hit", "miss"]
        assert [a["request"]["seed"] for a in result["results"]] == [0, 5]

    def test_malformed_request_is_400(self, daemon):
        with ServeClient(daemon.url) as client:
            with pytest.raises(ServeResponseError) as excinfo:
                client.compile({"app": "doom"})
        assert excinfo.value.status == 400
        assert "unknown app" in str(excinfo.value)

    @pytest.mark.parametrize(
        "request_json, message",
        [
            ({**TINY, "backend": "runtime"}, "unknown request field"),
            ({**TINY, "skip_passes": ["execute"]}, "unknown pass name"),
            ({**TINY, "faults": {"seed": "x"}}, "'seed' must be an integer"),
            (inline_loop(start="abc"), "'start' must be an integer"),
            (inline_loop(start=None), "'start' must be an integer"),
            (inline_loop(start=1.7), "'start' must be an integer"),
            (inline_loop(start=True), "'start' must be an integer"),
            (inline_loop(stop=[1]), "'stop' must be an integer"),
            (inline_loop(step="5"), "'step' must be an integer"),
            ({**TINY, "skip_passes": ["codegen"]}, "unknown pass name"),
            ({**TINY, "skip_passes": ["predict_analytic"]}, "unknown pass name"),
            ({**TINY, "skip_passes": ["schedule"]}, "cannot be skipped"),
            (inline_loop(stop=10**30), "must lie within"),
            (inline_loop(start=10**30, stop=10**30 + 4), "must lie within"),
            (inline_loop(step=0), "zero step"),
        ],
    )
    def test_retired_execution_fields_are_400(
        self, daemon, request_json, message
    ):
        with ServeClient(daemon.url) as client:
            with pytest.raises(ServeResponseError) as excinfo:
                client.compile(request_json)
            assert client.healthz() == {"status": "ok"}
            # Refused at parse time: the request never reached the cache.
            assert client.stats()["cache_misses"] == 0
        assert excinfo.value.status == 400
        assert message in str(excinfo.value)

    def test_unknown_path_is_404(self, daemon):
        with ServeClient(daemon.url) as client:
            with pytest.raises(ServeResponseError) as excinfo:
                client._json_or_raise(*client._request("GET", "/nope")[:2])
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400_and_close(self, daemon, length):
        head, body = raw_exchange(
            daemon,
            "POST /compile HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}",
        )
        assert head.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in head
        assert "invalid Content-Length" in json.loads(body)["error"]
        # The daemon keeps serving.
        with ServeClient(daemon.url) as client:
            assert client.healthz() == {"status": "ok"}

    def test_expect_100_continue_is_answered_before_the_body(self, daemon):
        body = json.dumps(TINY).encode()
        with socket.create_connection((daemon.host, daemon.port), 5) as sock:
            sock.sendall(
                "POST /compile HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Expect: 100-continue\r\n\r\n".encode()
            )
            interim = sock.recv(4096)
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_debug_hooks_ignored_without_flag(self, daemon):
        """A daemon without --allow-debug-hooks treats debug as inert."""
        with ServeClient(daemon.url) as client:
            artifact = client.compile({**TINY, "debug": {"sleep_ms": 10}})
        assert artifact["request"].get("debug") is None


class TestResponseLatency:
    """No response waits on the client's delayed ACK (a >= 40 ms stall)."""

    REPEATS = 20

    def median_ms(self, call) -> float:
        samples = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            call()
            samples.append((time.perf_counter() - started) * 1000.0)
        return statistics.median(samples)

    def test_keepalive_responses_are_not_delayed(self, daemon):
        def bad_request():
            with pytest.raises(ServeResponseError):
                client.compile({"app": "doom"})

        with ServeClient(daemon.url) as client:
            client.compile_raw(dict(TINY))  # populate the store
            medians = {
                "hit": self.median_ms(lambda: client.compile_raw(dict(TINY))),
                "error": self.median_ms(bad_request),
                "stats": self.median_ms(client.stats),
                # ~10 KB: larger than the handler's write buffer.
                "batch": self.median_ms(lambda: client.batch([dict(TINY)] * 10)),
            }
        assert all(ms < 20.0 for ms in medians.values()), medians


class TestSingleFlight:
    def test_parallel_identical_requests_compile_once(self, tmp_path):
        daemon = make_daemon(tmp_path, queue_depth=64)
        try:
            results = []
            barrier = threading.Barrier(8)

            def fire():
                with ServeClient(daemon.url) as client:
                    barrier.wait()
                    results.append(client.compile_raw({"app": "tiny", "seed": 42}))

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            blobs = {blob for blob, _ in results}
            statuses = [status for _, status in results]
            assert len(blobs) == 1
            # Exactly one owner compiled; everyone else joined or (having
            # arrived after the put) hit the store.
            assert statuses.count("miss") == 1
            assert set(statuses) <= {"miss", "joined", "hit"}
            assert daemon.service.compiles == 1
        finally:
            daemon.stop()


class TestBackpressure:
    def test_queue_overflow_rejected_cleanly(self, tmp_path):
        daemon = make_daemon(
            tmp_path, queue_depth=1, workers=0, allow_debug_hooks=True
        )
        try:
            release = threading.Event()
            slow_done = []

            def slow():
                with ServeClient(daemon.url) as client:
                    # The debug sleep holds the only queue slot open.
                    client.compile({"app": "tiny", "seed": 1,
                                    "debug": {"sleep_ms": 1500}})
                    slow_done.append(True)
                    release.set()

            thread = threading.Thread(target=slow)
            thread.start()
            # Wait until the slow request owns the slot.
            deadline = threading.Event()
            for _ in range(200):
                if daemon.service.stats()["pending"] == 1:
                    break
                deadline.wait(0.01)
            with ServeClient(daemon.url) as client:
                with pytest.raises(ServeResponseError) as excinfo:
                    client.compile({"app": "tiny", "seed": 2})
            assert excinfo.value.status == 429
            assert "queue full" in str(excinfo.value)
            thread.join()
            assert slow_done == [True]
            assert daemon.service.rejected == 1
            # The daemon keeps serving after a rejection.
            with ServeClient(daemon.url) as client:
                _, cache = client.compile_raw({"app": "tiny", "seed": 2})
            assert cache == "miss"
        finally:
            daemon.stop()


class TestWorkerCrash:
    def test_killed_worker_respawned_and_request_retried(self, tmp_path):
        daemon = make_daemon(tmp_path, workers=1, allow_debug_hooks=True)
        try:
            marker = str(tmp_path / "kill_once")
            with ServeClient(daemon.url, timeout=120) as client:
                artifact = client.compile(
                    {**TINY, "debug": {"kill_once_path": marker}}
                )
            # The first attempt SIGKILLed the worker; the retry (after a
            # pool respawn) found the marker and compiled normally.
            assert artifact["fingerprint"]
            stats = daemon.service.stats()
            assert stats["worker_restarts"] == 1
            assert stats["retries"] == 1
            assert stats["compiles"] == 1
        finally:
            assert daemon.stop()

    def test_repeated_crashes_surface_an_error(self, tmp_path):
        service = CompileService(
            ServeConfig(
                workers=0, cache_dir=str(tmp_path / "c"), retries=1
            )
        )
        calls = []

        def always_crash(payload):
            calls.append(1)
            from repro.pipeline.batch import WorkerCrash

            raise WorkerCrash("boom")

        service.pool.fn = always_crash
        with pytest.raises(ServeError, match="giving up"):
            service.handle(dict(TINY))
        assert len(calls) == 2  # first attempt + one retry
        assert service.errors == 1
        service.pool.shutdown()


class TestDrain:
    def test_drain_rejects_new_work_with_503(self, tmp_path):
        daemon = make_daemon(tmp_path)
        client = ServeClient(daemon.url)
        try:
            client.compile(dict(TINY))
            daemon.service.begin_drain()
            assert client.healthz() == {"status": "draining"}
            with pytest.raises(ServeResponseError) as excinfo:
                client.compile({"app": "tiny", "seed": 9})
            assert excinfo.value.status == 503
        finally:
            client.close()
            assert daemon.stop() is True

    def test_shutdown_endpoint_sets_stop_event(self, daemon):
        with ServeClient(daemon.url) as client:
            assert client.shutdown() == {"status": "draining"}
        assert daemon._stop_event.wait(timeout=5)


class TestService:
    def test_draining_service_raises(self, tmp_path):
        service = CompileService(
            ServeConfig(workers=0, cache_dir=str(tmp_path / "c"))
        )
        service.begin_drain()
        with pytest.raises(Draining):
            service.handle(dict(TINY))
        assert service.finish_drain(grace=1.0)

    def test_backpressure_raises_when_full(self, tmp_path):
        service = CompileService(
            ServeConfig(workers=0, queue_depth=1, cache_dir=str(tmp_path / "c"))
        )
        service._pending = 1  # simulate a stuck in-flight compile
        with pytest.raises(Backpressure):
            service.handle(dict(TINY))
        service._pending = 0
        service.pool.shutdown()

    def test_config_validation(self, tmp_path):
        with pytest.raises(ServeError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ServeError):
            ServeConfig(workers=-1)
