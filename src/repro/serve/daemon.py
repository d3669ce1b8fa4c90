"""The ``repro.serve`` daemon: compile-as-a-service over HTTP.

Architecture (DESIGN.md §13)::

    client threads ──HTTP──▶ ThreadingHTTPServer
                                 │  handler thread per request
                                 ▼
                           CompileService
                 ┌───────────────┼──────────────────┐
                 ▼               ▼                  ▼
          ArtifactStore    single-flight      WorkerPool
          (disk, LRU)      (fingerprint →     (persistent forked
                            in-flight map)     compile workers)

* A request is answered from the **content-addressed store** when its
  fingerprint is cached (a *hit* — no compile, no queueing).
* Concurrent identical requests are **single-flighted**: the first
  becomes the owner and compiles; the rest join its in-flight future and
  receive the same bytes (one compile total).
* Distinct misses are admitted into a **bounded queue** (`--queue-depth`)
  and sharded across the persistent worker pool; when the queue is full
  the daemon rejects with HTTP 429 instead of building unbounded
  backlog (backpressure — the client decides whether to retry).
* A worker killed mid-request is detected, the pool **respawned**, and
  the request retried (bounded retries) before the error is surfaced.
* SIGTERM (or ``POST /shutdown``) **drains**: new work gets 503, active
  requests finish, the pool shuts down, and the process exits 0.

Endpoints::

    GET  /healthz   → {"status": "ok"|"draining", ...}
    GET  /stats     → service + store counters (JSON)
    POST /compile   → artifact bytes; X-Cache: hit|miss|joined
    POST /batch     → {"results": [artifact, ...], "cache": [...]}
    POST /shutdown  → {"status": "draining"}, then the daemon drains

Every request is traced through the process tracer
(:mod:`repro.obs.tracer`) as ``serve.request`` points when the daemon
was started with ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, ServeError
from repro.obs.tracer import get_tracer
from repro.pipeline.batch import WorkerCrash, WorkerPool
from repro.serve.compiler import worker_entry
from repro.serve.request import CompileRequest
from repro.serve.store import DEFAULT_CAPACITY_BYTES, ArtifactStore

#: Default bound on admitted-but-unfinished compile requests.
DEFAULT_QUEUE_DEPTH = 64


class Backpressure(ServeError):
    """The bounded request queue is full (HTTP 429)."""


class Draining(ServeError):
    """The daemon is shutting down and admits no new work (HTTP 503)."""


@dataclass
class ServeConfig:
    """Everything the daemon needs to boot (CLI flags map 1:1 onto this)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    cache_dir: str = ".serve_cache"
    cache_capacity_bytes: int = DEFAULT_CAPACITY_BYTES
    #: Retries after a worker crash before the error is surfaced.
    retries: int = 2
    #: Honor test-only ``debug`` request hooks (robustness tests).
    allow_debug_hooks: bool = False
    #: Seconds the drain waits for active requests before giving up.
    drain_grace: float = 30.0

    def __post_init__(self):
        if self.queue_depth < 1:
            raise ServeError("queue_depth must be >= 1")
        if self.workers < 0:
            raise ServeError("workers must be >= 0 (0 = compile inline)")


class CompileService:
    """The daemon's brain: cache, single-flight, queue, worker pool."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = ArtifactStore(
            config.cache_dir, config.cache_capacity_bytes
        )
        self.pool = WorkerPool(worker_entry, config.workers)
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._pending = 0
        self._draining = False
        self._started = time.monotonic()
        # Service counters (all under _lock).
        self.requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.compiles = 0
        self.joined = 0
        self.rejected = 0
        self.retries = 0
        self.worker_restarts = 0
        self.errors = 0

    # -- request path ------------------------------------------------------

    def handle(self, data: Dict) -> Tuple[bytes, str]:
        """Serve one compile request: ``(artifact bytes, cache status)``.

        Status is ``"hit"`` (served from the store), ``"miss"`` (this
        call compiled), or ``"joined"`` (an identical request was already
        in flight; its result was shared).  Raises :class:`Backpressure`
        when the queue is full, :class:`Draining` during shutdown, and
        :class:`ServeError` for malformed requests.
        """
        request = CompileRequest.from_json(data)
        fingerprint = request.fingerprint()
        with self._lock:
            self.requests += 1
            if self._draining:
                raise Draining("daemon is draining; not accepting new work")
        blob = self.store.get(fingerprint)
        if blob is not None:
            with self._lock:
                self.cache_hits += 1
            self._trace(request, fingerprint, "hit")
            return blob, "hit"
        with self._lock:
            self.cache_misses += 1
            future = self._inflight.get(fingerprint)
            if future is None:
                if self._pending >= self.config.queue_depth:
                    self.rejected += 1
                    raise Backpressure(
                        f"queue full ({self.config.queue_depth} in flight); "
                        "retry later"
                    )
                self._pending += 1
                future = Future()
                self._inflight[fingerprint] = future
                owner = True
            else:
                self.joined += 1
                owner = False
        if not owner:
            blob = future.result()
            self._trace(request, fingerprint, "joined")
            return blob, "joined"
        try:
            blob = self._compile(request)
            self.store.put(fingerprint, blob)
            future.set_result(blob)
        except BaseException as exc:
            with self._lock:
                self.errors += 1
            future.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._pending -= 1
                self._inflight.pop(fingerprint, None)
        self._trace(request, fingerprint, "miss")
        return blob, "miss"

    def handle_batch(self, items: List[Dict]) -> List[Tuple[bytes, str]]:
        """Serve a batch concurrently; results in request order.

        Every member is independent (own cache lookup, own single-flight
        slot, own worker), and the response preserves order.  Batch members share the global queue
        bound, so an oversized batch surfaces :class:`Backpressure` on
        its overflowing members rather than stalling the daemon.
        """
        if not items:
            return []
        if len(items) == 1:
            return [self.handle(items[0])]
        with ThreadPoolExecutor(
            max_workers=min(len(items), 32), thread_name_prefix="serve-batch"
        ) as fan_out:
            futures = [fan_out.submit(self.handle, item) for item in items]
            results = []
            for future in futures:
                results.append(future.result())
            return results

    def _compile(self, request: CompileRequest) -> bytes:
        """One compile on the pool, with crash-respawn-retry."""
        payload = request.canonical()
        if request.debug and self.config.allow_debug_hooks:
            payload["debug"] = dict(request.debug)
        attempt = 0
        while True:
            attempt += 1
            try:
                blob = self.pool.call(dict(payload))
                with self._lock:
                    self.compiles += 1
                return blob
            except WorkerCrash:
                with self._lock:
                    self.worker_restarts += 1
                self.pool.respawn()
                if attempt > self.config.retries:
                    raise ServeError(
                        f"compile worker died {attempt} times for "
                        f"{request.describe()}; giving up"
                    ) from None
                with self._lock:
                    self.retries += 1

    def _trace(self, request: CompileRequest, fingerprint: str, status: str):
        tracer = get_tracer()
        if tracer.enabled:
            tracer.point(
                "serve.request",
                fingerprint=fingerprint,
                cache=status,
                request=request.describe(),
            )

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once shutdown has begun."""
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new requests (idempotent)."""
        with self._lock:
            self._draining = True
        tracer = get_tracer()
        if tracer.enabled:
            tracer.point("serve.drain", pending=self._pending)

    def finish_drain(self, grace: Optional[float] = None) -> bool:
        """Wait for in-flight work, then stop the pool; True = clean."""
        deadline = time.monotonic() + (
            self.config.drain_grace if grace is None else grace
        )
        clean = True
        while time.monotonic() < deadline:
            with self._lock:
                if self._pending == 0:
                    break
            time.sleep(0.02)
        else:
            clean = False
        self.pool.shutdown()
        return clean

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict:
        """JSON-safe counters for ``/stats`` and the load harness."""
        with self._lock:
            return {
                "status": "draining" if self._draining else "ok",
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "pending": self._pending,
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "compiles": self.compiles,
                "joined": self.joined,
                "rejected": self.rejected,
                "retries": self.retries,
                "worker_restarts": self.worker_restarts,
                "worker_respawns": self.pool.respawns,
                "errors": self.errors,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "store": self.store.stats(),
            }


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's :class:`CompileService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: Idle keep-alive connections time out so drain never waits on them.
    timeout = 30
    #: Every response leaves the socket at once.  With the stdlib
    #: defaults (unbuffered ``wfile``, Nagle on) headers and body go out
    #: as two writes, and Nagle holds the body until the client's delayed
    #: ACK of the headers: ~40 ms on Linux, on every response.  Buffering
    #: ``wfile`` joins headers and body into the one flush
    #: ``handle_one_request`` already does; ``TCP_NODELAY`` keeps a body
    #: larger than the 8 KiB buffer (a ``/batch``) from the same stall.
    disable_nagle_algorithm = True
    wbufsize = -1

    # The default handler logs every request to stderr; the daemon's
    # request log is the trace stream instead.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence the default per-request stderr log."""

    def handle_expect_100(self) -> bool:
        """Flush ``100 Continue`` before the body is read (``wfile`` buffers)."""
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    @property
    def service(self) -> CompileService:
        """The daemon's service (attached by :class:`ServeDaemon`)."""
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str = "application/json",
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        if self.close_connection or self.service.draining:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict, **extra) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(code, body, extra=extra or None)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Optional[Dict]:
        header = self.headers.get("Content-Length", "0") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused: answer and close instead of reading to EOF.
            self.close_connection = True
            self._send_error_json(400, f"invalid Content-Length {header!r}")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            self._send_error_json(400, "empty request body")
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            self._send_error_json(400, f"request body is not JSON: {exc}")
            return None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Route ``GET /healthz`` and ``GET /stats``."""
        with self.server.tracked():  # type: ignore[attr-defined]
            if self.path == "/healthz":
                status = "draining" if self.service.draining else "ok"
                self._send_json(200, {"status": status})
            elif self.path == "/stats":
                self._send_json(200, self.service.stats())
            else:
                self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Route ``POST /compile``, ``/batch``, and ``/shutdown``."""
        with self.server.tracked():  # type: ignore[attr-defined]
            if self.path == "/compile":
                self._post_compile()
            elif self.path == "/batch":
                self._post_batch()
            elif self.path == "/shutdown":
                self._send_json(200, {"status": "draining"})
                self.server.request_stop()  # type: ignore[attr-defined]
            else:
                self._send_error_json(404, f"unknown path {self.path!r}")

    def _post_compile(self) -> None:
        data = self._read_body()
        if data is None:
            return
        try:
            blob, status = self.service.handle(data)
        except Backpressure as exc:
            self._send_error_json(429, str(exc))
        except Draining as exc:
            self._send_error_json(503, str(exc))
        except ReproError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # compile crashed: surface, keep serving
            self._send_error_json(500, f"compile failed: {exc}")
        else:
            self._send(200, blob, extra={"X-Cache": status})

    def _post_batch(self) -> None:
        data = self._read_body()
        if data is None:
            return
        items = data.get("requests") if isinstance(data, dict) else None
        if not isinstance(items, list):
            self._send_error_json(
                400, "batch body must be {\"requests\": [request, ...]}"
            )
            return
        try:
            results = self.service.handle_batch(items)
        except Backpressure as exc:
            self._send_error_json(429, str(exc))
        except Draining as exc:
            self._send_error_json(503, str(exc))
        except ReproError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:
            self._send_error_json(500, f"batch compile failed: {exc}")
        else:
            body = (
                "{\"cache\": "
                + json.dumps([status for _, status in results])
                + ", \"results\": ["
                + ", ".join(blob.decode().rstrip("\n") for blob, _ in results)
                + "]}\n"
            ).encode()
            self._send(200, body)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service and an active-count."""

    daemon_threads = True
    #: The stdlib default listen backlog (5) resets connections when a
    #: client fleet connects at once; the load harness opens 50+.
    request_queue_size = 128

    def __init__(self, address, service: CompileService, stop_event):
        super().__init__(address, _Handler)
        self.service = service
        self._stop_event = stop_event
        self._active = 0
        self._active_lock = threading.Lock()

    def tracked(self):
        """Context manager counting active (mid-request) handlers."""
        server = self

        class _Tracked:
            def __enter__(self):
                with server._active_lock:
                    server._active += 1
                return self

            def __exit__(self, *exc):
                with server._active_lock:
                    server._active -= 1

        return _Tracked()

    @property
    def active_requests(self) -> int:
        """Handlers currently inside a request (idle keep-alives excluded)."""
        with self._active_lock:
            return self._active

    def request_stop(self) -> None:
        """Ask the daemon's main loop to drain and exit."""
        self._stop_event.set()


@dataclass
class ServeDaemon:
    """Owns one server + service pair and the drain choreography.

    Tests and :mod:`examples/serve_client.py` run it in-process
    (:meth:`start` / :meth:`stop`); :func:`main` runs it as a real
    process with SIGTERM handling.
    """

    config: ServeConfig
    service: CompileService = field(init=False)
    _server: _Server = field(init=False)
    _stop_event: threading.Event = field(init=False)
    _thread: Optional[threading.Thread] = field(init=False, default=None)

    def __post_init__(self):
        self._stop_event = threading.Event()
        self.service = CompileService(self.config)
        self._server = _Server(
            (self.config.host, self.config.port), self.service, self._stop_event
        )

    @property
    def host(self) -> str:
        """Bound host."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when the config asked for port 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeDaemon":
        """Serve in a background thread (in-process use); returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def wait_for_stop(self) -> None:
        """Block until SIGTERM / ``POST /shutdown`` asks for drain."""
        self._stop_event.wait()

    def stop(self, grace: Optional[float] = None) -> bool:
        """Drain and shut everything down; True = drained cleanly."""
        self.service.begin_drain()
        self._server.shutdown()  # stop accepting
        deadline = time.monotonic() + (
            self.config.drain_grace if grace is None else grace
        )
        while self._server.active_requests > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        clean = self._server.active_requests == 0
        clean = self.service.finish_drain(grace) and clean
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        return clean


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: ``python -m repro.serve.daemon`` / ``repro.cli serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one and print it)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="compile worker processes (0 = compile in the handler thread)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
        help="max admitted-but-unfinished compiles before 429s",
    )
    parser.add_argument(
        "--cache-dir", default=".serve_cache",
        help="artifact store directory (created if missing)",
    )
    parser.add_argument(
        "--cache-cap-mb", type=int, default=DEFAULT_CAPACITY_BYTES // (1 << 20),
        help="artifact store size cap in MiB",
    )
    parser.add_argument(
        "--trace", default="", metavar="FILE",
        help="write JSONL trace events (serve.request, ...) to FILE",
    )
    parser.add_argument(
        "--allow-debug-hooks", action="store_true",
        help="honor test-only request debug hooks (never in production)",
    )
    args = parser.parse_args(argv)

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            cache_dir=args.cache_dir,
            cache_capacity_bytes=args.cache_cap_mb * (1 << 20),
            allow_debug_hooks=args.allow_debug_hooks,
        )
        daemon = ServeDaemon(config)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def _on_signal(signum, _frame):
        daemon._stop_event.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    def _run() -> int:
        daemon.start()
        print(
            f"serve: listening on {daemon.url} "
            f"(workers={config.workers} queue={config.queue_depth} "
            f"cache={config.cache_dir})",
            flush=True,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.point(
                "serve.boot",
                host=daemon.host,
                port=daemon.port,
                workers=config.workers,
                queue_depth=config.queue_depth,
            )
        daemon.wait_for_stop()
        clean = daemon.stop()
        stats = daemon.service.stats()
        print(
            f"serve: drained {'cleanly' if clean else 'WITH STRAGGLERS'} — "
            f"{stats['requests']} requests, {stats['cache_hits']} hits, "
            f"{stats['compiles']} compiles, {stats['rejected']} rejected",
            flush=True,
        )
        return 0 if clean else 1

    if args.trace:
        from repro.obs.tracer import tracing

        with tracing(args.trace):
            return _run()
    return _run()


if __name__ == "__main__":
    raise SystemExit(main())
