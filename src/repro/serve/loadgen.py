"""Load-test harness: thousands of synthetic clients vs one daemon.

``python -m repro.serve.loadgen`` drives a two-phase load against a
serve daemon and writes ``BENCH_serve.json``:

* **cold** — every one of ``--unique`` distinct requests once (all
  cache misses: this measures compile throughput through the queue and
  worker pool);
* **warm** — the remaining ``--requests`` total re-issue those same
  fingerprints round-robin (repeat traffic: this measures the
  content-addressed store and must be nearly all cache hits).

Per phase it records client-observed p50/p95/p99 latency, throughput,
and the cache hit rate, in the spirit of DAMOV's measure-and-sweep
bottleneck methodology — numbers, not anecdotes — and the result feeds
CI's bench-regression gate (:mod:`repro.benchmarks.regression`).

Two ways to point it at a daemon::

    # spawn one as a subprocess, SIGTERM it at the end, assert clean exit
    python -m repro.serve.loadgen --spawn --requests 1000 --unique 200

    # or target an already-running daemon
    python -m repro.serve.loadgen --url http://127.0.0.1:8731 ...

``--assert-warm-hit-rate`` / ``--verify-identity`` turn the harness into
a gate: the warm pass must hit the cache at the given rate, and a cached
response must be **byte-identical** to an in-process compile of the
same request (`make serve-smoke`'s acceptance check).

``--out-dir DIR`` keeps the working tree clean: every *relative* output
path (``--out``, ``--trace``, ``--cache-dir``) is routed under ``DIR``
(created on demand) instead of landing in the repo root; absolute paths
are honored as given.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServeError
from repro.serve.client import ServeClient, ServeResponseError

BENCH_VERSION = 1


def synthetic_request(index: int) -> Dict:
    """The ``index``-th distinct synthetic compile request.

    All requests compile the built-in tiny app on the small machine;
    distinctness comes from the ``seed`` field (part of the fingerprint),
    so every unique request costs one real compile while staying
    sub-second.  Every 5th request also flips the predictor and every
    7th skips the balance pass, so the key space exercises the
    pipeline-shape dimensions of the fingerprint, not just the seed.
    """
    request: Dict = {"app": "tiny", "seed": index}
    if index % 5 == 4:
        request["predictor"] = "analytic"
    if index % 7 == 6:
        request["skip_passes"] = ["balance"]
    return request


@dataclass
class PhaseResult:
    """Client-side measurements of one load phase."""

    name: str
    requests: int = 0
    errors: int = 0
    rejected: int = 0
    cache_hits: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the recorded latencies (ms)."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[rank]

    def to_json(self) -> Dict:
        """The phase's ``BENCH_serve.json`` entry."""
        completed = len(self.latencies_ms)
        return {
            "requests": self.requests,
            "completed": completed,
            "errors": self.errors,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (
                round(self.cache_hits / completed, 6) if completed else 0.0
            ),
            "p50_ms": round(self.percentile(0.50), 3),
            "p95_ms": round(self.percentile(0.95), 3),
            "p99_ms": round(self.percentile(0.99), 3),
            "wall_seconds": round(self.wall_seconds, 3),
            "throughput_rps": (
                round(completed / self.wall_seconds, 3)
                if self.wall_seconds > 0
                else 0.0
            ),
        }


def run_phase(
    url: str,
    name: str,
    requests: List[Dict],
    clients: int,
    retry_rejected: bool = True,
) -> PhaseResult:
    """Drive ``requests`` through ``clients`` concurrent threads.

    Each client thread owns one keep-alive connection and pulls from a
    shared cursor, so the offered concurrency is exactly ``clients``.
    Every thread connects before the phase clock starts, so the
    percentiles and throughput measure keep-alive requests, not the
    daemon accepting a burst of ``clients`` connections at once.
    429 rejections count separately and are retried (with a short
    backoff) when ``retry_rejected`` — the load must eventually land so
    hit-rate accounting stays exact.
    """
    result = PhaseResult(name=name)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    threads_count = max(1, clients)
    connected = threading.Barrier(threads_count + 1)

    def worker(client: ServeClient) -> None:
        try:
            try:
                client.connect()
            except OSError:
                pass  # the first request reconnects and counts any failure
            connected.wait()
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = requests[index]
                started = time.perf_counter()
                while True:
                    try:
                        _, cache = client.compile_raw(request)
                    except ServeResponseError as exc:
                        if exc.status == 429:
                            with lock:
                                result.rejected += 1
                            if retry_rejected:
                                time.sleep(0.02)
                                continue
                        with lock:
                            result.errors += 1
                        break
                    except (OSError, ServeError):
                        with lock:
                            result.errors += 1
                        break
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    with lock:
                        result.latencies_ms.append(elapsed_ms)
                        if cache in ("hit", "joined"):
                            result.cache_hits += 1
                    break
        finally:
            client.close()

    result.requests = len(requests)
    # Clients are built here, so a bad URL raises before any thread
    # could leave the barrier short of a party.
    threads = [
        threading.Thread(
            target=worker, args=(ServeClient(url),), name=f"loadgen-{name}-{i}"
        )
        for i in range(threads_count)
    ]
    for thread in threads:
        thread.start()
    connected.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - started
    return result


def spawn_daemon(
    workers: int,
    queue_depth: int,
    cache_dir: str,
    trace: str = "",
) -> subprocess.Popen:
    """Launch a daemon subprocess; returns once it reports its URL.

    The daemon prints ``serve: listening on http://host:port ...`` as its
    first line; the spawned process object gets a ``serve_url`` attribute
    with that URL.
    """
    command = [
        sys.executable, "-m", "repro.serve.daemon",
        "--port", "0",
        "--workers", str(workers),
        "--queue-depth", str(queue_depth),
        "--cache-dir", cache_dir,
    ]
    if trace:
        command += ["--trace", trace]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise ServeError(
                f"daemon exited during boot (rc={process.poll()})"
            )
        if line.startswith("serve: listening on "):
            process.serve_url = line.split()[3]  # type: ignore[attr-defined]
            return process
    process.kill()
    raise ServeError("daemon did not report a listening URL within 60s")


def terminate_daemon(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM the daemon and return its exit code (must drain cleanly)."""
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        raise ServeError(f"daemon ignored SIGTERM for {timeout:.0f}s")
    # Drain the remaining stdout so the pipe does not leak.
    if process.stdout is not None:
        process.stdout.read()
        process.stdout.close()
    return code


def run_load(
    url: str,
    total_requests: int,
    unique: int,
    clients: int,
) -> Dict:
    """The full cold+warm run against ``url``; returns the bench payload."""
    if unique < 1 or total_requests < unique:
        raise ServeError("--requests must be >= --unique (both >= 1)")
    pool = [synthetic_request(i) for i in range(unique)]
    warm_count = total_requests - unique
    warm = [pool[i % unique] for i in range(warm_count)]

    cold_result = run_phase(url, "cold", pool, clients)
    warm_result = run_phase(url, "warm", warm, clients)

    with ServeClient(url) as client:
        daemon_stats = client.stats()

    return {
        "version": BENCH_VERSION,
        "clients": clients,
        "unique_requests": unique,
        "total_requests": total_requests,
        "workers": daemon_stats.get("workers"),
        "queue_depth": daemon_stats.get("queue_depth"),
        "cold": cold_result.to_json(),
        "warm": warm_result.to_json(),
        "daemon": {
            key: daemon_stats.get(key)
            for key in (
                "requests", "cache_hits", "cache_misses", "compiles",
                "joined", "rejected", "retries", "worker_restarts",
            )
        },
        "store": daemon_stats.get("store"),
    }


def verify_identity(url: str, request: Dict) -> None:
    """Assert a served (cached) artifact == an in-process fresh compile.

    Compares exact bytes: the daemon's response for ``request`` (a cache
    hit by now) against :func:`repro.serve.compiler.compile_bytes` run
    locally.  Raises :class:`ServeError` on any difference.
    """
    from repro.serve.compiler import compile_bytes
    from repro.serve.request import CompileRequest

    with ServeClient(url) as client:
        served, cache = client.compile_raw(request)
    local = compile_bytes(CompileRequest.from_json(request))
    if served != local:
        raise ServeError(
            "cached artifact differs from a fresh in-process compile "
            f"(cache={cache!r}, served {len(served)} bytes, "
            f"local {len(local)} bytes)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Run the harness; exit non-zero when an assertion fails."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen", description=__doc__.split("\n\n")[0]
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--url", default="", help="drive an already-running daemon"
    )
    target.add_argument(
        "--spawn", action="store_true",
        help="spawn a daemon subprocess and SIGTERM it afterwards",
    )
    parser.add_argument("--requests", type=int, default=1000,
                        help="total requests across cold+warm (default 1000)")
    parser.add_argument("--unique", type=int, default=200,
                        help="distinct fingerprints (the cold pass; default 200)")
    parser.add_argument("--clients", type=int, default=50,
                        help="concurrent client threads (default 50)")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon workers (spawn mode)")
    parser.add_argument("--queue-depth", type=int, default=256,
                        help="daemon queue depth (spawn mode)")
    parser.add_argument("--cache-dir", default=".serve_cache_bench",
                        help="daemon cache dir (spawn mode; cleared first)")
    parser.add_argument("--trace", default="",
                        help="daemon trace file (spawn mode)")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--out-dir", default="", metavar="DIR",
        help="route relative --out/--trace/--cache-dir paths under DIR "
        "(created on demand) instead of the current directory",
    )
    parser.add_argument(
        "--assert-warm-hit-rate", type=float, default=None, metavar="RATE",
        help="fail unless the warm pass hit rate is >= RATE (e.g. 0.9)",
    )
    parser.add_argument(
        "--verify-identity", action="store_true",
        help="fail unless a cached artifact is byte-identical to a "
        "fresh in-process compile",
    )
    args = parser.parse_args(argv)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name in ("out", "trace", "cache_dir"):
            value = getattr(args, name)
            if value and not os.path.isabs(value):
                setattr(args, name, os.path.join(args.out_dir, value))

    process = None
    try:
        if args.spawn:
            # A stale cache would turn the cold pass into hits and void
            # the cold/warm contrast — start from an empty store.
            import shutil

            shutil.rmtree(args.cache_dir, ignore_errors=True)
            process = spawn_daemon(
                args.workers, args.queue_depth, args.cache_dir, args.trace
            )
            url = process.serve_url
        else:
            url = args.url

        payload = run_load(url, args.requests, args.unique, args.clients)

        failures: List[str] = []
        for phase in ("cold", "warm"):
            entry = payload[phase]
            if entry["errors"]:
                failures.append(f"{phase} pass had {entry['errors']} errors")
        warm_rate = payload["warm"]["cache_hit_rate"]
        if args.assert_warm_hit_rate is not None:
            if args.requests == args.unique:
                failures.append(
                    "--assert-warm-hit-rate needs a warm pass "
                    "(--requests > --unique)"
                )
            elif warm_rate < args.assert_warm_hit_rate:
                failures.append(
                    f"warm cache hit rate {warm_rate:.3f} < "
                    f"required {args.assert_warm_hit_rate:.3f}"
                )
        if args.verify_identity:
            try:
                verify_identity(url, synthetic_request(0))
                payload["identity_verified"] = True
            except ServeError as exc:
                failures.append(str(exc))

        if process is not None:
            code = terminate_daemon(process)
            payload["sigterm_exit_code"] = code
            process = None
            if code != 0:
                failures.append(f"daemon exited {code} after SIGTERM")

        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

        for phase in ("cold", "warm"):
            entry = payload[phase]
            print(
                f"{phase:>5}: {entry['completed']}/{entry['requests']} ok  "
                f"p50={entry['p50_ms']:.1f}ms p95={entry['p95_ms']:.1f}ms "
                f"p99={entry['p99_ms']:.1f}ms  "
                f"{entry['throughput_rps']:.0f} req/s  "
                f"hit-rate={entry['cache_hit_rate']:.1%}"
            )
        print(f"wrote {args.out}")

        if failures:
            for failure in failures:
                print(f"loadgen: FAIL: {failure}", file=sys.stderr)
            return 1
        return 0
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if process is not None and process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    raise SystemExit(main())
