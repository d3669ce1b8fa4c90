"""Load-test harness: thousands of synthetic clients vs one daemon.

``python -m repro.serve.loadgen`` drives a two-phase load against a
serve daemon:

* **cold** — every one of ``--unique`` distinct requests once (all
  cache misses, compiled through the queue and worker pool);
* **warm** — the remaining ``--requests`` total re-issue those same
  fingerprints round-robin (repeat traffic, served by the
  content-addressed store, so nearly all cache hits).

Per phase it counts completed, failed and rejected requests and cache
hits.  It measures no time: serve latency and throughput are measured
by ``bench/`` (its ``serve-mixed`` workload), and this harness gates
only through the assertions below.

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
path (``--trace``, ``--cache-dir``) is routed under ``DIR`` (created on
demand) instead of landing in the repo root; absolute paths are honored
as given.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.serve.client import ServeClient, ServeResponseError


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
    """Client-side counts of one load phase."""

    name: str
    requests: int = 0
    completed: int = 0
    errors: int = 0
    rejected: int = 0
    cache_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Cache hits per completed request (0 when none completed)."""
        return self.cache_hits / self.completed if self.completed else 0.0


def run_phase(
    url: str,
    name: str,
    requests: List[Dict],
    clients: int,
) -> PhaseResult:
    """Drive ``requests`` through ``clients`` concurrent threads.

    Each client thread owns one keep-alive connection and pulls from a
    shared cursor, so the offered concurrency is exactly ``clients``.
    429 rejections count separately and are retried after a short
    backoff — the load must eventually land so hit-rate accounting
    stays exact.
    """
    result = PhaseResult(name=name, requests=len(requests))
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def worker(client: ServeClient) -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                request = requests[index]
                while True:
                    try:
                        _, cache = client.compile_raw(request)
                    except ServeResponseError as exc:
                        if exc.status == 429:
                            with lock:
                                result.rejected += 1
                            time.sleep(0.02)
                            continue
                        with lock:
                            result.errors += 1
                        break
                    except (OSError, ServeError):
                        with lock:
                            result.errors += 1
                        break
                    with lock:
                        result.completed += 1
                        if cache in ("hit", "joined"):
                            result.cache_hits += 1
                    break
        finally:
            client.close()

    # Clients are built here, so a bad URL raises before any thread starts.
    threads = [
        threading.Thread(
            target=worker, args=(ServeClient(url),), name=f"loadgen-{name}-{i}"
        )
        for i in range(max(1, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
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
) -> Tuple[PhaseResult, PhaseResult]:
    """The full cold+warm run against ``url``; returns both phases."""
    if unique < 1 or total_requests < unique:
        raise ServeError("--requests must be >= --unique (both >= 1)")
    pool = [synthetic_request(i) for i in range(unique)]
    warm = [pool[i % unique] for i in range(total_requests - unique)]
    return (
        run_phase(url, "cold", pool, clients),
        run_phase(url, "warm", warm, clients),
    )


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
    parser.add_argument(
        "--out-dir", default="", metavar="DIR",
        help="route relative --trace/--cache-dir paths under DIR "
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
        for name in ("trace", "cache_dir"):
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

        phases = run_load(url, args.requests, args.unique, args.clients)
        warm = phases[1]

        failures: List[str] = [
            f"{phase.name} pass had {phase.errors} errors"
            for phase in phases
            if phase.errors
        ]
        if args.assert_warm_hit_rate is not None:
            if args.requests == args.unique:
                failures.append(
                    "--assert-warm-hit-rate needs a warm pass "
                    "(--requests > --unique)"
                )
            elif warm.hit_rate < args.assert_warm_hit_rate:
                failures.append(
                    f"warm cache hit rate {warm.hit_rate:.3f} < "
                    f"required {args.assert_warm_hit_rate:.3f}"
                )
        if args.verify_identity:
            try:
                verify_identity(url, synthetic_request(0))
                print("identity: cached artifact matches a fresh compile")
            except ServeError as exc:
                failures.append(str(exc))

        if process is not None:
            code = terminate_daemon(process)
            process = None
            if code != 0:
                failures.append(f"daemon exited {code} after SIGTERM")

        for phase in phases:
            print(
                f"{phase.name:>5}: {phase.completed}/{phase.requests} ok  "
                f"errors={phase.errors} rejected={phase.rejected}  "
                f"hit-rate={phase.hit_rate:.1%}"
            )

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
