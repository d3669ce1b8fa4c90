"""``repro.serve`` — compile-as-a-service on top of the pass pipeline.

The "millions of users" story (ROADMAP item 1): a long-lived daemon that
answers compile requests from a content-addressed artifact cache and
shards cache misses across a persistent pool of forked compile workers.

* :mod:`repro.serve.request` — :class:`CompileRequest` and the canonical
  fingerprint that keys the cache (covers program, machine, predictor
  choice, skip-pass set, and fault plan);
* :mod:`repro.serve.store` — :class:`ArtifactStore`, the disk-backed
  LRU-capped content-addressed cache with atomic writes;
* :mod:`repro.serve.compiler` — deterministic request execution
  (request in, canonical artifact bytes out; runs inside workers);
* :mod:`repro.serve.daemon` — the HTTP daemon: bounded queue with 429
  backpressure, single-flight deduplication, worker respawn-and-retry,
  graceful SIGTERM drain, per-request tracing;
* :mod:`repro.serve.client` — the stdlib keep-alive client
  (``repro.cli client``);
* :mod:`repro.serve.loadgen` — the load-test harness behind
  ``make serve-smoke``.

Architecture and measured numbers: DESIGN.md §13.
"""

from repro.serve.client import ServeClient, ServeResponseError
from repro.serve.compiler import compile_artifact, compile_bytes
from repro.serve.daemon import (
    Backpressure,
    CompileService,
    Draining,
    ServeConfig,
    ServeDaemon,
)
from repro.serve.request import CompileRequest
from repro.serve.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "Backpressure",
    "CompileRequest",
    "CompileService",
    "Draining",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
    "ServeResponseError",
    "compile_artifact",
    "compile_bytes",
]
