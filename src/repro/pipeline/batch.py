"""The shared worker pool helpers.

``run_pool`` is the one process-pool idiom the repo uses for a ``--jobs``
fan-out (the experiment runner's prewarm): serial when ``jobs <= 1``
(bit-identical to the historical in-process loops), a
``ProcessPoolExecutor`` map otherwise, results always in task order.

``WorkerPool`` is the *persistent* sibling of ``run_pool`` for services
that live longer than one batch (the ``repro.serve`` daemon): the same
worker-function-over-payloads contract, but the forked workers stay
alive between calls, and a worker killed mid-task is detected
(``BrokenExecutor``) and the pool respawned so the caller can retry.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, List, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def run_pool(
    fn: Callable[[_T], _R], tasks: Sequence[_T], jobs: int = 1
) -> List[_R]:
    """``[fn(t) for t in tasks]``, fanned over ``jobs`` worker processes.

    ``jobs <= 1`` runs in-process (no pickling, no pool startup); results
    come back in task order either way, so callers are order-independent.
    ``fn`` must be a module-level function when ``jobs > 1`` (pickling).
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, tasks))


class WorkerPool:
    """A persistent process pool mapping one worker function over payloads.

    The long-lived counterpart of :func:`run_pool`, built for the
    compile service: workers are forked once (eagerly, at construction —
    forking before the caller starts serving threads keeps ``fork()``
    clean) and reused across calls, so repeated requests do not pay pool
    startup.  ``jobs <= 0`` runs every call inline in the calling thread
    (no processes at all — the deterministic mode tests default to).

    A worker killed mid-task surfaces as :class:`WorkerCrash`; call
    :meth:`respawn` and resubmit — the task itself is never lost because
    the payload lives with the caller, not the pool.
    """

    def __init__(self, fn: Callable[[_T], _R], jobs: int = 1):
        self.fn = fn
        self.jobs = max(0, jobs)
        self.respawns = 0
        self._lock = threading.Lock()
        self._executor = None
        if self.jobs > 0:
            self._executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(max_workers=self.jobs)
        # Force the workers into existence now (ProcessPoolExecutor forks
        # lazily on first submit, which would otherwise happen on a
        # request-handler thread).
        list(executor.map(_worker_pid, range(self.jobs)))
        return executor

    def call(self, payload: _T) -> _R:
        """Run ``fn(payload)`` on a pool worker (or inline when jobs<=0).

        Raises :class:`WorkerCrash` when the worker died mid-task (the
        pool is broken afterwards; :meth:`respawn` before retrying).
        """
        if self._executor is None:
            return self.fn(payload)
        with self._lock:
            executor = self._executor
        try:
            return executor.submit(self.fn, payload).result()
        except BrokenExecutor as exc:
            raise WorkerCrash(str(exc) or "worker process died") from exc

    def respawn(self) -> None:
        """Replace a broken executor with a freshly forked one."""
        if self.jobs <= 0:
            return
        with self._lock:
            old = self._executor
            self._executor = self._spawn()
            self.respawns += 1
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Terminate the workers (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class WorkerCrash(RuntimeError):
    """A pool worker died mid-task (see :meth:`WorkerPool.call`)."""


def _worker_pid(_: int) -> int:
    """Warmup task: forces a pool worker to exist and reports its pid."""
    import os

    return os.getpid()
