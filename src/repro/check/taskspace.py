"""A Parla-style task space and thread-pool task runtime.

The substrate of the schedule-replay oracle (:mod:`repro.check.replay`).
Modeled on Parla's ``TaskSpace`` / ``@spawn`` idiom (SNIPPETS.md lessons
4-5): tasks are named handles in a :class:`TaskSpace`, spawned with a
dependency list, and executed by a :class:`TaskRuntime` on host threads
once every dependency has completed.  The runtime is deliberately small
— dependency counting, a ready queue, worker threads — but it is a
*real* concurrent scheduler: task bodies run on OS threads, and
completion order is whatever the scheduler produces, not what a
simulator models.

Two properties the tests lean on:

* **Determinism on demand** — ``TaskRuntime(workers=1, seed=...)`` runs
  every task on one worker and picks seeded-random tasks from the ready
  set, so two runs with the same seed execute tasks in the identical
  order; ``seed=None`` dispatches ready tasks by their spawn
  ``priority`` (spawn-order FIFO when unset), also deterministic on one
  worker.  With ``workers > 1`` the interleaving is up to the OS
  scheduler.
* **Auditability** — the runtime records the global completion order and
  verifies, as each task starts, that every dependency has already
  completed; a violation (a scheduler bug) is recorded, never silently
  dropped.  :attr:`TaskRuntime.violations` must come back empty.
"""

from __future__ import annotations

import heapq
import random
import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class TaskError(ReproError):
    """A task body raised, or the task graph is malformed."""


class TaskHandle:
    """One named task: body, dependencies, completion state."""

    def __init__(self, space: "TaskSpace", key: Hashable):
        self.space = space
        self.key = key
        self.fn: Optional[Callable[[], Any]] = None
        self.dependencies: List["TaskHandle"] = []
        self.priority: Tuple = ()
        self.result: Any = None
        self.done = threading.Event()

    @property
    def name(self) -> str:
        """Qualified name, e.g. ``T[3]``."""
        return f"{self.space.name}[{self.key!r}]"

    @property
    def spawned(self) -> bool:
        """True once a body has been attached via :func:`spawn`."""
        return self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskHandle {self.name} spawned={self.spawned}>"


class TaskSpace:
    """A lazily-populated, arbitrarily-indexed space of task handles.

    Indexing creates handles on demand (``space[uid]``), so dependencies
    may name tasks that have not been spawned yet — exactly Parla's
    ``TaskSpace`` contract.
    """

    def __init__(self, name: str = "T"):
        self.name = name
        self._tasks: Dict[Hashable, TaskHandle] = {}

    def __getitem__(self, key: Hashable) -> TaskHandle:
        handle = self._tasks.get(key)
        if handle is None:
            handle = TaskHandle(self, key)
            self._tasks[key] = handle
        return handle

    def __len__(self) -> int:
        return len(self._tasks)

    def spawned(self) -> List[TaskHandle]:
        """Every handle that has a body attached."""
        return [t for t in self._tasks.values() if t.spawned]


def spawn(
    handle: TaskHandle,
    dependencies: Sequence[TaskHandle] = (),
    priority: Tuple = (),
) -> Callable[[Callable[[], Any]], TaskHandle]:
    """Attach a body to ``handle`` — Parla's ``@spawn`` shape.

    Usage::

        @spawn(space[uid], dependencies=[space[d] for d in deps])
        def body():
            ...

    ``priority`` orders ready tasks in the unseeded runtime (lowest
    first, ties by spawn order); the default empty tuple makes every
    task equal, i.e. plain FIFO.  Returns the handle (not the
    function), as Parla does, so the decorated name can be used as a
    dependency.
    """

    def register(fn: Callable[[], Any]) -> TaskHandle:
        if handle.spawned:
            raise TaskError(f"task {handle.name} spawned twice")
        handle.fn = fn
        handle.dependencies = list(dependencies)
        handle.priority = tuple(priority)
        return handle

    return register


class TaskRuntime:
    """Executes a :class:`TaskSpace`'s spawned tasks on worker threads.

    ``workers=1`` with a ``seed`` gives the reproducible scheduling mode:
    one worker, seeded random tie-breaks among ready tasks.  ``seed``
    with ``workers > 1`` raises — a seed promises determinism the OS
    scheduler cannot deliver across threads.
    """

    def __init__(self, workers: int = 4, seed: Optional[int] = None):
        if workers < 1:
            raise TaskError(f"workers must be >= 1, got {workers}")
        if seed is not None and workers != 1:
            raise TaskError(
                "seeded (deterministic) scheduling requires workers=1; "
                f"got workers={workers}"
            )
        self.workers = workers
        self.seed = seed
        #: Task names in global completion order (filled by run()).
        self.completion_order: List[str] = []
        #: Dependency-order violations observed at task start (must stay
        #: empty; non-empty means the scheduler itself is broken).
        self.violations: List[str] = []

    def run(self, space: TaskSpace) -> None:
        """Run every spawned task in ``space``; returns when all are done.

        Raises :class:`TaskError` on an unspawned dependency, a
        dependency cycle (detected as a stall), or a task body exception
        (re-raised with the task's name).
        """
        tasks = space.spawned()
        self.completion_order = []
        self.violations = []
        if not tasks:
            return

        lock = threading.Lock()
        ready_cv = threading.Condition(lock)
        pending: Dict[TaskHandle, int] = {}
        dependents: Dict[TaskHandle, List[TaskHandle]] = {}
        completed: set = set()
        # Unseeded: a heap ordered by (priority, arrival) — spawn-order
        # FIFO when nobody sets priorities.  Seeded: a plain list the
        # RNG picks random indices from.
        ready: List[Any] = []
        failures: List[BaseException] = []
        remaining = len(tasks)
        in_flight = 0
        stalled = False
        arrivals = 0
        rng = random.Random(self.seed) if self.seed is not None else None

        def push_ready(task: TaskHandle) -> None:
            nonlocal arrivals
            if rng is None:
                heapq.heappush(ready, (task.priority, arrivals, task))
            else:
                ready.append(task)
            arrivals += 1

        for task in tasks:
            for dep in task.dependencies:
                if not dep.spawned:
                    raise TaskError(
                        f"task {task.name} depends on {dep.name}, "
                        "which was never spawned"
                    )
            pending[task] = len(task.dependencies)
            for dep in task.dependencies:
                dependents.setdefault(dep, []).append(task)
        for task in tasks:
            if pending[task] == 0:
                push_ready(task)

        def take_ready() -> Optional[TaskHandle]:
            """Pop the next task (seeded random index, else priority)."""
            if not ready:
                return None
            if rng is not None:
                return ready.pop(rng.randrange(len(ready)))
            return heapq.heappop(ready)[2]

        def worker() -> None:
            nonlocal remaining, in_flight, stalled
            while True:
                with ready_cv:
                    while (
                        not ready and remaining > 0 and not failures
                        and not stalled and in_flight > 0
                    ):
                        ready_cv.wait()
                    if remaining <= 0 or failures or stalled:
                        ready_cv.notify_all()
                        return
                    if not ready:
                        # remaining > 0, nothing ready, nothing running:
                        # the graph has a cycle — stop instead of hanging
                        # (run() turns the shortfall into a TaskError).
                        stalled = True
                        ready_cv.notify_all()
                        return
                    task = take_ready()
                    in_flight += 1
                    late = [
                        dep.name
                        for dep in task.dependencies
                        if dep not in completed
                    ]
                    if late:
                        self.violations.append(
                            f"{task.name} started before "
                            f"dependencies: {', '.join(late)}"
                        )
                try:
                    task.result = task.fn()
                except BaseException as error:  # noqa: BLE001 - re-raised
                    with ready_cv:
                        failures.append(
                            TaskError(f"task {task.name} failed: {error}")
                        )
                        in_flight -= 1
                        remaining = 0
                        ready_cv.notify_all()
                    return
                with ready_cv:
                    completed.add(task)
                    self.completion_order.append(task.name)
                    task.done.set()
                    in_flight -= 1
                    remaining -= 1
                    for succ in dependents.get(task, ()):
                        pending[succ] -= 1
                        if pending[succ] == 0:
                            push_ready(succ)
                    ready_cv.notify_all()

        threads = [
            threading.Thread(target=worker, name=f"task-runtime-{i}")
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        if len(self.completion_order) != len(tasks):
            stalled = [t.name for t in tasks if t not in completed]
            raise TaskError(
                "task graph has a dependency cycle; never ready: "
                + ", ".join(sorted(stalled)[:8])
            )
