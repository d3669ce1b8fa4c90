"""Unit and property tests for the Parla-style task runtime.

Covers the :class:`TaskSpace` / ``spawn`` / :class:`TaskRuntime` layer of
:mod:`repro.check.taskspace`, the substrate of the schedule-replay
oracle, in isolation: dependency ordering, priority dispatch,
seeded-deterministic scheduling, cycle/double-spawn/unspawned-dep
failure modes, and a Hypothesis property that every dependency
completes before its consumer starts on randomly generated DAGs under
seeded scheduling.
"""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.check.taskspace import TaskError, TaskRuntime, TaskSpace, spawn


def record_body(log, lock, name):
    def body():
        with lock:
            log.append(name)
        return name

    return body


def linear_chain(space, length, log, lock):
    """spawn 0 <- 1 <- ... <- length-1 (each depends on the previous)."""
    for i in range(length):
        deps = [space[i - 1]] if i else []
        spawn(space[i], dependencies=deps)(record_body(log, lock, i))


class TestTaskSpace:
    def test_indexing_creates_handles_lazily(self):
        space = TaskSpace("T")
        assert len(space) == 0
        handle = space[3]
        assert handle is space[3]
        assert len(space) == 1
        assert handle.name == "T[3]"
        assert not handle.spawned

    def test_spawn_returns_the_handle(self):
        space = TaskSpace()
        handle = spawn(space[0])(lambda: 42)
        assert handle is space[0]
        assert handle.spawned
        assert space.spawned() == [handle]

    def test_double_spawn_raises(self):
        space = TaskSpace()
        spawn(space[0])(lambda: 1)
        with pytest.raises(TaskError, match="spawned twice"):
            spawn(space[0])(lambda: 2)

    def test_dependencies_may_predate_their_spawn(self):
        # Parla's contract: space[1] names an unspawned task; spawning it
        # later (before run) is fine.
        space = TaskSpace()
        spawn(space[0], dependencies=[space[1]])(lambda: "consumer")
        spawn(space[1])(lambda: "producer")
        runtime = TaskRuntime(workers=1)
        runtime.run(space)
        assert runtime.completion_order == ["T[1]", "T[0]"]


class TestTaskRuntime:
    def test_chain_runs_in_dependency_order(self):
        space, log, lock = TaskSpace(), [], threading.Lock()
        linear_chain(space, 8, log, lock)
        runtime = TaskRuntime(workers=4)
        runtime.run(space)
        assert log == list(range(8))
        assert runtime.violations == []
        assert len(runtime.completion_order) == 8

    def test_results_stored_on_handles(self):
        space = TaskSpace()
        spawn(space["x"])(lambda: 99)
        TaskRuntime(workers=1).run(space)
        assert space["x"].result == 99
        assert space["x"].done.is_set()

    def test_diamond_orders_both_arms_before_join(self):
        space, log, lock = TaskSpace(), [], threading.Lock()
        spawn(space[0])(record_body(log, lock, 0))
        spawn(space[1], dependencies=[space[0]])(record_body(log, lock, 1))
        spawn(space[2], dependencies=[space[0]])(record_body(log, lock, 2))
        spawn(space[3], dependencies=[space[1], space[2]])(
            record_body(log, lock, 3)
        )
        runtime = TaskRuntime(workers=2)
        runtime.run(space)
        assert log[0] == 0 and log[-1] == 3
        assert set(log[1:3]) == {1, 2}
        assert runtime.violations == []

    def test_empty_space_is_a_noop(self):
        runtime = TaskRuntime(workers=2)
        runtime.run(TaskSpace())
        assert runtime.completion_order == []

    def test_unspawned_dependency_raises(self):
        space = TaskSpace()
        spawn(space[0], dependencies=[space[9]])(lambda: 1)
        with pytest.raises(TaskError, match="never spawned"):
            TaskRuntime(workers=1).run(space)

    def test_cycle_raises_instead_of_hanging(self):
        space = TaskSpace()
        spawn(space[0], dependencies=[space[1]])(lambda: 1)
        spawn(space[1], dependencies=[space[0]])(lambda: 2)
        with pytest.raises(TaskError, match="cycle"):
            TaskRuntime(workers=2).run(space)

    def test_body_exception_is_wrapped_with_task_name(self):
        space = TaskSpace("T")

        def boom():
            raise ValueError("kaput")

        spawn(space[7])(boom)
        with pytest.raises(TaskError, match=r"T\[7\] failed: kaput"):
            TaskRuntime(workers=1).run(space)

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(TaskError, match="workers"):
            TaskRuntime(workers=0)

    def test_seed_requires_single_worker(self):
        with pytest.raises(TaskError, match="workers=1"):
            TaskRuntime(workers=2, seed=5)


class TestDeterministicScheduling:
    def wide_space(self):
        """16 independent tasks, then one join — lots of ready-set churn."""
        space, log, lock = TaskSpace(), [], threading.Lock()
        for i in range(16):
            spawn(space[i])(record_body(log, lock, i))
        spawn(space["join"], dependencies=[space[i] for i in range(16)])(
            record_body(log, lock, "join")
        )
        return space, log

    def run_order(self, seed):
        space, _ = self.wide_space()
        runtime = TaskRuntime(workers=1, seed=seed)
        runtime.run(space)
        assert runtime.violations == []
        return runtime.completion_order

    def test_same_seed_same_completion_order(self):
        assert self.run_order(42) == self.run_order(42)

    def test_orders_cover_the_same_tasks(self):
        assert sorted(self.run_order(1)) == sorted(self.run_order(2))

    def test_unseeded_single_worker_respects_priority(self):
        space, log, lock = TaskSpace(), [], threading.Lock()
        # Spawn in reverse priority order: dispatch must sort by priority,
        # not spawn order.
        for i in reversed(range(6)):
            spawn(space[i], priority=(i,))(record_body(log, lock, i))
        TaskRuntime(workers=1).run(space)
        assert log == list(range(6))

    def test_unseeded_fifo_when_priorities_unset(self):
        space, log, lock = TaskSpace(), [], threading.Lock()
        for i in (3, 1, 2):
            spawn(space[i])(record_body(log, lock, i))
        TaskRuntime(workers=1).run(space)
        assert log == [3, 1, 2]


@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        max_size=24,
    ),
)
def test_random_dags_never_violate_dependency_order(seed, raw_edges):
    """Property: on any DAG, every dependency completes before its consumer.

    Edges are normalized to point from a lower-numbered task to a higher
    one, which makes any random edge set acyclic; seeded single-worker
    scheduling then scrambles the dispatch order while the property must
    keep holding (and the runtime's own audit stays clean).
    """
    edges = {(min(a, b), max(a, b)) for a, b in raw_edges if a != b}
    deps = {}
    for producer, consumer in edges:
        deps.setdefault(consumer, set()).add(producer)
    space = TaskSpace()
    for i in range(12):
        spawn(
            space[i],
            dependencies=[space[d] for d in sorted(deps.get(i, ()))],
        )(lambda i=i: i)
    runtime = TaskRuntime(workers=1, seed=seed)
    runtime.run(space)
    assert runtime.violations == []
    position = {name: k for k, name in enumerate(runtime.completion_order)}
    assert len(position) == 12
    for producer, consumer in edges:
        assert position[f"T[{producer}]"] < position[f"T[{consumer}]"]
