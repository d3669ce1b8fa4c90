"""Replay a schedule as a concurrent task graph: the simulator's oracle.

:func:`replay` executes a schedule of
:class:`~repro.core.subcomputation.Subcomputation` units as a real task
graph on host threads (DESIGN.md section 15): each unit becomes a task in
a :class:`~repro.check.taskspace.TaskSpace`, its ``sub_results``
producers become task dependencies (the cross-node subset is exactly what
the generated listing renders as ``sync(...)`` waits), and the
simulator's memory-order arcs (flow/anti/output,
:meth:`Simulator._memory_arcs`) are added so the replay respects the same
ordering the simulator enforces.

Data movement is observed, not modeled: a :class:`DataStore` tracks where
blocks live while tasks run — bounded per-node replica sets with the
machine's own L1/L2 cache geometry, homed at the SNUCA bank — and every
remote fill or cross-node result message is charged as routed flit-hops
through a :class:`~repro.noc.traffic.TrafficMatrix`, the per-link
accounting the simulator uses.  One unseeded worker dispatches ready
tasks by ``(seq, uid)``, the simulator's own tie-break, so its movement,
sync count and per-link flit map *equal* ``Simulator.run``'s
(``tests/check/test_replay.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.arch.machine import Machine
from repro.cache.hierarchy import CacheSystem
from repro.check.taskspace import TaskRuntime, TaskSpace, spawn
from repro.core.subcomputation import Subcomputation
from repro.errors import FaultError
from repro.ir.statement import Access
from repro.noc.traffic import TrafficMatrix
from repro.sim.engine import Simulator

#: Relative movement tolerance of a *multi-worker* replay:
#: ``|observed - simulated| <= tolerance * simulated``.  OS interleaving
#: perturbs the replica caches' fill order; measured disagreement at 4
#: workers stays under 0.7% on the five paper workloads, so 0.05 absorbs
#: the jitter with margin while still failing loudly on an accounting bug
#: (dropping the MC leg or the result messages shifts totals by 10%+).
#: One unseeded worker must agree exactly.  Seeded-random dispatch is
#: excluded: it scrambles the execution order on purpose, which
#: legitimately changes what the bounded replica caches observe.
MOVEMENT_AGREEMENT_TOLERANCE = 0.05


class TaskSpec(NamedTuple):
    """One subcomputation as a schedulable task (Figure 8, structured).

    ``deps`` are the producer uids of every consumed child result (the
    dataflow arcs); ``sync_deps`` is the cross-node subset — exactly the
    producers the text listing renders as ``sync(T<uid>)`` waits, because
    a same-node child needs no point-to-point synchronization.
    """

    uid: int
    seq: int
    node: int
    deps: Tuple[int, ...]
    sync_deps: Tuple[int, ...]
    reads: Tuple[Access, ...]
    store: Optional[Access]


def task_spec_of(sub: Subcomputation) -> TaskSpec:
    """The structured task form of one scheduled subcomputation."""
    return TaskSpec(
        uid=sub.uid,
        seq=sub.seq,
        node=sub.node,
        deps=tuple(r.producer_uid for r in sub.sub_results),
        sync_deps=tuple(
            r.producer_uid for r in sub.sub_results if r.from_node != sub.node
        ),
        reads=tuple(g.access for g in sub.gathered),
        store=sub.store,
    )


def task_specs(units: Iterable[Subcomputation]) -> Tuple[TaskSpec, ...]:
    """Structured task records for a unit sequence, in given order."""
    return tuple(task_spec_of(sub) for sub in units)


class DataStore:
    """Where data lives while tasks execute: bounded replica residency.

    Each node's replica set is a real
    :class:`~repro.cache.hierarchy.CacheSystem` with the machine's own
    L1/L2 geometry (bounded LRU lines, SNUCA home banks), so the movement
    a task causes is what the machine would cause:

    * a local replica hit moves nothing;
    * a home-bank hit charges the route home -> node;
    * a cold or evicted block charges the memory-controller leg too
      (MC -> home -> node), Figure 1's steps 2..5;
    * a store write-allocates at the executing node through the same
      path, mirroring the simulator's treatment of ``unit.store``.

    All charging happens under one lock: task bodies on many worker
    threads share the caches and the traffic matrix, and neither is
    thread-safe on its own.
    """

    def __init__(self, machine: Machine, traffic: TrafficMatrix):
        self.machine = machine
        self.traffic = traffic
        self.caches = CacheSystem(
            machine.node_count,
            machine.l1_config,
            machine.l2_config,
            machine.bank_to_node,
        )
        self._lock = threading.Lock()

    def access(self, access: Access, node: int) -> None:
        """Touch ``access`` at ``node``, charging the fill it needs."""
        machine = self.machine
        layout = machine.layout
        block = layout.block_of(access.array, access.index)
        bank = layout.l2_bank_of(access.array, access.index)
        with self._lock:
            if self.caches.l1s[node].access(block):
                return
            home = machine.home_node(access.array, access.index)
            if not self.caches.l2_banks[bank].access(block):
                mc = machine.mc_node(access.array, access.index, requester=node)
                self.traffic.record(mc, home)
            self.traffic.record(home, node)

    def result_message(self, producer_node: int, consumer_node: int) -> None:
        """Charge a cross-node subresult message."""
        with self._lock:
            self.traffic.record(producer_node, consumer_node)


@dataclass
class Replay:
    """What one replay observed, in the simulator's accounting terms."""

    data_movement: int
    link_flits: Dict[Tuple[int, int], int]
    sync_count: int
    #: Unit uids in observed completion order — the sync-order audit
    #: trail the property tests replay.
    completion_order: List[int]
    #: Dependency-order violations the task runtime saw (must be empty).
    sync_violations: List[str]


def replay(
    machine: Machine,
    units: Sequence[Subcomputation],
    workers: int = 1,
    seed: Optional[int] = None,
) -> Replay:
    """Execute ``units`` as a task graph on ``workers`` threads.

    ``workers=1, seed=None`` replays the simulator's dispatch order and
    must match ``Simulator.run`` exactly; ``workers=1, seed=<n>``
    scrambles dispatch reproducibly; ``workers > 1`` is real OS-thread
    concurrency.  Raises :class:`~repro.errors.FaultError` on a machine
    with mid-run faults: the simulator relocates units as those strike,
    and the replay has no relocation path to follow it.
    """
    if machine.faults is not None and machine.faults.midrun_events():
        raise FaultError(
            "replay cannot follow mid-run faults: the simulator relocates "
            "units when they strike, and the task graph has no relocation "
            "path"
        )
    runtime = TaskRuntime(workers=workers, seed=seed)
    specs = task_specs(units)
    node_of: Dict[int, int] = {spec.uid: spec.node for spec in specs}
    traffic = TrafficMatrix(machine.mesh, router=machine.router)
    store = DataStore(machine, traffic)
    space = TaskSpace("U")

    # Ordering arcs beyond dataflow: the simulator's memory-order arcs
    # (flow/anti/output from a last-writer scan), kept as a per-consumer
    # *list* because each cross-node arc is one synchronization — the
    # same edge-level count the simulator reports.
    order_deps: Dict[int, List[int]] = {}
    for producer, consumer, _is_flow in Simulator._memory_arcs(units):
        order_deps.setdefault(consumer, []).append(producer)

    def make_body(spec: TaskSpec):
        def body() -> None:
            # A cross-node child result arrives as a message.
            for producer_uid in spec.sync_deps:
                store.result_message(node_of[producer_uid], spec.node)
            for access in spec.reads:
                store.access(access, spec.node)
            if spec.store is not None:
                store.access(spec.store, spec.node)

        return body

    sync_count = 0
    for spec in specs:
        order = order_deps.get(spec.uid, ())
        # Each cross-node child result waits behind one sync; so does each
        # cross-node memory-order arc, whose data (if any) flows through
        # the residency protocol when the task reads.
        sync_count += len(spec.sync_deps) + sum(
            node_of[producer] != spec.node for producer in order
        )
        # A producer outside ``units``, or a unit consuming its own result,
        # makes the runtime raise TaskError before any task runs.
        spawn(
            space[spec.uid],
            dependencies=[space[d] for d in sorted(set(spec.deps) | set(order))],
            # Dispatch ready tasks in (seq, uid) order — the same
            # tie-break the simulator's ready heap uses, so the unseeded
            # single-worker run replays its access order.
            priority=(spec.seq, spec.uid),
        )(make_body(spec))

    runtime.run(space)
    uid_of = {space[uid].name: uid for uid in node_of}
    return Replay(
        data_movement=traffic.total_flit_hops,
        link_flits={(link.src, link.dst): link.flits for link in traffic.links()},
        sync_count=sync_count,
        completion_order=[uid_of[name] for name in runtime.completion_order],
        sync_violations=list(runtime.violations),
    )


def movement_agreement(observed: int, forecast: int) -> float:
    """Relative disagreement between replayed and simulated movement.

    ``0.0`` is perfect agreement; compare against
    :data:`MOVEMENT_AGREEMENT_TOLERANCE`.  When the forecast is zero the
    replay must also observe zero (any observed flit-hop is infinite
    disagreement, represented as ``float('inf')``).
    """
    if forecast == 0:
        return 0.0 if observed == 0 else float("inf")
    return abs(observed - forecast) / forecast
