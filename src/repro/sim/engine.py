"""The execution engine.

Event-driven simulation over subcomputation units.  Each mesh node is a
serial executor (one core per node; units assigned to a node run in order);
units wait for (1) their node to be free, (2) results from child
subcomputations (a cross-node result is a network message plus a
point-to-point synchronization), and (3) memory dependences — flow, anti
and output — against earlier units, discovered by a last-writer scan over
the whole schedule, so correctness does not rely on the compiler having
put every needed arc in its window-local sync graph.

Memory accesses go through real caches: the compiler *predicted* hit/miss
and L1 reuse when it scheduled; the simulator measures what actually
happens, which is how over-sized windows show their L1-pollution penalty
(Figures 20/21).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import check
from repro.arch.machine import Machine
from repro.cache.hierarchy import CacheSystem
from repro.check import invariants
from repro.core.subcomputation import Subcomputation
from repro.errors import SimulationError
from repro.noc.network import NetworkModel, NetworkParams
from repro.obs.tracer import get_tracer
from repro.sim.energy import EnergyModel, EnergyParams
from repro.sim.metrics import SimMetrics

#: With tracing enabled, the engine emits a ``sim.epoch`` counter snapshot
#: every this many completed units (units & (EPOCH-1) == 0, so keep it a
#: power of two).  Purely observational; no simulation state depends on it.
TRACE_EPOCH_UNITS = 4096


@dataclass(frozen=True)
class SimConfig:
    """Timing constants and isolation knobs of the simulator."""

    l1_latency: float = 2.0
    l2_latency: float = 14.0
    cycles_per_op: float = 1.0
    sync_cycles: float = 8.0
    #: Hardware thread contexts per node (KNL cores are 4-way SMT): units
    #: waiting on a synchronization or a remote result do not block the
    #: node's other contexts.
    contexts_per_node: int = 4
    #: Outstanding-miss overlap within one subcomputation: the unit's memory
    #: time is its slowest access plus the rest divided by this factor
    #: (hardware overlaps independent misses; both schemes benefit equally).
    memory_level_parallelism: float = 4.0
    network: NetworkParams = NetworkParams()
    energy: EnergyParams = EnergyParams()

    # -- isolation knobs (Figures 17/18/23) --------------------------------
    ideal_network: bool = False        # messages cost 0 cycles (Fig 17 bar 2)
    hop_latency_scale: float = 1.0     # scale network latencies (Fig 18 S2)
    compute_scale: float = 1.0         # scale compute time (Fig 18 S3)
    extra_sync_cycles: float = 0.0     # additional per-sync cost (Fig 18 S4)
    per_unit_overhead_cycles: float = 0.0  # flat service overhead (Fig 18 S4)
    forced_l1_hit_rate: Optional[float] = None  # enforce an L1 profile (S1)
    mc_override: Optional[Dict[int, int]] = None  # page -> MC node (Fig 23)


class Simulator:
    """Runs one schedule on one machine.

    A simulator is one-shot.  ``run(units)`` simulates a whole schedule;
    it is :meth:`feed` of every unit followed by :meth:`finish`.  A
    schedule can also be fed in batches, each of whose seqs all come
    after every seq fed before (the empirical gate feeds one window at a
    time).  Every dependence arc points to the same or a later seq, and
    the ready heap pops by ``(seq, uid)``, so a run finishes every unit
    of seq ``< S`` before it starts one of seq ``>= S``: draining the
    heap after each batch pops the same units in the same order as one
    batch run.  Between feeds, ``metrics.data_movement`` and
    :attr:`latest_finish` read the totals of the units fed so far; both
    only grow.
    """

    def __init__(self, machine: Machine, config: SimConfig = SimConfig()):
        self.machine = machine
        self.config = config
        self.caches = CacheSystem(
            machine.node_count,
            machine.l1_config,
            machine.l2_config,
            machine.bank_to_node,
        )
        # A machine with an applied fault plan routes through its
        # fault-aware router (detours charge their true link count); a
        # pristine machine keeps the plain XY fast path, bit-identical to
        # the fault-free engine.
        plan = machine.faults
        self._fault_mode = plan is not None and not plan.is_empty
        router = machine.router if self._fault_mode else None
        self.network = NetworkModel(machine.mesh, config.network, router=router)
        self.energy_model = EnergyModel(config.energy)
        self._forced_counter = 0
        # Fast-path distance callable (nested-list indexing, no bounds
        # checks): all simulated src/dst are valid mesh node ids.
        self._manhattan = machine.mesh.distance_fn()
        if self._fault_mode:
            # Epoch-aware: reflects mid-run fault activations immediately.
            self._distance = machine.router.hops
        else:
            self._distance = self._manhattan

        # -- run state, kept across feeds ----------------------------------
        self.metrics = SimMetrics()
        #: Latest finish time of any unit run so far (the run's cycles
        #: once every unit has run).
        self.latest_finish = 0.0
        self._started = False
        self._last_seq: Optional[int] = None
        self._by_uid: Dict[int, Subcomputation] = {}
        # Dependence arcs of units not yet run: preds (producer uid,
        # is_memory) and succs; a unit's entries go once it has run.
        self._preds: Dict[int, List[Tuple[int, bool]]] = {}
        self._succs: Dict[int, List[int]] = {}
        self._indegree: Dict[int, int] = {}
        self._ready: List[Tuple[int, int]] = []
        self._finish: Dict[int, float] = {}
        # The last-writer scan's state (memory arcs of later batches).
        self._last_writer: Dict[Tuple[str, int], int] = {}
        self._readers: Dict[Tuple[str, int], List[int]] = {}
        # Each node is a K-context server (SMT): a unit occupies the
        # earliest-free context; waits for remote results overlap with
        # other contexts' work.
        self._node_ctx: Dict[int, List[float]] = {}
        self._processed = 0
        self._statement_count = 0
        self._weighted_ops = 0
        # -- fault state (only consulted when a non-empty plan is applied).
        # ``dead_*`` track the faults active *so far* (static + activated
        # mid-run events); ``exec_node`` records where each unit actually
        # ran, which differs from unit.node for relocated units.
        self._pending_faults: List = []
        self._dead_nodes: Set[int] = set()
        self._dead_links: Set[Tuple[int, int]] = set()
        self._relocation: Dict[int, int] = {}
        self._exec_node: Dict[int, int] = {}

    def _start(self) -> None:
        """Cold machine-side state for this run (on the first feed).

        Every run starts from cold memory-side (MCDRAM) cache tags, as it
        does from fresh L1 and L2 caches, and from the plan's static
        faults, whatever an earlier simulation on the same machine left
        behind.  Only a run with mid-run faults changes the router, so a
        plan without them never reinstalls (and keeps its route cache).
        """
        self._started = True
        machine = self.machine
        machine.mcdram.reset()
        if self._fault_mode:
            plan = machine.faults
            self._pending_faults = plan.midrun_events()
            self._dead_nodes = set(plan.static_dead_nodes())
            self._dead_links = set(plan.static_dead_links())
            if not machine.router.holds(self._dead_links, self._dead_nodes):
                machine.router.set_faults(self._dead_links, self._dead_nodes)

    # -- network helpers ----------------------------------------------------

    def _message(self, src: int, dst: int, seq: int, metrics: SimMetrics) -> float:
        """Send one data flit; returns latency, records traffic/movement."""
        if src == dst:
            return 0.0
        config = self.config
        latency = self.network.send(src, dst, flits=1)
        hops = self._distance(src, dst)
        metrics.data_movement += hops
        metrics.movement_by_seq[seq] += hops
        if self._fault_mode:
            extra = hops - self._manhattan(src, dst)
            if extra:
                metrics.detour_extra_hops += extra
        if config.ideal_network:
            return 0.0
        return latency * config.hop_latency_scale

    def _request_latency(self, src: int, dst: int) -> float:
        """A small request message: latency only, no data movement charged."""
        config = self.config
        if src == dst or config.ideal_network:
            return 0.0
        hops = self._distance(src, dst)
        return hops * config.network.router_cycles * config.hop_latency_scale

    # -- memory access ------------------------------------------------------

    def _forced_l1_outcome(self, block: int) -> bool:
        """Deterministic hit/miss stream matching a target hit rate (S1)."""
        rate = self.config.forced_l1_hit_rate
        assert rate is not None
        self._forced_counter += 1
        value = (block * 2654435761 + self._forced_counter * 40503) % (1 << 20)
        return value < rate * (1 << 20)

    def _access(self, node: int, array: str, index: int, seq: int, metrics: SimMetrics) -> float:
        """One load at ``node``; returns its latency contribution."""
        machine = self.machine
        config = self.config
        layout = machine.layout
        block = layout.block_of(array, index)
        bank = layout.l2_bank_of(array, index)
        home = machine.home_node(array, index)

        real_hit = self.caches.l1s[node].access(block)
        l1_hit = (
            self._forced_l1_outcome(block)
            if config.forced_l1_hit_rate is not None
            else real_hit
        )
        latency = config.l1_latency
        if l1_hit:
            metrics.l1_hits += 1
            return latency
        metrics.l1_misses += 1

        latency += self._request_latency(node, home)
        l2_hit = self.caches.l2_banks[bank].access(block)
        latency += config.l2_latency
        if l2_hit:
            metrics.l2_hits += 1
            latency += self._message(home, node, seq, metrics)
            return latency
        metrics.l2_misses += 1

        # L2 miss: forward to the serving controller, then data flows
        # MC -> home bank -> requesting L1 (Figure 1's steps 2..5).
        if config.mc_override:
            page = layout.page_of(array, index)
            mc = config.mc_override.get(
                page, machine.mc_node(array, index, requester=node)
            )
        else:
            mc = machine.mc_node(array, index, requester=node)
        latency += self._request_latency(home, mc)
        memory_cycles = machine.memory_access_cycles(array, index)
        latency += memory_cycles
        metrics.memory_accesses += 1
        metrics.memory_cycles += memory_cycles
        metrics.energy_breakdown["memory"] = metrics.energy_breakdown.get(
            "memory", 0.0
        ) + machine.memory_access_energy_pj(array)
        latency += self._message(mc, home, seq, metrics)
        latency += self._message(home, node, seq, metrics)
        return latency

    # -- dependence construction ---------------------------------------------

    @staticmethod
    def _memory_arcs(
        units: Sequence[Subcomputation],
        last_writer: Optional[Dict[Tuple[str, int], int]] = None,
        readers: Optional[Dict[Tuple[str, int], List[int]]] = None,
    ) -> List[Tuple[int, int, bool]]:
        """(producer uid, consumer uid, is_flow) arcs from a last-writer scan.

        Units are scanned in program order by statement instance (seq).
        Within one instance, *all* reads happen before the write — statement
        semantics — regardless of unit creation order (folding can give the
        final store a lower uid than the units feeding it).  ``last_writer``
        and ``readers`` carry the scan across calls: scanning a schedule
        batch by batch, each batch's seqs after the last's, gives the arcs
        of one scan over the whole schedule.
        """
        by_seq: Dict[int, List[Subcomputation]] = {}
        for unit in units:
            by_seq.setdefault(unit.seq, []).append(unit)
        arcs: List[Tuple[int, int, bool]] = []
        if last_writer is None:
            last_writer = {}
        if readers is None:
            readers = {}
        for seq in sorted(by_seq):
            group = sorted(by_seq[seq], key=lambda u: u.uid)
            for unit in group:  # reads of the whole instance first
                for gathered in unit.gathered:
                    key = gathered.access.key()
                    writer = last_writer.get(key)
                    if writer is not None and writer != unit.uid:
                        arcs.append((writer, unit.uid, True))
                    readers.setdefault(key, []).append(unit.uid)
            for unit in group:  # then the instance's writes
                if unit.store is None:
                    continue
                key = unit.store.key()
                for reader in readers.get(key, ()):  # anti
                    if reader != unit.uid:
                        arcs.append((reader, unit.uid, False))
                writer = last_writer.get(key)
                if writer is not None and writer != unit.uid:  # output
                    arcs.append((writer, unit.uid, False))
                last_writer[key] = unit.uid
                readers[key] = []
        return arcs

    # -- fault handling ------------------------------------------------------

    def _activate_faults(self, processed: int) -> None:
        """Apply every mid-run fault whose activation epoch has passed.

        Grows the live dead-link / dead-node sets, clears the relocation
        targets (they were chosen against the old fault set), and installs
        the new configuration into the machine's router — which bumps the
        fault epoch and drops the detour cache.  The next run on this
        machine reinstalls the static faults (:meth:`_start`).
        """
        from repro.faults.plan import NodeFault

        tracer = get_tracer()
        pending = self._pending_faults
        while pending and processed >= pending[0][0]:
            at_unit, fault = pending.pop(0)
            if isinstance(fault, NodeFault):
                self._dead_nodes.add(fault.node)
            else:
                self._dead_links.update(fault.directed())
            self.metrics.fault_events += 1
            if tracer.enabled:
                tracer.point(
                    "fault.activate",
                    at_unit=at_unit,
                    units_done=processed,
                    fault=repr(fault),
                )
        self._relocation.clear()
        self.machine.router.set_faults(self._dead_links, self._dead_nodes)

    def _relocate(self, unit) -> int:
        """Nearest surviving tile for a unit whose home tile is offline."""
        node = unit.node
        relocation = self._relocation
        target = relocation.get(node)
        if target is None:
            dead_nodes = self._dead_nodes
            alive = [
                n for n in range(self.machine.node_count) if n not in dead_nodes
            ]
            if not alive:
                raise SimulationError("fault plan killed every tile mid-run")
            distance = self._manhattan
            target = min(alive, key=lambda n: (distance(node, n), n))
            relocation[node] = target
        self.metrics.fault_relocations += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.point("fault.relocate", uid=unit.uid, src=node, dst=target)
        return target

    # -- main loop --------------------------------------------------------------

    def run(self, units: Sequence[Subcomputation]) -> SimMetrics:
        """Simulate ``units``; returns the filled :class:`SimMetrics`.

        With tracing enabled (:mod:`repro.obs`), the run is wrapped in a
        ``sim.run`` span with periodic ``sim.epoch`` counter snapshots;
        tracing reads counters only and never alters the simulation.
        """
        sim_span = None
        if units:
            if check.enabled():
                # Check mode: the schedule must be a well-formed dependence
                # DAG before a single event is simulated.
                invariants.check_units_wellformed(units)
            tracer = get_tracer()
            if tracer.enabled:
                sim_span = tracer.span("sim.run", units=len(units))
        self.feed(units)
        metrics = self.finish()
        if sim_span is not None:
            sim_span.add(
                cycles=metrics.total_cycles,
                movement=metrics.data_movement,
                l1_hit_rate=round(metrics.l1_hit_rate(), 6),
                l2_hit_rate=round(metrics.l2_hit_rate(), 6),
                syncs=metrics.sync_count,
                energy_pj=metrics.energy_pj,
            )
            sim_span.end()
        return metrics

    def feed(self, units: Sequence[Subcomputation]) -> None:
        """Add a batch of units and run until the ready heap drains.

        Every seq in ``units`` must come after every seq fed before; a
        batch that does not raises :class:`SimulationError`.  The batch's
        memory arcs continue the last-writer scan, and every unit fed so
        far has run when this returns (unless a dependence cycle, which
        :meth:`finish` reports, holds some back).
        """
        if not self._started:
            self._start()
        if not units:
            return
        first = min(unit.seq for unit in units)
        if self._last_seq is not None and first <= self._last_seq:
            raise SimulationError(
                f"fed seq {first} after seq {self._last_seq}: each batch "
                "must follow every seq fed before"
            )
        self._last_seq = max(unit.seq for unit in units)
        by_uid = self._by_uid
        preds = self._preds
        succs = self._succs
        indegree = self._indegree
        done = self._finish
        statements = set()
        weighted_ops = self._weighted_ops
        for unit in units:
            uid = unit.uid
            if uid in by_uid:
                raise SimulationError("duplicate subcomputation uids in schedule")
            by_uid[uid] = unit
            preds[uid] = []
            succs[uid] = []
            indegree[uid] = 0
            statements.add(unit.seq)
            weighted_ops += unit.cost
        self._weighted_ops = weighted_ops
        self._statement_count += len(statements)

        # Dependence arcs: dataflow (sub_results) + memory order.  A
        # producer that already ran only lends its finish time.
        def arc(producer: int, consumer: int, is_memory: bool) -> None:
            preds[consumer].append((producer, is_memory))
            if producer not in done:
                succs[producer].append(consumer)
                indegree[consumer] += 1

        for unit in units:
            for result in unit.sub_results:
                if result.producer_uid not in by_uid:
                    raise SimulationError(
                        f"unit {unit.uid} consumes unknown producer "
                        f"{result.producer_uid}"
                    )
                arc(result.producer_uid, unit.uid, False)
        for producer, consumer, _is_flow in self._memory_arcs(
            units, self._last_writer, self._readers
        ):
            arc(producer, consumer, True)

        ready = self._ready
        ready.extend((unit.seq, unit.uid) for unit in units if not indegree[unit.uid])
        heapq.heapify(ready)
        self._drain()

    def _drain(self) -> None:
        """Run ready units in ``(seq, uid)`` order until the heap is empty."""
        tracer = get_tracer()
        trace_on = tracer.enabled
        config = self.config
        contexts = max(config.contexts_per_node, 1)
        sync_cost = config.sync_cycles + config.extra_sync_cycles
        mlp = max(config.memory_level_parallelism, 1.0)
        cycles_per_op = config.cycles_per_op
        compute_scale = config.compute_scale
        per_unit_overhead = config.per_unit_overhead_cycles
        access = self._access
        message = self._message
        heappush = heapq.heappush
        heappop = heapq.heappop
        metrics = self.metrics
        ready = self._ready
        by_uid = self._by_uid
        preds = self._preds
        succs = self._succs
        indegree = self._indegree
        finish = self._finish
        node_ctx = self._node_ctx
        processed = self._processed
        latest = self.latest_finish
        fault_mode = self._fault_mode
        pending_faults = self._pending_faults
        dead_nodes = self._dead_nodes
        exec_node = self._exec_node

        while ready:
            _, uid = heappop(ready)
            unit = by_uid[uid]
            node = unit.node
            seq = unit.seq
            del indegree[uid]
            if fault_mode:
                if pending_faults and processed >= pending_faults[0][0]:
                    self._activate_faults(processed)
                if node in dead_nodes:
                    # Graceful degradation: the unit's home tile died; rerun
                    # it on the nearest surviving tile instead of crashing.
                    node = self._relocate(unit)
                exec_node[uid] = node
            servers = node_ctx.get(node)
            if servers is None:
                servers = node_ctx[node] = [0.0] * contexts

            # When are this unit's inputs all present?
            input_ready = 0.0
            # Child results: network message + sync when cross-node.
            for result in unit.sub_results:
                producer = by_uid[result.producer_uid]
                arrival = finish[producer.uid]
                producer_node = (
                    exec_node[producer.uid] if fault_mode else producer.node
                )
                if producer_node != node:
                    arrival += message(producer_node, node, seq, metrics)
                    arrival += sync_cost
                    metrics.sync_count += 1
                if arrival > input_ready:
                    input_ready = arrival

            # Memory-order predecessors.  A cross-node *flow* dependence
            # needs a point-to-point synchronization (the consumer spins on
            # the producer's flag); anti/output order is enforced by the
            # same wait but carries no data.
            for producer_uid, is_memory in preds.pop(uid):
                if not is_memory:
                    continue
                producer = by_uid[producer_uid]
                arrival = finish[producer_uid]
                producer_node = (
                    exec_node[producer_uid] if fault_mode else producer.node
                )
                if producer_node != node:
                    arrival += sync_cost
                    metrics.sync_count += 1
                if arrival > input_ready:
                    input_ready = arrival

            # A blocked thread yields its context (SMT): occupy the context
            # that minimizes the actual service start (ties: lowest index,
            # then earliest-free server — the min-by-key order).
            slot = 0
            slot_free = servers[0]
            best_start = slot_free if slot_free > input_ready else input_ready
            for s in range(1, contexts):
                free = servers[s]
                candidate = free if free > input_ready else input_ready
                if candidate < best_start or (
                    candidate == best_start and free < slot_free
                ):
                    slot = s
                    slot_free = free
                    best_start = candidate
            start = best_start
            wait = input_ready - slot_free
            if wait > 0.0:
                metrics.sync_wait_cycles += wait

            # Gather raw data through the memory hierarchy.  Independent
            # loads overlap up to the configured memory-level parallelism.
            latencies: List[float] = [
                access(node, g.access.array, g.access.index, seq, metrics)
                for g in unit.gathered
            ]
            # The store writes through the hierarchy at the executing node.
            store = unit.store
            if store is not None:
                latencies.append(access(node, store.array, store.index, seq, metrics))
            if latencies:
                slowest = max(latencies)
                rest = sum(latencies) - slowest
                access_time = slowest + rest / mlp
            else:
                access_time = 0.0

            compute_time = unit.cost * cycles_per_op * compute_scale
            end = start + access_time + compute_time + per_unit_overhead
            finish[uid] = end
            if end > latest:
                latest = end
            servers[slot] = end
            metrics.op_count += unit.op_count
            metrics.compute_cycles += compute_time
            processed += 1
            if trace_on and not processed % TRACE_EPOCH_UNITS:
                tracer.point(
                    "sim.epoch",
                    units=processed,
                    movement=metrics.data_movement,
                    l1_hits=metrics.l1_hits,
                    l1_misses=metrics.l1_misses,
                    l2_hits=metrics.l2_hits,
                    l2_misses=metrics.l2_misses,
                    syncs=metrics.sync_count,
                )

            for successor in succs.pop(uid):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    heappush(ready, (by_uid[successor].seq, successor))

        self._processed = processed
        self.latest_finish = latest

    def finish(self) -> SimMetrics:
        """Fill the run's totals once every batch is fed; returns the metrics.

        Raises :class:`SimulationError` when a dependence cycle kept some
        unit from running.  In check mode, the per-link and per-statement
        decompositions must re-sum to the headline movement.
        """
        metrics = self.metrics
        unit_count = len(self._by_uid)
        if not unit_count:
            return metrics
        if self._processed != unit_count:
            raise SimulationError(
                f"schedule has a dependence cycle: ran {self._processed} of "
                f"{unit_count} units"
            )
        metrics.total_cycles = self.latest_finish
        metrics.unit_count = unit_count
        metrics.statement_count = self._statement_count
        metrics.network_messages = self.network.message_count()
        metrics.network_avg_latency = self.network.average_latency()
        metrics.network_max_latency = self.network.max_latency()
        metrics.max_link_load = self.network.traffic.max_link_load()

        breakdown = self.energy_model.compute(
            flit_hops=self.network.traffic.total_flit_hops,
            l1_accesses=metrics.l1_hits + metrics.l1_misses,
            l2_accesses=metrics.l2_hits + metrics.l2_misses,
            memory_energy_pj=metrics.energy_breakdown.get("memory", 0.0),
            weighted_ops=self._weighted_ops,
            syncs=metrics.sync_count,
            cycles=metrics.total_cycles,
        )
        metrics.energy_breakdown = breakdown
        metrics.energy_pj = breakdown["total"]
        metrics.link_flits = dict(self.network.traffic._flits)
        if check.enabled():
            # Conservation: per-link and per-statement decompositions must
            # re-sum exactly to the headline DataMovement metric.
            invariants.check_heatmap_conservation(metrics)
        return metrics


def run_schedule(
    machine: Machine,
    units: Sequence[Subcomputation],
    config: SimConfig = SimConfig(),
) -> SimMetrics:
    """Convenience wrapper: simulate ``units`` on a fresh simulator."""
    return Simulator(machine, config).run(units)
