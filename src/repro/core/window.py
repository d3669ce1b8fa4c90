"""Window-based multi-statement scheduling and the adaptive size search
(paper Sections 4.3 and 4.4).

A *window* is a run of consecutive statement instances in execution order
(a window of 8 over a 4-statement loop body spans 2 iterations).  Within a
window, the ``variable2node_map`` carries forward which L1s hold which
blocks because of already-scheduled subcomputations, so later statements'
MSTs can exploit the copies (NDP + data reuse together).  The map resets at
window boundaries — that boundary is precisely why the window size matters
(Figure 12's worked example).

:class:`WindowSizeSearch` is the preprocessing step of Section 4.4: try
every window size from 1 to 8 statements on the nest, measure the resulting
total data movement, and keep the best.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


from repro import check
from repro.arch.machine import Machine
from repro.check import invariants
from repro.core.balancer import LoadBalancer
from repro.core.locator import DataLocator, VariableToNodeMap
from repro.core.scheduler import (
    StatementSchedule,
    schedule_star,
    schedule_statement,
    star_cost,
)
from repro.core.splitter import StatementSplit, split_statement
from repro.core.syncgraph import SyncGraph
from repro.errors import SchedulingError
from repro.ir.dependence import DependenceKind, instance_dependences
from repro.ir.loop import LoopNest
from repro.ir.program import Program
from repro.ir.statement import StatementInstance
from repro.obs.tracer import get_tracer

#: The paper found no nest preferring more than 8 statements (footnote 4).
MAX_WINDOW_SIZE = 8

#: Split only when the MST saves at least this many links per instance
#: over the unsplit execution: each cross-node result message costs a
#: synchronization and serializes dependence chains, so marginal splits
#: are not worth taking.
SPLIT_BIAS = 3.0

#: The size search measures candidate window sizes on this many leading
#: statement instances of a nest.  Loop bodies repeat, so a prefix is
#: representative, and the search stays cheap.
SEARCH_SAMPLE_INSTANCES = 768


@dataclass(frozen=True)
class WindowConfig:
    """Knobs of the window scheduler.

    ``reuse_aware=False`` reproduces the paper's reuse-agnostic ablation
    (Section 6.3): the variable2node map is neither consulted nor updated.
    ``l1_model_blocks`` caps the compiler's per-node L1 model — the source
    of the modeled cache-pollution penalty for oversized windows.
    """

    reuse_aware: bool = True
    l1_model_blocks: int = 64
    flatten_products: bool = False
    #: Force MST splitting even when the unsplit gather-at-store execution
    #: moves less data (ablation knob; the production path picks the better
    #: of the two per statement).
    always_split: bool = False


@dataclass
class WindowSchedule:
    """All statement schedules of one window plus its sync graph."""

    schedules: List[StatementSchedule]
    sync_graph: SyncGraph
    syncs_before_minimization: int
    syncs_after_minimization: int

    @cached_property
    def movement(self) -> int:
        """Total data movement of the window (sum of member MSTs)."""
        return sum(s.movement for s in self.schedules)

    @property
    def statement_count(self) -> int:
        """Statement instances scheduled in this window."""
        return len(self.schedules)


@dataclass
class NestSchedule:
    """The complete schedule of one loop nest at one window size."""

    nest_name: str
    window_size: int
    windows: List[WindowSchedule]

    @property
    def movement(self) -> int:
        """Total data movement across every window of the nest."""
        return sum(w.movement for w in self.windows)

    @property
    def statement_count(self) -> int:
        """Statement instances scheduled across the nest."""
        return sum(w.statement_count for w in self.windows)

    @property
    def subcomputation_count(self) -> int:
        """Total subcomputations across the nest's windows."""
        return sum(
            len(s.subcomputations) for w in self.windows for s in w.schedules
        )

    @property
    def l1_hits_modeled(self) -> int:
        """Compile-time L1 reuse hits modeled across the nest."""
        return sum(s.l1_hits_modeled for w in self.windows for s in w.schedules)

    @property
    def gathers(self) -> int:
        """Total operand-gather messages across the nest."""
        return sum(s.gathers for w in self.windows for s in w.schedules)

    @property
    def sync_count(self) -> int:
        """Synchronization arcs after transitive-closure minimization."""
        return sum(w.syncs_after_minimization for w in self.windows)

    @property
    def sync_count_unminimized(self) -> int:
        """Synchronization arcs before minimization."""
        return sum(w.syncs_before_minimization for w in self.windows)

    def statement_schedules(self) -> Iterator[StatementSchedule]:
        """Every member statement schedule, in program order."""
        for window in self.windows:
            yield from window.schedules

    def per_statement_movement(self) -> List[int]:
        """Each member statement's movement, in program order."""
        return [s.movement for s in self.statement_schedules()]

    def parallel_degrees(self) -> List[int]:
        """Per-statement distinct-node counts across the nest."""
        return [s.parallel_degree() for s in self.statement_schedules()]

    def remapped_op_breakdown(self) -> Dict[str, int]:
        """Operator counts of re-mapped (non-home) subcomputations (Table 3)."""
        counts: Dict[str, int] = {}
        for schedule in self.statement_schedules():
            for op, count in schedule.remapped_op_breakdown().items():
                counts[op] = counts.get(op, 0) + count
        return counts


class WindowScheduler:
    """Schedules statement instances window by window."""

    def __init__(
        self,
        machine: Machine,
        locator: DataLocator,
        config: WindowConfig = WindowConfig(),
        balancer: Optional[LoadBalancer] = None,
        uid_counter: Optional[Iterator[int]] = None,
        fallback_nodes: Optional[Dict[int, int]] = None,
        split_plan: Optional[Dict[Tuple[str, int], bool]] = None,
        session=None,
        templates=None,
    ):
        """A scheduler sharing the caller's uid stream, templates, and session."""
        self.machine = machine
        self.locator = locator
        self.config = config
        # The session carries the pipeline shape: a skipped ``balance``
        # pass disables the 10% veto (placement takes the minimum-movement
        # candidate unconditionally), a skipped ``sync_minimize`` leaves
        # window sync graphs unminimized.
        self._session = session
        balance_enabled = session is None or session.pass_enabled("balance")
        self.balancer = balancer or LoadBalancer(
            machine.node_count, enabled=balance_enabled
        )
        # Vectorized fast path and the one split memo: per-nest location
        # tables + signature-deduped split templates (repro.core.vectorized),
        # shared by every candidate plan's size trials and scheduling.
        # ``templates_for`` hands out None for a stateful predictor (the
        # ideal-analysis oracle), whose answers depend on the query stream,
        # so every split then issues exactly the scalar path's queries.
        self._templates = templates
        self._tables = templates.tables if templates is not None else None
        # Shared across nests (and window-size trials) so uids stay unique
        # within one compilation.
        self._uid_counter = uid_counter if uid_counter is not None else itertools.count()
        # seq -> default-placement node: where an unsplit statement runs
        # (the paper optimizes on top of the default assignment).
        self.fallback_nodes = fallback_nodes or {}
        # Static per-statement split decisions from the profiling pass; when
        # absent, the scheduler falls back to a per-instance model compare.
        self.split_plan = split_plan
        # Persistent model of the real L1 contents under the schedule being
        # built (real caches do not forget at window boundaries): stars
        # record their blocks at their execution node, splits at their
        # gather nodes.  Used for expected-hit marking and for the
        # split-vs-unsplit movement comparison; the window-scoped
        # ``variable2node_map`` remains the reuse-candidate source, as in
        # Algorithm 1.
        self._l1_model = VariableToNodeMap(
            per_node_capacity=machine.l1_config.line_count
        )

    def schedule_window(
        self,
        instances: Sequence[StatementInstance],
        sync_graph: bool = True,
    ) -> WindowSchedule:
        """Schedule one window of consecutive statement instances.

        ``sync_graph=False`` skips building and minimizing the window's
        synchronization graph (the schedules and their movement are
        unaffected) — used by the window-size search, whose trials consume
        only the movement totals and discard the schedules.
        """
        var2node = (
            VariableToNodeMap(self.config.l1_model_blocks)
            if self.config.reuse_aware
            else None
        )
        schedules: List[StatementSchedule] = []
        # With the nest's tables fully materialized, a split is a pure
        # function of the instance (no page-translation or predictor side
        # effects), so statements whose plan already says "don't split" can
        # skip the MST work entirely.  The scalar path must still split
        # first: its leaf locates are the canonical first touch of the
        # instance's pages.
        lazy_split = (
            self._tables is not None
            and self._tables.covered >= self._tables.instance_count
        )
        for instance in instances:
            split = None if lazy_split else self._split_of(instance, var2node)
            # Split only when the MST actually beats the unsplit default
            # execution (data movement is the first-class metric; a split
            # that moves *more* data is never taken).
            fallback = self.fallback_nodes.get(instance.seq)
            if self.config.always_split:
                decision = True
            elif self.split_plan is not None and instance.static_key in self.split_plan:
                decision = self.split_plan[instance.static_key]
            else:
                if split is None:
                    split = self._split_of(instance, var2node)
                unsplit = star_cost(
                    instance,
                    self.locator,
                    self._l1_model,
                    fallback,
                    tables=self._tables,
                )
                decision = split.mst_weight + SPLIT_BIAS <= unsplit
            if decision:
                if split is None:
                    split = self._split_of(instance, var2node)
                schedules.append(
                    schedule_statement(
                        split,
                        self.locator,
                        self.balancer,
                        self._uid_counter,
                        var2node,
                        hit_model=self._l1_model,
                        tables=self._tables,
                    )
                )
            else:
                schedules.append(
                    schedule_star(
                        instance,
                        self.locator,
                        self.balancer,
                        self._uid_counter,
                        var2node,
                        fallback,
                        hit_model=self._l1_model,
                        tables=self._tables,
                    )
                )
        if not sync_graph:
            return WindowSchedule(schedules, SyncGraph(), 0, 0)
        if len(schedules) == 1 and len(schedules[0].subcomputations) == 1:
            # A singleton window whose one statement stayed whole has no
            # sync arcs by construction (no child results, no second
            # instance to depend on) — skip building and minimizing the
            # graph.
            return WindowSchedule(schedules, SyncGraph(), 0, 0)
        graph = self._build_sync_graph(instances, schedules)
        before = graph.arc_count()
        after = graph.minimize_in(self._session)
        tracer = get_tracer()
        if tracer.debug:
            # Per-window events are a firehose (thousands of windows per
            # nest); aggregate sync counts always appear in the nest span.
            tracer.point(
                "sync.minimize",
                window_start_seq=instances[0].seq if instances else -1,
                statements=len(schedules),
                arcs_before=before,
                arcs_after=after,
            )
        return WindowSchedule(schedules, graph, before, after)

    def _split_of(
        self,
        instance: StatementInstance,
        var2node: Optional[VariableToNodeMap],
    ) -> StatementSplit:
        """Split ``instance``, from the nest's templates where they apply.

        Against an empty (or absent) ``variable2node_map`` — the first
        statement of every window, any statement when reuse is off — the
        templates return the memoized empty-map split.  Mid-window, a
        statement none of whose operand blocks the map holds gets the same
        empty-map split (every ``locate`` would return empty ``l1_copies``);
        otherwise the skeleton replay answers from the tables plus the map.
        Without templates every split is a fresh scalar
        :func:`split_statement`.
        """
        templates = self._templates
        if templates is not None:
            if var2node is None or len(var2node) == 0:
                return templates.split(instance)
            if templates.blocks_held(instance, var2node):
                split = templates.split_with_map(instance, var2node)
            else:
                split = templates.split(instance)
            if split is not None:
                if check.enabled():
                    # The split must equal a scalar recompute against the
                    # actual window map (for a no-overlap statement: the
                    # claim that the map does not change its split).
                    invariants.check_split_cache_hit(
                        split,
                        split_statement(
                            instance,
                            self.locator,
                            var2node,
                            flatten_products=self.config.flatten_products,
                        ),
                    )
                return split
        return split_statement(
            instance,
            self.locator,
            var2node,
            flatten_products=self.config.flatten_products,
        )

    def _build_sync_graph(
        self,
        instances: Sequence[StatementInstance],
        schedules: Sequence[StatementSchedule],
    ) -> SyncGraph:
        """Intra-statement join syncs + inter-statement dependence syncs."""
        graph = SyncGraph()
        for schedule in schedules:
            for producer, consumer in schedule.sync_arcs():
                graph.add_arc(producer, consumer)
        by_seq = {s.instance.seq: s for s in schedules}
        for dep in instance_dependences(list(instances)):
            if dep.src_seq == dep.dst_seq:
                continue
            producer = by_seq.get(dep.src_seq)
            consumer = by_seq.get(dep.dst_seq)
            if producer is None or consumer is None:
                continue
            targets = self._consumers_of(consumer, dep)
            for uid in targets:
                # Producers belong to an earlier statement, so no cycle risk.
                if producer.final_uid != uid:
                    graph.add_arc(producer.final_uid, uid)
        return graph

    @staticmethod
    def _consumers_of(schedule: StatementSchedule, dep) -> List[int]:
        """Subcomputations of ``schedule`` that touch the dependent access."""
        if dep.kind is DependenceKind.FLOW:
            uids = [
                sub.uid
                for sub in schedule.subcomputations
                for g in sub.gathered
                if g.access == dep.access
            ]
            return uids or [schedule.final_uid]
        # Anti/output dependences serialize against the consumer's store.
        return [schedule.final_uid]

    def schedule_nest(
        self, program: Program, nest: LoopNest, window_size: int
    ) -> NestSchedule:
        """Schedule a whole nest with a fixed window size."""
        if window_size < 1:
            raise SchedulingError(f"window size must be >= 1, got {window_size}")
        windows: List[WindowSchedule] = []
        buffer: List[StatementInstance] = []
        for instance in program.nest_instances(nest, program.seq_base_of(nest)):
            buffer.append(instance)
            if len(buffer) == window_size:
                windows.append(self.schedule_window(buffer))
                buffer = []
        if buffer:
            windows.append(self.schedule_window(buffer))
        return NestSchedule(nest.name, window_size, windows)


@dataclass
class SearchOutcome:
    """One nest's schedule, its window size, and each measured size's movement.

    The adaptive search measures sizes 1..8; a schedule at a size that was
    not searched carries that one size.
    """

    nest_name: str
    best_size: int
    best_schedule: NestSchedule
    movement_by_size: Dict[int, int]


class WindowSizeSearch:
    """Section 4.4's preprocessing: pick the per-nest window size."""

    def __init__(
        self,
        machine: Machine,
        locator: DataLocator,
        config: WindowConfig = WindowConfig(),
        uid_counter: Optional[Iterator[int]] = None,
        fallback_nodes: Optional[Dict[int, int]] = None,
        split_plan: Optional[Dict[Tuple[str, int], bool]] = None,
        session=None,
        templates=None,
    ):
        """A search owning (or sharing) the uid stream its trials consume."""
        self.machine = machine
        self.locator = locator
        self.config = config
        self.uid_counter = uid_counter if uid_counter is not None else itertools.count()
        # Per-nest split templates shared by every trial and the final
        # schedule: window-opening splits are identical regardless of window
        # size, so their MST work is done once.  The schedule pass hands the
        # same templates to every candidate plan's search too — splits
        # depend only on the operands, not on the split *plan*.
        self._templates = templates
        self.fallback_nodes = fallback_nodes
        self.split_plan = split_plan
        # Forwarded to every trial scheduler (inline-pass gating).
        self._session = session

    def search(self, program: Program, nest: LoopNest) -> SearchOutcome:
        """Try window sizes 1..8, keep the one minimizing data movement.

        Candidate sizes are measured on a leading sample of the nest's
        instance stream (loop bodies repeat, so the prefix is
        representative); the winning size then schedules the whole nest.
        """
        sampled = self.search_sample(program, nest, SEARCH_SAMPLE_INSTANCES)
        final = self._scheduler().schedule_nest(program, nest, sampled.best_size)
        return SearchOutcome(
            nest.name, sampled.best_size, final, sampled.movement_by_size
        )

    def search_sample(self, program: Program, nest: LoopNest, sample: int) -> SearchOutcome:
        """Best size over the nest's leading ``sample`` instances.

        The returned schedule is empty: only the size and the movement of
        every candidate size are measured; the smallest best size wins
        ties.  The sampled instance stream is materialized once and shared
        by all trials (it is identical for every size), as are the
        window-opening statement splits (via the templates) and the
        :class:`DataLocator`.  Each trial still gets a fresh scheduler +
        load balancer — their state is what the trial measures, so only
        the stateless work is hoisted out of the loop.
        """
        tracer = get_tracer()
        search_span = tracer.span(
            "window.search", nest=nest.name, sample=sample
        )
        instances = self._sample_instances(program, nest, sample)
        movement_by_size = {
            size: self._sampled_movement(self._scheduler(), instances, size)
            for size in range(1, MAX_WINDOW_SIZE + 1)
        }
        best_size = min(movement_by_size, key=lambda s: (movement_by_size[s], s))
        if tracer.enabled:
            for size in sorted(movement_by_size):
                tracer.point(
                    "window.candidate",
                    nest=nest.name,
                    size=size,
                    movement=movement_by_size[size],
                )
        search_span.add(best_size=best_size, movement=movement_by_size[best_size])
        search_span.end()
        empty = NestSchedule(nest.name, best_size, [])
        return SearchOutcome(nest.name, best_size, empty, movement_by_size)

    def _scheduler(self) -> WindowScheduler:
        # No explicit balancer: each trial's WindowScheduler builds its own
        # fresh one (honoring the session's balance gating), so trials stay
        # apples-to-apples.
        return WindowScheduler(
            self.machine,
            self.locator,
            self.config,
            uid_counter=self.uid_counter,
            fallback_nodes=self.fallback_nodes,
            split_plan=self.split_plan,
            session=self._session,
            templates=self._templates,
        )

    def _sample_instances(
        self, program: Program, nest: LoopNest, sample: int
    ) -> List[StatementInstance]:
        """The nest's leading ``sample`` instances, materialized once."""
        stream = program.nest_instances(nest, program.seq_base_of(nest))
        return list(itertools.islice(stream, sample))

    @staticmethod
    def _sampled_movement(
        scheduler: WindowScheduler,
        instances: Sequence[StatementInstance],
        size: int,
    ) -> int:
        """Movement of ``size``-windows over the materialized sample."""
        movement = 0
        for start in range(0, len(instances), size):
            window = instances[start : start + size]
            movement += scheduler.schedule_window(window, sync_graph=False).movement
        return movement

