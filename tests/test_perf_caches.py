"""Regression tests for the perf-layer caches added on top of the geometry
tables: XY-route memoization, instance-stream memoization (and its
invalidation), the gate shipping the schedule it measured, and the split
templates staying off under stateful predictors."""

from __future__ import annotations

import pickle

from repro.arch.knl import small_machine
from repro.baselines.ideal import OracleL2Predictor
from repro.cache.predictor import HitMissPredictor
from repro.core.locator import DataLocator
from repro.core.vectorized import SplitTemplates, templates_for
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.noc.routing import xy_route_links, xy_route_links_cached, xy_route_nodes
from repro.noc.topology import Mesh2D
from repro.pipeline.session import CompilationSession


class TestRouteCache:
    def test_cached_routes_match_fresh_walk(self):
        mesh = Mesh2D(5, 3)
        for src in range(mesh.node_count):
            for dst in range(mesh.node_count):
                cached = xy_route_links_cached(mesh, src, dst)
                assert list(cached) == [
                    (nodes[i], nodes[i + 1])
                    for nodes in [xy_route_nodes(mesh, src, dst)]
                    for i in range(len(nodes) - 1)
                ]
                assert len(cached) == mesh.distance(src, dst)

    def test_cached_route_is_shared_and_immutable(self):
        mesh = Mesh2D(4, 4)
        first = xy_route_links_cached(mesh, 0, 15)
        second = xy_route_links_cached(mesh, 0, 15)
        assert first is second
        assert isinstance(first, tuple)

    def test_public_api_still_returns_fresh_lists(self):
        mesh = Mesh2D(4, 4)
        a = xy_route_links(mesh, 1, 14)
        b = xy_route_links(mesh, 1, 14)
        assert a == b
        assert a is not b
        a.append(("corrupted", "entry"))
        assert xy_route_links(mesh, 1, 14) == b


def _indirect_program() -> Program:
    program = Program("irr")
    program.declare("X", 64)
    program.declare("Y", 64)
    program.declare("IDX", 64)
    program.set_index_data("IDX", list(range(64)))
    stmt = parse_statement("X(i) = Y(IDX(i))")
    program.add_nest(LoopNest.of([Loop("i", 0, 16)], [stmt], "main"))
    return program


class TestInstanceStreamCache:
    def test_replay_equals_first_generation(self):
        program = _indirect_program()
        first = list(program.nest_instances(program.nests[0]))
        second = list(program.nest_instances(program.nests[0]))
        assert first == second
        assert (program.nests[0].name, 0) in program._instance_cache

    def test_partial_iteration_does_not_cache(self):
        program = _indirect_program()
        stream = program.nest_instances(program.nests[0])
        next(stream)
        del stream
        assert (program.nests[0].name, 0) not in program._instance_cache

    def test_set_index_data_invalidates(self):
        program = _indirect_program()
        before = list(program.nest_instances(program.nests[0]))
        program.set_index_data("IDX", list(reversed(range(64))))
        after = list(program.nest_instances(program.nests[0]))
        assert before != after
        assert [a.reads[0].index for a in after] == [
            63 - b.reads[0].index for b in before
        ]

    def test_pickling_drops_the_cache(self):
        program = _indirect_program()
        list(program.nest_instances(program.nests[0]))
        clone = pickle.loads(pickle.dumps(program))
        assert clone._instance_cache == {}
        assert list(clone.nest_instances(clone.nests[0])) == list(
            program.nest_instances(program.nests[0])
        )


def _canonical_units(units):
    """Units with uids replaced by their rank: absolute uids depend on how
    many candidate plans and size trials drew from the counter first, but
    every consumer depends only on the relative order, so canonicalized
    schedules must be identical."""
    rank = {
        uid: i for i, uid in enumerate(sorted(u.uid for u in units))
    }
    return [
        (
            rank[u.uid],
            u.seq,
            u.node,
            u.op,
            u.op_count,
            u.cost,
            u.gathered,
            tuple(
                (rank[r.producer_uid], r.from_node, r.hops)
                for r in u.sub_results
            ),
            u.store,
        )
        for u in units
    ]


class TestGateScheduleReuse:
    def _gated_program(self):
        from repro.ir.loop import Loop, LoopNest

        p = Program("gated")
        n = 128
        for phase, name in ((2, "B"), (5, "C"), (8, "D")):
            p.declare(name, 8 * n + 16, bank_phase=phase)
        p.declare("A", 4 * n + 16, bank_phase=11)
        p.add_nest(
            LoopNest.of(
                [Loop("t", 0, 2), Loop("i", 0, n)],
                [parse_statement("A(4*i) = B(8*i) + C(8*i) + D(8*i)")],
                "main",
            )
        )
        return p

    def test_reused_schedule_matches_memoization_free_path(self):
        """End-to-end: the fast path (split templates, and the gate's
        measured schedule shipped as is) and the memoization-free path
        (forced via an impure-flagged but behaviorally pure predictor,
        which turns the templates off and schedules the winner again) must
        agree on everything but absolute uid values."""
        self._assert_fast_path_matches(reuse_aware=True)

    def test_reuse_agnostic_schedule_matches_memoization_free_path(self):
        """Same differential with no window map: every split takes the
        templates' empty-map branch."""
        self._assert_fast_path_matches(reuse_aware=False)

    def _assert_fast_path_matches(self, reuse_aware: bool):
        from repro.core.partitioner import NdpPartitioner, PartitionConfig
        from repro.core.window import WindowConfig
        from repro.sim.engine import run_schedule
        from repro.workloads import build_workload

        class _ImpureFlagged(HitMissPredictor):
            # Same answers as the pure predictor; the flag alone turns off
            # the split templates and makes the gate schedule its winner
            # a second time.
            pure_predict = False

        # On small_machine() the all-split plan wins radix at window size
        # 8 (reuse-aware), so the differential covers a searched size.
        for build in (self._gated_program, lambda: build_workload("radix")):
            results = []
            for predictor in (HitMissPredictor(), _ImpureFlagged()):
                machine = small_machine()
                config = PartitionConfig(window=WindowConfig(reuse_aware=reuse_aware))
                partitioner = NdpPartitioner(machine, config)
                partitioner.predictor = predictor
                result = partitioner.partition(build())
                metrics = run_schedule(machine, result.units())
                results.append((result, metrics))
            (fast, fast_metrics), (slow, slow_metrics) = results
            assert fast.variant_by_nest == slow.variant_by_nest
            assert fast.window_sizes == slow.window_sizes
            assert fast.movement_by_size == slow.movement_by_size
            assert fast.movement == slow.movement
            assert fast.per_statement_movement() == slow.per_statement_movement()
            assert _canonical_units(fast.units()) == _canonical_units(slow.units())
            assert fast_metrics.total_cycles == slow_metrics.total_cycles
            assert fast_metrics.data_movement == slow_metrics.data_movement
            assert fast_metrics.energy_pj == slow_metrics.energy_pj


class TestSplitCachePurity:
    """``templates_for`` is the one purity gate of the split memo."""

    def _templates(self, predictor_factory):
        machine = small_machine()
        program = _indirect_program()
        program.declare_on(machine)
        locator = DataLocator(machine, predictor_factory(machine))
        session = CompilationSession(machine=machine)
        return templates_for(session, program, program.nests[0], locator, False)

    def test_pure_predictor_keeps_shared_cache(self):
        templates = self._templates(lambda machine: HitMissPredictor())
        assert isinstance(templates, SplitTemplates)

    def test_stateful_oracle_disables_split_cache(self):
        assert self._templates(OracleL2Predictor) is None
