"""Check-mode runtime semantics: zero output drift, planted-bug detection.

The contract of ``--check`` / ``REPRO_CHECK=1`` (DESIGN.md section 10):
enabling it adds assertions but never changes a computed number.  The
first test proves that bit-for-bit on the tiny pipeline; the rest plant
one bug per runtime checker and assert the checker fires, so a silently
broken oracle cannot pass CI.
"""

import dataclasses

import pytest

from repro import check
from repro.arch.knl import small_machine
from repro.check.invariants import (
    check_balancer_choice,
    check_heatmap_conservation,
    check_partition_accounting,
    check_unit_nodes_alive,
    check_units_wellformed,
)
from repro.core.balancer import LoadBalancer
from repro.core.locator import DataLocator
from repro.core.vectorized import templates_for
from repro.core.window import WindowScheduler
from repro.errors import CheckError
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.obs.report import build_report
from repro.pipeline.session import CompilationSession
from repro.sim.metrics import SimMetrics

VOLATILE_KEYS = {"phase_seconds", "trace_file", "pass_seconds"}


def _scrub(obj):
    """Strip wall-clock and path fields; everything else must be stable."""
    if isinstance(obj, dict):
        return {
            key: _scrub(value)
            for key, value in obj.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(obj, list):
        return [_scrub(item) for item in obj]
    return obj


class TestModeStateMachine:
    def test_env_enabled_parses_truthy_values(self, monkeypatch):
        for value in ("1", "true", "YES", " On "):
            monkeypatch.setenv("REPRO_CHECK", value)
            assert check.env_enabled()
        for value in ("", "0", "no", "off", "bogus"):
            monkeypatch.setenv("REPRO_CHECK", value)
            assert not check.env_enabled()
        monkeypatch.delenv("REPRO_CHECK")
        assert not check.env_enabled()

    def test_checking_restores_previous_state(self):
        assert not check.enabled()
        with check.checking():
            assert check.enabled()
            with check.checking(False):
                assert not check.enabled()
            assert check.enabled()
        assert not check.enabled()

    def test_checking_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with check.checking():
                raise RuntimeError("boom")
        assert not check.enabled()


class TestBitForBitOutput:
    def test_check_mode_changes_no_report_number(self):
        """The whole tiny pipeline, checked vs unchecked, byte-identical.

        The one field that differs is the record of check mode itself.
        """
        plain = build_report("tiny", scale=1)
        with check.checking():
            checked = build_report("tiny", scale=1)
        assert checked["pipeline"].pop("check") is True
        assert plain["pipeline"].pop("check") is False
        assert _scrub(plain) == _scrub(checked)


# -- planted bugs: every runtime checker must catch its mutation -------------

class TestHeatmapConservation:
    def _metrics(self):
        metrics = SimMetrics()
        metrics.data_movement = 10
        metrics.link_flits = {(0, 1): 6, (1, 2): 4}
        metrics.movement_by_seq = {0: 7, 1: 3}
        return metrics

    def test_consistent_metrics_pass(self):
        check_heatmap_conservation(self._metrics())

    def test_fires_on_tampered_link_flits(self):
        metrics = self._metrics()
        metrics.link_flits[(0, 1)] += 1  # one flit-hop appears from nowhere
        with pytest.raises(CheckError, match="heatmap conservation"):
            check_heatmap_conservation(metrics)

    def test_fires_on_tampered_per_statement_totals(self):
        metrics = self._metrics()
        metrics.movement_by_seq[0] -= 2
        with pytest.raises(CheckError, match="per-statement conservation"):
            check_heatmap_conservation(metrics)


@dataclasses.dataclass
class _Result:
    producer_uid: int


@dataclasses.dataclass
class _Unit:
    uid: int
    node: int = 0
    sub_results: tuple = ()


class TestUnitsWellformed:
    def test_valid_chain_passes(self):
        units = [
            _Unit(uid=1),
            _Unit(uid=2, sub_results=(_Result(1),)),
            _Unit(uid=3, sub_results=(_Result(1), _Result(2))),
        ]
        check_units_wellformed(units)

    def test_fires_on_duplicate_uid(self):
        with pytest.raises(CheckError, match="duplicate"):
            check_units_wellformed([_Unit(uid=7), _Unit(uid=7)])

    def test_fires_on_unknown_producer(self):
        with pytest.raises(CheckError, match="unknown producer"):
            check_units_wellformed([_Unit(uid=1, sub_results=(_Result(99),))])

    def test_fires_on_self_consumption(self):
        with pytest.raises(CheckError, match="its own result"):
            check_units_wellformed([_Unit(uid=1, sub_results=(_Result(1),))])

    def test_fires_on_dataflow_cycle(self):
        units = [
            _Unit(uid=1, sub_results=(_Result(2),)),
            _Unit(uid=2, sub_results=(_Result(1),)),
        ]
        with pytest.raises(CheckError, match="cycle"):
            check_units_wellformed(units)

    def test_fires_on_unit_placed_on_dead_tile(self):
        units = [_Unit(uid=1, node=5)]
        check_unit_nodes_alive(units, dead_nodes=())  # healthy: fine
        with pytest.raises(CheckError, match="offline tile"):
            check_unit_nodes_alive(units, dead_nodes={5})


class TestBalancerChoice:
    def test_real_choices_pass_under_checking(self):
        balancer = LoadBalancer(4)
        with check.checking():
            for cost in (3.0, 5.0, 2.0, 8.0, 1.0):
                node = balancer.choose([2, 0, 3, 1], cost)
                balancer.record(node, cost)

    def test_fires_on_vetoed_non_fallback_choice(self):
        """Planted bug: pick a heavily loaded node the rule must veto."""
        balancer = LoadBalancer(2)
        balancer.record(0, 100.0)
        balancer.record(1, 10.0)
        assert balancer.would_unbalance(0, 1.0)
        with pytest.raises(CheckError, match="vetoed"):
            check_balancer_choice(balancer, [0, 1], 1.0, chosen=0)

    def test_fires_on_choice_outside_candidates(self):
        balancer = LoadBalancer(4)
        with pytest.raises(CheckError, match="not among candidates"):
            check_balancer_choice(balancer, [0, 1], 1.0, chosen=3)


class TestSplitCacheHit:
    """The split memo is the nest's :class:`SplitTemplates` Kruskal memo."""

    def _scheduler_and_instances(self):
        machine = small_machine()
        program = Program("cachebug")
        for name in ("A", "B", "C"):
            program.declare(name, 128)
        nest = LoopNest.of(
            [Loop("i", 0, 8)], [parse_statement("A(i) = B(i) + C(i)")], "n"
        )
        program.add_nest(nest)
        program.declare_on(machine)
        locator = DataLocator(machine, None)
        templates = templates_for(
            CompilationSession(machine=machine), program, nest, locator, False
        )
        templates.tables.ensure(nest.instance_count)
        scheduler = WindowScheduler(
            machine, locator, split_plan={("n", 0): True}, templates=templates
        )
        return scheduler, templates, list(program.instances())

    def test_fires_on_poisoned_cache_entry(self):
        scheduler, templates, instances = self._scheduler_and_instances()
        first, second, third = instances[:3]
        scheduler._split_of(first, None)  # fills the memo
        split = scheduler._split_of(second, None)
        (memo,) = [m for m in templates._memo if m]
        (key,) = memo
        # Neighbouring elements share a block, hence the memo key: the
        # later instances reuse the first's Kruskal result.
        assert scheduler._split_of(third, None).mst_edges is split.mst_edges
        merges, mst_edges = memo[key]
        memo[key] = (merges, mst_edges[:-1])
        with check.checking():
            for instance in (second, third):
                with pytest.raises(CheckError, match="split cache divergence"):
                    scheduler._split_of(instance, None)
        memo[key] = (merges, mst_edges)  # restore: the memo is clean again
        with check.checking():
            clean = scheduler._split_of(third, None)
        assert clean.instance is third
        assert clean.mst_edges == mst_edges


@dataclasses.dataclass
class _FakeNestSchedule:
    windows: tuple
    movement: int


@dataclasses.dataclass
class _FakeWindow:
    movement: int


class _FakePartition:
    """Minimal stand-in exposing the counters the accounting checker reads."""

    def __init__(self, movement, per_statement, nests):
        self.movement = movement
        self._per_statement = per_statement
        self.statement_count = len(per_statement)
        self.nest_schedules = nests

    def per_statement_movement(self):
        return list(self._per_statement)


class TestPartitionAccounting:
    def test_consistent_partition_passes(self):
        partition = _FakePartition(
            movement=12,
            per_statement=[5, 7],
            nests={"n": _FakeNestSchedule((_FakeWindow(5), _FakeWindow(7)), 12)},
        )
        check_partition_accounting(partition)

    def test_fires_on_movement_mismatch(self):
        partition = _FakePartition(
            movement=13,  # planted: headline disagrees with the breakdown
            per_statement=[5, 7],
            nests={},
        )
        with pytest.raises(CheckError, match="per-statement sum"):
            check_partition_accounting(partition)

    def test_fires_on_window_sum_mismatch(self):
        partition = _FakePartition(
            movement=12,
            per_statement=[5, 7],
            nests={"n": _FakeNestSchedule((_FakeWindow(5), _FakeWindow(6)), 12)},
        )
        with pytest.raises(CheckError, match="per-window sum"):
            check_partition_accounting(partition)
