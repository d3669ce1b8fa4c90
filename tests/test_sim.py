"""Tests for the execution simulator and the energy model."""


import pytest

from repro.baselines.default_placement import DefaultPlacement
from repro.core.partitioner import NdpPartitioner, PartitionConfig
from repro.core.subcomputation import GatheredInput, Subcomputation, SubResult
from repro.errors import SimulationError
from repro.ir.statement import Access
from repro.sim.energy import EnergyModel
from repro.sim.engine import SimConfig, run_schedule


def unit(uid, seq, node, gathered=(), results=(), store=None, cost=1.0, ops=1):
    return Subcomputation(
        uid=uid, seq=seq, node=node, op="+", op_count=ops, cost=cost,
        gathered=tuple(gathered), sub_results=tuple(results), store=store,
        op_breakdown=(("+", ops),),
    )


def gather(array, index, from_node=0, hops=0):
    return GatheredInput(Access(array, index), from_node, hops)


class TestEngineBasics:
    def test_empty_schedule(self, machine):
        metrics = run_schedule(machine, [])
        assert metrics.total_cycles == 0.0
        assert metrics.unit_count == 0

    def test_single_unit(self, declared):
        machine, _ = declared
        units = [unit(0, 0, 1, [gather("A", 0)], store=Access("X", 0))]
        metrics = run_schedule(machine, units)
        assert metrics.total_cycles > 0
        assert metrics.unit_count == 1
        assert metrics.statement_count == 1

    def test_duplicate_uids_rejected(self, declared):
        machine, _ = declared
        units = [unit(0, 0, 1), unit(0, 1, 2)]
        with pytest.raises(SimulationError):
            run_schedule(machine, units)

    def test_unknown_producer_rejected(self, declared):
        machine, _ = declared
        units = [unit(0, 0, 1, results=[SubResult(99, 0, 1)])]
        with pytest.raises(SimulationError):
            run_schedule(machine, units)

    def test_l1_hit_on_repeat_access(self, declared):
        machine, _ = declared
        units = [
            unit(0, 0, 1, [gather("A", 0)]),
            unit(1, 1, 1, [gather("A", 0)]),
        ]
        metrics = run_schedule(machine, units)
        assert metrics.l1_hits >= 1

    def test_movement_attributed_to_seq(self, declared):
        machine, _ = declared
        units = [unit(0, 5, 1, [gather("A", 0)])]
        metrics = run_schedule(machine, units)
        if metrics.data_movement:
            assert set(metrics.movement_by_seq) == {5}

    def test_cross_node_result_costs_sync(self, declared):
        machine, _ = declared
        units = [
            unit(0, 0, 1, [gather("A", 0)]),
            unit(1, 0, 5, results=[SubResult(0, 1, machine.distance(1, 5))]),
        ]
        metrics = run_schedule(machine, units)
        assert metrics.sync_count == 1

    def test_same_node_result_no_sync(self, declared):
        machine, _ = declared
        units = [
            unit(0, 0, 1, [gather("A", 0)]),
            unit(1, 0, 1, results=[SubResult(0, 1, 0)]),
        ]
        metrics = run_schedule(machine, units)
        assert metrics.sync_count == 0

    def test_memory_order_enforced(self, declared):
        machine, _ = declared
        # Writer then reader of X[0] on different nodes: flow sync needed.
        units = [
            unit(0, 0, 1, [gather("A", 0)], store=Access("X", 0)),
            unit(1, 1, 4, [gather("X", 0)], store=Access("Y", 0)),
        ]
        metrics = run_schedule(machine, units)
        assert metrics.sync_count >= 1


class TestEngineKnobs:
    def make_units(self, machine):
        units = []
        for i in range(24):
            units.append(
                unit(i, i, i % machine.node_count, [gather("A", i * 8)],
                     store=Access("X", i * 8))
            )
        return units

    def test_ideal_network_faster(self, declared):
        machine, program = declared
        units = self.make_units(machine)
        normal = run_schedule(machine, units)
        program.declare_on(machine)
        ideal = run_schedule(machine, units, SimConfig(ideal_network=True))
        assert ideal.total_cycles <= normal.total_cycles
        # Movement is still recorded under the ideal network.
        assert ideal.data_movement == normal.data_movement

    def test_compute_scale(self, declared):
        machine, _ = declared
        units = [unit(0, 0, 1, cost=100.0)]
        slow = run_schedule(machine, units)
        fast = run_schedule(machine, units, SimConfig(compute_scale=0.5))
        assert fast.total_cycles < slow.total_cycles

    def test_per_unit_overhead(self, declared):
        machine, _ = declared
        units = [unit(0, 0, 1)]
        base = run_schedule(machine, units)
        loaded = run_schedule(machine, units, SimConfig(per_unit_overhead_cycles=50))
        assert loaded.total_cycles == pytest.approx(base.total_cycles + 50)

    def test_forced_l1_rate_tracks_target(self, declared):
        machine, _ = declared
        units = self.make_units(machine)
        forced = run_schedule(machine, units, SimConfig(forced_l1_hit_rate=1.0))
        assert forced.l1_hit_rate() == pytest.approx(1.0)

    def test_mc_override_used(self, declared):
        machine, program = declared
        # Remap every page to MC node 0 and check it still runs.
        pages = {machine.layout.page_of("A", 0): machine.mc_nodes[0]}
        units = [unit(0, 0, 1, [gather("A", 0)])]
        metrics = run_schedule(machine, units, SimConfig(mc_override=pages))
        assert metrics.unit_count == 1

    def test_contexts_increase_throughput(self, declared):
        machine, _ = declared
        units = [unit(i, i, 1, [gather("A", 8 * i)]) for i in range(16)]
        serial = run_schedule(machine, units, SimConfig(contexts_per_node=1))
        smt = run_schedule(machine, units, SimConfig(contexts_per_node=4))
        assert smt.total_cycles <= serial.total_cycles


class TestEnergyModel:
    def test_breakdown_sums_to_total(self):
        model = EnergyModel()
        breakdown = model.compute(
            flit_hops=100, l1_accesses=50, l2_accesses=20,
            memory_energy_pj=500.0, weighted_ops=30, syncs=5, cycles=1000,
        )
        parts = sum(v for k, v in breakdown.items() if k != "total")
        assert breakdown["total"] == pytest.approx(parts)

    def test_network_energy_scales_with_hops(self):
        model = EnergyModel()
        low = model.compute(flit_hops=10, l1_accesses=0, l2_accesses=0,
                            memory_energy_pj=0, weighted_ops=0, syncs=0, cycles=0)
        high = model.compute(flit_hops=100, l1_accesses=0, l2_accesses=0,
                             memory_energy_pj=0, weighted_ops=0, syncs=0, cycles=0)
        assert high["network"] == pytest.approx(10 * low["network"])

    def test_simulation_populates_energy(self, declared):
        machine, _ = declared
        units = [unit(0, 0, 1, [gather("A", 0)], store=Access("X", 0))]
        metrics = run_schedule(machine, units)
        assert metrics.energy_pj > 0
        assert metrics.energy_breakdown["total"] == metrics.energy_pj


class TestEndToEndSimulation:
    def test_default_vs_optimized_never_negative(self, machine, tiny_program):
        from repro.arch.knl import small_machine

        m_def = small_machine()
        placement = DefaultPlacement(m_def).place(tiny_program)
        default_metrics = run_schedule(m_def, placement.units)

        m_opt = small_machine()
        import copy

        program2 = copy.deepcopy(tiny_program)
        result = NdpPartitioner(m_opt, PartitionConfig()).partition(program2)
        optimized_metrics = run_schedule(m_opt, result.units())

        assert optimized_metrics.total_cycles <= default_metrics.total_cycles * 1.10

    def test_each_run_starts_from_cold_mcdram_tags(self):
        """The gate's simulations during a compile do not warm the final run."""
        from repro.arch.knl import small_machine
        from repro.arch.memory_modes import MemoryMode
        from repro.benchmarks.perf import tiny_app
        from repro.pipeline import compile_program, session_for

        machine = small_machine(memory_mode=MemoryMode.CACHE)
        units = compile_program(tiny_app(), session_for(machine)).units()
        after_compile = run_schedule(machine, units)
        machine.mcdram.reset()
        after_reset = run_schedule(machine, units)
        assert after_compile.to_dict() == after_reset.to_dict()
