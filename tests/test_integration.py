"""Cross-module integration tests: determinism, end-to-end invariants, CLI."""



from repro.arch.knl import small_machine
from repro.baselines.default_placement import DefaultPlacement
from repro.cli import main as cli_main
from repro.core.codegen import generate_code
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for
from repro.sim.engine import SimConfig, run_schedule


def medium_program():
    p = Program("medium")
    n = 256
    for phase, name in ((4, "B"), (7, "C"), (10, "D"), (13, "E")):
        p.declare(name, 8 * n + 16, bank_phase=phase)
    p.declare("A", 4 * n + 16, bank_phase=16)
    p.declare("X", 4 * n + 16, bank_phase=18)
    p.declare("Y", 8 * n + 16, bank_phase=7)
    p.add_nest(
        LoopNest.of(
            [Loop("t", 0, 2), Loop("i", 0, n)],
            [
                parse_statement("A(4*i) = B(8*i) + C(8*i) + D(8*i) + E(8*i)"),
                parse_statement("X(4*i) = Y(8*i) + C(8*i)"),
            ],
            "main",
        )
    )
    return p


class TestDeterminism:
    def test_partition_is_deterministic(self):
        results = []
        for _ in range(2):
            machine = small_machine()
            result = compile_program(medium_program(), session_for(machine))
            units = result.units()
            results.append(
                [
                    (u.uid, u.seq, u.node, tuple(g.access.key() for g in u.gathered))
                    for u in units
                ]
            )
        assert results[0] == results[1]

    def test_simulation_is_deterministic(self):
        metrics = []
        for _ in range(2):
            machine = small_machine()
            placement = DefaultPlacement(machine).place(medium_program())
            metrics.append(run_schedule(machine, placement.units))
        assert metrics[0].total_cycles == metrics[1].total_cycles
        assert metrics[0].data_movement == metrics[1].data_movement


class TestEndToEndInvariants:
    def make_comparison(self):
        m_default = small_machine()
        placement = DefaultPlacement(m_default).place(medium_program())
        default = run_schedule(m_default, placement.units)
        m_optimized = small_machine()
        result = compile_program(medium_program(), session_for(m_optimized))
        optimized = run_schedule(m_optimized, result.units())
        return default, optimized, result

    def test_gate_never_regresses_time(self):
        default, optimized, _ = self.make_comparison()
        assert optimized.total_cycles <= default.total_cycles * 1.05

    def test_gate_never_regresses_movement(self):
        default, optimized, _ = self.make_comparison()
        assert optimized.data_movement <= default.data_movement * 1.10

    def test_store_count_preserved(self):
        _, _, result = self.make_comparison()
        program = medium_program()
        stores = [u for u in result.units() if u.store is not None]
        assert len(stores) == program.total_instances()
        # Outputs are written exactly where the program says.
        arrays = {u.store.array for u in stores}
        assert arrays == {"A", "X"}

    def test_codegen_covers_all_units(self):
        _, _, result = self.make_comparison()
        schedules = list(result.nest_schedules["main"].statement_schedules())
        code = generate_code(schedules)
        unit_count = sum(len(s.subcomputations) for s in schedules)
        # One assignment line per subcomputation (sync lines are extra).
        assignments = sum(
            1
            for lines in code.lines_by_node.values()
            for line in lines
            if "=" in line and not line.startswith("sync")
        )
        assert assignments == unit_count

    def test_ideal_network_bounds_normal(self):
        machine = small_machine()
        result = compile_program(medium_program(), session_for(machine))
        units = result.units()
        normal = run_schedule(machine, units)
        machine2 = small_machine()
        medium_program().declare_on(machine2)
        ideal = run_schedule(machine2, units, SimConfig(ideal_network=True))
        assert ideal.total_cycles <= normal.total_cycles


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "barnes" in out and "minixyce" in out
        assert out.count("\n") == 12
