#!/usr/bin/env python
"""Quickstart: partition one loop nest and compare against the default.

Builds a small program (two statements sharing an operand, like the paper's
Figure 11), runs the locality-optimized default placement and the NDP
partitioner on a KNL-template machine, simulates both, and prints the
movement / time / L1 numbers plus a snippet of the generated per-node code.

Run:  python examples/quickstart.py
"""

from repro.arch import Machine, MachineConfig
from repro.baselines import DefaultPlacement
from repro.core import PartitionConfig, generate_code
from repro.ir import Loop, LoopNest, Program, parse_statement
from repro.pipeline import compile_program, session_for
from repro.sim import run_schedule


def build_program() -> Program:
    program = Program("quickstart")
    n = 4096
    # Nearby bank phases: same-index operands land on neighboring L2
    # banks (the NDP-friendly allocation the paper's OS support enables),
    # so the MST combines them with short hops while the default placement
    # hauls each one to its execution core.
    for phase, name in ((4, "B"), (4, "C"), (12, "D"), (12, "E"), (4, "Y")):
        program.declare(name, 8 * n, bank_phase=phase)
    program.declare("A", 4 * n + 8, bank_phase=20)
    program.declare("X", 4 * n + 8, bank_phase=22)
    program.add_nest(
        LoopNest.of(
            [Loop("t", 0, 2), Loop("i", 0, n)],
            [
                parse_statement("A(4*i) = B(8*i)*C(8*i) + D(8*i)*E(8*i)"),
                parse_statement("X(4*i) = Y(8*i)*C(8*i) + B(8*i)"),
            ],
            "main",
        )
    )
    return program


def machine() -> Machine:
    return Machine(
        MachineConfig(
            mesh_cols=6, mesh_rows=6, l2_bank_count=32,
            l1_capacity=8 * 1024, l1_associativity=8,
        )
    )


def main() -> None:
    # Default: iteration-granularity, profile-guided chunk placement.
    m_default = machine()
    placement = DefaultPlacement(m_default).place(build_program())
    default = run_schedule(m_default, placement.units)
    print("default     :", default.summary())

    # Gated: the production pipeline — split only where the profile and the
    # empirical gate say it beats the default on time AND movement.
    m_gated = machine()
    gated = compile_program(build_program(), session_for(m_gated))
    m_gated.mcdram.reset()
    gated_metrics = run_schedule(m_gated, gated.units())
    print("gated       :", gated_metrics.summary(), f"plan={gated.variant_by_nest}")

    # Forced split: the paper's always-split behaviour, to show the
    # subcomputation machinery regardless of the gate's verdict.
    m_split = machine()
    program = build_program()
    split_all = PartitionConfig(
        split_plan_override={
            (nest.name, b): True
            for nest in program.nests
            for b in range(nest.body_size)
        }
    )
    split = compile_program(program, session_for(m_split, split_all))
    m_split.mcdram.reset()
    split_metrics = run_schedule(m_split, split.units())
    print("always-split:", split_metrics.summary())

    base_mov, base_cyc = default.data_movement, default.total_cycles
    for label, metrics in (("gated", gated_metrics), ("always-split", split_metrics)):
        print(
            f"\n{label}: movement {(base_mov - metrics.data_movement) / base_mov:+.1%}, "
            f"time {(base_cyc - metrics.total_cycles) / base_cyc:+.1%}, "
            f"L1 {default.l1_hit_rate():.3f} -> {metrics.l1_hit_rate():.3f}"
        )

    print(
        "\n(The gate kept the default here: this toy kernel's dependence"
        "\n chains make splitting a net loss. See stencil_partitioning.py"
        "\n for a workload where the split schedule wins big.)"
    )
    print("\nGenerated per-node code (first statement instances, split plan):")
    schedules = []
    for nest_schedule in split.nest_schedules.values():
        for statement_schedule in nest_schedule.statement_schedules():
            schedules.append(statement_schedule)
            if len(schedules) == 2:
                break
        break
    print(generate_code(schedules).listing())


if __name__ == "__main__":
    main()
