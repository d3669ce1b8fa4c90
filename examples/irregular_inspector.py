#!/usr/bin/env python
"""Irregular workloads: indirect accesses and the inspector-executor.

Radix-sort-style histogram/scatter kernels write through index arrays
(``CNT(K(i)) += ...``): the subscripts are unknown at compile time
(may-dependences).  The inspector materializes the concrete accesses from
the runtime index data; the executor (the partitioner) then schedules with
exact knowledge, as in the paper's Section 4.5.

Run:  python examples/irregular_inspector.py
"""

from repro.baselines import DefaultPlacement
from repro.experiments.common import paper_machine
from repro.ir import InspectorExecutor, analyzable_fraction
from repro.pipeline import compile_program, session_for
from repro.sim import run_schedule
from repro.workloads import build_workload


def main() -> None:
    program = build_workload("radix")
    print(f"program: {program!r}")
    print(f"compile-time-analyzable references: {analyzable_fraction(program):.1%}")

    inspector = InspectorExecutor(program, inspect_iterations=8)
    for name, result in inspector.inspect_all().items():
        print(
            f"inspector[{name}]: {result.instances_inspected} instances, "
            f"{result.indirect_reference_count} indirect refs, "
            f"{len(result.dependences)} dependences observed"
        )

    m_default = paper_machine()
    placement = DefaultPlacement(m_default).place(build_workload("radix"))
    default = run_schedule(m_default, placement.units)

    m_optimized = paper_machine()
    result = compile_program(build_workload("radix"), session_for(m_optimized))
    m_optimized.mcdram.reset()
    optimized = run_schedule(m_optimized, result.units())

    print(f"\ndefault  : {default.summary()}")
    print(f"optimized: {optimized.summary()}")
    base = default.total_cycles
    print(f"time reduction: {(base - optimized.total_cycles) / base:+.1%}")
    print(
        "movement reduction: "
        f"{(default.data_movement - optimized.data_movement) / default.data_movement:+.1%}"
    )


if __name__ == "__main__":
    main()
