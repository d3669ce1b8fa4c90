#!/usr/bin/env python
"""Ocean-style stencil partitioning: where the paper's approach shines.

A 2-D relaxation stencil on long rows: the vertical neighbors of every
point live a whole grid row away, so the iteration-granularity default
fetches them across the chip every time, while the NDP partitioner combines
them at their home banks.  The example sweeps the window size to show the
Section 4.4 trade-off, then prints the adaptive result.

Run:  python examples/stencil_partitioning.py
"""

from repro.baselines import DefaultPlacement
from repro.core import PartitionConfig
from repro.experiments.common import paper_machine
from repro.pipeline import compile_program, session_for
from repro.sim import run_schedule
from repro.workloads import build_workload


def main() -> None:
    app = "ocean"
    m_default = paper_machine()
    placement = DefaultPlacement(m_default).place(build_workload(app))
    default = run_schedule(m_default, placement.units)
    print(f"default   : {default.summary()}")

    m_adaptive = paper_machine()
    adaptive = compile_program(build_workload(app), session_for(m_adaptive))
    m_adaptive.mcdram.reset()
    adaptive_metrics = run_schedule(m_adaptive, adaptive.units())
    print(f"adaptive  : {adaptive_metrics.summary()}")
    print(f"  chosen window sizes: {adaptive.window_sizes}")
    print(f"  plan: {adaptive.variant_by_nest}")

    print("\nFixed window sizes (Section 4.4 sweep):")
    base = default.total_cycles
    for size in (1, 2, 4, 8):
        m = paper_machine()
        config = PartitionConfig(
            adaptive_window=False,
            fixed_window_size=size,
            split_plan_override=adaptive.split_plan,
        )
        result = compile_program(build_workload(app), session_for(m, config))
        m.mcdram.reset()
        metrics = run_schedule(m, result.units())
        reduction = (base - metrics.total_cycles) / base
        print(
            f"  window={size}: time reduction {reduction:+7.1%}  "
            f"movement={metrics.data_movement}  L1={metrics.l1_hit_rate():.3f}"
        )


if __name__ == "__main__":
    main()
