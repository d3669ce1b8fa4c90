#!/usr/bin/env python
"""KNL cluster and memory modes (the paper's Figure 22, one app).

Runs one workload under every (cluster mode, memory mode) combination, with
and without the NDP optimization, normalized to the default quadrant+flat
configuration — the same grid the paper sweeps on real hardware.

Run:  python examples/knl_modes.py [app]
"""

import sys

from repro.arch import ClusterMode, MemoryMode
from repro.baselines import DefaultPlacement
from repro.experiments.common import paper_machine
from repro.pipeline import compile_program, session_for
from repro.sim import run_schedule
from repro.workloads import ALL_WORKLOAD_NAMES, build_workload


def run_pair(app, cluster, memory):
    m_default = paper_machine(cluster, memory)
    placement = DefaultPlacement(m_default).place(build_workload(app))
    default = run_schedule(m_default, placement.units)

    m_optimized = paper_machine(cluster, memory)
    result = compile_program(build_workload(app), session_for(m_optimized))
    m_optimized.mcdram.reset()
    optimized = run_schedule(m_optimized, result.units())
    return default.total_cycles, optimized.total_cycles


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "barnes"
    if app not in ALL_WORKLOAD_NAMES:
        raise SystemExit(f"unknown app {app!r}; pick from {ALL_WORKLOAD_NAMES}")
    print(f"app: {app} (normalized to quadrant+flat original = 1.00)\n")

    baseline, _ = run_pair(app, ClusterMode.QUADRANT, MemoryMode.FLAT)
    print(f"{'config':<22}{'original':>10}{'optimized':>11}")
    for cluster in (ClusterMode.ALL_TO_ALL, ClusterMode.QUADRANT, ClusterMode.SNC4):
        for memory in (MemoryMode.FLAT, MemoryMode.CACHE):
            default_cycles, optimized_cycles = run_pair(app, cluster, memory)
            label = f"({cluster.label},{memory.label}) {cluster.name}/{memory.name}"
            print(
                f"{label:<22}{baseline / default_cycles:>10.2f}"
                f"{baseline / optimized_cycles:>11.2f}"
            )


if __name__ == "__main__":
    main()
