"""repro — Data Movement Aware Computation Partitioning (MICRO 2017).

A full reproduction of Tang, Kislal, Kandemir & Karakoy's compiler approach
for Near-Data Processing on NoC manycores: statements in loop nests are
split into subcomputations placed on the mesh nodes holding their data,
minimizing on-chip data movement (Kruskal MST over operand locations) while
exploiting L1 reuse across statement windows.

Quick start::

    from repro.arch import knl_machine
    from repro.workloads import build_workload
    from repro.pipeline import compile_program, session_for
    from repro.sim import run_schedule

    machine = knl_machine()
    program = build_workload("ocean")
    result = compile_program(program, session_for(machine))
    metrics = run_schedule(machine, result.units())
    print(metrics.summary())

Packages: :mod:`repro.noc` (mesh network), :mod:`repro.arch` (machine
template + KNL modes), :mod:`repro.mem` (address mapping, page coloring),
:mod:`repro.cache` (L1/L2 + predictor), :mod:`repro.ir` (statements, loops,
dependences), :mod:`repro.core` (the partitioner), :mod:`repro.baselines`,
:mod:`repro.pipeline` (the compile's fixed pass sequence),
:mod:`repro.sim` (execution simulator + energy), :mod:`repro.workloads`
(the 12 applications), :mod:`repro.experiments` (every paper table/figure).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
