#!/usr/bin/env python
"""Walkthrough: affine access functions -> predicted misses -> partition.

The analytic locality model (DESIGN.md §12) predicts L2 hit/miss verdicts
*in closed form* from a nest's affine structure — no trace, no cache
simulation.  This example walks every step on one loop nest:

1. resolve the nest's affine access functions over the whole iteration
   space (:func:`repro.ir.affine.access_table`);
2. derive the closed-form locality quantities: cache-line footprint per
   L2 bank, short-reuse-distance hits, footprint-fits temporal hits;
3. reduce them to per-region on-chip/off-chip verdicts and compare
   against the trace-trained predictor (the default and the oracle);
4. partition the program once with each predictor and compare the
   resulting data-movement decision.

Run:  python examples/analytic_predict.py
"""

from repro.arch.knl import small_machine
from repro.cache.predictor import HitMissPredictor
from repro.core.locality import AnalyticMissPredictor
from repro.core.partitioner import PartitionConfig, train_predictor
from repro.ir.affine import access_table
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.pipeline import compile_program, session_for


def build_program() -> Program:
    """One nest mixing heavy reuse (S, a stencil row) with streaming (V)."""
    program = Program("walkthrough")
    n = 2048
    program.declare("OUT", n)
    program.declare("S", n)      # re-read at i-1 / i / i+1: strong reuse
    program.declare("V", 4 * n)  # stride-4 stream: one touch per line
    program.add_nest(
        LoopNest.of(
            [Loop("i", 1, n - 1)],
            [parse_statement("OUT(i) = S(i-1) + S(i) + S(i+1) + V(4*i)")],
            "stencil",
        )
    )
    return program


def show_access_functions(machine, program) -> None:
    nest = program.nests[0]
    table = access_table(program, nest)
    print("== 1. closed-form access columns (first 5 iterations) ==")
    for r, column in enumerate(table.reads[0]):
        head = ", ".join(str(int(v)) for v in column.indices[:5])
        print(f"  read {r}: {column.array}[{head}, ...]  affine={column.affine}")
    write = table.writes[0]
    head = ", ".join(str(int(v)) for v in write.indices[:5])
    print(f"  write : {write.array}[{head}, ...]")
    print()


def show_model(machine, predictor: AnalyticMissPredictor) -> None:
    model = predictor.model
    print("== 2. closed-form locality quantities ==")
    capacity = machine.l2_config.line_count
    for nest in model.nests:
        print(
            f"  nest {nest.nest_name!r}: {nest.accesses} accesses, "
            f"{nest.distinct_lines} distinct lines, "
            f"{nest.short_reuse_hits} short-reuse hits, "
            f"{nest.temporal_hits} temporal hits "
            f"-> modeled hit fraction {nest.hit_fraction:.3f}"
        )
    pressured = sum(
        1 for count in model.bank_footprint.values() if count > capacity
    )
    print(
        f"  bank footprints: {len(model.bank_footprint)} banks touched, "
        f"{pressured} over capacity ({capacity} lines/bank)"
    )
    print()
    print("== 3. per-region verdicts ==")
    on_chip = sum(1 for v in model.region_verdicts.values() if v)
    print(
        f"  {len(model.region_verdicts)} regions analyzed, "
        f"{on_chip} predicted on-chip "
        f"({100 * model.hit_region_fraction:.1f}%)"
    )


def compare_with_trace(analytic_pair, trace_pair) -> None:
    (analytic_machine, analytic_program, analytic) = analytic_pair
    (trace_machine, trace_program, trace) = trace_pair
    agree = total = 0
    pairs = zip(analytic_program.instances(), trace_program.instances())
    for analytic_instance, trace_instance in pairs:
        for a_access, t_access in zip(
            analytic_instance.accesses(), trace_instance.accesses()
        ):
            a = analytic_machine.layout.pa_of(a_access.array, a_access.index)
            t = trace_machine.layout.pa_of(t_access.array, t_access.index)
            agree += analytic.predict(a) == trace.predict(t)
            total += 1
    print(f"  agreement with the trace-trained oracle: {agree / total:.3f}")
    print()


def partition_with(predictor_name: str):
    config = PartitionConfig(predictor=predictor_name)
    return compile_program(build_program(), session_for(small_machine(), config))


def main() -> int:
    analytic_machine, analytic_program = small_machine(), build_program()
    show_access_functions(analytic_machine, analytic_program)
    analytic = AnalyticMissPredictor(analytic_machine, analytic_program)
    show_model(analytic_machine, analytic)

    trace_machine, trace_program = small_machine(), build_program()
    trace = HitMissPredictor()
    train_predictor(trace_machine, trace_program, trace)
    compare_with_trace(
        (analytic_machine, analytic_program, analytic),
        (trace_machine, trace_program, trace),
    )

    print("== 4. the partition decision, per predictor ==")
    for name in ("trace", "analytic"):
        partition = partition_with(name)
        print(
            f"  {name:8s}: movement={partition.movement} "
            f"windows={partition.window_sizes} "
            f"variants={partition.variant_by_nest}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
