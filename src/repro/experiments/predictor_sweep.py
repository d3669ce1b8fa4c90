"""Predictor sweep: trace-trained vs analytic L2 miss prediction.

An extension experiment (no paper counterpart): for each application,
build both predictors the compiler can use — the default two-bit
trace-trained predictor (Section 4.1) and the closed-form analytic
locality model (DESIGN.md section 12) — and report

* per-address **agreement** between the two over the default-execution
  access stream (the differential-oracle metric of ``repro.check``);
* the **end-to-end effect**: data-movement reduction when the full
  pipeline is compiled with each predictor (``--predictor`` in the CLI).

The trace predictor stays the pipeline default; the sweep quantifies how
much of its verdicts the analytic model reproduces without simulating a
single cache access, and what the residual divergence costs downstream.
The two builds run in ``predictor_sweep.trace_build`` and
``predictor_sweep.analytic_build`` trace spans, so a traced run
(``--trace``) shows their cost; the table carries no wall times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cache.predictor import HitMissPredictor
from repro.core.locality import AnalyticMissPredictor
from repro.core.partitioner import train_predictor
from repro.experiments.common import (
    DEFAULT_APPS,
    compare_app,
    experiment,
    experiment_main,
    format_table,
    paper_machine,
)
from repro.obs.tracer import get_tracer
from repro.workloads import build_workload

#: Instance budget for both trace training and the agreement probe —
#: the same default the compile pipeline trains with.
TRAINING_INSTANCES = 4000


@dataclass
class PredictorSweepRow:
    """One application's trace-vs-analytic comparison."""

    agreement: float
    trace_movement_reduction: float
    analytic_movement_reduction: float


@dataclass
class PredictorSweepResult:
    rows: Dict[str, PredictorSweepRow]

    def report(self) -> str:
        table = []
        for app, row in self.rows.items():
            table.append([
                app,
                f"{row.agreement * 100:.1f}%",
                f"{row.trace_movement_reduction * 100:.1f}%",
                f"{row.analytic_movement_reduction * 100:.1f}%",
            ])
        return (
            "Predictor sweep: trace-trained vs analytic (DESIGN.md sec. 12)\n"
            + format_table(
                [
                    "app",
                    "agreement",
                    "moves saved (trace)",
                    "moves saved (analytic)",
                ],
                table,
            )
        )


def _agreement(analytic_pair, trace_pair, budget: int) -> float:
    """Per-address agreement over the first ``budget`` instances.

    Each predictor answers against its *own* machine's physical
    addresses (layouts are allocated independently but the programs are
    element-for-element identical), mirroring check mode's differential
    oracle.
    """
    (analytic_machine, analytic_program, analytic) = analytic_pair
    (trace_machine, trace_program, trace) = trace_pair
    agree = total = 0
    pairs = zip(analytic_program.instances(), trace_program.instances())
    for count, (analytic_instance, trace_instance) in enumerate(pairs):
        if count >= budget:
            break
        for a_access, t_access in zip(
            analytic_instance.accesses(), trace_instance.accesses()
        ):
            a = analytic_machine.layout.pa_of(a_access.array, a_access.index)
            t = trace_machine.layout.pa_of(t_access.array, t_access.index)
            agree += analytic.predict(a) == trace.predict(t)
            total += 1
    return agree / total if total else 1.0


@experiment("Predictor sweep", 26)
def run(
    apps: List[str] = DEFAULT_APPS,
    scale: int = 1,
    seed: int = 0,
) -> PredictorSweepResult:
    rows: Dict[str, PredictorSweepRow] = {}
    tracer = get_tracer()
    for app in apps:
        trace_machine = paper_machine()
        trace_program = build_workload(app, scale, seed)
        trace = HitMissPredictor()
        with tracer.span("predictor_sweep.trace_build", app=app):
            train_predictor(
                trace_machine, trace_program, trace, TRAINING_INSTANCES
            )

        analytic_machine = paper_machine()
        analytic_program = build_workload(app, scale, seed)
        with tracer.span("predictor_sweep.analytic_build", app=app):
            analytic = AnalyticMissPredictor(analytic_machine, analytic_program)

        agreement = _agreement(
            (analytic_machine, analytic_program, analytic),
            (trace_machine, trace_program, trace),
            TRAINING_INSTANCES,
        )
        with_trace = compare_app(app, scale=scale, seed=seed)
        with_analytic = compare_app(
            app, scale=scale, seed=seed, predictor="analytic"
        )
        rows[app] = PredictorSweepRow(
            agreement=agreement,
            trace_movement_reduction=with_trace.movement_reduction(),
            analytic_movement_reduction=with_analytic.movement_reduction(),
        )
    return PredictorSweepResult(rows)


if __name__ == "__main__":
    raise SystemExit(experiment_main(run))
