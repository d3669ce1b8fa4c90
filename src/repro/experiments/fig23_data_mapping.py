"""Figure 23: comparison against a profile-based data-to-MC mapping.

Three bars per application (execution-time improvement over the default):

* ours — computation mapping (the paper's scheme);
* data mapping — default computation placement, pages remapped to the MC
  preferred by their accessing cores (profile-based, Section 6.5);
* combined — our computation mapping plus the data mapping.

Paper geomeans: 18.4% / 7.9% / 21.4% — data mapping alone is weaker
(pages used by central cores have no clearly-preferable controller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.data_mapping import profile_page_mc_mapping
from repro.experiments.common import (
    DEFAULT_APPS,
    compare_app,
    experiment,
    experiment_main,
    format_table,
    paper_machine,
)
from repro.sim.engine import SimConfig, Simulator
from repro.utils.stats import geomean
from repro.workloads import build_workload
from repro.baselines.default_placement import DefaultPlacement


@dataclass
class Fig23Result:
    # app -> (ours, data mapping, combined) time reductions
    reductions: Dict[str, Tuple[float, float, float]]

    def geomeans(self) -> Tuple[float, float, float]:
        def geo(index: int) -> float:
            return geomean([max(r[index], 1e-4) for r in self.reductions.values()])

        return geo(0), geo(1), geo(2)

    def means(self) -> Tuple[float, float, float]:
        def mean(index: int) -> float:
            values = [r[index] for r in self.reductions.values()]
            return sum(values) / len(values) if values else 0.0

        return mean(0), mean(1), mean(2)

    def report(self) -> str:
        rows = [
            [app, f"{ours * 100:.1f}%", f"{dmap * 100:.1f}%", f"{both * 100:.1f}%"]
            for app, (ours, dmap, both) in self.reductions.items()
        ]
        g = self.means()
        rows.append(["mean"] + [f"{v * 100:.1f}%" for v in g])
        return (
            "Figure 23: ours vs profile data-to-MC mapping vs combined\n"
            + format_table(["app", "ours", "data-map", "combined"], rows)
        )


@experiment("Figure 23", 23)
def run(apps: List[str] = DEFAULT_APPS, scale: int = 1, seed: int = 0) -> Fig23Result:
    reductions: Dict[str, Tuple[float, float, float]] = {}
    for app in apps:
        comparison = compare_app(app, scale, seed)
        base = comparison.default_metrics.total_cycles
        ours = comparison.time_reduction()

        # Data mapping alone: default placement + page->MC override.
        machine = paper_machine()
        program = build_workload(app, scale, seed)
        placement = DefaultPlacement(machine).place(program)
        mapping = profile_page_mc_mapping(machine, placement.units)
        metrics = Simulator(machine, SimConfig(mc_override=mapping)).run(
            placement.units
        )
        data_only = (base - metrics.total_cycles) / base if base else 0.0

        # Combined: our schedule + the same page->MC override.
        machine2 = paper_machine()
        build_workload(app, scale, seed).declare_on(machine2)
        units = comparison.partition.units()
        mapping2 = profile_page_mc_mapping(machine2, units)
        metrics2 = Simulator(machine2, SimConfig(mc_override=mapping2)).run(units)
        combined = (base - metrics2.total_cycles) / base if base else 0.0

        reductions[app] = (ours, data_only, combined)
    return Fig23Result(reductions)


if __name__ == "__main__":
    raise SystemExit(experiment_main(run))
