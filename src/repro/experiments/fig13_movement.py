"""Figure 13: reduction in on-chip data movement over the default placement.

Average (per statement) and maximum reductions in data movement, measured
from the simulator's link-traversal accounting.  Paper: geometric mean of
the average reduction ~35.3%, with Barnes/Ocean/MiniMD high and
Cholesky/LU low (their original network footprint is small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    DEFAULT_APPS,
    compare_app,
    experiment,
    experiment_main,
    format_table,
)


@dataclass
class Fig13Result:
    reductions: Dict[str, Tuple[float, float]]  # app -> (avg, max)

    def mean_reduction(self) -> float:
        values = [avg for avg, _ in self.reductions.values()]
        return sum(values) / len(values) if values else 0.0

    def report(self) -> str:
        rows = [
            [app, f"{avg * 100:.1f}%", f"{worst * 100:.1f}%"]
            for app, (avg, worst) in self.reductions.items()
        ]
        rows.append(["mean", f"{self.mean_reduction() * 100:.1f}%", ""])
        return (
            "Figure 13: data movement reduction over default placement\n"
            + format_table(["app", "avg", "max"], rows)
        )


@experiment("Figure 13", 13)
def run(apps: List[str] = DEFAULT_APPS, scale: int = 1, seed: int = 0) -> Fig13Result:
    reductions: Dict[str, Tuple[float, float]] = {}
    for app in apps:
        comparison = compare_app(app, scale, seed)
        reductions[app] = (
            comparison.movement_reduction(),
            comparison.movement_reduction_max(),
        )
    return Fig13Result(reductions)


if __name__ == "__main__":
    raise SystemExit(experiment_main(run))
