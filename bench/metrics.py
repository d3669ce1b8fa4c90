"""Metric tables and the order statistics the benchmark reports.

Standard library only: ``run.py`` and ``ab.py`` import this without the
program on the path.  The workload and metric tables are read from
``BENCHMARK.json``, the one place that declares them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


#: The checkout's ``BENCHMARK.json``.
with open(ROOT / "BENCHMARK.json") as _fh:
    CONTRACT: Dict = json.load(_fh)

WORKLOADS = tuple(workload["name"] for workload in CONTRACT["workloads"])

#: End-to-end metrics (tracing off), name -> unit.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}

#: Per-layer metrics (the traced run), name -> unit.  A ``.share`` is the
#: layer's self time as a fraction of the traced operation time (one
#: compile+simulate pass, or one served request); counts are per pass.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, q2, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))
