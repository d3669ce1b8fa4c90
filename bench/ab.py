"""Interleaved A/B of the end-to-end metrics between two revisions.

    git worktree add ../parent <rev>
    python bench/ab.py --other ../parent [--pairs 10] [--workload NAME ...]

Side A is the program in ``--other`` (the parent), side B the program in
this checkout.  Both sides run this checkout's ``bench/run.py`` with the
same settings, for the ``run_seconds`` of ``BENCHMARK.json``; only
``--src`` differs.  Pair ``i`` runs both sides on seed ``--seed + i`` and
alternates which side goes first.

Per (workload, metric) it prints each side's median and quartiles over its
successful runs, the share of all pairs run that B wins (ties count for
neither side, and a pair with a failed run is not a win for B) and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``gain`` — B wins at least 9/10 of the pairs, at least 10 pairs
  completed on both sides, B failed no more runs than A, and the medians
  differ by more than A's quartile distance;
* ``unresolved`` — a side's quartile distance over its median exceeds the
  bound, and not every B run beats every A run;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``within bound`` otherwise.

Every run is listed.  The exit status is 1 when a run failed or a verdict
is ``regression``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from metrics import CONTRACT, ROOT, WORKLOADS, median, quartiles, spread

BENCH_DIR = Path(__file__).resolve().parent


#: Fewest pairs completed on both sides that can carry a gain.
MIN_PAIRS = 10


def compare(
    a: Sequence[Optional[float]], b: Sequence[Optional[float]], better: str, bound: float
) -> Dict:
    """Verdict for paired runs ``a[i]``, ``b[i]`` of one metric.

    ``None`` marks a failed run; each side needs at least one success.
    """
    lower = better == "lower"

    def beats(x: float, y: float) -> bool:
        return x < y if lower else x > y

    complete = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    wins = sum(beats(y, x) for x, y in complete) / len(a)
    a_ok = [x for x in a if x is not None]
    b_ok = [y for y in b if y is not None]
    a_q1, a_med, a_q3 = quartiles(a_ok)
    b_med = median(b_ok)
    worse_by = (b_med - a_med if lower else a_med - b_med) / abs(a_med)
    all_better = all(beats(y, x) for y in b_ok for x in a_ok)
    if (
        wins >= 0.9
        and len(complete) >= MIN_PAIRS
        and len(b_ok) >= len(a_ok)
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        verdict = "gain"
    elif max(spread(a_ok), spread(b_ok)) > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "a": {"median": a_med, "quartiles": [a_q1, a_q3]},
        "b": {"median": b_med, "quartiles": quartiles(b_ok)[::2]},
        "b_wins": wins,
        "complete": len(complete),
        "change": -worse_by,
        "verdict": verdict,
    }


def run_side(src: Path, workload: str, seed: int) -> Optional[Dict]:
    """One benchmark run against ``src``; its metrics, or None on failure."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--src", str(src),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--other", type=Path, required=True, help="checkout of side A")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"an A/B needs at least {MIN_PAIRS} pairs")
    sides = {"A": args.other.resolve() / "src", "B": ROOT / "src"}
    failed = 0
    regressions = 0
    for workload in args.workload or WORKLOADS:
        runs: Dict[str, List[Optional[Dict]]] = {"A": [], "B": []}
        for pair in range(args.pairs):
            seed = args.seed + pair
            for side in ("AB" if pair % 2 == 0 else "BA"):
                values = run_side(sides[side], workload, seed)
                print(f"{workload} pair {pair} seed {seed} {side}: {values}", flush=True)
                if values is None:
                    failed += 1
                runs[side].append(values)
        if not all(any(runs[side]) for side in "AB"):
            print(f"{workload:16s} no comparison: a side has no successful run")
            continue
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            result = compare(
                *[[None if run is None else run[name] for run in runs[side]] for side in "AB"],
                metric["better"],
                metric["bound"],
            )
            regressions += result["verdict"] == "regression"
            print(
                f"{workload:16s} {name:12s} A {result['a']['median']:.6g} "
                f"[{result['a']['quartiles'][0]:.6g}, {result['a']['quartiles'][1]:.6g}]  "
                f"B {result['b']['median']:.6g} "
                f"[{result['b']['quartiles'][0]:.6g}, {result['b']['quartiles'][1]:.6g}]  "
                f"B wins {result['b_wins']:.0%} of {args.pairs} "
                f"({result['complete']} complete)  "
                f"change {result['change']:+.1%}  {result['verdict']}"
            )
    return 1 if failed or regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
