"""The repository benchmark: four workloads, end-to-end metrics, a per-layer ledger.

    python bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python bench/run.py [--seed N] [--out FILE] [--trace 0|1]   # every workload

Each workload runs in fresh interpreters (``bench/workload.py``).  For a
compile workload, four processes stop once set up and a fifth measures, so
``setup_s`` is the median of five set-ups; the serve workload starts its
daemon five times in one process.  With ``--trace 1`` the measuring process
wraps the program's layers (``bench/spans.py``) and the per-layer metrics
replace the end-to-end ones; the layer JSON and span JSONL land in
``.bench_out/``.  ``--seconds`` defaults to the ``run_seconds`` of
``BENCHMARK.json``.

Every metric is printed by name with its unit and sample count.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 when an
operation failed, and 2 (with no JSON line) when a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from metrics import CONTRACT, END_TO_END, PER_LAYER, ROOT, WORKLOADS, median

BENCH_DIR = Path(__file__).resolve().parent
#: Layer JSON, span JSONL and serve caches.
OUT_DIR = ROOT / ".bench_out"
#: Set-ups measured per compile workload run.
SETUPS = 5
#: Wall-clock budget for all processes of one workload run.
WORKLOAD_TIMEOUT = 170.0


class BenchError(Exception):
    """A workload process failed to produce a result."""


def run_child(
    workload: str, args: argparse.Namespace, extra: List[str], deadline: float
) -> Dict:
    """Run ``workload.py`` once; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(args.src), env.get("PYTHONPATH", "")])
    )
    command = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR), *extra,
    ]
    launched = time.monotonic()
    process = subprocess.Popen(
        [*command, "--launched", repr(launched)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{workload}: no result within {WORKLOAD_TIMEOUT:.0f}s") from None
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited {process.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, args: argparse.Namespace) -> Dict:
    """All processes of one workload run; set-up samples merged."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT
    setups: List[float] = []
    if workload != "serve-mixed" and not args.trace:
        for _ in range(SETUPS - 1):
            setups += run_child(workload, args, ["--setup-only"], deadline)["setup_s"]
    result = run_child(workload, args, ["--trace"] if args.trace else [], deadline)
    result["setup_s"] = setups + result["setup_s"]
    return result


def contract_metrics(result: Dict, trace: bool) -> Dict[str, Dict]:
    """The metrics BENCHMARK.json declares, as ``{name: {value, unit}}``."""
    if trace:
        values = result["per_layer"]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    values = {"setup_s": median(result["setup_s"])}
    values.update({name: value for name, (value, _) in result["e2e"].items()})
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report_lines(workload: str, result: Dict, trace: bool) -> List[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"{workload} (seed {result['seed']})"]
    if trace:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:30s} {result['per_layer'][name]:14.6g} {unit}")
        lines.extend(f"  wrote {path}" for path in result.get("files", []))
    else:
        samples = {"setup_s": len(result["setup_s"])}
        samples.update({name: n for name, (_, n) in result["e2e"].items()})
        for name, entry in contract_metrics(result, False).items():
            lines.append(
                f"  {name:30s} {entry['value']:14.6g} {entry['unit']:8s} n={samples[name]}"
            )
        for name, (value, unit, n, *tail) in result["extra"].items():
            beyond = f" ({tail[0]} beyond)" if tail else ""
            lines.append(f"  {name:30s} {value:14.6g} {unit:8s} n={n}{beyond}")
    error_rate = result["failed"] / max(result["attempted"], 1)
    lines.append(
        f"  {'error_rate':30s} {error_rate:14.6g} {'fraction':8s} "
        f"n={result['attempted']} ({result['failed']} failed)"
    )
    lines.extend(f"  FAILED: {failure}" for failure in result.get("failures", []))
    return lines


def summarize(results: Dict[str, Dict], trace: bool) -> Tuple[Dict, int]:
    """The final JSON object and exit status over one or more workloads."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        (only,) = results.values()
        metrics = contract_metrics(only, trace)
    else:
        metrics = {
            f"{workload}.{name}": entry
            for workload, result in results.items()
            for name, entry in contract_metrics(result, trace).items()
        }
    payload = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return payload, 0 if failed == 0 else 1


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument(
        "--trace", type=int, default=0, choices=(0, 1),
        help="1: report the per-layer metrics of a traced run",
    )
    parser.add_argument("--out", default="", metavar="FILE", help="write every result here")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the program's source tree to benchmark (default src)")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    args.src = args.src.resolve()
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (args.src / "repro").is_dir():
        print(f"error: no program sources at {args.src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    results: Dict[str, Dict] = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = measure(workload, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result["seed"] = args.seed
        results[workload] = result
        print("\n".join(report_lines(workload, result, args.trace)), flush=True)
    payload, code = summarize(results, args.trace)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"summary": payload, "workloads": results}, fh, indent=2, sort_keys=True)
    print(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
