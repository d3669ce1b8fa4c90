"""Pin the compile workloads' outcomes into ``bench/expected.json``.

    PYTHONPATH=src python bench/pin.py [--seeds 0-9]

For every compile workload, seed and program it records the
(movement, cycles, units, syncs) of the compiled and simulated plan, after
the same invariant checks a benchmark pass runs.  A benchmark pass whose
outcome differs counts as a failed operation.  Re-pin only when the
program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from workload import COMPILE_WORKLOADS, EXPECTED, CompileRun, build_inputs


def seed_range(spec: str) -> List[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)
    pins: Dict[str, Dict] = {}
    for workload, builds in COMPILE_WORKLOADS.items():
        for seed in seed_range(args.seeds):
            run = CompileRun(workload, seed, {})
            op = run.op(build_inputs(builds, seed), None)
            if run.failures:
                print(f"{workload} seed {seed}: {run.failures}", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = {
                name: program["digest"] for name, program in op["programs"].items()
            }
            print(f"{workload} seed {seed}: {pins[workload][str(seed)]}", flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
