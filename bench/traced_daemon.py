"""Run the serve daemon with the benchmark's serve-layer wrappers installed.

    python bench/traced_daemon.py --spans FILE --totals FILE -- [daemon args]

The wrappers (``spans.SERVE_LAYERS``) go in before
``repro.serve.daemon.main`` builds its worker pool, so they are in place
for every request.  Each ``CompileService.handle`` call is the outermost
frame of its handler thread, so every span of one request carries that
call's id.  When the daemon drains and returns (SIGTERM), the span
records are written as JSONL and the per-layer totals as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional

import spans


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="span records (JSONL)")
    parser.add_argument("--totals", required=True, help="per-layer totals (JSON)")
    args = parser.parse_args(argv[:split])

    tracer = spans.Tracer()
    spans.install(tracer, spans.SERVE_LAYERS, passes=False)
    from repro.serve import daemon

    code = daemon.main(argv[split + 1:])
    tracer.write_records(args.spans)
    with open(args.totals, "w") as fh:
        json.dump(asdict(tracer.totals()), fh, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
