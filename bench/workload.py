"""One benchmark workload in a fresh interpreter; prints one JSON line.

``bench/run.py`` starts this script; it is not a user entry point::

    python bench/workload.py --workload NAME --seed N --seconds S \\
        --launched T [--setup-only] [--trace] [--out-dir DIR]

``--launched`` is the caller's ``time.monotonic()`` taken just before it
started this process, so set-up time covers interpreter start and imports.

Compile workloads time *passes*: each pass compiles every program of the
workload and simulates the compiled plan, on a machine and program built
afresh before the pass (outside the timed region).  Checks run after each
pass's timing.  The serve workload drives a daemon with a closed loop of
two client threads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import spans
from metrics import PER_LAYER, beyond, median, percentile

from repro.arch.knl import small_machine
from repro.baselines.ideal import partition_with_ideal_analysis
from repro.benchmarks.perf import tiny_app
from repro.check import invariants
from repro.exec.backend import SimBackend
from repro.experiments.common import paper_machine
from repro.faults import random_plan
from repro.pipeline import compile_program, session_for
from repro.workloads import build_workload
from repro.workloads.damov import damov_workload

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected.json"

#: Timed passes of an untraced run, whatever ``--seconds`` says.
MIN_OPS = 3
#: A traced run alternates untraced and traced passes.
MIN_TRACED_OPS = 4
#: Daemon start-ups measured per serve run (the last one takes the load).
SETUPS = 5


# -- compile workloads --------------------------------------------------------

#: seed -> (machine, zero-argument compile returning a PartitionResult).
Build = Callable[[int], Tuple[object, Callable[[], object]]]


def default_pipeline(app: str) -> Build:
    """``app`` on the paper's 6x6 machine through the default pipeline."""

    def build(seed: int):
        machine = paper_machine()
        program = build_workload(app, 1, seed)
        session = session_for(machine)
        return machine, lambda: compile_program(program, session)

    return build


def ideal_analysis(app: str) -> Build:
    """``app`` on the 6x6 machine, compiled with the ideal-analysis oracle."""

    def build(seed: int):
        machine = paper_machine()
        program = build_workload(app, 1, seed)
        return machine, lambda: partition_with_ideal_analysis(machine, program)

    return build


#: DAMOV programs are drawn at one input size: the first generator seed
#: ``seed * 1000 + k`` whose program has this many statement instances.
DAMOV_INSTANCES = range(3840, 4096)


def damov_program(damov_class: str, seed: int):
    """A DAMOV ``damov_class`` variant-0 program of size DAMOV_INSTANCES."""
    for k in itertools.count():
        program = damov_workload(damov_class, 0, 1, seed * 1000 + k).program
        if program.nests[0].instance_count in DAMOV_INSTANCES:
            return program


def degraded_mesh16(damov_class: str) -> Build:
    """A DAMOV program on a 16x16 mesh with 4 dead links and 2 dead tiles."""

    def build(seed: int):
        machine = paper_machine(mesh_cols=16, mesh_rows=16)
        protected = sorted(set(machine.mc_nodes) | set(machine.edc_nodes))
        plan = random_plan(
            16, 16, seed=seed, link_count=4, node_count=2, protected_nodes=protected
        )
        session = session_for(machine, faults=plan)
        program = damov_program(damov_class, seed)
        return machine, lambda: compile_program(program, session)

    return build


COMPILE_WORKLOADS: Dict[str, Dict[str, Build]] = {
    "paper6x6": {"cholesky": default_pipeline("cholesky"), "lu": default_pipeline("lu")},
    "ideal-oracle": {"cholesky": ideal_analysis("cholesky")},
    "mesh16-degraded": {
        "movement": degraded_mesh16("movement"),
        "balanced": degraded_mesh16("balanced"),
    },
}


class OutputMismatch(Exception):
    """A compiled program's outcome differs from the pinned expectation."""


def digest(execution) -> list:
    """(movement, cycles, units, syncs) of one simulated plan."""
    return [
        execution.data_movement,
        execution.metrics.total_cycles,
        execution.unit_count,
        execution.sync_count,
    ]


def check_outcome(
    machine, partition, units, execution, pinned: Optional[list]
) -> None:
    """Invariants of one compile + simulation, then the pinned digest."""
    invariants.check_units_wellformed(units)
    invariants.check_partition_accounting(partition)
    invariants.check_unit_nodes_alive(units, machine.dead_nodes)
    invariants.check_heatmap_conservation(execution.metrics)
    if pinned is not None and digest(execution) != pinned:
        raise OutputMismatch(f"digest {digest(execution)} != pinned {pinned}")


def warm_up() -> None:
    """One untimed compile and simulation of the tiny app (lazy imports)."""
    machine = small_machine()
    partition = compile_program(tiny_app(), session_for(machine))
    machine.mcdram.reset()
    SimBackend().run(machine, partition.units())


def build_inputs(builds: Dict[str, Build], seed: int) -> Dict:
    return {name: build(seed) for name, build in builds.items()}


class CompileRun:
    """The passes of one compile workload run, with their failures."""

    def __init__(self, workload: str, seed: int, expected: Dict):
        self.pinned = expected.get(workload, {}).get(str(seed), {})
        self.attempted = 0
        self.failures: List[str] = []

    def op(self, inputs: Dict, tracer: Optional[spans.Tracer]) -> Dict:
        """One pass: compile and simulate every program, then check."""
        restore = spans.install(tracer) if tracer else None
        before = tracer.totals() if tracer else None
        programs: Dict[str, Dict] = {}
        outcomes: Dict[str, Optional[tuple]] = {}
        started = time.perf_counter()
        try:
            with tracer.span("op") if tracer else nullcontext():
                for name, (machine, compile_fn) in inputs.items():
                    programs[name], outcomes[name] = self._program(machine, compile_fn, tracer)
        finally:
            latency = time.perf_counter() - started
            if restore:
                restore()
        for name, outcome in outcomes.items():
            if outcome is None:
                continue
            try:
                check_outcome(inputs[name][0], *outcome, self.pinned.get(name))
            except Exception as exc:  # a failed check is a failed operation
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                programs[name]["failed"] = True
        result = {"latency_s": latency, "traced": tracer is not None, "programs": programs}
        if tracer:
            result["totals"] = tracer.totals().minus(before)
        return result

    def _program(self, machine, compile_fn, tracer) -> Tuple[Dict, Optional[tuple]]:
        """Compile and simulate one program: (record, (partition, units, execution))."""
        self.attempted += 1
        record: Dict = {}
        try:
            started = time.perf_counter()
            before = tracer.totals() if tracer else None
            with tracer.span("compile") if tracer else nullcontext():
                partition = compile_fn()
            compiled = time.perf_counter()
            if tracer:
                record["compile_layers"] = tracer.totals().minus(before).self_s
            units = partition.units()
            machine.mcdram.reset()
            execution = SimBackend().run(machine, units)
            record["simulate_s"] = time.perf_counter() - compiled
            record["compile_s"] = compiled - started
        except Exception as exc:  # a raising compile is a failed operation
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return {"failed": True}, None
        record.update(
            digest=digest(execution),
            predicted=partition.movement,
            nests=len(partition.variant_by_nest),
            split_nests=sum(
                variant in ("profile", "split")
                for variant in partition.variant_by_nest.values()
            ),
        )
        return record, (partition, units, execution)


#: Per-layer call counts: metric -> traced layer.
LAYER_CALLS = {
    "placement.rank_calls": "placement.rank",
    "split.scalar_calls": "split.scalar",
    "split.template_calls": "split.template",
    "syncgraph.minimize_calls": "syncgraph.minimize",
    "gate.sim_calls": "gate.sim",
    "routing.calls": "routing",
}
#: Counters the wrappers add to (see spans.COMPILE_LAYERS).
LAYER_COUNTS = ("window.windows", "gate.sim_units", "sim.final_units")


def compile_layers(op: Dict) -> Dict[str, float]:
    """Per-layer values of one traced pass (see metrics.PER_LAYER).

    A ``<layer>.share`` is the layer's self time over the pass time; the
    ``serve.*`` layers do not run here and read 0.
    """
    totals = op["totals"]
    latency = op["latency_s"]
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        if name.endswith(".share"):
            values[name] = totals.self_s.get(name[: -len(".share")], 0.0) / latency
    for name, layer in LAYER_CALLS.items():
        values[name] = totals.calls.get(layer, 0)
    for name in LAYER_COUNTS:
        values[name] = totals.counts.get(name, 0)
    programs = [p for p in op["programs"].values() if "digest" in p]
    predicted = sum(p["predicted"] for p in programs)
    movement = sum(p["digest"][0] for p in programs)
    nests = sum(p["nests"] for p in programs)
    compile_s = sum(p["compile_s"] for p in programs)
    values.update(
        {
            "gate.accept_ratio": sum(p["split_nests"] for p in programs) / nests if nests else 0.0,
            "schedule.predicted_movement": predicted,
            "schedule.movement_gap": 1 - predicted / movement if movement else 0.0,
            "sim.movement": movement,
            "sim.cycles": sum(p["digest"][1] for p in programs),
            "compile.unattributed.share": (
                totals.self_s.get("compile", 0.0) / compile_s if compile_s else 0.0
            ),
        }
    )
    return values


def run_compile(args, expected: Dict) -> Dict:
    builds = COMPILE_WORKLOADS[args.workload]
    warm_up()
    inputs = build_inputs(builds, args.seed)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        return {"setup_s": [setup_s]}
    run = CompileRun(args.workload, args.seed, expected)
    tracer = spans.Tracer() if args.trace else None
    min_ops = MIN_TRACED_OPS if tracer else MIN_OPS
    ops: List[Dict] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        ops.append(run.op(inputs, tracer if traced else None))
        elapsed = time.perf_counter() - started
        typical = median([op["latency_s"] for op in ops])
        if len(ops) >= min_ops and elapsed + typical > args.seconds:
            break
        inputs = build_inputs(builds, args.seed)

    plain = [op for op in ops if not op["traced"]]
    latencies = [op["latency_s"] for op in plain]
    ok = [op for op in plain if not any(p.get("failed") for p in op["programs"].values())]
    result: Dict = {
        "setup_s": [setup_s],
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "e2e": {
            "latency_ms": [median(latencies) * 1000.0, len(latencies)],
            "throughput": [len(latencies) / sum(latencies), len(latencies)],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1],
        },
        "latencies_s": latencies,
        "extra": {},
    }
    if ok:
        def per_pass(key, index=None):
            return [
                sum(p[key] if index is None else p[key][index] for p in op["programs"].values())
                for op in ok
            ]

        result["extra"] = {
            "compile_s": [median(per_pass("compile_s")), "s", len(ok)],
            "simulate_s": [median(per_pass("simulate_s")), "s", len(ok)],
            "sim_movement": [median(per_pass("digest", 0)), "hops", len(ok)],
            "sim_cycles": [median(per_pass("digest", 1)), "cycles", len(ok)],
        }
    if tracer:
        traced_ops = [op for op in ops if op["traced"]]
        per_op = [compile_layers(op) for op in traced_ops]
        values = {name: median([v[name] for v in per_op]) for name in PER_LAYER}
        values["bench.trace_overhead"] = (
            median([op["latency_s"] for op in traced_ops]) / median(latencies) - 1
        )
        result["per_layer"] = values
        result["files"] = write_compile_ledger(args, traced_ops, tracer, values)
    return result


def write_compile_ledger(args, traced_ops: List[Dict], tracer: spans.Tracer, values) -> List[str]:
    """The per-layer JSON (absolute self seconds) and the span JSONL."""
    stem = Path(args.out_dir) / f"{args.workload}-seed{args.seed}"
    ops = []
    for op in traced_ops:
        compile_s = sum(p.get("compile_s", 0.0) for p in op["programs"].values())
        layers: Dict[str, float] = {}
        for program in op["programs"].values():
            for name, seconds in program.get("compile_layers", {}).items():
                layers[name] = layers.get(name, 0.0) + seconds
        ops.append(
            {
                "latency_s": op["latency_s"],
                "compile_s": compile_s,
                "compile_self_s": layers,
                "compile_self_sum_s": sum(layers.values()),
                "unattributed_s": layers.get("compile", 0.0),
                "op_self_s": op["totals"].self_s,
                "calls": op["totals"].calls,
                "counts": op["totals"].counts,
            }
        )
    ledger = {"workload": args.workload, "seed": args.seed, "per_layer": values, "traced_ops": ops}
    layers_path = f"{stem}-layers.json"
    spans_path = f"{stem}-spans.jsonl"
    with open(layers_path, "w") as fh:
        json.dump(ledger, fh, indent=2, sort_keys=True)
    tracer.write_records(spans_path)
    return [layers_path, spans_path]


# -- serve workload -----------------------------------------------------------

#: The request stream comes in blocks: SERVE_FRESH new synthetic requests,
#: each sent SERVE_SENDS times, in a seeded shuffle.  Every block thus holds
#: one miss per SERVE_SENDS requests, however far a timed run gets.
SERVE_FRESH = 20
SERVE_SENDS = 10
SERVE_CLIENTS = 2


def serve_stream(seed: int) -> Iterator[int]:
    """Synthetic request indices (``synthetic_request`` arguments)."""
    rng = random.Random(seed)
    for block in itertools.count():
        base = seed * 100000 + block * SERVE_FRESH
        order = [base + k for k in range(SERVE_FRESH) for _ in range(SERVE_SENDS)]
        rng.shuffle(order)
        yield from order


def spawn_traced_daemon(cache_dir: str, stem: str) -> subprocess.Popen:
    """The daemon under ``traced_daemon.py``; returns once it listens."""
    command = [
        sys.executable, str(BENCH_DIR / "traced_daemon.py"),
        "--spans", f"{stem}-daemon-spans.jsonl", "--totals", f"{stem}-daemon-totals.json",
        "--", "--port", "0", "--workers", "2", "--queue-depth", "256", "--cache-dir", cache_dir,
    ]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for line in process.stdout:
        if line.startswith("serve: listening on "):
            process.serve_url = line.split()[3]
            return process
    process.wait()
    raise RuntimeError(f"traced daemon exited during boot (rc={process.returncode})")


def drive(url: str, stream: Iterator[int], seconds: float) -> Dict:
    """A closed loop of SERVE_CLIENTS threads until ``seconds`` pass."""
    from repro.errors import ServeError
    from repro.serve.client import ServeClient, ServeResponseError
    from repro.serve.loadgen import synthetic_request

    lock = threading.Lock()
    samples: List[Tuple[int, float, str, bytes]] = []
    errors: List[str] = []
    deadline = time.monotonic() + seconds

    def client_loop() -> None:
        with ServeClient(url) as client:
            while True:
                with lock:
                    if time.monotonic() >= deadline:
                        return
                    index = next(stream)
                request = synthetic_request(index)
                started = time.perf_counter()
                try:
                    body, cache = client.compile_raw(request)
                except ServeResponseError as exc:
                    failure = f"request {index}: HTTP {exc.status}: {exc}"
                except (OSError, ServeError) as exc:
                    failure = f"request {index}: {type(exc).__name__}: {exc}"
                else:
                    latency = time.perf_counter() - started
                    with lock:
                        samples.append((index, latency, cache, body))
                    continue
                with lock:
                    errors.append(failure)

    threads = [threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"samples": samples, "errors": errors, "wall_s": time.perf_counter() - started}


def check_served(url: str, load: Dict) -> List[str]:
    """Artifact fingerprints, byte identity of two cached artifacts."""
    from repro.errors import ServeError
    from repro.serve.loadgen import synthetic_request, verify_identity
    from repro.serve.request import CompileRequest

    failures = []
    expected: Dict[int, str] = {}
    for index, _, _, body in load["samples"]:
        if index not in expected:
            expected[index] = CompileRequest.from_json(synthetic_request(index)).fingerprint()
        served = json.loads(body).get("fingerprint")
        if served != expected[index]:
            failures.append(f"request {index}: fingerprint {served} != {expected[index]}")
    for index in sorted(expected)[:2]:
        try:
            verify_identity(url, synthetic_request(index))
        except ServeError as exc:
            failures.append(f"request {index}: {exc}")
    return failures


def serve_layers(untraced: Dict, traced: Dict, stats: Dict, stem: str) -> Tuple[Dict, Dict]:
    """Per-layer values and the ledger of the traced half of a serve run."""
    with open(f"{stem}-daemon-totals.json") as fh:
        totals = json.load(fh)
    records = []
    with open(f"{stem}-daemon-spans.jsonl") as fh:
        for line in fh:
            records.append(json.loads(line))
    samples = traced["samples"]
    client_s = sum(latency for _, latency, _, _ in samples)
    handles = [r for r in records if r["name"] == "serve.handle"]
    handle_s = sum(r["end"] - r["start"] for r in handles)
    self_s = totals["self_s"]
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer in ("handle", "request", "store_get", "store_put", "pool_call"):
        values[f"serve.{layer}.share"] = self_s.get(f"serve.{layer}", 0.0) / client_s
    values["serve.transport.share"] = (client_s - handle_s) / client_s
    values["serve.hit_rate"] = sum(cache == "hit" for _, _, cache, _ in samples) / len(samples)
    values["serve.joined"] = stats["joined"]
    values["serve.compiles"] = stats["compiles"]
    values["bench.trace_overhead"] = (
        median([s[1] for s in samples]) / median([s[1] for s in untraced["samples"]]) - 1
    )

    children: Dict[int, Dict[str, float]] = {}
    for r in records:
        if r["name"] != "serve.handle":
            per = children.setdefault(r["rid"], {})
            per[r["name"]] = per.get(r["name"], 0.0) + r["end"] - r["start"]
    by_class: Dict[str, List[float]] = {}
    for r in handles:
        by_class.setdefault(r.get("cache", "?"), []).append(r["end"] - r["start"])
    client_by_class: Dict[str, List[float]] = {}
    for _, latency, cache, _ in samples:
        client_by_class.setdefault(cache, []).append(latency)

    def child_ms(name):
        found = [per[name] * 1000 for per in children.values() if name in per]
        return median(found) if found else 0.0

    ledger = {
        "requests": len(samples),
        "classes": {
            cache: {
                "requests": len(client_by_class.get(cache, [])),
                "client_p50_ms": median(client_by_class[cache]) * 1000,
                "handle_p50_ms": median(durations) * 1000,
                "transport_p50_ms": (median(client_by_class[cache]) - median(durations)) * 1000,
            }
            for cache, durations in by_class.items()
            if client_by_class.get(cache)
        },
        "serve.request_us": child_ms("serve.request") * 1000,
        "serve.store_get_ms": child_ms("serve.store_get"),
        "serve.store_put_ms": child_ms("serve.store_put"),
        "serve.pool_call_ms": child_ms("serve.pool_call"),
        "self_s": self_s,
        "client_s": client_s,
        "handle_s": handle_s,
    }
    return values, ledger


def stop(process: Optional[subprocess.Popen], failures: List[str]) -> None:
    """SIGTERM a daemon; a non-zero drain exit is a failure."""
    from repro.serve.loadgen import terminate_daemon

    if process is None or process.poll() is not None:
        return
    code = terminate_daemon(process)
    if code != 0:
        failures.append(f"daemon exited {code} after SIGTERM")


def run_serve(args) -> Dict:
    from repro.serve.client import ServeClient
    from repro.serve.loadgen import spawn_daemon

    out = Path(args.out_dir)
    caches = out / f"serve-cache-{args.seed}"
    # A run killed on timeout leaves its caches behind; start every run cold.
    shutil.rmtree(caches, ignore_errors=True)
    failures: List[str] = []
    setups: List[float] = []
    process = None
    try:
        for attempt in range(1 if args.trace else SETUPS):
            stop(process, failures)
            started = time.monotonic()
            process = spawn_daemon(2, 256, str(caches / f"setup{attempt}"))
            setups.append(time.monotonic() - started)
        if args.setup_only:
            return {"setup_s": setups}
        seconds = args.seconds / 2 if args.trace else args.seconds
        load = drive(process.serve_url, serve_stream(args.seed), seconds)
        failures += load["errors"] + check_served(process.serve_url, load)
        result: Dict = {"setup_s": setups}
        if args.trace:
            stop(process, failures)
            stem = str(out / f"serve-mixed-seed{args.seed}")
            process = spawn_traced_daemon(str(caches / "traced"), stem)
            traced = drive(process.serve_url, serve_stream(args.seed), seconds)
            failures += traced["errors"] + check_served(process.serve_url, traced)
            with ServeClient(process.serve_url) as client:
                stats = client.stats()
            stop(process, failures)
            values, ledger = serve_layers(load, traced, stats, stem)
            with open(f"{stem}-layers.json", "w") as fh:
                json.dump({"per_layer": values, "serve": ledger}, fh, indent=2, sort_keys=True)
            result["per_layer"] = values
            result["files"] = [f"{stem}-layers.json", f"{stem}-daemon-spans.jsonl"]
            load = traced
        else:
            stop(process, failures)
        latencies = [s[1] * 1000.0 for s in load["samples"]]
        attempted = len(load["samples"]) + len(load["errors"])
        n = len(latencies)
        result.update(
            attempted=attempted,
            failed=len(failures),
            failures=failures[:20],
            e2e={
                "latency_ms": [median(latencies), n],
                "throughput": [n / load["wall_s"], n],
                "peak_rss_mb": [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, 1],
            },
            extra={
                "p95_ms": [percentile(latencies, 0.95), "ms", n, beyond(n, 0.95)],
                "p99_ms": [percentile(latencies, 0.99), "ms", n, beyond(n, 0.99)],
                "hit_rate": [
                    sum(s[2] == "hit" for s in load["samples"]) / n, "fraction", n
                ],
            },
        )
        return result
    finally:
        if process is not None and process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(caches, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    if args.workload == "serve-mixed":
        result = run_serve(args)
    else:
        with open(EXPECTED) as fh:
            result = run_compile(args, json.load(fh))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
