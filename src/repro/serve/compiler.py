"""Execute one compile request: request in, deterministic artifact out.

This is the code that runs *inside* a serve worker (or inline in the
daemon when ``--workers 0``): resolve the request's machine preset and
program, run the pass pipeline on a fresh
:class:`~repro.pipeline.session.CompilationSession`, and serialize the
result as canonical JSON bytes.

Determinism is the load-bearing property: the artifact bytes are a pure
function of the request's canonical form, so a cached artifact is
**byte-identical** to a fresh compile of the same request (asserted by
``tests/test_serve_daemon.py`` and the load harness's identity check).
Everything nondeterministic — wall times, worker identity — is excluded
from the artifact.

``worker_entry`` is the module-level function the persistent pool maps
requests onto (it must be picklable).  Its ``debug`` hooks exist for the
robustness tests only (kill a worker mid-request once, stall a request)
and are stripped by the daemon unless ``--allow-debug-hooks`` is set;
they never change the artifact bytes.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Callable, Dict

from repro.arch.machine import Machine
from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program
from repro.serve.request import TINY_APP, CompileRequest

#: Artifact schema version (see :func:`compile_artifact`).
ARTIFACT_VERSION = 1
ARTIFACT_KIND = "repro.serve.artifact"


def machine_for(request: CompileRequest) -> Machine:
    """A fresh machine for the request's preset.

    ``'small'``, ``'paper'``, or the parameterized ``mesh:<cols>x<rows>``
    form (the KNL template scaled to that mesh).
    """
    if request.machine == "small":
        from repro.arch.knl import small_machine

        return small_machine()
    from repro.serve.request import parse_mesh_preset

    mesh = parse_mesh_preset(request.machine)
    if mesh is not None:
        from repro.arch.knl import mesh_machine

        return mesh_machine(*mesh)
    from repro.experiments.common import paper_machine

    return paper_machine()


def program_for(request: CompileRequest) -> Program:
    """Build the request's program (workload, tiny app, or inline spec)."""
    if request.app == TINY_APP:
        from repro.benchmarks.perf import tiny_app

        return tiny_app()
    if request.app is not None:
        from repro.workloads import build_workload

        return build_workload(request.app, request.scale, request.seed)
    spec = request.program
    program = Program(spec["name"])
    for array, size in sorted(spec["arrays"].items()):
        program.declare(array, size)
    for nest in spec["nests"]:
        program.add_nest(
            LoopNest.of(
                [
                    Loop(
                        loop["var"], loop["start"], loop["stop"], loop["step"]
                    )
                    for loop in nest["loops"]
                ],
                [parse_statement(stmt) for stmt in nest["body"]],
                nest["name"],
            )
        )
    return program


def compile_artifact(request: CompileRequest) -> Dict:
    """Compile ``request`` and return its artifact dict (deterministic).

    The artifact records the cache key (fingerprint + canonical request),
    the pipeline shape that produced it, and the compile products the
    report path exposes (:func:`repro.obs.report._plan_info`'s plan
    object plus the headline movement/statement counts).  No wall times.
    """
    from repro.obs.report import _plan_info
    from repro.pipeline import compile_program, session_for
    from repro.pipeline.passes import predictor_pass_order, resolve_order

    machine = machine_for(request)
    program = program_for(request)
    pass_order = predictor_pass_order(request.predictor)
    session = session_for(
        machine,
        faults=request.faults,
        skip_passes=request.skip_passes,
        pass_order=pass_order,
    )
    partition = compile_program(program, session)
    return {
        "kind": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "fingerprint": request.fingerprint(),
        "request": request.canonical(),
        "pipeline": {
            "pass_order": list(resolve_order(pass_order)),
            "skipped_passes": sorted(request.skip_passes),
        },
        "plan": _plan_info(partition),
        "movement": partition.movement,
        "statement_count": partition.statement_count,
        "unit_count": len(partition.units()),
    }


def artifact_to_bytes(artifact: Dict) -> bytes:
    """Canonical serialization (stable key order, one trailing newline)."""
    return (json.dumps(artifact, indent=2, sort_keys=True) + "\n").encode()


def compile_bytes(request: CompileRequest) -> bytes:
    """Compile ``request`` straight to its canonical artifact bytes."""
    return artifact_to_bytes(compile_artifact(request))


def _run_debug_hooks(debug: Dict) -> None:
    """Honor the test-only hooks of one request (daemon-gated).

    * ``sleep_ms`` — stall before compiling, so concurrency tests can
      hold requests in flight deterministically.
    * ``kill_once_path`` — SIGKILL this worker process, but only the
      first time (a marker file at the given path records the kill), so
      the daemon's respawn-and-retry path succeeds on the second try.
    """
    sleep_ms = debug.get("sleep_ms", 0)
    if sleep_ms:
        time.sleep(float(sleep_ms) / 1000.0)
    kill_once = debug.get("kill_once_path")
    if kill_once and not os.path.exists(kill_once):
        with open(kill_once, "w") as marker:
            marker.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)


def worker_entry(payload: Dict) -> bytes:
    """Pool worker: canonical request dict (+ optional debug) -> bytes."""
    debug = payload.pop("debug", None) or {}
    request = CompileRequest.from_json(payload)
    if debug:
        _run_debug_hooks(debug)
    return compile_bytes(request)


#: Signature workers implement; the daemon holds the pool, not this module.
WorkerFn = Callable[[Dict], bytes]
