"""``repro.pipeline`` — the pass-pipeline compile flow.

The package turns the paper's §4 sequence into explicit, registered,
independently traced passes over a single :class:`CompilationSession`
context:

* :mod:`repro.pipeline.session` — :class:`CompilationSession` (machine,
  config, faults, check mode, pipeline shape, caches) and
  :func:`session_for`;
* :mod:`repro.pipeline.passes` — the :data:`PASS_REGISTRY` of named
  passes and :data:`DEFAULT_PASS_ORDER`;
* :mod:`repro.pipeline.manager` — the :class:`PassManager` driver, which
  runs each pass in a tracer span;
* :mod:`repro.pipeline.batch` — the ``--jobs`` pool helper
  :func:`run_pool` and the persistent :class:`WorkerPool` the compile
  service (:mod:`repro.serve`) shards requests across.

:func:`compile_program` is the one-call front-end: session in, partition
out, bit-identical to the pre-pipeline ``NdpPartitioner.partition`` under
the default order.
"""

from __future__ import annotations

from repro.core.partitioner import PartitionResult
from repro.ir.program import Program
from repro.pipeline.batch import WorkerCrash, WorkerPool, run_pool
from repro.pipeline.manager import PassManager
from repro.pipeline.passes import (
    DEFAULT_PASS_ORDER,
    PASS_REGISTRY,
    Artifacts,
    Pass,
    PassInfo,
)
from repro.pipeline.session import CompilationSession, SessionCaches, session_for

__all__ = [
    "Artifacts",
    "CompilationSession",
    "DEFAULT_PASS_ORDER",
    "PASS_REGISTRY",
    "Pass",
    "PassInfo",
    "PassManager",
    "SessionCaches",
    "WorkerCrash",
    "WorkerPool",
    "compile_program",
    "run_pool",
    "session_for",
]


def compile_program(program: Program, session, initial=None) -> PartitionResult:
    """Compile ``program`` under ``session``; returns the partition.

    Runs the session's pass order through a :class:`PassManager` inside
    the session's check scope.  ``initial`` seeds artifacts (the
    partitioner facade injects its predictor through it).
    """
    with session.checking():
        artifacts = PassManager(session).run(program, initial=initial)
    return artifacts.require("partition", "compile_program")
