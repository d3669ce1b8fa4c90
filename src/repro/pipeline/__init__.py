"""``repro.pipeline`` — the pass-pipeline compile flow.

The package turns the paper's §4 sequence into explicit, registered,
independently traced passes over a single :class:`CompilationSession`
context.  The sequence is fixed: every compile runs the registered
passes in registry order, minus the ones its session skips.

* :mod:`repro.pipeline.session` — :class:`CompilationSession` (machine,
  config, faults, skipped passes, caches) and :func:`session_for`;
* :mod:`repro.pipeline.passes` — the :data:`PASS_REGISTRY` of named
  passes and :data:`DEFAULT_PASS_ORDER`;
* :mod:`repro.pipeline.manager` — the :class:`PassManager` driver, which
  runs each pass in a tracer span;
* :mod:`repro.pipeline.batch` — the ``--jobs`` pool helper
  :func:`run_pool` and the persistent :class:`WorkerPool` the compile
  service (:mod:`repro.serve`) shards requests across.

:func:`compile_program` is the one entry point: program and session in,
partition out::

    partition = compile_program(program, session_for(machine, config))
"""

from __future__ import annotations

from repro.core.partitioner import PartitionResult
from repro.ir.program import Program
from repro.pipeline.batch import WorkerCrash, WorkerPool, run_pool
from repro.pipeline.manager import PassManager
from repro.pipeline.passes import (
    DEFAULT_PASS_ORDER,
    PASS_REGISTRY,
    Pass,
    PassInfo,
)
from repro.pipeline.session import CompilationSession, SessionCaches, session_for

__all__ = [
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

    Runs the pass order through a :class:`PassManager`.  ``initial`` seeds
    artifacts before the first pass: a ``predictor`` given there is used
    (and trained) in place of the one ``session.config`` names — how the
    ideal-analysis oracle gets in.
    """
    return PassManager(session).run(program, initial=initial)["partition"]
