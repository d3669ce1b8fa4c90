"""The :class:`PassManager`: runs the registered passes over a program.

The manager owns the outer ``compile`` trace span, walks the registered
passes in registry order (the one pass order), runs every
executed pass in a ``pass.<name>`` span, emits one deterministic
``pipeline.pass`` trace point per pass, and honors the skip set.

Timing semantics: the tracer's ``pass.`` span totals
(``tracer.seconds("pass.")``) are report.json's ``pipeline.pass_seconds``.
``schedule``'s seconds are the wall time of the whole scheduling pass,
*including* the inline ``balance``/``sync_minimize`` work done in its hot
loop; ``sync_minimize`` additionally reports its own slice (each window's
minimize runs in a ``pass.sync_minimize`` span that only a debug trace
writes out), so the inline cost is visible without perturbing the totals.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.program import Program
from repro.pipeline.passes import PASS_REGISTRY


class PassManager:
    """Runs the pass pipeline over one program under a session."""

    def __init__(self, session):
        self.session = session

    def run(self, program: Program, initial: Optional[Dict] = None) -> Dict:
        """Execute the pipeline; returns the artifact dict.

        The session's cross-pass caches are cleared first (one compile =
        one cache scope), and the fault plan is applied if it has not been
        yet, so a bare hand-built session still compiles correctly.
        ``initial`` seeds extra artifacts before the first pass (a
        caller-built ``predictor``, such as the ideal-analysis oracle).
        """
        session = self.session
        session.caches.clear()
        session.apply_faults()
        tracer = session.tracer
        artifacts = {"program": program, **(initial or {})}
        with tracer.span(
            "compile", program=program.name, nests=len(program.nests)
        ) as compile_span:
            for index, name in enumerate(PASS_REGISTRY):
                enabled = session.pass_enabled(name)
                tracer.point(
                    "pipeline.pass", pass_name=name, index=index, skipped=not enabled
                )
                if not enabled:
                    continue
                with tracer.span(f"pass.{name}"):
                    PASS_REGISTRY[name].run(session, artifacts)
            partition = artifacts["partition"]
            compile_span.add(
                movement=partition.movement, statements=partition.statement_count
            )
        return artifacts
