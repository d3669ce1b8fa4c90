"""Structured JSONL tracing for the compile and simulate pipeline.

The pipeline is instrumented with *spans* (begin/end pairs wrapping a
phase: partitioning, predictor training, a nest's gate, one simulation)
and *points* (single events carrying counters: a window-size candidate's
predicted movement, a gate verdict, a simulator epoch snapshot).  Each
event is one JSON object per line:

    {"ev": "B", "name": "compile", "seq": 0, "t": 0.000012, "data": {...}}
    {"ev": "P", "name": "window.candidate", "seq": 7, "t": ..., "data": {"size": 3, "movement": 412}}
    {"ev": "E", "name": "compile", "seq": 31, "t": ..., "dur": 4.2, "data": {...}}

* ``ev``    — "B" (span begin), "E" (span end), "P" (point).
* ``seq``   — a per-tracer monotonic counter; consumers reconstruct span
  nesting from B/E order, so the stream needs no explicit parent ids.
* ``t``     — wall-clock seconds since the tracer was created; ``dur`` is
  the span's wall duration.  These are the *only* nondeterministic fields:
  two runs with the same seed produce identical streams once ``t``/``dur``
  are stripped (regression-tested by ``tests/test_obs_tracer.py``).
* ``data``  — JSON-safe payload (ints, floats, strings, small dicts).

Spans are also the one clock of ``src/``: a :class:`Tracer` sums the
durations of its closed spans by name (:meth:`Tracer.seconds`), and
``report.json``'s ``phase_seconds`` and ``pipeline.pass_seconds`` are
read from those sums.  A tracer built without a sink writes no events
and keeps ``enabled``/``debug`` ``False``, so no payload is built, but it
still sums its spans; :func:`repro.obs.report.build_report` runs under
one when no trace file is asked for.

The module-level tracer is :data:`NULL_TRACER`, whose methods are no-ops
and whose ``enabled`` attribute is ``False`` so hot paths can skip
payload construction with a single attribute check.  Enabling tracing
never changes simulation or compilation results — the tracer only
*reads* counters (the figure/table equivalence is regression-tested).

Usage::

    from repro.obs import tracing

    with tracing("/tmp/run.jsonl"):
        NdpPartitioner(machine).partition(program)

or install a tracer explicitly with :func:`set_tracer` / restore with the
value it returns.  Per-instance firehose events (every statement split,
every load-balancer veto, every window's sync minimization) are
additionally gated behind ``debug=True``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, IO, Iterator, List, Optional, Union


class _NullSpan:
    """Reusable no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add(self, **_payload) -> None:
        """Ignore end-payload additions (tracing is off)."""

    def end(self) -> None:
        """No-op explicit close."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default, disabled tracer: every operation is a no-op.

    ``enabled`` and ``debug`` are both ``False`` so instrumentation sites
    can guard payload construction with one attribute read — the cost of
    tracing-off is a single predictable branch per site.
    """

    enabled: bool = False
    debug: bool = False

    def span(self, name: str, **payload) -> _NullSpan:
        """Return a no-op context manager."""
        return _NULL_SPAN

    debug_span = span

    def point(self, name: str, **payload) -> None:
        """Drop the event."""

    def close(self) -> None:
        """Nothing to flush."""


#: The process-wide disabled tracer (``get_tracer()``'s default).
NULL_TRACER = NullTracer()


class _Span:
    """Context manager timing a block; it may emit B and E events.

    ``add(**payload)`` merges extra fields into the end event's ``data``
    (e.g. a measured accuracy known only once the phase finishes).  The
    duration always counts toward the tracer's totals; the events are
    written only when ``emit`` is set.
    """

    __slots__ = ("_tracer", "name", "_emit", "_start", "_end_payload")

    def __init__(
        self, tracer: "Tracer", name: str, payload: Dict[str, Any], emit: bool
    ):
        self._tracer = tracer
        self.name = name
        self._emit = emit
        self._end_payload: Dict[str, Any] = {}
        if emit:
            tracer._emit("B", name, payload)
        self._start = tracer._now()

    def add(self, **payload) -> None:
        """Attach fields to the span's end event."""
        self._end_payload.update(payload)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()

    def end(self) -> None:
        """Close the span now (for non-``with`` call sites)."""
        tracer = self._tracer
        dur = tracer._now() - self._start
        with tracer._lock:
            totals = tracer._totals
            totals[self.name] = totals.get(self.name, 0.0) + dur
        if self._emit:
            tracer._emit("E", self.name, self._end_payload, dur=dur)


class Tracer:
    """Sums span durations by name and emits structured JSONL events.

    Args:
        sink: a writable text file-like object (the tracer does not own
            it unless it was opened by :func:`tracing`).  ``None`` makes
            a sink-less tracer: no events, ``enabled`` and ``debug``
            ``False``, span durations still summed.
        debug: also emit per-instance firehose events (statement splits,
            balancer vetoes, per-window sync minimization).  Off by
            default — debug traces are large.

    Events are written eagerly, one line per event, with sorted keys so a
    byte comparison of two trace files is meaningful.

    Emission and the span totals are serialized by a lock, so one tracer
    may be shared by concurrent threads (the ``repro.serve`` daemon
    traces every request handler through the process tracer): events
    never interleave mid-line and ``seq`` stays strictly monotonic.  The
    lock is uncontended on the single-threaded compile paths.
    """

    __slots__ = ("enabled", "debug", "_sink", "_seq", "_t0", "_lock", "_totals")

    def __init__(self, sink: Optional[IO[str]] = None, debug: bool = False):
        self.enabled = sink is not None
        self.debug = debug and self.enabled
        self._sink = sink
        self._seq = 0
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._totals: Dict[str, float] = {}

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _emit(
        self,
        ev: str,
        name: str,
        payload: Dict[str, Any],
        dur: Optional[float] = None,
    ) -> None:
        with self._lock:
            event: Dict[str, Any] = {
                "ev": ev,
                "name": name,
                "seq": self._seq,
                "t": round(self._now(), 9),
            }
            if dur is not None:
                event["dur"] = round(dur, 9)
            if payload:
                event["data"] = payload
            self._seq += 1
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")

    def span(self, name: str, **payload) -> _Span:
        """Open a span; use as a context manager."""
        return _Span(self, name, payload, self.enabled)

    def debug_span(self, name: str, **payload) -> _Span:
        """A span written only to a debug trace; it always counts in totals."""
        return _Span(self, name, payload, self.debug)

    def point(self, name: str, **payload) -> None:
        """Emit a single instantaneous event."""
        if self.enabled:
            self._emit("P", name, payload)

    def seconds(self, prefix: str = "") -> Dict[str, float]:
        """Summed wall seconds of the closed spans whose name has ``prefix``.

        Keyed by the rest of the name, in the order the names first
        closed: ``seconds("pass.")`` maps ``"schedule"`` to the time
        spent in ``pass.schedule`` spans.
        """
        with self._lock:
            return {
                name[len(prefix):]: total
                for name, total in self._totals.items()
                if name.startswith(prefix)
            }

    def close(self) -> None:
        """Flush the sink (the caller owns closing the file itself)."""
        if self._sink is not None:
            self._sink.flush()


#: The installed tracer; module state so deeply nested pipeline code can
#: reach it without threading a handle through every constructor.
_CURRENT: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The currently installed tracer (:data:`NULL_TRACER` when off)."""
    return _CURRENT


def set_tracer(tracer: Union[Tracer, NullTracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    return previous


class tracing:
    """Context manager: trace the enclosed block to ``path`` (JSONL).

    ``path`` may also be an open text sink (e.g. ``io.StringIO``), in which
    case the caller keeps ownership and nothing is closed on exit, or
    ``None`` for a sink-less tracer that only sums span durations::

        with tracing("/tmp/compile.jsonl", debug=False) as tracer:
            NdpPartitioner(machine).partition(program)
    """

    def __init__(
        self, path: Union[str, IO[str], None] = None, debug: bool = False
    ):
        self._path = path
        self._debug = debug
        self._fh: Optional[IO[str]] = None
        self._tracer: Optional[Tracer] = None
        self._previous: Union[Tracer, NullTracer, None] = None

    def __enter__(self) -> Tracer:
        if isinstance(self._path, str):
            self._fh = open(self._path, "w")
            sink: Optional[IO[str]] = self._fh
        else:
            sink = self._path
        self._tracer = Tracer(sink, debug=self._debug)
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc) -> None:
        assert self._tracer is not None and self._previous is not None
        set_tracer(self._previous)
        self._tracer.close()
        if self._fh is not None:
            self._fh.close()


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def strip_wall_times(events: Iterator[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Drop the nondeterministic ``t``/``dur`` fields from each event.

    What remains is the deterministic event stream: two runs with the same
    seed must agree on it exactly.
    """
    stripped = []
    for event in events:
        clean = {k: v for k, v in event.items() if k not in ("t", "dur")}
        stripped.append(clean)
    return stripped
