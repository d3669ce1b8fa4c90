"""Layer spans recorded from outside the program (the traced benchmark run).

A :class:`Tracer` keeps one stack of open frames per thread.  A wrapped
call opens a frame; when it returns, its duration is charged to the
enclosing frame as covered time, and its *self time* — the duration minus
the time its child frames cover — is added to the layer's total.  A call
of a layer made while the same layer is already the innermost open frame
(``Router.hops`` calling ``Router.route_links``, ``search`` calling
``search_sample``) is folded into that frame, so it is counted once.

Coarse layers also keep one record per call (name, ids, start, end), and
every record carries the id of the outermost frame of its thread: the
benchmark operation, or the ``CompileService.handle`` call of one served
request.  Hot leaf layers (routing, per-instance splits) keep totals only.

Wrappers are installed by monkeypatching public callables of the program
(:data:`COMPILE_LAYERS`, :data:`SERVE_LAYERS`); :func:`install` returns a
function that restores the originals.  Nothing here changes what the
wrapped functions compute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("name", "id", "rid", "start", "covered")

    def __init__(self, name: str, frame_id: int, rid: int, start: float):
        self.name = name
        self.id = frame_id
        self.rid = rid
        self.start = start
        self.covered = 0.0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)


@dataclass
class Totals:
    """Per-layer self seconds, call counts and extra counters."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    counts: Dict[str, int]

    def minus(self, earlier: "Totals") -> "Totals":
        """What was added since ``earlier`` (one operation's share)."""
        return Totals(
            {k: v - earlier.self_s.get(k, 0.0) for k, v in self.self_s.items()},
            {k: v - earlier.calls.get(k, 0) for k, v in self.calls.items()},
            {k: v - earlier.counts.get(k, 0) for k, v in self.counts.items()},
        )


class Tracer:
    """In-memory span stacks, self-time totals and span records."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.records: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def open_names(self) -> List[str]:
        """Names of this thread's open frames, outermost first."""
        return [frame.name for frame in self._state().stack]

    def _open(self, state: _ThreadState, name: str) -> _Frame:
        stack = state.stack
        frame_id = next(self._ids)
        frame = _Frame(name, frame_id, stack[0].rid if stack else frame_id, self.clock())
        stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: _Frame, record: bool, result=None) -> None:
        end = self.clock()
        stack = state.stack
        stack.pop()
        duration = end - frame.start
        state.self_s[frame.name] += duration - frame.covered
        state.calls[frame.name] += 1
        if stack:
            stack[-1].covered += duration
        if not record:
            return
        entry = {
            "id": frame.id,
            "parent": stack[-1].id if stack else None,
            "rid": frame.rid,
            "name": frame.name,
            "thread": threading.get_ident(),
            "start": frame.start - self.t0,
            "end": end - self.t0,
        }
        if frame.name == "serve.handle" and isinstance(result, tuple):
            entry["cache"] = result[1]
        with self._lock:
            self.records.append(entry)

    def call(self, name: str, record: bool, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a frame named ``name``."""
        state = self._state()
        if state.stack and state.stack[-1].name == name:
            return fn(*args, **kwargs)
        frame = self._open(state, name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self._close(state, frame, record, result)

    @contextmanager
    def span(self, name: str):
        """A recorded frame around a block of the benchmark's own code."""
        state = self._state()
        frame = self._open(state, name)
        try:
            yield frame
        finally:
            self._close(state, frame, True)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (no timing)."""
        self._state().counts[name] += amount

    def totals(self) -> Totals:
        """Every thread's totals merged (read when the threads are idle)."""
        merged = Totals(defaultdict(float), defaultdict(int), defaultdict(int))
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.self_s.items():
                merged.self_s[key] += value
            for key, value in state.calls.items():
                merged.calls[key] += value
            for key, value in state.counts.items():
                merged.counts[key] += value
        return Totals(dict(merged.self_s), dict(merged.calls), dict(merged.counts))

    def write_records(self, path: str) -> None:
        """The span records as JSONL, in the order they ended."""
        with open(path, "w") as fh:
            for entry in self.records:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


# -- what gets wrapped ------------------------------------------------------

#: (module, attribute path, layer name, kind).  Kinds: ``span`` opens a
#: recorded frame, ``frame`` an unrecorded one (hot leaf layers), and
#: ``count`` only counts calls.  A ``None`` layer name is resolved per call.
Target = Tuple[str, str, Optional[str], str]

COMPILE_LAYERS: Tuple[Target, ...] = (
    ("repro.pipeline.passes", "train_predictor", "predict.train", "span"),
    ("repro.pipeline.passes", "profile_statements", "profiling.statements", "span"),
    ("repro.baselines.default_placement", "DefaultPlacement.place", "placement.place", "span"),
    ("repro.baselines.default_placement", "DefaultPlacement.rank_preferences",
     "placement.rank", "span"),
    ("repro.core.window", "WindowSizeSearch.search", "window.size_search", "span"),
    ("repro.core.window", "WindowSizeSearch.search_sample", "window.size_search", "span"),
    ("repro.core.window", "WindowScheduler.schedule_nest", "window.schedule_nest", "span"),
    ("repro.core.window", "WindowScheduler.schedule_window", "window.windows", "count"),
    ("repro.core.window", "split_statement", "split.scalar", "frame"),
    ("repro.core.profiling", "split_statement", "split.scalar", "frame"),
    ("repro.core.vectorized.split_kernel", "SplitTemplates.split", "split.template", "frame"),
    ("repro.core.vectorized.split_kernel", "SplitTemplates.split_with_map",
     "split.template", "frame"),
    ("repro.core.vectorized", "templates_for", "vectorized.tables", "span"),
    ("repro.core.vectorized.tables", "NestTables.ensure", "vectorized.tables", "span"),
    ("repro.core.syncgraph", "SyncGraph.minimize_in", "syncgraph.minimize", "frame"),
    ("repro.sim.engine", "Simulator.run", None, "span"),
    ("repro.exec.backend", "SimBackend.run", "sim.final", "span"),
    ("repro.noc.routing", "Router.route_links", "routing", "frame"),
    ("repro.noc.routing", "Router.route_nodes", "routing", "frame"),
    ("repro.noc.routing", "Router.hops", "routing", "frame"),
)

SERVE_LAYERS: Tuple[Target, ...] = (
    ("repro.serve.daemon", "CompileService.handle", "serve.handle", "span"),
    ("repro.serve.request", "CompileRequest.from_json", "serve.request", "span"),
    ("repro.serve.request", "CompileRequest.fingerprint", "serve.request", "span"),
    ("repro.serve.store", "ArtifactStore.get", "serve.store_get", "span"),
    ("repro.serve.store", "ArtifactStore.put", "serve.store_put", "span"),
    ("repro.pipeline.batch", "WorkerPool.call", "serve.pool_call", "span"),
)


def _simulator_layer(tracer: Tracer) -> str:
    """``Simulator.run`` inside the schedule pass is the empirical gate."""
    return "gate.sim" if "pipeline.schedule" in tracer.open_names() else "sim.final"


def _units_of(args, kwargs) -> int:
    """Unit count of a ``Simulator.run(units)`` call."""
    return len(kwargs["units"] if "units" in kwargs else args[1])


def _wrap(tracer: Tracer, fn, layer: Optional[str], kind: str):
    if kind == "count":

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(layer)
            return fn(*args, **kwargs)

        return counted
    record = kind == "span"
    if layer is None:

        @functools.wraps(fn)
        def simulated(*args, **kwargs):
            name = _simulator_layer(tracer)
            tracer.count(f"{name}_units", _units_of(args, kwargs))
            return tracer.call(name, record, fn, args, kwargs)

        return simulated

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return tracer.call(layer, record, fn, args, kwargs)

    return timed


def install(tracer: Tracer, targets=COMPILE_LAYERS, passes: bool = True) -> Callable[[], None]:
    """Wrap ``targets`` (and each registered pass's ``run``); returns undo.

    The pass wrappers are instance attributes over the registry's pass
    objects, which is what :class:`repro.pipeline.manager.PassManager`
    calls.
    """
    undo: List[Callable[[], None]] = []
    for module_name, path, layer, kind in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr] if owner_name else getattr(module, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(_wrap(tracer, original.__func__, layer, kind))
        else:
            wrapped = _wrap(tracer, original, layer, kind)
        setattr(owner, attr, wrapped)
        undo.append(functools.partial(setattr, owner, attr, original))
    if passes:
        from repro.pipeline.passes import PASS_REGISTRY

        for name, instance in PASS_REGISTRY.items():
            instance.run = _wrap(tracer, instance.run, f"pipeline.{name}", "span")
            undo.append(functools.partial(delattr, instance, "run"))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
