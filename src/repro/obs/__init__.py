"""Observability layer: structured tracing, link heatmaps, compile reports.

Three zero-dependency pieces (DESIGN.md Section 8):

- :mod:`repro.obs.tracer` — JSONL span/point tracing of the compile
  pipeline and the simulator, and the one clock of ``src/``: a tracer
  sums its span durations by name, even without a sink.  Off by
  default; the module-global no-op tracer keeps the cost of disabled
  tracing to one attribute check at each instrumentation site.
- :mod:`repro.obs.schema` — the versioned ``report.json`` schema and a
  dependency-free validator (also runnable: ``python -m repro.obs.schema``).
- :mod:`repro.obs.report` — :func:`build_report` runs one app end to end
  and produces a schema-valid report dict; the CLI front-end is
  ``python -m repro.cli report <app>``.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    read_events,
    set_tracer,
    strip_wall_times,
    tracing,
)

# repro.obs.report pulls in the whole pipeline (partitioner, simulator,
# baselines), whose modules themselves import repro.obs.tracer — importing
# it at package-init time would be circular.  Only the tracer (a leaf
# module) loads eagerly; report and schema symbols resolve on first access
# (schema stays lazy so ``python -m repro.obs.schema`` runs warning-free).
_LAZY = {
    "build_report": "report",
    "heatmap_of": "report",
    "summary_lines": "report",
    "write_report": "report",
    "REPORT_KIND": "schema",
    "REPORT_SCHEMA_VERSION": "schema",
    "assert_valid": "schema",
    "validate_report": "schema",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.obs.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "REPORT_KIND",
    "REPORT_SCHEMA_VERSION",
    "Tracer",
    "assert_valid",
    "build_report",
    "get_tracer",
    "heatmap_of",
    "read_events",
    "set_tracer",
    "strip_wall_times",
    "summary_lines",
    "tracing",
    "validate_report",
    "write_report",
]
