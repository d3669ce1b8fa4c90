"""The versioned, machine-readable ``report.json`` schema.

``repro.cli report <app>`` (and :func:`repro.obs.report.build_report`)
emit one JSON document per application run.  This module is the schema's
single source of truth: the structure below is what consumers (CI checks,
regression dashboards, the golden-file tests) may rely on, and
:func:`validate_report` checks a document against it with no third-party
dependencies.  Bump :data:`REPORT_SCHEMA_VERSION` on any breaking change
and keep the old fields readable for one version.

Schema (version 5)::

    {
      "schema_version": 5,
      "kind": "repro.report",
      "app": "ocean", "scale": 1, "seed": 0,
      "machine": {
        # example values: the paper's 6x6 mesh; any cols/rows >= 2 are
        # valid (repro.arch.knl.mesh_machine) and node_count = cols*rows
        "mesh_cols": 6, "mesh_rows": 6, "node_count": 36,
        "l1_capacity": 8192, "l2_bank_count": 32,
        "cluster_mode": "quadrant", "memory_mode": "flat"
      },
      "plan": {
        "variant_by_nest":  {"<nest>": "star|profile|split|override"},
        "window_sizes":     {"<nest>": 3},
        "split_plan":       [{"nest": "...", "body_index": 0, "split": true}],
        "movement_by_size": {"<nest>": {"1": 512, "2": 498, ...}},
        "predicted_movement": 1234,
        "predictor_accuracy": 0.87            # or null
      },
      "default":   { ...SimMetrics.to_dict()... },
      "optimized": { ...SimMetrics.to_dict()... },
      "deltas": {
        "movement_reduction": 0.31,   # fractional, Fig 13's quantity
        "time_reduction": 0.67,       # Fig 17's quantity
        "l1_improvement": -0.02,      # absolute hit-rate delta, Fig 16
        "energy_reduction": 0.25,     # Fig 24's quantity
        "sync_delta": -120            # optimized - default sync count
      },
      "link_heatmap": {                        # optimized run's NoC load
        "mesh": {"cols": 6, "rows": 6},
        "links": [{"src": 0, "dst": 1, "flits": 42}, ...],
        "total_flit_hops": 1234        # == optimized.data_movement
      },
      "phase_seconds": {"build": ..., "partition": ...,
                        "simulate_default": ..., "simulate_optimized": ...},
      "pipeline": {                    # v3: the compile pipeline's identity
        "pass_order":     ["profile", "predict", "inspect", "split",
                           "schedule", "balance", "sync_minimize"],
        "skipped_passes": [],          # e.g. ["balance"] under --skip-pass
        "pass_seconds":   {"profile": 0.01, "schedule": 1.73, ...},
        "machine": { ...CompilationSession.to_json()["machine"]... },
        "config":  { ...headline PartitionConfig/WindowConfig knobs... },
        "faults_fingerprint": null,    # or the plan's fingerprint string
        "check": false
      },
      "trace_file": "/tmp/t.jsonl",    # or null
      "faults": null                   # healthy run; object on degraded runs:
      # {
      #   "plan":        { ...FaultPlan.to_json()... },
      #   "fingerprint": "15ab0fd389c331c0",
      #   "dead_nodes":  [9],                  # every node the plan kills
      #   "dead_links":  [[5, 6], [5, 9]],     # undirected, sorted pairs
      #   "fault_events":      0,              # mid-run activations (optimized)
      #   "relocations":       0,              # units moved off dead tiles
      #   "detour_extra_hops": 16,             # flit-hops beyond Manhattan
      #   "degraded_vs_healthy": {             # optimized run, plan vs no plan
      #     "healthy_movement": 1183, "degraded_movement": 1215,
      #     "healthy_cycles": ...,    "degraded_cycles": ...,
      #     "movement_overhead": 0.027,        # fractional increase
      #     "time_overhead": 0.031
      #   }
      # }
    }

Invariants (checked by :func:`validate_report` beyond field types):

* ``link_heatmap.total_flit_hops`` equals the sum of the per-link flit
  volumes **and** equals ``optimized.data_movement`` — the heatmap is an
  exact decomposition of the paper's headline metric onto mesh links
  (under a fault plan the decomposition includes detour hops, so the
  identity holds on degraded runs too);
* every link's endpoints are valid, distinct, mesh-adjacent node ids;
* when ``faults`` is non-null, its ``dead_nodes``/``dead_links`` ids are
  in range and the ``degraded_vs_healthy`` comparison is numerically
  consistent with its own healthy/degraded operands.

Version history: v1 had no ``faults`` field; v2 added it; v3 added the
``pipeline`` section (pass order, skipped passes, per-pass wall times,
session identity); v4 added the ``execution`` section (which backend
executed the run, and the runtime backend's observed-vs-forecast
movement agreement); v5 removed it again, because the simulator is the
only way a report executes a schedule.  v1 through v4 documents still
validate — each section is required only in the versions that carry it,
and a v4 ``execution`` section is checked as before.

Validate from the command line (exit code 0 = valid)::

    python -m repro.obs.schema report.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

REPORT_SCHEMA_VERSION = 5
REPORT_KIND = "repro.report"

#: schema versions validate_report still accepts
#: (v1 = pre-faults, v2 = pre-pipeline, v3 = pre-execution,
#: v4 = with the execution section).
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4, 5)

#: backend names a v4 ``execution`` section may carry.
EXECUTION_BACKENDS = ("sim", "runtime")

#: field name -> required python type(s), for the flat top-level checks.
_TOP_LEVEL: Dict[str, Any] = {
    "schema_version": int,
    "kind": str,
    "app": str,
    "scale": int,
    "seed": int,
    "machine": dict,
    "plan": dict,
    "default": dict,
    "optimized": dict,
    "deltas": dict,
    "link_heatmap": dict,
    "phase_seconds": dict,
}

_MACHINE_FIELDS = {
    "mesh_cols": int,
    "mesh_rows": int,
    "node_count": int,
    "l1_capacity": int,
    "l2_bank_count": int,
    "cluster_mode": str,
    "memory_mode": str,
}

_PLAN_FIELDS = {
    "variant_by_nest": dict,
    "window_sizes": dict,
    "split_plan": list,
    "movement_by_size": dict,
    "predicted_movement": int,
}

_DELTA_FIELDS = (
    "movement_reduction",
    "time_reduction",
    "l1_improvement",
    "energy_reduction",
    "sync_delta",
)

_METRIC_FIELDS = (
    "total_cycles",
    "data_movement",
    "l1_hit_rate",
    "l2_hit_rate",
    "sync_count",
    "energy_pj",
)

_PHASES = ("build", "partition", "simulate_default", "simulate_optimized")

#: required fields of a non-null top-level ``faults`` object.
_FAULT_FIELDS: Dict[str, Any] = {
    "plan": dict,
    "fingerprint": str,
    "dead_nodes": list,
    "dead_links": list,
    "fault_events": int,
    "relocations": int,
    "detour_extra_hops": int,
    "degraded_vs_healthy": dict,
}

_FAULT_COMPARISON_FIELDS = (
    "healthy_movement",
    "degraded_movement",
    "healthy_cycles",
    "degraded_cycles",
    "movement_overhead",
    "time_overhead",
)

#: required fields of the ``pipeline`` section (v3+).
_PIPELINE_FIELDS: Dict[str, Any] = {
    "pass_order": list,
    "skipped_passes": list,
    "pass_seconds": dict,
    "machine": dict,
    "config": dict,
}

#: required fields of the v4 ``execution`` section when the backend
#: is the task runtime; a sim execution carries only the backend name.
_RUNTIME_EXECUTION_FIELDS: Dict[str, Any] = {
    "workers": int,
    "tasks_executed": int,
    "observed_movement": int,
    "forecast_movement": int,
    "sync_count": int,
    "sync_violations": int,
}


def _check_fields(
    obj: Dict[str, Any], spec: Dict[str, Any], where: str, errors: List[str]
) -> None:
    for name, kind in spec.items():
        if name not in obj:
            errors.append(f"{where}: missing field {name!r}")
        elif not isinstance(obj[name], kind) or isinstance(obj[name], bool):
            errors.append(
                f"{where}.{name}: expected {kind.__name__}, "
                f"got {type(obj[name]).__name__}"
            )


def validate_report(report: Any) -> List[str]:
    """Check ``report`` against the schema; returns error strings.

    An empty list means the document is valid.  Checks structure, field
    types, and the cross-field invariants documented in the module
    docstring (heatmap sums, link endpoint sanity, fault-section
    consistency).  Accepts every version in
    :data:`SUPPORTED_SCHEMA_VERSIONS`; the ``faults`` field is required
    (though nullable) only from version 2 on.
    """
    errors: List[str] = []
    if not isinstance(report, dict):
        return [f"report: expected a JSON object, got {type(report).__name__}"]
    _check_fields(report, _TOP_LEVEL, "report", errors)
    if errors:
        return errors

    if report["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        errors.append(
            f"report.schema_version: expected one of "
            f"{SUPPORTED_SCHEMA_VERSIONS}, got {report['schema_version']!r}"
        )
    if report["kind"] != REPORT_KIND:
        errors.append(f"report.kind: expected {REPORT_KIND!r}")

    _check_fields(report["machine"], _MACHINE_FIELDS, "machine", errors)
    _check_fields(report["plan"], _PLAN_FIELDS, "plan", errors)

    for entry in report["plan"].get("split_plan", []):
        if not isinstance(entry, dict) or not (
            isinstance(entry.get("nest"), str)
            and isinstance(entry.get("body_index"), int)
            and isinstance(entry.get("split"), bool)
        ):
            errors.append(f"plan.split_plan: malformed entry {entry!r}")

    for side in ("default", "optimized"):
        metrics = report[side]
        for name in _METRIC_FIELDS:
            if name not in metrics:
                errors.append(f"{side}: missing metric {name!r}")
            elif not isinstance(metrics[name], (int, float)):
                errors.append(f"{side}.{name}: expected a number")

    for name in _DELTA_FIELDS:
        if name not in report["deltas"]:
            errors.append(f"deltas: missing field {name!r}")
        elif not isinstance(report["deltas"][name], (int, float)):
            errors.append(f"deltas.{name}: expected a number")

    for name in _PHASES:
        if name not in report["phase_seconds"]:
            errors.append(f"phase_seconds: missing phase {name!r}")
        elif not isinstance(report["phase_seconds"][name], (int, float)):
            errors.append(f"phase_seconds.{name}: expected a number")

    errors.extend(_validate_heatmap(report))

    if report.get("schema_version") != 1:
        if "faults" not in report:
            errors.append("report: missing field 'faults' (nullable from v2)")
        elif report["faults"] is not None:
            errors.extend(_validate_faults(report))

    if report.get("schema_version") not in (1, 2):
        if "pipeline" not in report:
            errors.append("report: missing field 'pipeline' (required from v3)")
        else:
            errors.extend(_validate_pipeline(report["pipeline"]))

    if report.get("schema_version") == 4:
        if "execution" not in report:
            errors.append(
                "report: missing field 'execution' (required in v4)"
            )
        else:
            errors.extend(_validate_execution(report["execution"]))
    return errors


def _validate_execution(execution: Any) -> List[str]:
    """Structural checks of the v4 ``execution`` section."""
    errors: List[str] = []
    if not isinstance(execution, dict):
        return ["execution: expected an object"]
    backend = execution.get("backend")
    if backend not in EXECUTION_BACKENDS:
        errors.append(
            f"execution.backend: expected one of {EXECUTION_BACKENDS}, "
            f"got {backend!r}"
        )
        return errors
    if backend == "sim":
        # The sim execution *is* the default/optimized metrics; the
        # section only records that the default path produced them.
        return errors
    _check_fields(execution, _RUNTIME_EXECUTION_FIELDS, "execution", errors)
    if errors:
        return errors
    seed = execution.get("seed")
    if seed is not None and not isinstance(seed, int):
        errors.append("execution.seed: expected an int or null")
    for name in ("agreement", "wall_seconds"):
        if name in execution and not isinstance(
            execution[name], (int, float)
        ):
            errors.append(f"execution.{name}: expected a number")
    forecast = execution["forecast_movement"]
    observed = execution["observed_movement"]
    agreement = execution.get("agreement")
    if isinstance(agreement, (int, float)) and forecast > 0:
        expected = abs(observed - forecast) / forecast
        if abs(agreement - expected) > 1e-6:
            errors.append(
                f"execution.agreement {agreement} inconsistent with "
                f"movement operands ({observed} vs {forecast})"
            )
    return errors


def _validate_pipeline(pipeline: Any) -> List[str]:
    """Structural checks of the v3 ``pipeline`` section."""
    errors: List[str] = []
    if not isinstance(pipeline, dict):
        return ["pipeline: expected an object"]
    _check_fields(pipeline, _PIPELINE_FIELDS, "pipeline", errors)
    if errors:
        return errors
    for field in ("pass_order", "skipped_passes"):
        if not all(isinstance(name, str) for name in pipeline[field]):
            errors.append(f"pipeline.{field}: expected a list of pass names")
    order = pipeline["pass_order"]
    if len(set(order)) != len(order):
        errors.append(f"pipeline.pass_order: duplicate pass name in {order}")
    for name, seconds in pipeline["pass_seconds"].items():
        if not isinstance(name, str) or not isinstance(seconds, (int, float)):
            errors.append(
                f"pipeline.pass_seconds: malformed entry {name!r}: {seconds!r}"
            )
    if not isinstance(pipeline.get("check"), bool):
        errors.append("pipeline.check: expected a boolean")
    fingerprint = pipeline.get("faults_fingerprint")
    if fingerprint is not None and not isinstance(fingerprint, str):
        errors.append("pipeline.faults_fingerprint: expected a string or null")
    return errors


def _validate_faults(report: Dict[str, Any]) -> List[str]:
    """Structural + consistency checks of a non-null ``faults`` section."""
    errors: List[str] = []
    faults = report["faults"]
    if not isinstance(faults, dict):
        return ["faults: expected an object or null"]
    _check_fields(faults, _FAULT_FIELDS, "faults", errors)
    if errors:
        return errors

    machine = report["machine"]
    node_count = machine.get("mesh_cols", 0) * machine.get("mesh_rows", 0)
    for node in faults["dead_nodes"]:
        if not isinstance(node, int) or not 0 <= node < node_count:
            errors.append(f"faults.dead_nodes: bad node id {node!r}")
    for link in faults["dead_links"]:
        if (
            not isinstance(link, list)
            or len(link) != 2
            or not all(isinstance(n, int) for n in link)
            or not all(0 <= n < node_count for n in link)
        ):
            errors.append(f"faults.dead_links: malformed link {link!r}")

    comparison = faults["degraded_vs_healthy"]
    for name in _FAULT_COMPARISON_FIELDS:
        if name not in comparison:
            errors.append(f"faults.degraded_vs_healthy: missing {name!r}")
        elif not isinstance(comparison[name], (int, float)):
            errors.append(
                f"faults.degraded_vs_healthy.{name}: expected a number"
            )
    if not errors:
        healthy = comparison["healthy_movement"]
        degraded = comparison["degraded_movement"]
        if healthy > 0:
            expected = (degraded - healthy) / healthy
            if abs(comparison["movement_overhead"] - expected) > 1e-6:
                errors.append(
                    "faults.degraded_vs_healthy: movement_overhead "
                    f"{comparison['movement_overhead']} inconsistent with "
                    f"movement operands ({healthy} -> {degraded})"
                )
        degraded_movement = report["optimized"].get("data_movement")
        if isinstance(degraded_movement, (int, float)) and (
            degraded != degraded_movement
        ):
            errors.append(
                f"faults.degraded_vs_healthy: degraded_movement {degraded} "
                f"!= optimized.data_movement {degraded_movement}"
            )
    return errors


def _validate_heatmap(report: Dict[str, Any]) -> List[str]:
    """The heatmap's structural and accounting invariants."""
    errors: List[str] = []
    heatmap = report["link_heatmap"]
    mesh = heatmap.get("mesh")
    if not isinstance(mesh, dict) or not (
        isinstance(mesh.get("cols"), int) and isinstance(mesh.get("rows"), int)
    ):
        return ["link_heatmap.mesh: expected {cols: int, rows: int}"]
    links = heatmap.get("links")
    if not isinstance(links, list):
        return ["link_heatmap.links: expected a list"]
    node_count = mesh["cols"] * mesh["rows"]
    total = 0
    for link in links:
        if not isinstance(link, dict) or not all(
            isinstance(link.get(k), int) for k in ("src", "dst", "flits")
        ):
            errors.append(f"link_heatmap.links: malformed link {link!r}")
            continue
        src, dst = link["src"], link["dst"]
        if not (0 <= src < node_count and 0 <= dst < node_count) or src == dst:
            errors.append(f"link_heatmap.links: bad endpoints {src}->{dst}")
        else:
            sx, sy = src % mesh["cols"], src // mesh["cols"]
            dx, dy = dst % mesh["cols"], dst // mesh["cols"]
            if abs(sx - dx) + abs(sy - dy) != 1:
                errors.append(
                    f"link_heatmap.links: {src}->{dst} is not a mesh link"
                )
        total += link["flits"]
    declared = heatmap.get("total_flit_hops")
    if not isinstance(declared, int):
        errors.append("link_heatmap.total_flit_hops: expected an int")
    else:
        if declared != total:
            errors.append(
                f"link_heatmap: link volumes sum to {total}, "
                f"declared total is {declared}"
            )
        movement = report["optimized"].get("data_movement")
        if isinstance(movement, (int, float)) and declared != movement:
            errors.append(
                f"link_heatmap: total {declared} != optimized data "
                f"movement {movement} — the heatmap must decompose it"
            )
    return errors


def assert_valid(report: Any) -> None:
    """Raise ``ValueError`` listing every schema violation (if any)."""
    errors = validate_report(report)
    if errors:
        raise ValueError("invalid report.json:\n  " + "\n  ".join(errors))


def main(argv: List[str] = None) -> int:
    """CLI: validate report files; prints errors, exits non-zero on any."""
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.obs.schema report.json [...]")
        return 2
    status = 0
    for path in paths:
        try:
            with open(path) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
        errors = validate_report(report)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  {error}")
        else:
            print(f"{path}: ok (schema v{report['schema_version']})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
