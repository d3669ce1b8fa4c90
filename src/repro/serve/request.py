"""Compile requests and their content-addressed fingerprints.

A :class:`CompileRequest` is the unit of work `repro.serve` accepts: a
program (a workload name, the built-in ``"tiny"`` app, or an inline
program spec), the machine preset to compile for, the workload
parameters, and the full pipeline shape — predictor choice, skipped
passes, and an optional fault plan.

The **fingerprint** is the artifact store's cache key, so it must obey
the same discipline as :meth:`repro.faults.FaultPlan.fingerprint`: a
short SHA-256 over the *canonical* JSON form, in which every field is
resolved to an explicit value (defaults filled in, ``skip_passes``
sorted, the fault plan reduced to its canonical ``to_json`` form).  Two
requests that could compile to different artifacts must never share a
fingerprint — in particular the predictor choice (``trace`` vs
``analytic``) and the skip-pass set are part of the key, because each
changes the compile result while leaving the program untouched
(``tests/test_serve_fingerprint.py`` plants exactly those collisions).

The ``debug`` field is deliberately **excluded** from the canonical form:
it carries test-only execution hooks (see :mod:`repro.serve.compiler`)
that never change the artifact bytes, so it must not split the cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.partitioner import PREDICTORS
from repro.errors import ConfigurationError, ParseError, ServeError
from repro.faults import FaultPlan
from repro.ir.expr import AffineIndex
from repro.ir.parser import parse_statement
from repro.pipeline.passes import skip_set

#: Canonical request schema version (bumped when the key format changes:
#: a version bump invalidates every cached artifact, which is exactly
#: right — old artifacts answered a differently-shaped question).
REQUEST_VERSION = 1

#: Fixed machine presets a request may name (resolved by
#: repro.serve.compiler).  Requests may also name a parameterized mesh
#: preset ``mesh:<cols>x<rows>`` (e.g. ``mesh:8x8``) — the KNL template
#: scaled to that mesh via :func:`repro.arch.knl.mesh_machine`.  The
#: preset string is part of the canonical form, so a 6x6 and an 8x8
#: compile of the same program never share a fingerprint.
MACHINE_PRESETS = ("small", "paper")

#: Prefix of the parameterized mesh preset.
MESH_PRESET_PREFIX = "mesh:"


def parse_mesh_preset(machine: str) -> Optional[Tuple[int, int]]:
    """``(cols, rows)`` for a ``mesh:<cols>x<rows>`` preset, else ``None``.

    Raises :class:`ServeError` for a malformed mesh preset (right prefix,
    bad dimensions) so typos fail loudly instead of falling through to
    the unknown-preset error.
    """
    if not machine.startswith(MESH_PRESET_PREFIX):
        return None
    spec = machine[len(MESH_PRESET_PREFIX):]
    cols_text, sep, rows_text = spec.partition("x")
    try:
        cols, rows = int(cols_text), int(rows_text)
    except ValueError:
        cols = rows = 0
    if not sep or cols < 2 or rows < 2:
        raise ServeError(
            f"bad mesh preset {machine!r}: expected "
            f"'{MESH_PRESET_PREFIX}<cols>x<rows>' with cols, rows >= 2"
        )
    return cols, rows

#: The built-in sub-second app name (shared with repro.obs.report).
TINY_APP = "tiny"

_REQUEST_FIELDS = {
    "version", "app", "program", "scale", "seed", "machine",
    "predictor", "skip_passes", "faults", "debug",
}

_PROGRAM_FIELDS = {"name", "arrays", "nests"}
_NEST_FIELDS = {"name", "loops", "body"}
_LOOP_FIELDS = {"var", "start", "stop", "step"}


def _require_type(value, types, what: str):
    if not isinstance(value, types):
        names = (
            types.__name__
            if isinstance(types, type)
            else "/".join(t.__name__ for t in types)
        )
        raise ServeError(
            f"{what} must be {names}, got {type(value).__name__}"
        )
    return value


#: Loop bounds and steps, and subscript coefficients and constants, lie
#: strictly inside +/- this, so each fits the machine integer the compiler
#: converts it to.
_LOOP_INT_LIMIT = 2**61


def _loop_int(value, key: str) -> int:
    """A loop bound or step: an ``int`` that is not a ``bool``, below
    :data:`_LOOP_INT_LIMIT` in magnitude.

    Anything else raises :class:`ServeError` (HTTP 400); ``int()`` would
    read ``true`` and ``1.7`` as 1, and a bound like ``10**30`` would
    overflow inside the compile.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"loop field {key!r} must be an integer, got {value!r}")
    if abs(value) >= _LOOP_INT_LIMIT:
        raise ServeError(f"loop field {key!r} must lie within +/-2**61, got {value}")
    return value


def _check_statement(text: str, arrays: Dict[str, int], loops: List[Dict]) -> None:
    """Parse one inline body statement and check each of its references.

    Inline arrays are 1-D and an inline program carries no index data, so
    a reference names a declared array through at most one affine
    subscript over the nest's loop variables.  Over the loop box (unless
    it is empty) the subscript's smallest and largest values lie in
    ``[0, size)``; they are computed exactly, taking each term at one end
    of its loop's range.  Anything else raises :class:`ServeError`.
    """
    try:
        statement = parse_statement(text)
    except (ParseError, RecursionError) as exc:
        raise ServeError(f"statement {text!r} does not parse: {exc}") from None
    ends = {}
    for loop in loops:
        values = range(loop["start"], loop["stop"], loop["step"])
        ends[loop["var"]] = (values[0], values[-1]) if values else None
    empty = None in ends.values()
    for ref in statement.refs():
        size = arrays.get(ref.array)
        if size is None:
            raise ServeError(
                f"statement {text!r} references undeclared array {ref.array!r}"
            )
        if len(ref.indices) > 1:
            raise ServeError(
                f"statement {text!r}: inline array {ref.array!r} is 1-D, "
                f"got {len(ref.indices)} subscripts"
            )
        for index in ref.indices:
            if not isinstance(index, AffineIndex):
                raise ServeError(
                    f"statement {text!r}: subscript {ref} is not affine "
                    "(an inline program carries no index data)"
                )
            low = high = index.const
            for var, coeff in index.coeffs:
                if var not in ends:
                    raise ServeError(
                        f"statement {text!r}: {var!r} is not a loop variable "
                        "of its nest"
                    )
                if not empty:
                    first, last = (coeff * end for end in ends[var])
                    low += min(first, last)
                    high += max(first, last)
            if not empty and (low < 0 or high >= size):
                raise ServeError(
                    f"statement {text!r}: subscript {ref} spans "
                    f"[{low}, {high}], outside [0, {size})"
                )
            terms = [index.const] + [coeff for _, coeff in index.coeffs]
            if any(abs(term) >= _LOOP_INT_LIMIT for term in terms):
                raise ServeError(
                    f"statement {text!r}: subscript {ref} has a coefficient "
                    "or constant outside +/-2**61"
                )


def _canonical_program(spec: Dict) -> Dict:
    """Validate an inline program spec and return its canonical form."""
    _require_type(spec, dict, "request field 'program'")
    unknown = sorted(set(spec) - _PROGRAM_FIELDS)
    if unknown:
        raise ServeError(
            f"unknown program field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_PROGRAM_FIELDS))})"
        )
    name = _require_type(spec.get("name", "program"), str, "program name")
    arrays = _require_type(spec.get("arrays"), dict, "program arrays")
    if not arrays:
        raise ServeError("program spec declares no arrays")
    canonical_arrays = {}
    for array, size in sorted(arrays.items()):
        _require_type(array, str, "array name")
        if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
            raise ServeError(f"array {array!r} size must be a positive int")
        canonical_arrays[array] = size
    nests = _require_type(spec.get("nests"), list, "program nests")
    if not nests:
        raise ServeError("program spec declares no loop nests")
    canonical_nests = []
    for position, nest in enumerate(nests):
        _require_type(nest, dict, f"nest #{position}")
        unknown = sorted(set(nest) - _NEST_FIELDS)
        if unknown:
            raise ServeError(
                f"unknown nest field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_NEST_FIELDS))})"
            )
        loops = _require_type(nest.get("loops"), list, "nest loops")
        body = _require_type(nest.get("body"), list, "nest body")
        if not loops or not body:
            raise ServeError(
                f"nest #{position} needs at least one loop and one statement"
            )
        canonical_loops = []
        for loop in loops:
            _require_type(loop, dict, "loop")
            unknown = sorted(set(loop) - _LOOP_FIELDS)
            if unknown:
                raise ServeError(f"unknown loop field(s): {', '.join(unknown)}")
            try:
                canonical = {
                    "var": _require_type(loop["var"], str, "loop var"),
                    "start": _loop_int(loop["start"], "start"),
                    "stop": _loop_int(loop["stop"], "stop"),
                    "step": _loop_int(loop.get("step", 1), "step"),
                }
            except KeyError as exc:
                raise ServeError(f"loop is missing field {exc}") from exc
            if canonical["step"] == 0:
                raise ServeError(f"loop {canonical['var']!r} has zero step")
            if any(loop["var"] == canonical["var"] for loop in canonical_loops):
                raise ServeError(
                    f"nest #{position} reuses loop variable {canonical['var']!r}"
                )
            canonical_loops.append(canonical)
        statements = [
            _require_type(stmt, str, "nest body statement") for stmt in body
        ]
        for text in statements:
            _check_statement(text, canonical_arrays, canonical_loops)
        nest_name = _require_type(
            nest.get("name", f"nest{position}"), str, "nest name"
        )
        if any(other["name"] == nest_name for other in canonical_nests):
            raise ServeError(f"nest #{position} reuses nest name {nest_name!r}")
        canonical_nests.append({
            "name": nest_name,
            "loops": canonical_loops,
            "body": statements,
        })
    return {"name": name, "arrays": canonical_arrays, "nests": canonical_nests}


@dataclass(frozen=True)
class CompileRequest:
    """One validated compile request (construct via :meth:`from_json`)."""

    app: Optional[str] = None
    program: Optional[Dict] = None
    scale: int = 1
    seed: int = 0
    machine: str = "small"
    predictor: str = "trace"
    skip_passes: Tuple[str, ...] = ()
    faults: Optional[FaultPlan] = None
    #: Test-only execution hooks; excluded from the fingerprint and only
    #: honored by a daemon started with ``--allow-debug-hooks``.
    debug: Dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: Dict) -> "CompileRequest":
        """Parse and validate a request dict; raises :class:`ServeError`."""
        _require_type(data, dict, "compile request")
        unknown = sorted(set(data) - _REQUEST_FIELDS)
        if unknown:
            raise ServeError(
                f"unknown request field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_REQUEST_FIELDS))})"
            )
        version = data.get("version", REQUEST_VERSION)
        if version != REQUEST_VERSION:
            raise ServeError(f"unsupported request version {version!r}")

        app = data.get("app")
        program = data.get("program")
        if (app is None) == (program is None):
            raise ServeError(
                "a request names exactly one of 'app' (a workload name or "
                "'tiny') or 'program' (an inline program spec)"
            )
        if app is not None:
            _require_type(app, str, "request field 'app'")
            from repro.workloads import ALL_WORKLOAD_NAMES

            if app != TINY_APP and app not in ALL_WORKLOAD_NAMES:
                known = ", ".join((TINY_APP,) + tuple(ALL_WORKLOAD_NAMES))
                raise ServeError(f"unknown app {app!r} (known: {known})")
        else:
            program = _canonical_program(program)

        scale = data.get("scale", 1)
        seed = data.get("seed", 0)
        for name, value in (("scale", scale), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServeError(f"request field {name!r} must be an int")
        if scale < 1:
            raise ServeError("request field 'scale' must be >= 1")

        machine = data.get("machine", cls._default_machine(app))
        _require_type(machine, str, "request field 'machine'")
        if machine not in MACHINE_PRESETS and parse_mesh_preset(machine) is None:
            raise ServeError(
                f"unknown machine preset {machine!r} (known: "
                f"{', '.join(MACHINE_PRESETS)}, "
                f"{MESH_PRESET_PREFIX}<cols>x<rows>)"
            )
        predictor = data.get("predictor", "trace")
        if predictor not in PREDICTORS:
            raise ServeError(
                f"unknown predictor {predictor!r} "
                f"(known: {', '.join(PREDICTORS)})"
            )

        skip_raw = data.get("skip_passes", [])
        _require_type(skip_raw, list, "request field 'skip_passes'")
        try:
            skip = tuple(sorted(skip_set(
                _require_type(name, str, "skip_passes entry") for name in skip_raw
            )))
        except ConfigurationError as exc:
            raise ServeError(str(exc)) from None

        faults = None
        faults_raw = data.get("faults")
        if faults_raw is not None:
            _require_type(faults_raw, dict, "request field 'faults'")
            plan = FaultPlan.from_json(faults_raw)
            faults = None if plan.is_empty else plan

        debug = data.get("debug") or {}
        _require_type(debug, dict, "request field 'debug'")

        return cls(
            app=app,
            program=program,
            scale=scale,
            seed=seed,
            machine=machine,
            predictor=predictor,
            skip_passes=skip,
            faults=faults,
            debug=dict(debug),
        )

    @staticmethod
    def _default_machine(app: Optional[str]) -> str:
        """'small' for tiny/inline programs, 'paper' for real workloads."""
        return "small" if app is None or app == TINY_APP else "paper"

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> Dict:
        """The fully-resolved request dict the fingerprint hashes.

        Every optional field appears with its resolved value, so requests
        that differ only in *spelling* (defaults implicit vs explicit,
        skip-pass order) canonicalize identically, while requests that
        differ in *meaning* — including predictor choice and skip-pass
        set — never do.  ``debug`` is excluded: hooks never change the
        artifact.
        """
        return {
            "version": REQUEST_VERSION,
            "app": self.app,
            "program": self.program,
            "scale": self.scale,
            "seed": self.seed,
            "machine": self.machine,
            "predictor": self.predictor,
            "skip_passes": list(self.skip_passes),
            "faults": None if self.faults is None else self.faults.to_json(),
        }

    def canonical_json(self) -> str:
        """Canonical JSON text (stable key order; what gets hashed)."""
        return json.dumps(self.canonical(), sort_keys=True)

    def fingerprint(self) -> str:
        """Short stable content hash — the artifact store's cache key."""
        digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
        return digest[:16]

    def describe(self) -> str:
        """One-line human-readable summary (trace events, CLI output)."""
        target = self.app if self.app is not None else self.program["name"]
        extras = []
        if self.predictor != "trace":
            extras.append(f"predictor={self.predictor}")
        if self.skip_passes:
            extras.append(f"skip={','.join(self.skip_passes)}")
        if self.faults is not None:
            extras.append(f"faults={self.faults.fingerprint()}")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return (
            f"{target} scale={self.scale} seed={self.seed} "
            f"machine={self.machine}{suffix}"
        )
