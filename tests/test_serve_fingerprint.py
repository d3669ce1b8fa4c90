"""Fingerprint discipline of repro.serve.request.CompileRequest.

The planted-collision tests are the regression tests for the cache-key
bug this PR fixes: two requests that compile to different artifacts
(different predictor, different skip-pass set) must never share a
fingerprint, while spelling-only differences (defaults implicit vs
explicit, skip-pass order, debug hooks) must collapse to one key.
"""

import json

import pytest

from repro.errors import ServeError
from repro.serve.compiler import compile_bytes
from repro.serve.request import CompileRequest

TINY = {"app": "tiny"}

INLINE_PROGRAM = {
    "name": "inline",
    "arrays": {"A": 256, "B": 256},
    "nests": [
        {
            "name": "main",
            "loops": [{"var": "i", "start": 0, "stop": 16}],
            "body": ["A(i) = B(i)"],
        }
    ],
}


def fp(data):
    return CompileRequest.from_json(dict(data)).fingerprint()


class TestPlantedCollisions:
    """Dimensions that change the artifact must change the key."""

    def test_predictor_changes_fingerprint(self):
        assert fp(TINY) != fp({**TINY, "predictor": "analytic"})

    def test_skip_pass_set_changes_fingerprint(self):
        assert fp(TINY) != fp({**TINY, "skip_passes": ["balance"]})

    def test_distinct_skip_sets_distinct(self):
        one = fp({**TINY, "skip_passes": ["balance"]})
        two = fp({**TINY, "skip_passes": ["sync_minimize"]})
        assert one != two

    def test_seed_scale_machine_all_keyed(self):
        keys = {
            fp(TINY),
            fp({**TINY, "seed": 1}),
            fp({**TINY, "scale": 2}),
            fp({**TINY, "machine": "paper"}),
        }
        assert len(keys) == 4

    def test_fault_plan_changes_fingerprint(self):
        faulty = {
            **TINY,
            "faults": {"seed": 7, "links": [{"src": 0, "dst": 1}]},
        }
        assert fp(TINY) != fp(faulty)

    def test_predictor_really_changes_the_artifact(self):
        """The collision is not hypothetical: the bytes differ too."""
        trace = compile_bytes(CompileRequest.from_json(dict(TINY)))
        analytic = compile_bytes(
            CompileRequest.from_json({**TINY, "predictor": "analytic"})
        )
        assert trace != analytic


class TestCanonicalization:
    """Spelling-only differences must collapse to one key."""

    def test_explicit_defaults_match_implicit(self):
        explicit = {
            "app": "tiny",
            "scale": 1,
            "seed": 0,
            "machine": "small",
            "predictor": "trace",
            "skip_passes": [],
        }
        assert fp(TINY) == fp(explicit)

    def test_skip_pass_order_and_duplicates_ignored(self):
        a = fp({**TINY, "skip_passes": ["sync_minimize", "balance"]})
        b = fp({**TINY, "skip_passes": ["balance", "sync_minimize", "balance"]})
        assert a == b

    def test_debug_hooks_do_not_split_the_cache(self):
        assert fp(TINY) == fp({**TINY, "debug": {"sleep_ms": 50}})

    def test_empty_fault_plan_is_no_fault_plan(self):
        assert fp(TINY) == fp({**TINY, "faults": {"seed": 3}})

    def test_canonical_json_is_stable(self):
        request = CompileRequest.from_json(dict(TINY))
        assert request.canonical_json() == request.canonical_json()
        assert json.loads(request.canonical_json()) == request.canonical()

    def test_inline_program_fingerprints(self):
        base = fp({"program": INLINE_PROGRAM})
        bigger = json.loads(json.dumps(INLINE_PROGRAM))
        bigger["arrays"]["A"] = 512
        assert base == fp({"program": INLINE_PROGRAM})
        assert base != fp({"program": bigger})


class TestValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ServeError, match="unknown request field"):
            CompileRequest.from_json({**TINY, "wat": 1})

    def test_app_and_program_both_given(self):
        with pytest.raises(ServeError, match="exactly one"):
            CompileRequest.from_json({"app": "tiny", "program": INLINE_PROGRAM})

    def test_neither_app_nor_program(self):
        with pytest.raises(ServeError, match="exactly one"):
            CompileRequest.from_json({})

    def test_unknown_app(self):
        with pytest.raises(ServeError, match="unknown app"):
            CompileRequest.from_json({"app": "doom"})

    def test_unknown_predictor(self):
        with pytest.raises(ServeError, match="unknown predictor"):
            CompileRequest.from_json({**TINY, "predictor": "oracle"})

    def test_unknown_backend(self):
        # Schedules execute one way; the retired backend field is unknown
        # whatever its value.
        for backend in ("sim", "runtime"):
            with pytest.raises(ServeError, match="unknown request field"):
                CompileRequest.from_json({**TINY, "backend": backend})

    def test_unknown_skip_pass(self):
        for name in ("nope", "execute"):
            with pytest.raises(ServeError, match=f"skip_passes: {name}"):
                CompileRequest.from_json({**TINY, "skip_passes": [name]})

    def test_unknown_machine(self):
        with pytest.raises(ServeError, match="machine preset"):
            CompileRequest.from_json({**TINY, "machine": "huge"})

    def test_bad_scale(self):
        with pytest.raises(ServeError, match="scale"):
            CompileRequest.from_json({**TINY, "scale": 0})

    def test_unsupported_version(self):
        with pytest.raises(ServeError, match="version"):
            CompileRequest.from_json({**TINY, "version": 99})

    def test_program_without_arrays(self):
        bad = {"name": "p", "arrays": {}, "nests": INLINE_PROGRAM["nests"]}
        with pytest.raises(ServeError, match="arrays"):
            CompileRequest.from_json({"program": bad})

    def test_default_machine_tracks_app(self):
        assert CompileRequest.from_json({"app": "tiny"}).machine == "small"
        assert CompileRequest.from_json({"app": "fft"}).machine == "paper"


class TestDeterminism:
    def test_compile_bytes_deterministic(self):
        request = CompileRequest.from_json(dict(TINY))
        assert compile_bytes(request) == compile_bytes(request)

    def test_artifact_records_its_own_fingerprint(self):
        request = CompileRequest.from_json(dict(TINY))
        artifact = json.loads(compile_bytes(request))
        assert artifact["fingerprint"] == request.fingerprint()
        assert artifact["request"] == request.canonical()


class TestMeshPresets:
    """Parameterized mesh presets split the cache key by mesh dimensions."""

    def test_mesh_dims_change_fingerprint(self):
        # The planted collision: same program, 6x6 vs 8x8 mesh — a shared
        # key would serve one mesh's artifact for the other's request.
        assert fp({**TINY, "machine": "mesh:6x6"}) != fp(
            {**TINY, "machine": "mesh:8x8"}
        )

    def test_mesh_preset_distinct_from_fixed_presets(self):
        keys = {
            fp({**TINY, "machine": "paper"}),
            fp({**TINY, "machine": "small"}),
            fp({**TINY, "machine": "mesh:6x6"}),
            fp({**TINY, "machine": "mesh:4x4"}),
        }
        assert len(keys) == 4

    def test_rectangular_orientation_keyed(self):
        assert fp({**TINY, "machine": "mesh:4x8"}) != fp(
            {**TINY, "machine": "mesh:8x4"}
        )

    def test_malformed_mesh_presets_rejected(self):
        for bad in ("mesh:", "mesh:8", "mesh:axb", "mesh:1x8", "mesh:8x1"):
            with pytest.raises(ServeError, match="mesh preset"):
                CompileRequest.from_json({**TINY, "machine": bad})

    def test_mesh_preset_compiles(self):
        request = CompileRequest.from_json({**TINY, "machine": "mesh:8x8"})
        artifact = json.loads(compile_bytes(request))
        assert artifact["request"]["machine"] == "mesh:8x8"
        assert artifact["fingerprint"] == request.fingerprint()
