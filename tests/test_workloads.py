"""Tests for the 12-application workload suite."""

import pytest

from repro.errors import WorkloadError
from repro.ir.dependence import analyzable_fraction, may_depend
from repro.ir.inspector import InspectorExecutor
from repro.workloads import ALL_WORKLOAD_NAMES, build_workload, workload_specs

APPS = ALL_WORKLOAD_NAMES


class TestRegistry:
    def test_twelve_apps(self):
        assert len(ALL_WORKLOAD_NAMES) == 12

    def test_suite_membership(self):
        suites = {spec.suite for spec in workload_specs()}
        assert suites == {"splash2", "mantevo"}
        mantevo = [s.name for s in workload_specs() if s.suite == "mantevo"]
        assert sorted(mantevo) == ["minimd", "minixyce"]

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("doom")

    @pytest.mark.parametrize("scale", [0, -1])
    def test_non_positive_scale_rejected(self, scale):
        with pytest.raises(WorkloadError, match="scale must be >= 1"):
            build_workload("cholesky", scale=scale)


@pytest.mark.parametrize("app", APPS)
class TestEveryWorkload:
    def test_builds_and_instantiates(self, app):
        program = build_workload(app)
        instances = program.total_instances()
        assert instances > 1000
        first = next(program.instances())
        assert first.reads and first.write

    def test_deterministic_across_builds(self, app):
        a = build_workload(app, seed=3)
        b = build_workload(app, seed=3)
        first_a = next(a.instances())
        first_b = next(b.instances())
        assert first_a.reads == first_b.reads

    def test_seed_changes_index_data(self, app):
        a = build_workload(app, seed=0)
        b = build_workload(app, seed=99)
        if not a.index_data:
            pytest.skip("no index arrays")
        name = sorted(a.index_data)[0]
        # Permutations/clusters should differ for different seeds.
        assert a.index_data[name] != b.index_data[name] or len(a.index_data[name]) < 4

    def test_scale_grows_instances(self, app):
        small = build_workload(app, scale=1).total_instances()
        big = build_workload(app, scale=2).total_instances()
        assert big > small

    def test_analyzable_fraction_near_spec(self, app):
        spec = next(s for s in workload_specs() if s.name == app)
        measured = analyzable_fraction(spec.build())
        assert measured == pytest.approx(spec.expected_analyzable, abs=0.06)

    def test_all_accesses_in_bounds(self, app):
        # Resolving instances performs the bounds checks; consume a sample.
        program = build_workload(app)
        count = 0
        for instance in program.instances():
            count += 1
            if count >= 2000:
                break
        assert count == 2000

    def test_irregular_apps_are_inspectable(self, app):
        program = build_workload(app)
        if not may_depend(program):
            pytest.skip("fully affine")
        results = InspectorExecutor(program).inspect_all()
        assert results
        for result in results.values():
            assert result.indirect_reference_count > 0
