"""Golden bit-equivalence and determinism tests for the mesh tentpole.

The sparse-geometry and hierarchical-placement changes must be invisible
on the paper's 6x6 default path: the full compile+simulate reports of the
tiny app and MiniMD are pinned to the digests captured on the seed
revision — any byte drift in the scrubbed report is a regression, not a
tolerance question.

Also pinned here: the DAMOV generator is a pure function of its
arguments (the mesh-sweep crossover report is only regression-gateable
if its inputs never wobble), and the link heatmap remains a lossless
decomposition of ``DataMovement`` on non-square and beyond-threshold
meshes.
"""

import hashlib
import json

from repro.arch.knl import mesh_machine
from repro.baselines.default_placement import DefaultPlacement
from repro.benchmarks.perf import tiny_app
from repro.noc.network import LinkStats
from repro.obs.report import build_report
from repro.sim.engine import SimConfig, Simulator
from repro.workloads.damov import DAMOV_CLASSES, classify_program, damov_suite

#: Volatile report fields scrubbed before hashing: timings, file paths,
#: the schema version, and the pipeline section (per-pass wall-clock
#: seconds) that schema v3 added on top of the seed revision's reports.
#: Schema v5 dropped v4's execution section, so a stray one changes the
#: digest.
VOLATILE = (
    "schema_version", "phase_seconds", "trace_file", "pipeline",
)

#: sha256 of the scrubbed 6x6 reports, captured on the seed revision
#: (before the sparse-geometry/hierarchical-placement changes).
SEED_DIGESTS = {
    "tiny": "c47c3df1ee6883e90599ab839250702cc6ebc83a3a7b330a17dcafdd6b9e1705",
    "minimd": "4eebe53d6cef4a07e0bec96ee5897c1e6d7993410020369cf458a791afb64e9e",
}


def report_digest(app: str, scale: int = 1) -> str:
    report = build_report(app, scale=scale)
    for key in VOLATILE:
        report.pop(key, None)
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()


class TestGoldenReports:
    def test_tiny_report_bit_identical_to_seed(self):
        assert report_digest("tiny") == SEED_DIGESTS["tiny"]

    def test_minimd_report_bit_identical_to_seed(self):
        assert report_digest("minimd") == SEED_DIGESTS["minimd"]


class TestDamovDeterminism:
    def test_same_arguments_same_programs(self):
        first = damov_suite(6, scale=1, seed=7)
        second = damov_suite(6, scale=1, seed=7)
        for a, b in zip(first, second):
            assert a.name == b.name
            assert a.damov_class == b.damov_class
            assert a.intensity == b.intensity
            assert [str(s) for n in a.program.nests for s in n.body] == [
                str(s) for n in b.program.nests for s in n.body
            ]
            assert a.program.index_data == b.program.index_data

    def test_different_seed_different_index_data(self):
        one = damov_suite(6, seed=0)
        two = damov_suite(6, seed=1)
        moved = [w for w in one if w.damov_class == "movement"]
        moved2 = [w for w in two if w.damov_class == "movement"]
        assert any(
            a.program.index_data != b.program.index_data
            for a, b in zip(moved, moved2)
        )

    def test_declared_class_matches_measured_intensity(self):
        for workload in damov_suite(6):
            assert classify_program(workload.program) == workload.damov_class

    def test_any_count_covers_every_class(self):
        classes = {w.damov_class for w in damov_suite(3)}
        assert classes == set(DAMOV_CLASSES)


class TestHeatmapConservation:
    """Every data flit-hop lands on exactly one link — any mesh shape."""

    def _movement_and_heatmap(self, cols, rows):
        machine = mesh_machine(cols, rows)
        program = tiny_app()
        placement = DefaultPlacement(machine).place(program)
        metrics = Simulator(machine, SimConfig()).run(placement.units)
        heatmap = LinkStats.from_link_flits(cols, rows, metrics.link_flits)
        return metrics.data_movement, heatmap.total_flit_hops()

    def test_non_square_mesh_sums_to_data_movement(self):
        movement, hops = self._movement_and_heatmap(8, 4)
        assert movement > 0
        assert hops == movement

    def test_large_mesh_sums_to_data_movement(self):
        # 12x9 is past the hierarchical threshold and non-square.
        movement, hops = self._movement_and_heatmap(12, 9)
        assert movement > 0
        assert hops == movement


class TestLargeMeshCompiles:
    """The acceptance criterion: big-mesh compiles complete end to end."""

    def test_minimd_compiles_at_12x12(self):
        from repro.core.partitioner import NdpPartitioner
        from repro.experiments.common import paper_machine
        from repro.pipeline import session_for
        from repro.workloads import build_workload

        session = session_for(paper_machine(mesh_cols=12, mesh_rows=12))
        partition = NdpPartitioner.from_session(session).partition(
            build_workload("minimd", 1, 0)
        )
        assert partition.movement > 0

    def test_tiny_compiles_at_16x16(self):
        from repro.core.partitioner import NdpPartitioner
        from repro.experiments.common import paper_machine
        from repro.pipeline import session_for

        session = session_for(paper_machine(mesh_cols=16, mesh_rows=16))
        partition = NdpPartitioner.from_session(session).partition(tiny_app())
        assert partition.movement >= 0
