"""Workload registry: the 12 applications by name."""

from __future__ import annotations

from typing import Dict, List

from repro.errors import WorkloadError
from repro.ir.program import Program
from repro.workloads import mantevo, splash2
from repro.workloads.base import WorkloadSpec

_SPECS: List[WorkloadSpec] = [
    WorkloadSpec("barnes", splash2.barnes, "splash2", 0.683,
                 "N-body force accumulation over interaction lists"),
    WorkloadSpec("cholesky", splash2.cholesky, "splash2", 0.965,
                 "blocked Cholesky factorization updates"),
    WorkloadSpec("fft", splash2.fft, "splash2", 0.923,
                 "strided butterfly stages + bit-reversal gather"),
    WorkloadSpec("fmm", splash2.fmm, "splash2", 0.727,
                 "fast-multipole evaluation over cell lists"),
    WorkloadSpec("lu", splash2.lu, "splash2", 0.907,
                 "dense LU elimination with pivot gather"),
    WorkloadSpec("ocean", splash2.ocean, "splash2", 0.773,
                 "2-D relaxation stencils"),
    WorkloadSpec("radiosity", splash2.radiosity, "splash2", 0.750,
                 "radiosity exchange over visibility lists"),
    WorkloadSpec("radix", splash2.radix, "splash2", 0.842,
                 "radix-sort counting + scatter"),
    WorkloadSpec("raytrace", splash2.raytrace, "splash2", 0.737,
                 "ray-grid traversal with object lists"),
    WorkloadSpec("water", splash2.water, "splash2", 0.905,
                 "molecular-dynamics force updates"),
    WorkloadSpec("minimd", mantevo.minimd, "mantevo", 0.778,
                 "Lennard-Jones force loop over neighbor lists"),
    WorkloadSpec("minixyce", mantevo.minixyce, "mantevo", 0.938,
                 "sparse circuit matrix-vector steps"),
]

_BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in _SPECS}

ALL_WORKLOAD_NAMES: List[str] = [spec.name for spec in _SPECS]


def workload_specs() -> List[WorkloadSpec]:
    """All workload specs in canonical (paper table) order."""
    return list(_SPECS)


def build_workload(name: str, scale: int = 1, seed: int = 0) -> Program:
    """Build one workload by name; ``scale`` must be at least 1."""
    spec = _BY_NAME.get(name)
    if spec is None:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {', '.join(ALL_WORKLOAD_NAMES)}"
        )
    if scale < 1:
        raise WorkloadError(f"workload scale must be >= 1, got {scale}")
    return spec.build(scale, seed)
