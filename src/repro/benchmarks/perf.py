"""The built-in tiny app: two statements sharing ``C(i)`` (paper Fig 11).

It compiles and simulates in well under a second on the 4x4
``small_machine()``, so tests, ``repro.cli report tiny`` and the serve
daemon's ``tiny`` app use it.

It lives here only because ``bench/`` imports it from this path
(``bench/workload.py``, ``bench/test_bench.py``, ``bench/README.md``).
The next benchmark change moves it to :mod:`repro.workloads` and updates
those imports.
"""

from __future__ import annotations

from repro.ir.loop import Loop, LoopNest
from repro.ir.parser import parse_statement
from repro.ir.program import Program


def tiny_app() -> Program:
    """Built-in synthetic app: two statements sharing C(i) (paper Fig 11)."""
    p = Program("tiny")
    for name in ("A", "B", "C", "D", "E", "X", "Y"):
        p.declare(name, 512)
    p.add_nest(
        LoopNest.of(
            [Loop("i", 0, 32)],
            [
                parse_statement("A(i) = B(i) + C(i) + D(i) + E(i)"),
                parse_statement("X(i) = Y(i) + C(i)"),
            ],
            "main",
        )
    )
    return p
