"""Differential-oracle & invariant-checking subsystem (DESIGN.md section 10).

The optimized pipeline is a chain of clever paths — Kruskal splitting,
route caches, vectorized layout maps, sync-graph minimization, schedule
reuse — whose correctness this package proves against *obviously correct
but slow* references:

* :mod:`repro.check.oracles` — brute-force reference implementations
  (exhaustive spanning-tree search, Floyd–Warshall all-pairs distances,
  a naive per-address bank/channel mapper, reference transitive
  closure/reduction) used by the property harness in ``tests/check/``;
* :mod:`repro.check.replay` — the simulator's oracle: a schedule
  replayed as a concurrent task graph (on :mod:`repro.check.taskspace`)
  must move exactly what ``Simulator.run`` moves (DESIGN.md section 15);
* :mod:`repro.check.invariants` — runtime assertion hooks threaded
  through the partitioner, scheduler, balancer, router, layout, and
  simulator, active only in *check mode*.

Check mode is off by default and costs one ``enabled()`` call per hook
site; enabling it must never change any computed number — it only adds
assertions (verified bit-for-bit by ``tests/check/test_runtime.py``).

Enable with the CLI flag (``repro ... --check``), the environment
(``REPRO_CHECK=1``), or the API::

    from repro import check
    with check.checking():
        ...             # every hook site now validates its invariant

Violations raise :class:`repro.errors.CheckError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.errors import CheckError

__all__ = ["CheckError", "checking", "disable", "enable", "enabled", "env_enabled"]

_TRUTHY = ("1", "true", "yes", "on")


def env_enabled() -> bool:
    """True when the ``REPRO_CHECK`` environment variable asks for checks."""
    return os.environ.get("REPRO_CHECK", "").strip().lower() in _TRUTHY


_enabled = env_enabled()


def enabled() -> bool:
    """True when check mode is active (hook sites consult this)."""
    return _enabled


def enable() -> None:
    """Turn check mode on for the rest of the process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn check mode off."""
    global _enabled
    _enabled = False


@contextmanager
def checking(on: bool = True):
    """Scoped check mode: restore the previous state on exit."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous
