"""Run a compiled schedule: :class:`SimBackend` wraps the event simulator."""

from repro.exec.backend import ExecutionResult, SimBackend

__all__ = ["ExecutionResult", "SimBackend"]
