"""Holds only :func:`repro.benchmarks.perf.tiny_app`; ``bench/`` measures."""
