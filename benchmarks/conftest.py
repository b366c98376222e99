"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one experiment of EXPERIMENTS.md (a row of
the paper's Table 1, a tractable-case proposition, a reduction, or the
application-level mediator comparison).  Benchmarks both *measure* (via
pytest-benchmark) and *check* the expected qualitative outcome, so a
benchmark run doubles as an end-to-end validation of the procedures on the
workloads it times.
"""

from __future__ import annotations



def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(id): marks a benchmark as regenerating an experiment"
    )
