"""Shared experiment fixtures and report plumbing.

Every experiment prints its paper-vs-measured table through the
``report`` fixture, so one command yields the full EXPERIMENTS.md
evidence::

    PYTHONPATH=src python -m pytest experiments -o addopts="" --benchmark-only -s

Work ratios (counted operations) are the primary reproduction
measurement; the speed claims print a ``wall_ratio`` beside them and
pytest-benchmark adds wall-clock for the core operations.
"""

from __future__ import annotations

import pytest


class ReportPrinter:
    """Tiny helper giving experiment tables a uniform look."""

    def __init__(self, experiment: str) -> None:
        self.experiment = experiment
        self._printed_header = False

    def header(self, claim: str) -> None:
        """Print the experiment banner once."""
        if not self._printed_header:
            print(f"\n=== {self.experiment} ===")
            print(f"paper claim: {claim}")
            self._printed_header = True

    def row(self, **fields) -> None:
        """Print one measurement row."""
        parts = []
        for key, value in fields.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:,.2f}")
            else:
                parts.append(f"{key}={value}")
        print("  " + "  ".join(parts))


@pytest.fixture()
def report(request) -> ReportPrinter:
    """Per-test report printer named after the test module."""
    return ReportPrinter(request.module.__name__)
