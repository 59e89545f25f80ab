"""Shared benchmark fixtures and result recording.

Every benchmark writes the rows behind its table/figure to
``benchmarks/results/<experiment>.csv``, so the measured-results appendix
can be regenerated (``python -m repro.experiments.regen``) from the same
rows the benchmarks assert on. The assertions are on shape (query counts,
answers, precision, monotone trends); timings are recorded, not asserted.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.report import write_rows_csv

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_rows():
    """Callable ``record_rows(name, rows)`` writing ``<name>.csv``."""

    def _record(name: str, rows: list[dict]) -> Path:
        return write_rows_csv(rows, RESULTS_DIR / f"{name}.csv")

    return _record


@pytest.fixture(scope="session")
def synth_small():
    """50k rows, 5 dims x 2 measures — the workhorse workload."""
    return generate_synthetic(
        SyntheticConfig(n_rows=50_000, n_dimensions=5, n_measures=2,
                        cardinality=16),
        seed=101,
    )


@pytest.fixture(scope="session")
def synth_large():
    """200k rows — the data-size and sampling benchmarks."""
    return generate_synthetic(
        SyntheticConfig(n_rows=200_000, n_dimensions=5, n_measures=2,
                        cardinality=16),
        seed=102,
    )


@pytest.fixture(scope="session")
def synth_wide():
    """30k rows, 10 dims x 4 measures — the attribute-count benchmark."""
    return generate_synthetic(
        SyntheticConfig(n_rows=30_000, n_dimensions=10, n_measures=4,
                        cardinality=12),
        seed=103,
    )
