"""Shared fixtures: small canonical tables and backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.db.expressions import col
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.testing import sanitizer

# SEEDB_SANITIZE=1 turns on the tsan-lite lock-order sanitizer for the
# whole run: every lock the code under test creates from here on is
# tracked, and an observed acquisition-order inversion raises instead of
# maybe deadlocking some other day. Installed at import time so locks
# born in module/fixture setup are covered too.
if sanitizer.enabled_by_env():
    sanitizer.install()


@pytest.fixture
def sales_table() -> Table:
    """A small deterministic sales table (the paper's running example shape).

    12 rows; 4 Laserwave rows with the Table 1 amounts, 8 "Other" rows of
    10.0 each spread over the same stores.
    """
    stores = [
        "Cambridge, MA",
        "Seattle, WA",
        "New York, NY",
        "San Francisco, CA",
    ]
    return Table.from_columns(
        "sales",
        {
            "store": stores * 3,
            "product": ["Laserwave"] * 4 + ["Other"] * 8,
            "month": [1, 2, 3, 4] * 3,
            "amount": [180.55, 145.50, 122.00, 90.13] + [10.0] * 8,
            "profit": [18.0, 14.0, 12.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        },
        roles={
            "store": AttributeRole.DIMENSION,
            "product": AttributeRole.DIMENSION,
            "month": AttributeRole.DIMENSION,
            "amount": AttributeRole.MEASURE,
            "profit": AttributeRole.MEASURE,
        },
        semantics={"store": "geography", "month": "time"},
    )


@pytest.fixture
def laserwave_predicate():
    return col("product") == "Laserwave"


@pytest.fixture
def memory_backend(sales_table) -> MemoryBackend:
    backend = MemoryBackend()
    backend.register_table(sales_table)
    return backend


@pytest.fixture
def sqlite_backend(sales_table):
    backend = SqliteBackend()
    backend.register_table(sales_table)
    yield backend
    backend.close()


def make_medium_table() -> Table:
    """A deterministic ~3k-row table with a planted deviation.

    Products p0..p4 over regions r0..r5; rows of product p0 concentrate in
    region r0, everything else is spread uniformly (deterministically, via
    modular arithmetic — no RNG, so failures are reproducible by eye).
    """
    n = 3_000
    regions = [f"r{i % 6}" for i in range(n)]
    products = [f"p{(i // 6) % 5}" for i in range(n)]
    for i in range(n):
        if products[i] == "p0" and i % 3 != 0:
            regions[i] = "r0"
    amounts = [float(10 + (i * 7) % 90) for i in range(n)]
    quantity = [1 + (i % 5) for i in range(n)]
    return Table.from_columns(
        "orders",
        {
            "region": regions,
            "product": products,
            "quantity_band": [f"q{q}" for q in quantity],
            "amount": amounts,
            "units": [float(q) for q in quantity],
        },
        roles={
            "region": AttributeRole.DIMENSION,
            "product": AttributeRole.DIMENSION,
            "quantity_band": AttributeRole.DIMENSION,
            "amount": AttributeRole.MEASURE,
            "units": AttributeRole.MEASURE,
        },
    )


@pytest.fixture
def medium_table() -> Table:
    return make_medium_table()


@pytest.fixture
def register_metric(monkeypatch):
    """``register_metric(metric)`` for one test: a custom metric (or one
    shadowing a built-in name) reaches every path through the registry,
    and the registry is restored when the test ends."""
    from repro.metrics import registry

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    return lambda metric: registry.register_metric(metric, replace=True)


@pytest.fixture
def nan_table() -> Table:
    """A table whose float measure contains NaN (SQL NULL semantics)."""
    return Table.from_columns(
        "readings",
        {
            "sensor": ["a", "a", "b", "b", "c"],
            "value": [1.0, float("nan"), 3.0, 5.0, float("nan")],
        },
        roles={
            "sensor": AttributeRole.DIMENSION,
            "value": AttributeRole.MEASURE,
        },
    )


def view_rows(blocks) -> dict:
    """``{spec: (groups, target row, comparison row)}`` of view blocks."""
    return {
        spec: (block.groups, block.target[row], block.comparison[row])
        for block in blocks
        for row, spec in enumerate(block.specs)
    }


def assert_same_views(actual, expected, **tolerance):
    """Two lists of view blocks give every view the same groups and the
    same target and comparison values (NaN equal to NaN)."""
    actual, expected = view_rows(actual), view_rows(expected)
    assert set(actual) == set(expected)
    for spec, (groups, target, comparison) in expected.items():
        got_groups, got_target, got_comparison = actual[spec]
        assert got_groups == groups, spec.label
        for got, want in ((got_target, target), (got_comparison, comparison)):
            np.testing.assert_allclose(
                got, want, equal_nan=True, err_msg=spec.label, **tolerance
            )


def auto_plan_at_equal_prices(views, table, predicate, cardinalities, capabilities):
    """The plan ``AUTO`` builds when every candidate prices alike: the
    first candidate, the kind the capabilities declare."""
    from repro.model.reference import TABLE_REFERENCE
    from repro.optimizer.cost import CostCoefficients, choose_plan
    from repro.optimizer.plan import GroupByCombining, Planner, PlannerConfig

    plan, _decision = choose_plan(
        Planner(PlannerConfig(groupby_combining=GroupByCombining.AUTO)),
        views,
        table,
        predicate,
        cardinalities,
        capabilities,
        TABLE_REFERENCE,
        n_rows=1000,
        coefficients=CostCoefficients(0.0, 0.0, 0.0, 0.0, 0.0),
    )
    return plan
