"""Metamorphic relations of the deviation utility, on every plan shape.

Two relations that follow from the utility's definition and need no
oracle: comparing the whole table with itself (``WHERE TRUE`` against the
``table`` reference) deviates nowhere, and the order of D's rows is not
part of any view. Each is checked on both backends and every plan kind,
for every registered metric (phased runs admit the [0, 1]-bounded ones).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import TruePredicate, col
from repro.db.query import RowSelectQuery
from repro.engine.incremental import BOUNDED_METRICS
from repro.metrics.registry import available_metrics
from repro.optimizer.plan import GroupByCombining

from tests.conftest import make_medium_table

BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}
KINDS = [GroupByCombining.NONE, GroupByCombining.GROUPING_SETS, GroupByCombining.ROLLUP]
METRICS = tuple(available_metrics())


def run(table, kind, requests):
    """Each request's result, run on every backend, keyed by backend name."""
    results = {}
    for name, backend_class in BACKENDS.items():
        backend = backend_class()
        try:
            backend.register_table(table)
            with SeeDB(backend, SeeDBConfig(groupby_combining=kind)) as seedb:
                results[name] = [seedb.recommend(request) for request in requests]
        finally:
            backend.close()
    return results


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("strategy", ["batch", "incremental"])
@pytest.mark.parametrize("predicate", [None, TruePredicate()], ids=["none", "true"])
def test_where_true_against_the_table_scores_zero(predicate, strategy, kind):
    extra = {"strategy": "incremental"} if strategy == "incremental" else {}
    metrics = [m for m in METRICS if strategy == "batch" or m in BOUNDED_METRICS]
    requests = [
        RecommendationRequest(RowSelectQuery("orders", predicate), metric=metric, **extra)
        for metric in metrics
    ]
    for name, results in run(make_medium_table(), kind, requests).items():
        for metric, result in zip(metrics, results):
            assert result.utilities, (name, metric)
            assert set(result.utilities.values()) == {0.0}, (name, metric)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_permuting_rows_changes_no_answer(kind):
    table = make_medium_table()
    permuted = table.take(np.random.default_rng(7).permutation(table.num_rows))
    requests = [
        RecommendationRequest(RowSelectQuery("orders", col("product") == "p0"), metric=metric)
        for metric in METRICS
    ]
    expected, actual = run(table, kind, requests), run(permuted, kind, requests)
    for name in BACKENDS:
        for metric, want, got in zip(METRICS, expected[name], actual[name]):
            assert [v.spec for v in got.recommendations] == [
                v.spec for v in want.recommendations
            ], (name, metric)
            assert set(got.utilities) == set(want.utilities)
            for spec, utility in want.utilities.items():
                assert got.utilities[spec] == pytest.approx(utility, abs=1e-12), (
                    name,
                    metric,
                    spec.label,
                )
