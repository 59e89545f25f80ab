"""Integration: semantics are invariant to backend and optimization level.

The strongest correctness property of the reproduction: for any
combination of {memory, sqlite} x {flag combining on/off} x {aggregate
combining on/off} x {none, grouping sets, rollup}, every view's utility
must match the basic framework to floating-point accuracy.
"""

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.basic import BasicFramework
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining

PREDICATE = col("product") == "p0"
QUERY = RowSelectQuery("orders", PREDICATE)

NO_PRUNING = dict(
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
    prune_rare_access=False,
)


@pytest.fixture(scope="module")
def truth(medium_table_module):
    backend = MemoryBackend()
    backend.register_table(medium_table_module)
    return BasicFramework(
        backend, aggregate_functions=("sum", "avg", "min", "max", "var")
    ).recommend(RecommendationRequest(QUERY, k=5))


@pytest.fixture(scope="module")
def medium_table_module():
    # Rebuild the conftest medium table at module scope for reuse.
    from tests.conftest import make_medium_table

    return make_medium_table()


@pytest.mark.parametrize("backend_cls", [MemoryBackend, SqliteBackend])
@pytest.mark.parametrize(
    "mode",
    [GroupByCombining.NONE, GroupByCombining.GROUPING_SETS, GroupByCombining.ROLLUP],
)
@pytest.mark.parametrize("combine_flag", [True, False])
def test_all_configurations_match_basic(
    medium_table_module, truth, backend_cls, mode, combine_flag
):
    backend = backend_cls()
    backend.register_table(medium_table_module)
    try:
        config = SeeDBConfig(
            aggregate_functions=("sum", "avg", "min", "max", "var"),
            combine_target_comparison=combine_flag,
            combine_aggregates=True,
            groupby_combining=mode,
            **NO_PRUNING,
        )
        result = SeeDB(backend, config).recommend(RecommendationRequest(QUERY, k=5))
        assert set(result.utilities) == set(truth.utilities)
        for spec, expected in truth.utilities.items():
            assert result.utilities[spec] == pytest.approx(
                expected, rel=1e-9, abs=1e-12
            ), f"{spec.label} mismatch under {backend_cls.__name__}/{mode}/{combine_flag}"
        assert [v.spec for v in result.recommendations] == [
            v.spec for v in truth.recommendations
        ]
    finally:
        if isinstance(backend, SqliteBackend):
            backend.close()


def test_metric_changes_scores_but_pipeline_holds(medium_table_module):
    backend = MemoryBackend()
    backend.register_table(medium_table_module)
    utilities = {}
    for metric in ("js", "emd", "euclidean", "kl", "total_variation"):
        config = SeeDBConfig(metric=metric, **NO_PRUNING)
        result = SeeDB(backend, config).recommend(RecommendationRequest(QUERY, k=3))
        utilities[metric] = result.utilities
        assert all(np.isfinite(u) for u in result.utilities.values())
    # Different metrics genuinely differ in scale.
    a_spec = next(iter(utilities["js"]))
    assert utilities["js"][a_spec] != pytest.approx(utilities["emd"][a_spec])
