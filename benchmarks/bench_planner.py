"""E21: cost-based planning vs the static capability branch.

The static resolution of ``groupby_combining=AUTO`` knows only what the
backend *declares* (grouping sets → shared scan, else rollup); it cannot
see the data. This benchmark builds the workload that punishes that
blindness: SQLite (no native grouping sets, so static AUTO picks ROLLUP)
with high-cardinality dimensions, where each rollup bin materializes a
near-row-count cross product that the client then fetches and
marginalizes. The cost-based planner prices that group blow-up and picks
the single-statement UNION ALL grouping-sets plan instead.

The run records ``planner_vs_static_ratio`` — end-to-end
static/cost-based wall clock on the adversarial workload — and asserts
what does not depend on the machine: the plan kinds each planner picks,
and the same top-k views with utilities equal to the rollup path's
documented marginalization tolerance (summation order, ~1e-15), on the
adversarial workload and on a control workload.
"""

import time

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining

REPETITIONS = 3
#: Rollup marginalization sums groups in a different order than a direct
#: group-by; utilities agree to summation-order noise (same bar as the
#: plan-equivalence property tests).
UTILITY_ATOL = 1e-9


@pytest.fixture(scope="module")
def adversarial_workload():
    """30k rows, four ~150-cardinality dimensions: rollup bins degenerate
    to near-row-count results while grouping-set arms return ~150 rows."""
    dataset = generate_synthetic(
        SyntheticConfig(
            n_rows=30_000, n_dimensions=4, n_measures=2, cardinality=150
        ),
        seed=11,
    )
    return dataset, RowSelectQuery(dataset.table.name, dataset.predicate)


@pytest.fixture(scope="module")
def control_workload():
    """Low-cardinality control: the static choice is already right."""
    dataset = generate_synthetic(
        SyntheticConfig(
            n_rows=30_000, n_dimensions=4, n_measures=2, cardinality=8
        ),
        seed=12,
    )
    return dataset, RowSelectQuery(dataset.table.name, dataset.predicate)


def _config(cost_based: bool) -> SeeDBConfig:
    return SeeDBConfig(
        groupby_combining=GroupByCombining.AUTO,
        cost_based_planning=cost_based,
        # Execute the whole view space: the benchmark measures plan
        # execution, not the pruning rules.
        prune_low_variance=False,
        prune_cardinality=False,
        prune_correlated=False,
        exclude_predicate_dimensions=False,
    )


def _measure(workload, cost_based: bool):
    """Best-of-N end-to-end recommend on a fresh sqlite backend.

    One SeeDB session across repetitions: both planners get warm caches,
    and the cost-based side's statistics pass amortizes exactly as it
    does in service deployments.
    """
    dataset, query = workload
    backend = SqliteBackend()
    backend.register_table(dataset.table)
    result, best = None, None
    with SeeDB(backend, _config(cost_based)) as seedb:
        for _ in range(REPETITIONS):
            start = time.perf_counter()
            result = seedb.recommend(RecommendationRequest(query, k=5))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
    queries = backend.queries_executed
    backend.close()
    return result, best, queries


def _assert_same_answers(a, b):
    assert [v.spec for v in a.recommendations] == [
        v.spec for v in b.recommendations
    ]
    assert set(a.utilities) == set(b.utilities)
    for spec, utility in a.utilities.items():
        np.testing.assert_allclose(
            utility, b.utilities[spec], atol=UTILITY_ATOL, err_msg=spec.label
        )


def test_planner_avoids_rollup_on_adversarial_workload(
    record_rows, adversarial_workload, control_workload
):
    rows = []
    cost_result, cost_seconds, cost_queries = _measure(adversarial_workload, True)
    static_result, static_seconds, static_queries = _measure(
        adversarial_workload, False
    )
    _assert_same_answers(cost_result, static_result)

    decision = cost_result.plan_decision
    # The adversarial premise: static AUTO on sqlite resolves to rollup,
    # the cost model steers away from it.
    assert "rollup" in static_result.plan_description
    assert decision["kind"] != "rollup"
    assert decision["cost_based"] is True

    for mode, result, seconds, queries in (
        ("cost_based", cost_result, cost_seconds, cost_queries),
        ("static", static_result, static_seconds, static_queries),
    ):
        rows.append(
            {
                "workload": "adversarial_high_cardinality",
                "mode": mode,
                "plan_kind": (
                    result.plan_decision["kind"]
                    if result.plan_decision
                    else "static_auto"
                ),
                "total_seconds": seconds,
                "execute_seconds": result.stopwatch.phases["execute"],
                "queries_executed": queries,
                "n_views": result.n_executed_views,
            }
        )

    control_cost, control_cost_seconds, _ = _measure(control_workload, True)
    control_static, control_static_seconds, _ = _measure(control_workload, False)
    _assert_same_answers(control_cost, control_static)
    rows.append(
        {
            "workload": "control_low_cardinality",
            "mode": "cost_based",
            "plan_kind": control_cost.plan_decision["kind"],
            "total_seconds": control_cost_seconds,
        }
    )
    rows.append(
        {
            "workload": "summary",
            "mode": "ratio",
            "planner_vs_static_ratio": round(static_seconds / cost_seconds, 3),
            "control_ratio": round(control_static_seconds / control_cost_seconds, 3),
            "predicted_seconds": decision["predicted_seconds"],
            "observed_seconds": decision["observed_seconds"],
        }
    )
    record_rows("planner", rows)
