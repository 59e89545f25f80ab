"""Planner/engine path selection is driven by BackendCapabilities alone.

The contract behind the conformance kit: flipping a *declared* capability
on a backend instance flips the execution plan — no ``isinstance`` on the
backend class is consulted anywhere in the planner or engine. Each test
monkeypatches ``backend.capabilities`` and asserts the plan (and only the
plan) changes while the class identity stays what it was.
"""

import dataclasses

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.core.space import enumerate_views
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining
from tests.conftest import auto_plan_at_equal_prices

GROUPING_SETS = GroupByCombining.GROUPING_SETS
ROLLUP = GroupByCombining.ROLLUP


def flip(backend, monkeypatch, **changes):
    monkeypatch.setattr(
        backend, "capabilities", dataclasses.replace(backend.capabilities, **changes)
    )


def plan_for(backend, sales_table):
    """``AUTO``'s plan where no candidate is cheaper: the declared kind."""
    return auto_plan_at_equal_prices(
        enumerate_views(sales_table.schema, functions=("sum", "avg")),
        "sales",
        col("product") == "Laserwave",
        {"store": 4, "product": 2, "month": 4},
        backend.capabilities,
    )


def step_sharings(plan):
    return {step.sharing for step in plan.steps}


class TestPlannerFollowsDeclaredCapabilities:
    def test_memory_defaults_to_shared_scan(self, memory_backend, sales_table):
        assert GROUPING_SETS in step_sharings(plan_for(memory_backend, sales_table))

    def test_sqlite_defaults_to_rollup_fallback(self, sqlite_backend, sales_table):
        steps = step_sharings(plan_for(sqlite_backend, sales_table))
        assert GROUPING_SETS not in steps
        assert ROLLUP in steps

    def test_flipping_capability_flips_the_plan_not_the_class(
        self, memory_backend, sqlite_backend, sales_table, monkeypatch
    ):
        # sqlite instance declared grouping-sets-capable: now plans the
        # shared scan, while remaining a plain SqliteBackend.
        flip(sqlite_backend, monkeypatch, grouping_sets=True)
        steps = step_sharings(plan_for(sqlite_backend, sales_table))
        assert GROUPING_SETS in steps
        assert type(sqlite_backend) is SqliteBackend

        # memory instance stripped of the capability: falls back to rollup.
        flip(memory_backend, monkeypatch, grouping_sets=False)
        steps = step_sharings(plan_for(memory_backend, sales_table))
        assert GROUPING_SETS not in steps
        assert ROLLUP in steps
        assert type(memory_backend) is MemoryBackend

    def test_plan_query_counts_shrink_with_shared_scan(
        self, sqlite_backend, sales_table, monkeypatch
    ):
        before = plan_for(sqlite_backend, sales_table).total_queries()
        flip(sqlite_backend, monkeypatch, grouping_sets=True)
        after = plan_for(sqlite_backend, sales_table).total_queries()
        assert after <= before


class TestEngineFollowsDeclaredCapabilities:
    QUERY = RowSelectQuery("sales", col("product") == "Laserwave")

    def config(self):
        return SeeDBConfig(
            aggregate_functions=("sum", "avg"),
            groupby_combining=GroupByCombining.AUTO,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
        )

    def test_sqlite_grouping_sets_declaration_reprices_the_shared_scan(
        self, sqlite_backend, monkeypatch
    ):
        """Declaring the capability prices a GROUPING SETS query as one
        scan instead of one per set; sqlite's UNION ALL emulation still
        executes it, and results are unchanged."""
        seedb = SeeDB(sqlite_backend, self.config())
        baseline = seedb.recommend(RecommendationRequest(self.QUERY, k=3))
        emulated = baseline.plan_decision["candidate_seconds"]["grouping_sets"]

        flip(sqlite_backend, monkeypatch, grouping_sets=True)
        declared = seedb.recommend(RecommendationRequest(self.QUERY, k=3))
        assert declared.plan_decision["candidate_seconds"]["grouping_sets"] < emulated
        pinned = SeeDB(
            sqlite_backend,
            dataclasses.replace(self.config(), groupby_combining=GROUPING_SETS),
        ).recommend(RecommendationRequest(self.QUERY, k=3))
        assert "grouping_sets" in pinned.plan_description
        for result in (declared, pinned):
            assert [v.spec.label for v in result.recommendations] == [
                v.spec.label for v in baseline.recommendations
            ]
        seedb.close()

    def test_native_sampling_declaration_reroutes_sampling(
        self, sqlite_backend, monkeypatch
    ):
        calls = []
        original = sqlite_backend.create_sample_clientside

        def tracing(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sqlite_backend, "create_sample_clientside", tracing)
        config = dataclasses.replace(
            self.config(), sample_fraction=0.9, min_rows_for_sampling=0
        )

        seedb = SeeDB(sqlite_backend, config)
        seedb.recommend(RecommendationRequest(self.QUERY, k=3))
        assert not calls  # native declaration -> in-DBMS sampling

        flip(sqlite_backend, monkeypatch, native_sampling=False)
        # A fresh facade: the engine cache still holds the native sample
        # under the same (fraction, seed) key, so force a new one.
        config = dataclasses.replace(config, sample_seed=123)
        other = SeeDB(sqlite_backend, config)
        other.recommend(RecommendationRequest(self.QUERY, k=3))
        assert calls  # declaration flipped -> client-side fallback
        other.close()
        seedb.close()
