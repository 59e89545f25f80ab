"""Integration: the Figure 4 architecture flow, module by module.

Exercises the pipeline exactly as §3.1 narrates it — Metadata Collector →
Query Generator (enumerate + prune) → Optimizer → DBMS → View Processor →
top-k — asserting each stage's output feeds the next.
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.core.space import enumerate_views, split_predicate_dimensions
from repro.core.topk import top_k_views
from repro.core.view_processor import ViewProcessor
from repro.datasets.synthetic import add_constant_column
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.metadata.collector import MetadataCollector
from repro.metrics.registry import get_metric
from repro.optimizer.plan import Planner, PlannerConfig
from repro.pruning.pipeline import PruningPipeline
from repro.pruning.variance import VariancePruner


class TestStageByStage:
    def test_manual_pipeline_matches_recommender(self, sales_table):
        table = add_constant_column(sales_table, "const_dim")
        backend = MemoryBackend()
        backend.register_table(table)
        predicate = col("product") == "Laserwave"

        # 1. Metadata Collector
        collector = MetadataCollector()
        metadata = collector.collect(table)
        assert metadata.stats.n_rows == 12

        # 2. Query Generator: enumerate + exclude predicate dims + prune
        candidates = enumerate_views(table.schema, functions=("sum", "avg"))
        candidates, excluded = split_predicate_dimensions(candidates, predicate)
        assert {v.dimension for v, _ in excluded} == {"product"}
        surviving, reports = PruningPipeline([VariancePruner()]).apply(
            candidates, metadata
        )
        assert len(surviving) < len(candidates)  # const_dim pruned
        pruned_dimensions = {v.dimension for v, _ in reports[0].pruned}
        assert pruned_dimensions == {"const_dim"}

        # 3. Optimizer
        cardinalities = {
            s.name: metadata.stats[s.name].n_distinct
            for s in table.schema.dimensions
        }
        plan = Planner(PlannerConfig()).plan(
            surviving, "sales", predicate, cardinalities
        )
        assert plan.total_queries() < 2 * len(surviving)  # sharing happened

        # 4. DBMS execution + 5. View Processor
        blocks = plan.run(backend)
        processor = ViewProcessor(get_metric("js"))
        scored = processor.score_blocks(blocks)
        assert set(scored) == set(surviving)

        # 6. top-k
        top = top_k_views(scored.values(), 3)
        assert len(top) == 3
        assert top[0].utility >= top[1].utility >= top[2].utility

        # The packaged recommender must agree with the manual pipeline.
        seedb = SeeDB(
            backend,
            SeeDBConfig(
                prune_cardinality=False,
                prune_correlated=False,
            ),
        )
        result = seedb.recommend(
            RecommendationRequest(RowSelectQuery("sales", predicate), k=3)
        )
        assert [v.spec for v in result.recommendations] == [v.spec for v in top]
        for spec, utility in result.utilities.items():
            assert utility == pytest.approx(scored[spec].utility)

    def test_phase_timings_recorded(self, memory_backend):
        seedb = SeeDB(memory_backend)
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave")
            )
        )
        for phase in ("metadata", "enumerate", "prune", "plan", "execute",
                      "score", "select"):
            assert phase in result.stopwatch.phases

    def test_access_log_learns_from_queries(self, memory_backend):
        seedb = SeeDB(memory_backend)
        seedb.recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave")
            )
        )
        log = seedb.metadata.access_log
        assert log.count("sales", "product") >= 1

    def test_sql_string_input(self, memory_backend):
        seedb = SeeDB(memory_backend)
        result = seedb.recommend(
            RecommendationRequest.from_sql(
                "SELECT * FROM sales WHERE product = 'Laserwave'", k=2
            )
        )
        assert len(result.recommendations) == 2

    def test_bad_query_type_rejected(self, memory_backend):
        from repro.util.errors import QueryError

        with pytest.raises(QueryError, match="RowSelectQuery"):
            SeeDB(memory_backend).recommend(12345)
