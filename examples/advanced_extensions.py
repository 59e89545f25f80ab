"""Extensions beyond the demo paper: multi-attribute views, incremental
execution with early termination, and shareable HTML reports.

Run:  python examples/advanced_extensions.py
"""

from pathlib import Path

from repro import MemoryBackend, RowSelectQuery, SeeDB, SeeDBConfig
from repro.api import RecommendationRequest
from repro.core.incremental import IncrementalRecommender
from repro.core.multiview import MultiViewRecommender
from repro.core.space import enumerate_views, split_predicate_dimensions
from repro.datasets import generate_store_orders
from repro.db.expressions import col
from repro.viz.html_report import write_html_report

OUTPUT_DIR = Path(__file__).parent / "output" / "extensions"


def main() -> None:
    backend = MemoryBackend()
    table = generate_store_orders(n_rows=40_000, seed=11)
    backend.register_table(table)
    predicate = col("category") == "Technology"
    query = RowSelectQuery("store_orders", predicate)

    # ------------------------------------------------------------------
    # 1. Multi-attribute views (§2's "> 2 columns" generalization).
    # ------------------------------------------------------------------
    print("=== multi-attribute views: f(m) by (a1, a2) ===")
    multi = MultiViewRecommender(backend, metric="js")
    top_pairs = multi.recommend(RecommendationRequest(query, k=4), n_dimensions=2)
    for rank, view in enumerate(top_pairs, 1):
        print(f"  {rank}. {view.spec.label:42s} u={view.utility:.4f} "
              f"({len(view.groups)} combination groups)")

    # ------------------------------------------------------------------
    # 2. Incremental execution with early termination (§1 challenge d).
    # ------------------------------------------------------------------
    print("\n=== incremental execution with early termination ===")
    views = enumerate_views(table.schema, functions=("sum", "avg"))
    views, _ = split_predicate_dimensions(views, predicate)
    incremental = IncrementalRecommender(table, metric="js")
    result = incremental.recommend(
        RecommendationRequest(
            query,
            k=5,
            strategy="incremental",
            options={"n_phases": 10, "delta": 0.2},
        ),
        views,
    )
    print(f"  views considered: {len(views)}")
    print(f"  phases executed:  {result.phases_executed}/{result.n_phases}")
    print(f"  work saved:       {result.work_saved_fraction:.1%} "
          f"({result.work_done}/{result.work_possible} view-phase executions)")
    print(f"  pruned early:     {len(result.pruned_at_phase)} views")
    for rank, view in enumerate(result.recommendations, 1):
        print(f"  {rank}. {view.spec.label:36s} u={view.utility:.4f}")

    # ------------------------------------------------------------------
    # 3. Shareable HTML report of a standard recommendation (§1 step 4).
    # ------------------------------------------------------------------
    print("\n=== standalone HTML report ===")
    seedb = SeeDB(backend, SeeDBConfig(metric="js"))
    standard = seedb.recommend(RecommendationRequest(query, k=4))
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = write_html_report(
        standard,
        OUTPUT_DIR / "technology_report.html",
        backend.schema("store_orders"),
        title="Technology orders vs all orders",
    )
    print(f"  wrote {path} ({path.stat().st_size} bytes, fully self-contained)")


if __name__ == "__main__":
    main()
