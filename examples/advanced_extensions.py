"""Extensions beyond the demo paper: multi-attribute views, incremental
execution with early termination, and shareable HTML reports.

Run:  python examples/advanced_extensions.py
"""

from pathlib import Path

from repro import MemoryBackend, RowSelectQuery, SeeDB, SeeDBConfig
from repro.api import RecommendationRequest
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
    seedb = SeeDB(backend, SeeDBConfig(metric="js"))

    # ------------------------------------------------------------------
    # 1. Multi-attribute views (§2's "> 2 columns" generalization).
    # ------------------------------------------------------------------
    print("=== multi-attribute views: f(m) by (a1, a2) ===")
    # The same pipeline over key pairs: pruned, sampled and priced alike.
    with SeeDB(backend, SeeDBConfig(metric="js", n_dimensions=2)) as pairs:
        top_pairs = pairs.recommend(RecommendationRequest(query, k=4)).recommendations
    for rank, view in enumerate(top_pairs, 1):
        print(f"  {rank}. {view.spec.label:42s} u={view.utility:.4f} "
              f"({len(view.groups)} combination groups)")

    # ------------------------------------------------------------------
    # 2. Incremental execution with early termination (§1 challenge d).
    # ------------------------------------------------------------------
    print("\n=== incremental execution with early termination ===")
    # Every enumerated view runs: no metadata rule prunes ahead of round 1.
    *rounds, final = seedb.recommend_iter(
        RecommendationRequest(
            query,
            k=5,
            options={
                "n_phases": 10,
                "delta": 0.2,
                "prune_low_variance": False,
                "prune_cardinality": False,
                "prune_correlated": False,
            },
        )
    )
    result = final.result
    n_views = result.n_executed_views
    # Round 1 runs every view; each later round runs the views left alive.
    work_done = n_views + sum(r.views_alive for r in rounds[:-1])
    work_possible = n_views * rounds[-1].n_rounds
    print(f"  views considered: {n_views}")
    print(f"  phases executed:  {len(rounds)}/{rounds[-1].n_rounds}")
    print(f"  work saved:       {1 - work_done / work_possible:.1%} "
          f"({work_done}/{work_possible} view-phase executions)")
    print(f"  pruned early:     {n_views - len(result.utilities)} views")
    for rank, view in enumerate(result.recommendations, 1):
        print(f"  {rank}. {view.spec.label:36s} u={view.utility:.4f}")

    # ------------------------------------------------------------------
    # 3. Shareable HTML report of a standard recommendation (§1 step 4).
    # ------------------------------------------------------------------
    print("\n=== standalone HTML report ===")
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
