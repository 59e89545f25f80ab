"""Quickstart: the paper's running example, end to end (§1, Table 1, Figs 1-3).

Builds the Laserwave sales history, asks SeeDB for the most interesting
views of ``SELECT * FROM sales WHERE product = 'Laserwave'``, prints the
recommendation table and an ASCII chart of the top view, and writes the
Figure 1 chart plus the top recommendations as SVG into
``examples/output/quickstart/``.

Run:  python examples/quickstart.py
"""

from pathlib import Path

from repro import MemoryBackend, RowSelectQuery, SeeDB, SeeDBConfig, col
from repro.api import RecommendationRequest
from repro.datasets import laserwave_sales_history
from repro.experiments.figures import figure_1_spec, figures_2_3_utilities
from repro.experiments.harness import rows_to_table
from repro.viz.export import export_recommendations
from repro.viz.render_text import render_ascii
from repro.viz.spec import view_to_chart_spec
from repro.viz.svg import render_svg

OUTPUT_DIR = Path(__file__).parent / "output" / "quickstart"


def main() -> None:
    # 1. Load the fact table into the in-memory DBMS.
    backend = MemoryBackend()
    table = laserwave_sales_history(n_rows=20_000, seed=42, scenario="a")
    backend.register_table(table)

    # 2. The analyst's query Q from the paper's introduction.
    query = RowSelectQuery("sales", col("product") == "Laserwave")

    # 3. Ask SeeDB for the top-3 most interesting views.
    seedb = SeeDB(backend, SeeDBConfig(metric="js", k=3))
    result = seedb.recommend(RecommendationRequest(query))
    print(result.summary())
    print()
    print("plan:", result.plan_description)
    print()
    print(result.stopwatch.breakdown())

    # 4. Show the top view as an ASCII chart (target vs whole dataset).
    top = result.recommendations[0]
    schema = backend.schema("sales")
    print()
    print(render_ascii(view_to_chart_spec(top, schema[top.spec.dimension])))

    # 5. Figures 2 vs 3: the same view is interesting against an opposite
    #    overall trend and boring against a similar one.
    print()
    print("Figure 2 vs Figure 3 (utility of the sales-by-store view):")
    print(rows_to_table(figures_2_3_utilities(["js", "emd", "euclidean", "kl"])))

    # 6. Export charts.
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / "figure_1.svg").write_text(render_svg(figure_1_spec()))
    paths = export_recommendations(result, OUTPUT_DIR, schema)
    print(f"\nwrote figure_1.svg and {len(paths)} chart files to {OUTPUT_DIR}")


if __name__ == "__main__":
    main()
