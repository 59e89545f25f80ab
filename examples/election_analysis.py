"""Election contributions: a journalist's workflow (§4, dataset [1]).

"With this dataset, we demonstrate how non-experts can use SEEDB to
quickly arrive at interesting visualizations." The journalist asks a plain
SQL question per candidate, compares what different distance metrics
surface, and uses the top_category template instead of writing SQL.

Run:  python examples/election_analysis.py
"""

from repro import MemoryBackend, SeeDB
from repro.api import RecommendationRequest
from repro.datasets import generate_elections
from repro.frontend.templates import build_template
from repro.metrics import available_metrics


def main() -> None:
    backend = MemoryBackend()
    table = generate_elections(n_rows=30_000, seed=23)
    backend.register_table(table)
    seedb = SeeDB(backend)

    # Question 1 (SQL box): what is distinctive about Rivera's funding?
    print("=== Who funds candidate Rivera? ===")
    result = seedb.recommend(
        RecommendationRequest.from_sql(
            "SELECT * FROM contributions WHERE candidate = 'Rivera'", k=3
        )
    )
    print(result.summary())

    # Question 2: same question for Stone — expect a different story.
    print("\n=== Who funds candidate Stone? ===")
    result = seedb.recommend(
        RecommendationRequest.from_sql(
            "SELECT * FROM contributions WHERE candidate = 'Stone'", k=3
        )
    )
    print(result.summary())

    # Question 3 (template, no SQL): slice to the most common entity type.
    print("\n=== Template: top entity type slice ===")
    query = build_template("top_category", table, column="entity_type")
    result = seedb.recommend(RecommendationRequest(query, k=3))
    print(result.summary())

    # Metric experimentation (§2: "attendees can experiment with different
    # distance metrics and examine how the choice affects view quality").
    print("\n=== Metric comparison for the Rivera query ===")
    print(f"{'metric':16s}  top view")
    for metric in available_metrics():
        result = seedb.recommend(
            RecommendationRequest.from_sql(
                "SELECT * FROM contributions WHERE candidate = 'Rivera'",
                k=1,
                metric=metric,
            )
        )
        top = result.recommendations[0]
        print(f"{metric:16s}  {top.spec.label}  (u={top.utility:.4f})")


if __name__ == "__main__":
    main()
