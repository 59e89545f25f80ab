"""Medical cohort analysis over a real relational DBMS (sqlite3).

Exercises the "wrapper over any relational database" architecture (§3.1):
the MIMIC-II-like dataset is loaded into SQLite, SeeDB generates SQL view
queries against it, and a clinical researcher compares an emergency-
admission cohort and an outlier cohort against the full population.

Run:  python examples/medical_cohort.py
"""

from repro import SeeDB, SeeDBConfig, SqliteBackend
from repro.api import RecommendationRequest
from repro.datasets import generate_medical
from repro.frontend.templates import build_template


def main() -> None:
    backend = SqliteBackend()
    table = generate_medical(n_rows=25_000, seed=37)
    backend.register_table(table)
    try:
        seedb = SeeDB(backend, SeeDBConfig(metric="js"))

        # Cohort 1: emergency admissions.
        print("=== Emergency admissions vs all admissions ===")
        result = seedb.recommend(
            RecommendationRequest.from_sql(
                "SELECT * FROM admissions WHERE admission_type = 'Emergency'", k=4
            )
        )
        print(result.summary())
        print("\ntop view per-group detail:")
        top = result.recommendations[0]
        for group, target, comparison in zip(
            top.groups, top.target_distribution, top.comparison_distribution
        ):
            print(f"  {group!r}: cohort {target:.3f} vs population {comparison:.3f}")

        # Cohort 2: long-stay outliers, via the paper's outlier template.
        print("\n=== Length-of-stay outliers (template) ===")
        # Templates need column stats -> fetch the table once for analysis.
        stats_table = backend.fetch_table("admissions")
        query = build_template(
            "outliers", stats_table, column="los_days", side="high", z=2.0
        )
        result = seedb.recommend(RecommendationRequest(query, k=4))
        print(result.summary())

        print(f"\nSQL round trips issued this session: {backend.queries_executed}")
    finally:
        backend.close()


if __name__ == "__main__":
    main()
