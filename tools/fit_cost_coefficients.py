#!/usr/bin/env python3
"""Fit the planner's per-backend cost coefficients from a timing sweep.

The cost model (``repro.optimizer.cost``) prices a plan in work units —
rows scanned, rows × aggregates, result groups folded, logical queries,
statements — and converts them to seconds with one fixed
``CostCoefficients`` per backend. This script measures those seconds.

For each table shape of the sweep it enumerates the view space of a
one-dimension equality predicate, arranges the views by every candidate
the planner prices under ``AUTO`` (grouping sets, rollups at each budget
of the ladder, one scan per dimension) plus a rollup at the pinned
default budget, times each distinct plan step on one thread (the median
of ``--repeats`` runs of ``ExecutionStep.run``: the statement, the result
decode and the client-side fold), and prices the same step with
``estimate_plan_cost``. A least-squares fit of seconds on work units,
weighted to minimise relative error and kept non-negative, gives each
backend's coefficients, printed as the literal ``SEEDED_COEFFICIENTS``
holds (``statements_overlap`` is not fitted: it says whether the backend
runs statements outside the interpreter lock). It then prints, per
backend and shape, every candidate's summed step seconds beside the
fitted prediction, and the pairs of candidates the two rank differently.

    PYTHONPATH=src python tools/fit_cost_coefficients.py
    PYTHONPATH=src python tools/fit_cost_coefficients.py --backends sqlite --repeats 5

duckdb is measured only when its optional wheel is installed.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import time
from dataclasses import replace

import numpy as np

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.space import enumerate_views
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.engine.cache import SessionCache
from repro.metadata.stats import compute_table_stats
from repro.model.reference import TABLE_REFERENCE
from repro.optimizer.cost import CostCoefficients, estimate_plan_cost
from repro.optimizer.plan import (
    PLAN_KINDS,
    ExecutionPlan,
    GroupByCombining,
    Planner,
    PlannerConfig,
)

#: Work units in the order of ``CostCoefficients``' fields.
UNITS = (
    ("row_scan_seconds", "rows_scanned"),
    ("group_seconds", "result_groups"),
    ("query_seconds", "n_queries"),
    ("statement_seconds", "n_statements"),
    ("aggregate_seconds", "aggregate_work"),
)

#: (rows, dimensions, measures, cardinality): the benchmark's table, the
#: same at other sizes and widths, and higher-cardinality dimensions whose
#: rollups outgrow the rows.
SHAPES = (
    (20_000, 10, 10, 12),
    (5_000, 10, 10, 12),
    (1_000, 10, 10, 12),
    (50_000, 6, 10, 12),
    (20_000, 6, 2, 12),
    (20_000, 6, 10, 4),
    (20_000, 5, 4, 40),
    (30_000, 4, 2, 150),
)

#: Candidates closer than this share are a tie for the ranking check:
#: identical bins differ by noise alone.
TIE = 0.10

#: The pinned default rollup budget, priced beside AUTO's ladder so the
#: sweep covers rollups whose results approach the row count.
PINNED_BUDGET = PlannerConfig().memory_budget_cells


def make_backend(name: str):
    if name == "memory":
        return MemoryBackend()
    if name == "sqlite":
        return SqliteBackend()
    from repro.backends.duckdb import DuckDbBackend

    return DuckDbBackend()


def candidate_plans(table, capabilities):
    """``(name, plan, cardinalities)`` per candidate, on a ``d0`` equality
    predicate with ``d0``'s own views excluded, as a served request has
    them."""
    views = [
        view
        for view in enumerate_views(table.schema, functions=("sum", "avg"))
        if "d0" not in view.keys
    ]
    cardinalities = compute_table_stats(table).cardinalities()
    predicate = col("d0") == table.column("d0")[0]
    planner = Planner(PlannerConfig(groupby_combining=GroupByCombining.AUTO))
    candidates = planner.candidates(capabilities)
    rollup = next(c for c in candidates if c.kind is GroupByCombining.ROLLUP)
    candidates.append(
        replace(
            rollup,
            name=f"rollup@{PINNED_BUDGET}",
            config=replace(rollup.config, memory_budget_cells=PINNED_BUDGET),
        )
    )
    groups = planner.group_views(views, per_view=False)
    combine_flag = planner.combine_flag(TABLE_REFERENCE)
    for candidate in candidates:
        bins = PLAN_KINDS[candidate.kind].arrange(
            groups, candidate.config, cardinalities, combine_flag
        )
        plan = planner.build(bins, candidate.kind, table.name, predicate, combine_flag)
        yield candidate.name, plan, cardinalities


def time_steps(steps, backend, repeats: int) -> list[float]:
    """Median seconds of each step, timed round-robin so a drift in the
    machine's speed during the sweep touches every step alike. Steps run
    warm, their comparison sides cached, as the model prices them."""
    cache = SessionCache(backend)
    cache.sync()
    for step in steps:
        step.run(backend, cache)  # warm: caches, encodings, prepared statements
    samples: list[list[float]] = [[] for _ in steps]
    for _ in range(repeats):
        for step, times in zip(steps, samples):
            start = time.perf_counter()
            step.run(backend, cache)
            times.append(time.perf_counter() - start)
    return [statistics.median(times) for times in samples]


def sweep(backend_name: str, repeats: int):
    """Per-step ``(units, seconds)`` rows, and per shape the candidates'
    ``(name, [(units, seconds) per step])``."""
    rows, shapes = [], []
    for n_rows, n_dimensions, n_measures, cardinality in SHAPES:
        table = generate_synthetic(
            SyntheticConfig(
                n_rows=n_rows,
                n_dimensions=n_dimensions,
                n_measures=n_measures,
                cardinality=cardinality,
            ),
            seed=5,
        ).table
        backend = make_backend(backend_name)
        try:
            backend.register_table(table)
            distinct: dict = {}
            candidates = []
            for name, plan, cardinalities in candidate_plans(
                table, backend.capabilities
            ):
                keys = []
                for step in plan.steps:
                    key = (step.sharing, tuple(g.dimension for g in step.groups))
                    if key not in distinct:
                        units = estimate_plan_cost(
                            ExecutionPlan([step]),
                            n_rows,
                            cardinalities,
                            backend.capabilities,
                        )
                        distinct[key] = (step, units)
                    keys.append(key)
                candidates.append((name, keys))
            seconds = dict(
                zip(
                    distinct,
                    time_steps([step for step, _ in distinct.values()], backend, repeats),
                )
            )
        finally:
            backend.close()
        rows.extend((units, seconds[key]) for key, (_, units) in distinct.items())
        shapes.append(
            (
                (n_rows, n_dimensions, n_measures, cardinality),
                [
                    (name, [(distinct[key][1], seconds[key]) for key in keys])
                    for name, keys in candidates
                ],
            )
        )
    return rows, shapes


def unit_vector(cost) -> np.ndarray:
    return np.array([getattr(cost, unit) for _, unit in UNITS], dtype=float)


def fit(rows) -> CostCoefficients:
    """Non-negative least squares on relative error. A unit that always
    equals an earlier one (statements and queries on a backend with
    native grouping sets) is left at 0, and a unit whose coefficient
    comes out negative is dropped and the rest refitted."""
    design = np.array([unit_vector(units) for units, _ in rows])
    seconds = np.array([observed for _, observed in rows])
    weights = 1.0 / seconds
    active = [
        not any(np.array_equal(design[:, i], design[:, j]) for j in range(i))
        for i in range(len(UNITS))
    ]
    while True:
        columns = [i for i, keep in enumerate(active) if keep]
        solution, *_ = np.linalg.lstsq(
            design[:, columns] * weights[:, None], seconds * weights, rcond=None
        )
        negative = [columns[i] for i, value in enumerate(solution) if value < 0]
        if not negative:
            break
        for index in negative:
            active[index] = False
    values = dict.fromkeys((field for field, _ in UNITS), 0.0)
    for index, value in zip(columns, solution):
        values[UNITS[index][0]] = float(value)
    return CostCoefficients(**values)


def report(backend_name: str, coefficients: CostCoefficients, rows, shapes) -> None:
    print(f"\n== {backend_name}: {len(rows)} distinct steps timed")
    print(f'    "{backend_name}": CostCoefficients(')
    for field, _ in UNITS:
        print(f"        {field}={getattr(coefficients, field):.3g},")
    print("    ),")
    ratios = [
        coefficients.predict_seconds(units) / observed for units, observed in rows
    ]
    print(
        "  predicted/observed per step: median "
        f"{statistics.median(ratios):.2f}, range {min(ratios):.2f}-{max(ratios):.2f}"
    )
    for shape, candidates in shapes:
        print(f"  shape rows={shape[0]} dims={shape[1]} measures={shape[2]} "
              f"cardinality={shape[3]}")
        measured = []
        for name, steps in candidates:
            observed = sum(seconds for _, seconds in steps)
            predicted = sum(coefficients.predict_seconds(units) for units, _ in steps)
            measured.append((name, observed, predicted))
            print(
                f"    {name:<16} {len(steps):>3} steps  observed "
                f"{observed * 1e3:8.1f} ms  predicted {predicted * 1e3:8.1f} ms"
            )
        discordant = [
            f"{a[0]}/{b[0]}"
            for a, b in itertools.combinations(measured, 2)
            if _apart(a[1], b[1]) and _apart(a[2], b[2])
            and (a[1] < b[1]) != (a[2] < b[2])
        ]
        fastest = min(measured, key=lambda m: m[2])[0]
        print(
            f"    predicted fastest {fastest}; pairs apart by more than "
            f"{TIE:.0%} both ways and ranked differently: "
            f"{', '.join(discordant) or 'none'}"
        )


def _apart(a: float, b: float) -> bool:
    return abs(a - b) > TIE * min(a, b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backends", nargs="+", default=["memory", "sqlite"],
        choices=["memory", "sqlite", "duckdb"],
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    for backend_name in args.backends:
        rows, shapes = sweep(backend_name, args.repeats)
        report(backend_name, fit(rows), rows, shapes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
