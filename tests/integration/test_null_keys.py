"""NULL group keys: one group per NULL, and never the string ``'None'``.

SQL groups every NULL of a column into one group, and a NULL is not the
string ``'None'``. The table here carries both kinds of NULL key — NaN in
a FLOAT dimension, ``None`` beside ``'None'`` in a string dimension — and
every path (backend × blocking/phased × plan kind × reference) must give
each view the groups, raw values and utility of a brute-force oracle
built from the raw rows, and the utilities of the unoptimized
``BasicFramework``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.api import RecommendationRequest, Reference
from repro.backends.duckdb import DuckDbBackend
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.basic import BasicFramework
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.model.view import RawViewData
from repro.core.view_processor import ViewProcessor
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.metrics.normalize import group_sort_key
from repro.metrics.registry import get_metric
from repro.optimizer.plan import GroupByCombining

BACKENDS = {"duckdb": DuckDbBackend, "memory": MemoryBackend, "sqlite": SqliteBackend}
KINDS = [GroupByCombining.NONE, GroupByCombining.GROUPING_SETS, GroupByCombining.ROLLUP]
N_PHASES = 3
PREDICATE = col("p") == "x"
#: Every view scored, none pruned: the oracle covers the whole view space.
CONFIG = dict(
    k=10,
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
)


def null_key_table() -> Table:
    rng = np.random.default_rng(36)
    n = 600
    strings = np.array(["a", "b", None, "None"], dtype=object)
    floats = np.array([0.5, 1.5, float("nan")])
    m1 = rng.uniform(0.0, 10.0, n)
    m1[rng.random(n) < 0.1] = float("nan")
    # Row 0 pins non-NULL values, so type inference sees a string / float.
    s = [strings[0]] + list(strings[rng.integers(0, 4, n - 1)])
    f = [floats[0]] + list(floats[rng.integers(0, 3, n - 1)])
    return Table.from_columns(
        "t",
        {
            "s": s,
            "f": f,
            "p": list(np.array(["x", "y"])[rng.integers(0, 2, n)]),
            "m1": m1.tolist(),
            "m2": rng.uniform(1.0, 5.0, n).tolist(),
        },
        roles={
            "s": AttributeRole.DIMENSION,
            "f": AttributeRole.DIMENSION,
            "p": AttributeRole.DIMENSION,
            "m1": AttributeRole.MEASURE,
            "m2": AttributeRole.MEASURE,
        },
    )


def _key(value):
    """SQL's NULL: None, whatever the column stored (NaN for FLOAT)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    return value


def _aggregate(func, values):
    if func == "count":
        return float(len(values))
    valid = [v for v in values if not math.isnan(v)]
    if not valid:
        return float("nan")
    return math.fsum(valid) if func == "sum" else math.fsum(valid) / len(valid)


def oracle_series(table, spec, rows):
    """``{key: aggregate}`` of ``spec`` over the table's ``rows``, by hand."""
    keys = [_key(value) for value in table.column(spec.dimension).tolist()]
    measure = table.column(spec.measure) if spec.measure is not None else None
    grouped: dict = {}
    for row in np.flatnonzero(rows):
        grouped.setdefault(keys[row], []).append(
            float(measure[row]) if measure is not None else 0.0
        )
    return {key: _aggregate(spec.func, values) for key, values in grouped.items()}


def oracle(table, specs, reference_kind):
    """Per view: (groups, target row, comparison row, utility)."""
    target_rows = PREDICATE.evaluate(table)
    comparison_rows = (
        np.ones(table.num_rows, dtype=bool) if reference_kind == "table" else ~target_rows
    )
    config = SeeDBConfig()
    processor = ViewProcessor(get_metric(config.metric), config.normalization)
    expected = {}
    for spec in specs:
        target = oracle_series(table, spec, target_rows)
        comparison = oracle_series(table, spec, comparison_rows)
        groups = sorted(set(target) | set(comparison), key=group_sort_key)
        (scored,) = processor.score_all(
            [
                RawViewData(
                    spec,
                    list(target),
                    np.array(list(target.values())),
                    list(comparison),
                    np.array(list(comparison.values())),
                )
            ]
        ).values()
        expected[spec] = (
            groups,
            [target.get(key, 0.0) for key in groups],
            [comparison.get(key, 0.0) for key in groups],
            scored.utility,
        )
    return expected


@pytest.mark.parametrize("reference_kind", ["table", "complement"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("strategy", ["batch", "incremental"])
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_null_keys_match_the_raw_rows(backend_name, strategy, kind, reference_kind):
    if backend_name == "duckdb":
        pytest.importorskip("duckdb")
    table = null_key_table()
    reference = Reference.complement() if reference_kind == "complement" else None
    request = RecommendationRequest(
        RowSelectQuery("t", PREDICATE),
        k=10,
        **({"reference": reference} if reference is not None else {}),
        **(
            {
                "strategy": "incremental",
                "options": {"n_phases": N_PHASES, "min_phases_before_pruning": N_PHASES},
            }
            if strategy == "incremental"
            else {}
        ),
    )
    backend = BACKENDS[backend_name]()
    try:
        backend.register_table(table)
        with SeeDB(backend, SeeDBConfig(groupby_combining=kind, **CONFIG)) as seedb:
            result = seedb.recommend(request)
        basic = BasicFramework(backend).recommend(request)
    finally:
        backend.close()

    expected = oracle(table, list(result.utilities), reference_kind)
    assert len(result.recommendations) == len(expected) == 10
    for view in result.recommendations:
        groups, target, comparison, utility = expected[view.spec]
        label = view.spec.label
        assert list(view.groups) == groups, label
        np.testing.assert_allclose(view.target_values, target, atol=1e-9, err_msg=label)
        np.testing.assert_allclose(
            view.comparison_values, comparison, atol=1e-9, err_msg=label
        )
        assert view.utility == pytest.approx(utility, abs=1e-9), label
        assert basic.utilities[view.spec] == pytest.approx(utility, abs=1e-9), label
    assert set(basic.utilities) == set(result.utilities)


#: Pruning bounds that make each statistics rule fire on the table above.
MIN_ENTROPY_BITS = 2.7
MAX_GROUPS = 10


def expected_reason(dimension, n_groups, entropy):
    """The variance, then the cardinality rule, on a key set's statistics."""
    if n_groups <= 1:
        return f"dimension {dimension!r} is constant"
    if entropy < MIN_ENTROPY_BITS:
        return f"dimension {dimension!r} entropy {entropy:.4f} < {MIN_ENTROPY_BITS}"
    if n_groups > MAX_GROUPS:
        return (
            f"dimension {dimension!r} has {n_groups} groups > {MAX_GROUPS} "
            "(unvisualizable)"
        )
    return None


@pytest.mark.parametrize("n_dimensions", [2, 3])
@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
def test_key_set_statistics_match_the_raw_rows(backend_name, n_dimensions):
    """The pruning rules read a key set's joint distinct count and entropy,
    each NULL key one value as in GROUP BY: both match a count over the raw
    row tuples, and so do the reasons of the views they prune."""
    table = null_key_table()
    config = SeeDBConfig(
        n_dimensions=n_dimensions,
        min_entropy_bits=MIN_ENTROPY_BITS,
        max_groups=MAX_GROUPS,
    )
    backend = BACKENDS[backend_name]()
    try:
        backend.register_table(table)
        with SeeDB(backend, config) as seedb:
            ctx = seedb.engine.recommend(
                RecommendationRequest(RowSelectQuery("t"), k=3).resolve(config)
            )
    finally:
        backend.close()

    pruned = {
        spec: reason
        for report in ctx.prune_reports
        if report.rule in ("variance", "cardinality")
        for spec, reason in report.pruned
    }
    expected_pruned = {}
    for spec in ctx.candidates:
        columns = [
            [_key(value) for value in table.column(key).tolist()] for key in spec.keys
        ]
        counts = Counter(zip(*columns))
        entropy = -math.fsum(
            count / table.num_rows * math.log2(count / table.num_rows)
            for count in counts.values()
        )
        stats = ctx.metadata.key_stats(spec.keys)
        assert stats.n_distinct == len(counts), spec.label
        assert stats.entropy == pytest.approx(entropy, rel=1e-12), spec.label
        reason = expected_reason(spec.dimension, len(counts), entropy)
        if reason is not None:
            expected_pruned[spec] = reason
    assert pruned == expected_pruned
    assert pruned
