"""Golden answers: the top-k labels and every utility, pinned in a file.

A small synthetic table answers a fixed set of requests on every cell of
{memory, sqlite} × {blocking, incremental-final} × {table, complement},
and multi-attribute views (``n_dimensions``) answer the segment predicate on every cell
of {memory, sqlite} × {2, 3} dimensions × {table, complement, query}.
``tests/data/golden_answers.json`` records each answer: the ranked labels
and the utility of every view the result scored. A change to execution,
merging or scoring that moves any answer fails here — labels must match
exactly and utilities within 1e-12. Regenerate only when an answer is
meant to change::

    PYTHONPATH=src python tests/integration/test_golden_answers.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.api import RecommendationRequest, Reference
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.db.query import RowSelectQuery

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_answers.json"
TOLERANCE = 1e-12
K = 3

BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}
STRATEGIES = ("batch", "incremental")
REFERENCES = ("table", "complement")
#: Three predicate shapes: the planted segment, one dimension value, and a
#: conjunction with a disjunction inside it.
PREDICATES = {
    "segment": col("segment") == "target",
    "d1_value": col("d1") == "d1=v3",
    "mixed": (col("d2").isin(["d2=v0", "d2=v1"]) | (col("d3") == "d3=v5"))
    & (col("segment") != "rest"),
}
#: Multi-attribute cells: tuple width × reference, on the segment predicate.
MULTIVIEW_DIMENSIONS = (2, 3)
MULTIVIEW_REFERENCES = {
    "table": Reference.table(),
    "complement": Reference.complement(),
    "query": Reference.query(RowSelectQuery("golden", col("d1") != "d1=v3")),
}


def golden_table():
    return generate_synthetic(
        SyntheticConfig(
            n_rows=2_000, n_dimensions=4, n_measures=2, cardinality=6
        ),
        seed=26,
        table_name="golden",
    ).table


def cell_id(backend: str, strategy: str, reference: str, predicate: str) -> str:
    return f"{backend}/{strategy}/{reference}/{predicate}"


def multiview_cell_id(backend: str, n_dimensions: int, reference: str) -> str:
    return cell_id(backend, f"multiview{n_dimensions}", reference, "segment")


def answer(result) -> dict:
    return {
        "labels": [v.spec.label for v in result.recommendations],
        "utilities": {
            spec.label: utility
            for spec, utility in sorted(result.utilities.items())
        },
    }


def all_cells() -> list[str]:
    return [
        cell_id(*parts)
        for parts in itertools.product(BACKENDS, STRATEGIES, REFERENCES, PREDICATES)
    ] + [
        multiview_cell_id(*parts)
        for parts in itertools.product(
            BACKENDS, MULTIVIEW_DIMENSIONS, MULTIVIEW_REFERENCES
        )
    ]


def compute_answers() -> dict:
    """``{cell id: {"labels": [...], "utilities": {label: utility}}}``."""
    table = golden_table()
    answers = {}
    for backend_name, backend_type in BACKENDS.items():
        backend = backend_type()
        backend.register_table(table)
        try:
            with SeeDB(backend, SeeDBConfig(k=K)) as seedb:
                for strategy, reference, (name, predicate) in itertools.product(
                    STRATEGIES, REFERENCES, PREDICATES.items()
                ):
                    request = RecommendationRequest(
                        RowSelectQuery(table.name, predicate),
                        k=K,
                        reference=(
                            Reference.complement()
                            if reference == "complement"
                            else Reference.table()
                        ),
                        strategy=strategy,
                        options={"n_phases": 4} if strategy == "incremental" else {},
                    )
                    answers[cell_id(backend_name, strategy, reference, name)] = (
                        answer(seedb.recommend(request))
                    )
            for n in MULTIVIEW_DIMENSIONS:
                with SeeDB(backend, SeeDBConfig(k=K, n_dimensions=n)) as seedb:
                    for reference, spec in MULTIVIEW_REFERENCES.items():
                        request = RecommendationRequest(
                            RowSelectQuery(table.name, PREDICATES["segment"]),
                            k=K,
                            reference=spec,
                        )
                        answers[multiview_cell_id(backend_name, n, reference)] = (
                            answer(seedb.recommend(request))
                        )
        finally:
            backend.close()
    return answers


@pytest.fixture(scope="module")
def answers():
    return compute_answers()


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with `PYTHONPATH=src python {__file__}`"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_every_cell_is_recorded(answers, golden):
    assert sorted(answers) == sorted(golden) == sorted(all_cells())


@pytest.mark.parametrize("cell", all_cells())
def test_answer_matches_golden(cell, answers, golden):
    got, expected = answers[cell], golden[cell]
    assert got["labels"] == expected["labels"]
    assert sorted(got["utilities"]) == sorted(expected["utilities"])
    for label, utility in expected["utilities"].items():
        assert got["utilities"][label] == pytest.approx(
            utility, rel=0, abs=TOLERANCE
        ), label


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_answers(), indent=1, sort_keys=True) + "\n"
    )
    print(f"regenerated {GOLDEN_PATH}")
