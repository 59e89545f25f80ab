"""The SeeDB recommender: a session holder over the shared ExecutionEngine.

The full optimized pipeline of Figure 4 — Metadata Collector → Query
Generator (enumeration + pruning) → Optimizer (combining / sampling /
parallelism) → DBMS → View Processor (normalize + score) → top-k — lives in
:mod:`repro.engine`: :func:`~repro.engine.engine.phases_for` maps a
resolved request onto its phase list and
:meth:`~repro.engine.ExecutionEngine.drive` runs it. This class holds what
a session keeps between calls — one engine (metadata collector + session
cache) and the base :class:`SeeDBConfig` requests resolve against — and
packages finished contexts as :class:`RecommendationResult`.

A :class:`~repro.api.RecommendationRequest` is the only input:
:meth:`SeeDB.recommend` runs it to completion, :meth:`SeeDB.recommend_iter`
streams :class:`~repro.api.PartialResult` rounds from the same drive. SQL
text and :class:`~repro.db.query.RowSelectQuery` objects become requests
at the edge (``RecommendationRequest.from_sql`` / the constructor).
Incremental execution is ``strategy="incremental"``; multi-attribute views
are ``SeeDBConfig(n_dimensions=n)``, run by the same pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.core.result import RecommendationResult
from repro.engine.engine import ExecutionEngine, resolve_request
from repro.metadata.collector import MetadataCollector

if TYPE_CHECKING:
    from repro.api.progressive import PartialResult
    from repro.api.request import RecommendationRequest


class SeeDB:
    """Visualization recommender over a DBMS backend.

    >>> backend = MemoryBackend()
    >>> backend.register_table(sales)                      # doctest: +SKIP
    >>> seedb = SeeDB(backend)
    >>> result = seedb.recommend(
    ...     RecommendationRequest.from_sql(
    ...         "SELECT * FROM sales WHERE product = 'Laserwave'", k=3
    ...     )
    ... )                                                  # doctest: +SKIP

    One instance holds an :class:`~repro.engine.ExecutionEngine` across
    queries: its metadata collector (with the access log) lets
    access-frequency pruning learn from session history, its cache lets
    repeated calls skip redundant backend round trips, and plan steps run
    on the process-wide worker pool rather than threads of its own. Use
    the instance as a context manager (or call :meth:`close`) to release
    cached sample tables at session end.
    """

    def __init__(
        self,
        backend: Backend,
        config: "SeeDBConfig | None" = None,
        metadata_collector: "MetadataCollector | None" = None,
    ):
        self.backend = backend
        self.config = config if config is not None else SeeDBConfig()
        self.engine = ExecutionEngine(backend, metadata_collector)
        self.metadata = self.engine.metadata

    # ------------------------------------------------------------------

    def recommend(self, request: "RecommendationRequest") -> RecommendationResult:
        """Recommend the top-k most deviating views for ``request``."""
        resolved = resolve_request(request, self.config)
        return self.engine.recommend(resolved).to_result()

    def recommend_iter(
        self, request: "RecommendationRequest"
    ) -> "Iterator[PartialResult]":
        """Progressive :meth:`recommend`: yield partial top-k rounds.

        Runs the request through the incremental engine regardless of its
        ``strategy``, yielding one :class:`~repro.api.PartialResult` per
        executed phase (current top-k estimate + confidence/pruning state)
        and a final round whose ``result`` is bit-identical to what
        :meth:`recommend` returns for the same request with
        ``strategy="incremental"``.
        """
        resolved = resolve_request(request, self.config, stream=True)
        return self.engine.recommend_iter(resolved)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release session resources (cached samples)."""
        self.engine.close()

    def __enter__(self) -> "SeeDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
