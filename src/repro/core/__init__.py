"""SeeDB core: the paper's primary contribution.

Given an analyst query ``Q`` over a table, enumerate all candidate views
``(a, m, f)`` (§2), prune unpromising ones, execute the surviving target and
comparison view queries through the optimizer, score each view's deviation
with a distance metric, and return the top-k (Problem 2.1).

Public entry point: :class:`~repro.core.recommender.SeeDB`. Incremental
execution is a request strategy (``strategy="incremental"``), and
multi-attribute views — a :class:`ViewSpec` whose dimension is a tuple,
enumerated by :func:`enumerate_views` with ``n_dimensions`` > 1 — are
``SeeDBConfig(n_dimensions=n)``, run by the same pipeline.
"""

from repro.model.view import ViewSpec, RawViewData, ScoredView
from repro.core.space import (
    enumerate_views,
    split_predicate_dimensions,
    view_space_size,
)
from repro.core.config import SeeDBConfig, GroupByCombining
from repro.core.result import RecommendationResult
from repro.core.recommender import SeeDB
from repro.core.basic import BasicFramework

__all__ = [
    "ViewSpec",
    "RawViewData",
    "ScoredView",
    "enumerate_views",
    "split_predicate_dimensions",
    "view_space_size",
    "SeeDBConfig",
    "GroupByCombining",
    "RecommendationResult",
    "SeeDB",
    "BasicFramework",
]
