"""Unit: the cluster tier's reply codecs.

A worker's finished result rides its reply pipe as one pickled blob
(``encode_result`` / ``decode_result``), and a worker-side failure as a
small dict (``encode_error`` / ``decode_error``). These pin the value
cases the engine produces — calendar and tuple group keys, NaN / NaT,
object columns with NULLs, exact float utilities — plus the real
engine result on each backend, a child-to-parent crossing, and the
typed errors the router re-raises.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import threading
from datetime import date, datetime

import numpy as np
import pytest

from repro.api.errors import ApiError
from repro.api.request import RecommendationRequest
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.core.result import RecommendationResult
from repro.model.view import ScoredView, ViewSpec
from repro.pruning.base import PruneReport
from repro.service import decode_result, encode_result
from repro.service.worker import decode_error, encode_error
from repro.util import errors
from repro.util.timing import Stopwatch


def make_result(utility: float = 0.75, groups=None) -> RecommendationResult:
    spec = ViewSpec("region", "sales", "sum")
    other = ViewSpec("product", None, "count")
    if groups is None:
        groups = ["east", "west"]
    view = ScoredView(
        spec=spec,
        utility=utility,
        groups=list(groups),
        target_distribution=np.array([0.25, 0.75]),
        comparison_distribution=np.array([0.5, 0.5]),
        target_values=np.array([10.0, 30.0]),
        comparison_values=np.array([20.0, 20.0]),
    )
    low = ScoredView(
        spec=other,
        utility=np.nextafter(0.1, 0.0),  # not representable in short decimal
        groups=list(groups),
        target_distribution=np.array([np.nan, 1.0]),
        comparison_distribution=np.array([0.5, 0.5]),
    )
    return RecommendationResult(
        table="orders",
        predicate_description="product = 'p0'",
        k=1,
        metric="js",
        recommendations=[view],
        utilities={view.spec: view.utility, low.spec: low.utility},
        all_scored={view.spec: view, low.spec: low},
        prune_reports=[
            PruneReport(rule="variance", examined=3, pruned=[(other, "flat")])
        ],
        stopwatch=Stopwatch(phases={"execute": 0.25, "score": 0.0625}),
        n_candidate_views=3,
        n_executed_views=2,
        n_queries=4,
        sample_fraction=None,
        plan_description="combined",
        reference_description="table",
    )


def round_trip(result: RecommendationResult) -> RecommendationResult:
    return decode_result(encode_result(result))


def fingerprint(result: RecommendationResult) -> tuple:
    return (
        tuple(view.spec for view in result.recommendations),
        tuple(sorted(result.utilities.items())),
    )


class TestGroupValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            -7,
            3.141592653589793,
            "east",
            date(2014, 9, 1),
            datetime(2014, 9, 1, 12, 30, 15),
            ("a", 1),
            np.datetime64("2014-09-01", "D"),
            np.datetime64("2014-09-01T12:30", "s"),
        ],
    )
    def test_round_trip(self, value):
        decoded = round_trip(make_result(groups=[value, "west"]))
        got = decoded.recommendations[0].groups[0]
        assert got == value
        assert type(got) is type(value)

    def test_nan_round_trips_as_nan(self):
        decoded = round_trip(make_result(groups=[float("nan"), "west"]))
        assert np.isnan(decoded.recommendations[0].groups[0])

    def test_nat_round_trips(self):
        nat = np.datetime64("NaT", "D")
        decoded = round_trip(make_result(groups=[nat, "west"]))
        got = decoded.recommendations[0].groups[0]
        assert np.isnat(got)
        assert got.dtype == nat.dtype

    def test_numpy_scalars_keep_their_type(self):
        decoded = round_trip(make_result(groups=[np.int64(7), np.float64(0.1)]))
        first, second = decoded.recommendations[0].groups
        assert (type(first), first) == (np.int64, 7)
        assert (type(second), second) == (np.float64, 0.1)


class TestResultCodec:
    def test_round_trip_bit_exact(self):
        result = make_result()
        decoded = round_trip(result)
        assert fingerprint(decoded) == fingerprint(result)
        for original, copy in zip(
            result.all_scored.values(), decoded.all_scored.values()
        ):
            assert copy.utility == original.utility  # exact float equality
            assert np.array_equal(
                copy.target_distribution,
                original.target_distribution,
                equal_nan=True,
            )
            assert copy.groups == original.groups
        assert decoded.stopwatch.phases == result.stopwatch.phases
        assert decoded.prune_reports[0].pruned == result.prune_reports[0].pruned
        assert decoded.n_queries == result.n_queries

    def test_date_groups_round_trip(self):
        result = make_result(groups=[date(2014, 9, 1), date(2014, 9, 2)])
        decoded = round_trip(result)
        assert decoded.recommendations[0].groups == [
            date(2014, 9, 1),
            date(2014, 9, 2),
        ]

    def test_object_dtype_arrays_with_nulls(self):
        result = make_result()
        view = result.recommendations[0]
        view.target_values = np.array(["x", None, 3.5], dtype=object)
        got = round_trip(result).recommendations[0].target_values
        assert got.dtype == object
        assert list(got) == ["x", None, 3.5]

    def test_datetime64_arrays_round_trip(self):
        result = make_result()
        view = result.recommendations[0]
        view.target_values = np.array(
            ["2014-09-01", "NaT"], dtype="datetime64[D]"
        )
        got = round_trip(result).recommendations[0].target_values
        assert got.dtype == np.dtype("datetime64[D]")
        assert got[0] == np.datetime64("2014-09-01", "D")
        assert np.isnat(got[1])

    @pytest.mark.parametrize("partial, epsilon", [(False, None), (True, 0.05)])
    def test_lifecycle_fields_round_trip(self, partial, epsilon):
        result = make_result()
        result.partial, result.partial_epsilon = partial, epsilon
        decoded = round_trip(result)
        assert (decoded.partial, decoded.partial_epsilon) == (partial, epsilon)

    def test_plan_decision_and_frames_round_trip(self):
        result = make_result()
        result.plan_decision = {
            "kind": "combined",
            "predicted_seconds": 0.01,
            "candidate_seconds": {"combined": 0.01, "separate": 0.03},
        }
        result.visualizations = [{"rank": 1, "format": "vega-lite", "spec": {}}]
        decoded = round_trip(result)
        assert decoded.plan_decision == result.plan_decision
        assert decoded.visualizations == result.visualizations

    def test_shown_views_cross_once(self):
        decoded = round_trip(make_result())
        for view in decoded.recommendations:
            assert decoded.all_scored[view.spec] is view

    def test_multi_attribute_specs_round_trip(self):
        result = make_result(groups=[("east", 1), ("west", 2)])
        spec = ViewSpec(("region", "product"), "sales", "sum")
        view = dataclasses.replace(result.recommendations[0], spec=spec)
        result.recommendations = [view]
        result.all_scored = {spec: view}
        result.utilities = {spec: view.utility}
        decoded = round_trip(result)
        assert list(decoded.all_scored) == [spec]
        assert decoded.recommendations[0].groups == [("east", 1), ("west", 2)]

    def test_decoded_arrays_are_owned_copies(self):
        blob = bytearray(encode_result(make_result()))
        decoded = decode_result(blob)
        view = decoded.recommendations[0]
        before = view.target_distribution.copy()
        blob[:] = b"\0" * len(blob)  # scribble over the source buffer
        assert np.array_equal(view.target_distribution, before)

    def test_truncated_blob_is_rejected(self):
        blob = encode_result(make_result())
        with pytest.raises((pickle.UnpicklingError, EOFError)):
            decode_result(blob[: len(blob) // 2])

    def test_unencodable_result_raises(self):
        # The worker turns this into an error reply rather than a payload.
        result = make_result(groups=[threading.Lock(), "west"])
        with pytest.raises((TypeError, pickle.PicklingError)):
            encode_result(result)


class TestViewSpecPickling:
    @pytest.mark.parametrize(
        "spec",
        [ViewSpec("region", "sales", "avg"), ViewSpec("region", None, "count")],
        ids=["measure", "count"],
    )
    def test_spec_round_trips_equal_and_hashes_alike(self, spec):
        copy = pickle.loads(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(copy) is ViewSpec
        assert copy == spec
        assert hash(copy) == hash(spec)
        assert {copy: 1}[spec] == 1


class TestEngineResults:
    @pytest.mark.parametrize("backend_fixture", ["memory_backend", "sqlite_backend"])
    def test_every_field_of_a_real_result_crosses(self, backend_fixture, request):
        backend = request.getfixturevalue(backend_fixture)
        result = SeeDB(backend, SeeDBConfig(k=2)).recommend(
            RecommendationRequest.from_sql(
                "SELECT * FROM sales WHERE product = 'Laserwave'"
            )
        )
        decoded = round_trip(result)
        assert fingerprint(decoded) == fingerprint(result)
        assert decoded.plan_decision == result.plan_decision
        for field in dataclasses.fields(RecommendationResult):
            assert type(getattr(decoded, field.name)) is type(
                getattr(result, field.name)
            ), field.name
        for spec, view in result.all_scored.items():
            copy = decoded.all_scored[spec]
            assert copy.groups == view.groups
            assert np.array_equal(copy.target_values, view.target_values)
            assert np.array_equal(
                copy.comparison_distribution, view.comparison_distribution
            )


def _child_reply(conn, utility: float) -> None:
    conn.send({"payload": encode_result(make_result(utility=utility))})
    conn.close()


class TestCrossProcess:
    def test_child_encode_parent_decode(self):
        ctx = multiprocessing.get_context()
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_reply, args=(writer, 0.625))
        child.start()
        writer.close()
        try:
            assert reader.poll(60)
            reply = reader.recv()
        finally:
            child.join(timeout=60)
            reader.close()
        assert child.exitcode == 0
        decoded = decode_result(reply["payload"])
        assert decoded.recommendations[0].utility == 0.625
        assert fingerprint(decoded) == fingerprint(make_result(utility=0.625))


class TestErrorReplies:
    def test_api_error_keeps_code_and_field(self):
        exc = ApiError("bad k", code="invalid_value", field="k")
        got = decode_error(encode_error(exc))
        assert isinstance(got, ApiError)
        assert (str(got), got.code, got.field) == ("bad k", "invalid_value", "k")

    @pytest.mark.parametrize(
        "exc_type",
        [
            errors.DeadlineExceeded,
            errors.Overloaded,
            errors.Cancelled,
            errors.WorkerLost,
            errors.ConfigError,
            errors.BackendError,
            errors.QueryError,
        ],
    )
    def test_library_errors_keep_their_type(self, exc_type):
        got = decode_error(encode_error(exc_type("worker said no")))
        assert type(got) is exc_type
        assert str(got) == "worker said no"

    def test_foreign_error_becomes_query_error(self):
        got = decode_error(encode_error(KeyError("missing")))
        assert type(got) is errors.QueryError
        assert "KeyError" in str(got)
