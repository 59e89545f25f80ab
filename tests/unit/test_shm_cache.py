"""Unit: the shared-memory result codec and per-reply segment transport.

Covers the transport invariants the cluster tier depends on: bit-exact
round-trips of every array dtype the engine produces, one uniquely named
segment per write, a read that unlinks what it reads, torn writes that
fall back instead of surfacing, and segment hygiene — no /dev/shm leaks.
"""

from __future__ import annotations

import multiprocessing
from datetime import date, datetime

import numpy as np
import pytest

from repro.core.result import RecommendationResult
from repro.core.view import ScoredView, ViewSpec
from repro.pruning.base import PruneReport
from repro.service.shm import (
    SegmentWriter,
    ShmCodecError,
    decode_result,
    decode_value,
    encode_result,
    encode_value,
    list_segments,
    read_segment,
    unlink_prefix,
    unlink_segment,
)
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    install_injector,
    uninstall_injector,
)
from repro.util.errors import ConfigError
from repro.util.timing import Stopwatch

PREFIX = "sdbtest."


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Every test must leave /dev/shm clean under the test prefix."""
    for name in list_segments(PREFIX):
        unlink_segment(name)
    yield
    leaked = list_segments(PREFIX)
    for name in leaked:
        unlink_segment(name)
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


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


def fingerprint(result: RecommendationResult) -> tuple:
    return (
        tuple(view.spec for view in result.recommendations),
        tuple(sorted(result.utilities.items())),
    )


class TestValueTags:
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
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, np.datetime64)

    def test_nan_round_trips_as_nan(self):
        assert np.isnan(decode_value(encode_value(float("nan"))))

    def test_nat_round_trips(self):
        decoded = decode_value(encode_value(np.datetime64("NaT", "D")))
        assert np.isnat(decoded)

    def test_numpy_scalars_decay_to_native(self):
        assert decode_value(encode_value(np.int64(7))) == 7
        assert decode_value(encode_value(np.float64(0.1))) == 0.1

    def test_unencodable_type_raises(self):
        with pytest.raises(ShmCodecError):
            encode_value(object())


class TestCodec:
    def test_round_trip_bit_exact(self):
        result = make_result()
        digest = "ab" * 32
        blob = encode_result(result, digest=digest, data_version=9)
        got_digest, got_version, decoded = decode_result(blob)
        assert (got_digest, got_version) == (digest, 9)
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
        _, _, decoded = decode_result(encode_result(result))
        assert decoded.recommendations[0].groups == [
            date(2014, 9, 1),
            date(2014, 9, 2),
        ]

    def test_object_dtype_arrays_with_nulls(self):
        result = make_result()
        view = result.recommendations[0]
        view.target_values = np.array(["x", None, 3.5], dtype=object)
        _, _, decoded = decode_result(encode_result(result))
        got = decoded.recommendations[0].target_values
        assert got.dtype == object
        assert list(got) == ["x", None, 3.5]

    def test_datetime64_arrays_round_trip(self):
        result = make_result()
        view = result.recommendations[0]
        view.target_values = np.array(
            ["2014-09-01", "NaT"], dtype="datetime64[D]"
        )
        _, _, decoded = decode_result(encode_result(result))
        got = decoded.recommendations[0].target_values
        assert got.dtype == np.dtype("datetime64[D]")
        assert got[0] == np.datetime64("2014-09-01", "D")
        assert np.isnat(got[1])

    def test_bad_magic_rejected(self):
        blob = encode_result(make_result())
        with pytest.raises(ShmCodecError):
            decode_result(b"NOTMAGIC" + blob[8:])
        with pytest.raises(ShmCodecError):
            decode_result(blob[:10])

    def test_decoded_arrays_are_owned_copies(self):
        blob = bytearray(encode_result(make_result()))
        _, _, decoded = decode_result(blob)
        view = decoded.recommendations[0]
        before = view.target_distribution.copy()
        blob[:] = b"\0" * len(blob)  # scribble over the source buffer
        assert np.array_equal(view.target_distribution, before)


class TestSegmentTransport:
    def test_write_read_unlink_round_trip(self):
        writer = SegmentWriter(PREFIX)
        result = make_result()
        name = writer.write(result)
        assert name is not None and name.startswith(PREFIX)
        assert list_segments(PREFIX) == [name]
        got = read_segment(name)
        assert fingerprint(got) == fingerprint(result)
        # The read is the segment's whole life: one reply, one reader.
        assert list_segments(PREFIX) == []
        assert writer.stats() == {"puts": 1, "put_failures": 0}

    def test_second_read_finds_nothing(self):
        name = SegmentWriter(PREFIX).write(make_result())
        read_segment(name)
        with pytest.raises(FileNotFoundError):
            read_segment(name)

    def test_every_write_gets_its_own_segment(self):
        # Uncoalesced twins of one request reply concurrently: neither
        # write may land on (or unlink) the other's segment.
        writer = SegmentWriter(PREFIX)
        first = writer.write(make_result(utility=0.25))
        second = writer.write(make_result(utility=0.5))
        assert first != second
        assert list_segments(PREFIX) == sorted([first, second])
        assert read_segment(second).recommendations[0].utility == 0.5
        assert read_segment(first).recommendations[0].utility == 0.25
        assert list_segments(PREFIX) == []

    def test_invalid_segment_is_rejected_and_still_unlinked(self):
        from repro.service.shm import _open_segment

        name = PREFIX + "garbage"
        segment = _open_segment(name, create=True, size=64)
        segment.close()
        with pytest.raises(ShmCodecError):
            read_segment(name)
        assert list_segments(PREFIX) == []

    def test_torn_write_reports_failure_and_leaves_nothing(self):
        install_injector(FaultInjector([FaultSpec("shm.put", "tear")]))
        try:
            writer = SegmentWriter(PREFIX)
            assert writer.write(make_result()) is None
        finally:
            uninstall_injector()
        assert writer.stats() == {"puts": 0, "put_failures": 1}
        assert list_segments(PREFIX) == []

    def test_unencodable_result_reports_failure(self):
        result = make_result(groups=[object(), object()])
        writer = SegmentWriter(PREFIX)
        assert writer.write(result) is None
        assert writer.stats()["put_failures"] == 1

    def test_unlink_prefix_sweeps_unread_segments(self):
        writer = SegmentWriter(PREFIX)
        for _ in range(3):
            writer.write(make_result())
        assert len(list_segments(PREFIX)) == 3
        assert unlink_prefix(PREFIX) == 3
        assert list_segments(PREFIX) == []

    def test_prefix_validated(self):
        with pytest.raises(ConfigError):
            SegmentWriter("")
        with pytest.raises(ConfigError):
            SegmentWriter("much-too-long-a-prefix.")
        with pytest.raises(ConfigError):
            SegmentWriter("has/slash")


def _child_write(prefix: str, utility: float, names) -> None:
    names.put(SegmentWriter(prefix).write(make_result(utility=utility)))


class TestCrossProcess:
    def test_child_write_parent_read(self):
        ctx = multiprocessing.get_context()
        names = ctx.Queue()
        child = ctx.Process(target=_child_write, args=(PREFIX, 0.625, names))
        child.start()
        name = names.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        # The segment outlives its writer until the one read retires it.
        assert list_segments(PREFIX) == [name]
        assert read_segment(name).recommendations[0].utility == 0.625
        assert list_segments(PREFIX) == []
