"""Cross-process result transport over POSIX shared memory.

Worker processes in the cluster tier (:mod:`repro.service.cluster`) hand
finished :class:`~repro.core.result.RecommendationResult` objects back to
the router without pickling them: the result's numpy columns are written
raw into a named ``multiprocessing.shared_memory`` segment behind a small
self-describing header, and only the segment *name* crosses the process
boundary. This module is that codec plus the per-reply segment transport
— nothing here caches: a segment is written once by a worker
(:class:`SegmentWriter`), read once by the router (:func:`read_segment`)
and unlinked by that read. Finished results are cached in one place, the
router's in-process LRU (:class:`~repro.service.service.SeeDBService`).

Wire layout of one segment (or in-band byte blob)::

    [0:8)    magic  b"SDBRES1\\0"
    [8:16)   uint64 header length H (little-endian)
    [16:16+H) header JSON — the result's scalar fields and an array
              table of (dtype, shape, offset, nbytes)
    [...]     the numpy buffers, 8-byte aligned, at the header's offsets

Everything numeric (utilities, distributions, raw values) round-trips
bit-exactly: floats ride as raw IEEE-754 buffers or via JSON's
shortest-round-trip repr. Group keys (strings, ints, NaN floats, dates,
``datetime64``, tuples) are encoded with explicit type tags — dates use
the wire codec's ``{"$date": ...}`` convention.

Segment bookkeeping deliberately bypasses Python's ``resource_tracker``
(which would unlink a still-shared segment when the first process exits,
bpo-39959): every open is immediately unregistered and lifecycle is
explicit — the reader unlinks what it reads, and the ring sweeps its
prefix at close (:func:`unlink_prefix`) for segments a killed worker
wrote but never announced; :func:`list_segments` is the leak detector
the tests assert with.
"""

from __future__ import annotations

import itertools
import json
import os
from datetime import date, datetime
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.core.result import RecommendationResult
from repro.model.view import MultiViewSpec, ViewSpec
from repro.pruning.base import PruneReport
from repro.testing.faults import fault_point
from repro.util.errors import ConfigError
from repro.util.timing import Stopwatch

try:  # direct shm_unlink keeps the resource tracker out of the loop entirely
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platform
    _posixshmem = None

MAGIC = b"SDBRES1\0"
_HEADER_FIXED = 16  # magic + uint64 header length

#: Where POSIX named segments appear on Linux; used for leak detection.
SHM_DIR = "/dev/shm"


class ShmCodecError(ConfigError):
    """A segment or byte blob that is not a valid encoded result."""


# -- scalar value tagging ---------------------------------------------------


def encode_value(value):
    """One group key / scalar as a JSON-safe tagged value (lossless)."""
    if isinstance(value, np.datetime64):
        unit = np.datetime_data(value.dtype)[0]
        return {"$dt64": str(value), "$unit": unit}
    if hasattr(value, "item"):  # numpy scalars -> native
        value = value.item()
    if isinstance(value, datetime):
        return {"$datetime": value.isoformat()}
    if isinstance(value, date):
        return {"$date": value.isoformat()}
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(item) for item in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ShmCodecError(
        f"cannot encode value of type {type(value).__name__} for shm transport"
    )


def decode_value(value):
    if isinstance(value, dict):
        if "$dt64" in value:
            return np.datetime64(
                None if value["$dt64"] == "NaT" else value["$dt64"],
                value.get("$unit", "D"),
            )
        if "$datetime" in value:
            return datetime.fromisoformat(value["$datetime"])
        if "$date" in value:
            return date.fromisoformat(value["$date"])
        if "$tuple" in value:
            return tuple(decode_value(item) for item in value["$tuple"])
        raise ShmCodecError(f"unknown tagged value {sorted(value)}")
    return value


# -- array table ------------------------------------------------------------


class _ArrayTable:
    """Collects numpy arrays during encoding; emits the buffer region.

    Numeric/bool/datetime arrays ride as raw buffers (bit-exact,
    pickle-free); object-dtype arrays fall back to inline tagged values.
    """

    def __init__(self) -> None:
        self.entries: list[dict] = []
        self.buffers: list[bytes] = []
        self.nbytes = 0

    def add(self, array: np.ndarray):
        array = np.asarray(array)
        if array.dtype.kind not in "biufM":
            return {
                "values": [encode_value(item) for item in array.tolist()]
            }
        raw = np.ascontiguousarray(array).tobytes()
        aligned = (len(raw) + 7) & ~7
        index = len(self.entries)
        self.entries.append(
            {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": self.nbytes,  # relative to the array region start
                "nbytes": len(raw),
            }
        )
        self.buffers.append(raw + b"\0" * (aligned - len(raw)))
        self.nbytes += aligned
        return index


def _take_array(ref, entries: list[dict], buf, region_start: int) -> np.ndarray:
    if isinstance(ref, dict):
        values = [decode_value(item) for item in ref["values"]]
        array = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            array[i] = value
        return array
    entry = entries[ref]
    start = region_start + entry["offset"]
    view = np.frombuffer(
        buf, dtype=np.dtype(entry["dtype"]), count=int(np.prod(entry["shape"], dtype=np.int64)), offset=start
    )
    # Copy out: the caller closes the segment after decoding, which would
    # invalidate any view still referencing its mmap.
    return view.reshape(entry["shape"]).copy()


# -- view / result structure ------------------------------------------------


def _spec_to_dict(spec) -> dict:
    if hasattr(spec, "dimension"):
        return {"d": spec.dimension, "m": spec.measure, "f": spec.func}
    return {"dims": list(spec.dimensions), "m": spec.measure, "f": spec.func}


def _spec_from_dict(payload: dict):
    if "dims" in payload:
        return MultiViewSpec(
            dimensions=tuple(payload["dims"]),
            measure=payload["m"],
            func=payload["f"],
        )
    return ViewSpec(payload["d"], payload["m"], payload["f"])


def _view_to_dict(view, arrays: _ArrayTable) -> dict:
    return {
        "spec": _spec_to_dict(view.spec),
        "utility": float(view.utility),
        "groups": [encode_value(group) for group in view.groups],
        "target_distribution": arrays.add(view.target_distribution),
        "comparison_distribution": arrays.add(view.comparison_distribution),
        "target_values": arrays.add(view.target_values),
        "comparison_values": arrays.add(view.comparison_values),
    }


def _view_from_dict(payload: dict, entries, buf, region_start):
    from repro.model.view import ScoredView

    return ScoredView(
        spec=_spec_from_dict(payload["spec"]),
        utility=payload["utility"],
        groups=[decode_value(group) for group in payload["groups"]],
        target_distribution=_take_array(
            payload["target_distribution"], entries, buf, region_start
        ),
        comparison_distribution=_take_array(
            payload["comparison_distribution"], entries, buf, region_start
        ),
        target_values=_take_array(
            payload["target_values"], entries, buf, region_start
        ),
        comparison_values=_take_array(
            payload["comparison_values"], entries, buf, region_start
        ),
    )


def encode_result(result: RecommendationResult) -> bytes:
    """Serialize a result into one self-describing byte blob (no pickle).

    Each shown view is written once: ``recommendations`` and
    ``all_scored`` are indices into one ``views`` list. Utilities ride
    as one float64 buffer beside their view specs.
    """
    arrays = _ArrayTable()
    views: list = []
    index: dict[int, int] = {}

    def ref(view) -> int:
        if id(view) not in index:
            index[id(view)] = len(views)
            views.append(_view_to_dict(view, arrays))
        return index[id(view)]

    recommendations = [ref(view) for view in result.recommendations]
    all_scored = [ref(view) for view in result.all_scored.values()]
    header = {
        "result": {
            "table": result.table,
            "predicate_description": result.predicate_description,
            "k": result.k,
            "metric": result.metric,
            "views": views,
            "recommendations": recommendations,
            "all_scored": all_scored,
            "utilities": {
                "specs": [_spec_to_dict(spec) for spec in result.utilities],
                "values": arrays.add(
                    np.fromiter(result.utilities.values(), dtype=np.float64)
                ),
            },
            "prune_reports": [
                {
                    "rule": report.rule,
                    "examined": report.examined,
                    "pruned": [
                        [_spec_to_dict(spec), reason]
                        for spec, reason in report.pruned
                    ],
                }
                for report in result.prune_reports
            ],
            "phases": dict(result.stopwatch.phases),
            "n_candidate_views": result.n_candidate_views,
            "n_executed_views": result.n_executed_views,
            "n_queries": result.n_queries,
            "sample_fraction": result.sample_fraction,
            "plan_description": result.plan_description,
            "reference_description": result.reference_description,
            "partial": result.partial,
            "partial_epsilon": result.partial_epsilon,
            "visualizations": result.visualizations,
        },
        "arrays": arrays.entries,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    region_start = _HEADER_FIXED + len(header_bytes)
    aligned_start = (region_start + 7) & ~7
    parts = [
        MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        b"\0" * (aligned_start - region_start),
    ]
    parts.extend(arrays.buffers)
    return b"".join(parts)


def peek_header(buf) -> dict:
    """Validate framing and return the decoded header of an encoded blob."""
    view = memoryview(buf)
    try:
        if len(view) < _HEADER_FIXED or bytes(view[:8]) != MAGIC:
            raise ShmCodecError("not an encoded result (bad magic)")
        header_len = int.from_bytes(view[8:16], "little")
        if header_len <= 0 or _HEADER_FIXED + header_len > len(view):
            raise ShmCodecError("truncated result header")
        try:
            return json.loads(bytes(view[16:16 + header_len]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShmCodecError(f"corrupt result header: {exc}") from exc
    finally:
        # Release before any raise propagates: a traceback pinning this
        # frame must not pin an exported pointer into a shared-memory
        # segment the caller is about to close (BufferError otherwise).
        view.release()


def decode_result(buf) -> RecommendationResult:
    """Decode a blob back into the result it encodes.

    Arrays are copied out of ``buf``, so the returned result outlives any
    shared-memory segment the blob came from.
    """
    header = peek_header(buf)
    header_len = int.from_bytes(memoryview(buf)[8:16], "little")
    region_start = (_HEADER_FIXED + header_len + 7) & ~7
    entries = header["arrays"]
    payload = header["result"]
    views = [
        _view_from_dict(item, entries, buf, region_start)
        for item in payload["views"]
    ]
    utilities = payload["utilities"]
    utility_values = _take_array(utilities["values"], entries, buf, region_start)
    return RecommendationResult(
        table=payload["table"],
        predicate_description=payload["predicate_description"],
        k=payload["k"],
        metric=payload["metric"],
        recommendations=[views[i] for i in payload["recommendations"]],
        utilities={
            _spec_from_dict(spec): float(value)
            for spec, value in zip(utilities["specs"], utility_values)
        },
        all_scored={views[i].spec: views[i] for i in payload["all_scored"]},
        prune_reports=[
            PruneReport(
                rule=report["rule"],
                examined=report["examined"],
                pruned=[
                    (_spec_from_dict(spec), reason)
                    for spec, reason in report["pruned"]
                ],
            )
            for report in payload["prune_reports"]
        ],
        stopwatch=Stopwatch(phases=dict(payload["phases"])),
        n_candidate_views=payload["n_candidate_views"],
        n_executed_views=payload["n_executed_views"],
        n_queries=payload["n_queries"],
        sample_fraction=payload["sample_fraction"],
        plan_description=payload["plan_description"],
        reference_description=payload["reference_description"],
        partial=payload["partial"],
        partial_epsilon=payload["partial_epsilon"],
        visualizations=payload["visualizations"],
    )


# -- shared-memory segments -------------------------------------------------


def _open_segment(name: str, create: bool = False, size: int = 0):
    """Open/create a segment with the resource tracker kept out of it."""
    segment = shared_memory.SharedMemory(name=name, create=create, size=size)
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across versions
        pass
    return segment


def unlink_segment(name: str) -> bool:
    """Remove a named segment; returns whether it existed."""
    if _posixshmem is not None:
        try:
            _posixshmem.shm_unlink("/" + name)
        except OSError:  # FileNotFoundError included
            return False
        return True
    try:  # pragma: no cover - non-POSIX fallback
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.unlink()
    segment.close()
    return True


def list_segments(prefix: str) -> list[str]:
    """Live segment names under ``prefix`` (empty where unsupported)."""
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def unlink_prefix(prefix: str) -> int:
    """Unlink every segment under ``prefix``; returns how many went.

    The ring's end-of-life sweep: the only segments it can find are ones
    a worker wrote and never got to announce (killed mid-reply).
    """
    return sum(unlink_segment(name) for name in list_segments(prefix))


def validate_prefix(prefix: str) -> str:
    """``prefix`` if it can head a portable segment name, else raise."""
    if not prefix or len(prefix) > 14 or "/" in prefix:
        raise ConfigError(
            f"shm prefix must be 1-14 chars without '/', got {prefix!r}"
        )
    return prefix


class SegmentWriter:
    """The worker's half of the per-reply transport.

    Every :meth:`write` creates a segment no other write will ever name
    (``<prefix><pid>.<sequence>``), so concurrent replies — even for one
    request key — never meet, and the reader can unlink on sight.
    """

    def __init__(self, prefix: str):
        self.prefix = validate_prefix(prefix)
        self.puts = 0
        self.put_failures = 0
        self._sequence = itertools.count()

    def write(self, result: RecommendationResult) -> "str | None":
        """Write ``result`` into a fresh segment; returns its name, or
        None on failure.

        Failures (shm exhausted, unsupported platform, unencodable value)
        are not errors — the caller falls back to sending the encoded
        bytes in-band.
        """
        name = f"{self.prefix}{os.getpid():x}.{next(self._sequence):x}"
        try:
            payload = encode_result(result)
            segment = _open_segment(name, create=True, size=len(payload))
        except (ShmCodecError, OSError, ValueError):
            self.put_failures += 1
            return None
        try:
            segment.buf[:len(payload)] = payload
        finally:
            segment.close()
        if "tear" in fault_point("shm.put"):
            # Chaos hook: a write that did not complete. The name is ours
            # alone, so retiring the torn segment cannot race a reader.
            unlink_segment(name)
            self.put_failures += 1
            return None
        self.puts += 1
        return name

    def stats(self) -> dict:
        return {"puts": self.puts, "put_failures": self.put_failures}


def read_segment(name: str) -> RecommendationResult:
    """Decode the result in segment ``name`` and unlink the segment.

    The router's half of the transport: a segment carries exactly one
    reply to exactly one reader, so it is gone — valid or not — the
    moment this returns. Raises ``FileNotFoundError`` /
    :class:`ShmCodecError` on missing or invalid segments.
    """
    segment = _open_segment(name)
    try:
        return decode_result(segment.buf)
    finally:
        unlink_segment(name)
        segment.close()
