"""Caches over one backend, keyed on its data version.

Repeated ``recommend()`` calls in an analyst session hit the same table
with different predicates; the schema, the metadata statistics, the base
table materialization, the exact row count, and any sampled execution
table are all invariant until the data changes. The metadata entry is the
only statistics pass: the pruners and the cost-based planner read its
dimension statistics, and the planner takes ``n_rows`` from the cached
row count. The cache keys every entry on the backend's
``data_version`` counter (bumped by ``register_table``/``drop_table``):
an unchanged counter means cache hits and strictly fewer DBMS round trips,
a changed counter evicts everything — including materialized
``__seedb_sample`` tables, which the cache owns and drops (the sample-leak
fix: samples never outlive the data they were drawn from, and
:meth:`SessionCache.close` removes them at session end).

Two layers share the implementation:

* :class:`SessionCache` — one cache instance, now internally synchronized
  (every lookup/eviction runs under one re-entrant lock, so eviction can
  never race a ``data_version`` bump observed by ``sync``);
* :class:`EngineCache` — the shared, refcounted per-backend promotion of
  the same cache: every engine on one backend gets the *same* instance
  via :meth:`EngineCache.acquire`, so concurrent sessions reuse schema,
  metadata, and materialized samples. The last release closes it.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

from repro.backends.base import Backend, materialize_sample
from repro.db.table import Table
from repro.metadata.collector import MetadataCollector, TableMetadata

#: Suffix of cache-owned sampled execution tables.
SAMPLE_SUFFIX = "__seedb_sample"


def sample_table_name(source: str, fraction: float, seed: int) -> str:
    """Deterministic sample-table name encoding its knobs.

    Encoding fraction and seed keeps two sessions sharing one backend from
    clobbering each other's samples: equal names imply equal content (both
    samplers are seed-deterministic), different knobs get different tables.
    """
    return f"{source}{SAMPLE_SUFFIX}_{int(round(fraction * 1_000_000))}_{seed}"


@dataclass
class CacheStats:
    """Observability counters (asserted on by the cache tests)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    samples_dropped: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.samples_dropped = 0


@dataclass
class _SampleEntry:
    """One materialized sample: its name plus the knobs that produced it."""

    name: str
    fraction: float
    seed: int


class SessionCache:
    """Caches schema / base-table / metadata / row-count / sample lookups.

    Internally synchronized: every lookup, eviction, and :meth:`sync` runs
    under one re-entrant lock, so concurrent ``recommend()`` calls may
    share an instance. Holding the lock across the miss path doubles as
    request coalescing — two sessions asking for the same metadata compute
    it once, not twice.
    """

    def __init__(self, backend: Backend):
        self.backend = backend
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._version: "int | None" = None  # guarded-by: _lock
        self._schemas: dict = {}  # guarded-by: _lock
        # (name, max_rows) -> Table
        self._tables: dict = {}  # guarded-by: _lock
        # (name, max_rows) -> TableMetadata
        self._metadata: dict[tuple, TableMetadata] = {}  # guarded-by: _lock
        self._row_counts: dict[str, int] = {}  # guarded-by: _lock
        # source -> entry
        self._samples: dict[str, _SampleEntry] = {}  # guarded-by: _lock

    # -- lifecycle -------------------------------------------------------

    def sync(self) -> None:
        """Validate the cache against the backend's current data version.

        On mismatch every entry is evicted and cache-owned sample tables
        are dropped; the version is re-read *after* the drops so the
        cache's own maintenance does not invalidate the next run. Runs
        entirely under the cache lock, so an eviction can never interleave
        with another session's lookup of a half-cleared cache.
        """
        with self._lock:
            version = self.backend.data_version
            if self._version is not None and version != self._version:
                self.invalidate()
            self._version = self.backend.data_version

    def invalidate(self) -> None:
        """Evict everything and drop owned sample tables."""
        with self._lock:
            self.drop_samples()
            self._schemas.clear()
            self._tables.clear()
            self._metadata.clear()
            self._row_counts.clear()
            self.stats.invalidations += 1

    def drop_samples(self) -> None:
        """Drop every cache-owned materialized sample table."""
        with self._lock:
            for entry in list(self._samples.values()):
                self._drop_owned(entry.name)
            self._samples.clear()

    def _drop_owned(self, name: str) -> None:
        """Drop a cache-owned table without self-invalidating.

        ``drop_table`` bumps the backend's data version; re-reading it here
        keeps the cache's own maintenance from looking like an external
        data change on the next :meth:`sync`. Caller holds the lock.
        """
        if self.backend.has_table(name):
            self.backend.drop_table(name)
            self.stats.samples_dropped += 1
        if self._version is not None:
            self._version = self.backend.data_version

    def close(self) -> None:
        """End-of-session cleanup: evict and drop samples."""
        with self._lock:
            self.invalidate()
            self._version = None

    # -- cached lookups ---------------------------------------------------

    def schema(self, table: str):
        with self._lock:
            if table not in self._schemas:
                self.stats.misses += 1
                self._schemas[table] = self.backend.schema(table)
            else:
                self.stats.hits += 1
            return self._schemas[table]

    def base_table(self, table: str, max_rows: "int | None") -> Table:
        """A row-capped materialization of ``table`` (what metadata
        collection reads), fetched once per (data version, cap)."""
        key = (table, max_rows)
        with self._lock:
            if key not in self._tables:
                self.stats.misses += 1
                self._tables[key] = self.backend.fetch_table(table, max_rows=max_rows)
            else:
                self.stats.hits += 1
            return self._tables[key]

    def metadata(
        self,
        collector: MetadataCollector,
        table: str,
        max_rows: "int | None" = None,
    ) -> TableMetadata:
        """Table metadata computed once per (data version, row cap).

        Keyed on ``max_rows`` too: statistics from a capped materialization
        must not serve a call with a different cap. The collector keeps no
        cache of its own, so after a data change :meth:`sync` evicts the
        entry and the next call recomputes it.
        """
        key = (table, max_rows)
        with self._lock:
            if key not in self._metadata:
                self.stats.misses += 1
                base = self.base_table(table, max_rows=max_rows)
                self._metadata[key] = collector.collect(base)
            else:
                self.stats.hits += 1
            return self._metadata[key]

    def row_count(self, table: str) -> int:
        with self._lock:
            if table not in self._row_counts:
                self.stats.misses += 1
                self._row_counts[table] = self.backend.row_count(table)
            else:
                self.stats.hits += 1
            return self._row_counts[table]

    def sample(self, source: str, fraction: float, seed: int) -> str:
        """Name of a materialized sample of ``source``, creating on miss.

        The sample is reused while (fraction, seed, data version) hold; a
        request with different knobs re-materializes in place.
        """
        with self._lock:
            entry = self._samples.get(source)
            name = sample_table_name(source, fraction, seed)
            if (
                entry is not None
                and entry.fraction == fraction
                and entry.seed == seed
                and self.backend.has_table(entry.name)
            ):
                self.stats.hits += 1
                return entry.name
            self.stats.misses += 1
            if entry is not None:
                # Knobs changed: retire the old sample before materializing.
                self._drop_owned(entry.name)
            # Capability-gated: in-DBMS sampling or the client-side
            # Bernoulli fallback, per the backend's declaration.
            materialize_sample(self.backend, source, name, fraction, seed=seed)
            self._samples[source] = _SampleEntry(
                name=name, fraction=fraction, seed=seed
            )
            return name

    @property
    def live_samples(self) -> list[str]:
        """Names of sample tables the cache currently owns."""
        with self._lock:
            return [entry.name for entry in self._samples.values()]

    def __enter__(self) -> "SessionCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class EngineCache(SessionCache):
    """The shared, refcounted per-backend promotion of :class:`SessionCache`.

    Keyed on backend *identity* (one live backend object = one cache; the
    per-entry ``data_version`` keying is inherited from ``sync``), handed
    out by :meth:`acquire` and returned by :meth:`close`: every engine on
    one backend shares schema, metadata, base-table, and sample lookups,
    and the cache only truly closes — dropping owned sample tables — when
    its last lease is released. Both the lease count and the registry are
    guarded by one class-level lock, so a release can never race another
    engine's acquire into resurrecting a closing cache.
    """

    #: backend -> its shared cache. Weak keys: a garbage-collected backend
    #: (callers that never close) silently drops its registry slot.
    _registry: "weakref.WeakKeyDictionary[Backend, EngineCache]" = (
        weakref.WeakKeyDictionary()
    )
    _registry_lock = threading.Lock()

    def __init__(self, backend: Backend):
        super().__init__(backend)
        self._leases = 0

    @classmethod
    def acquire(cls, backend: Backend) -> "EngineCache":
        """The shared cache for ``backend``, creating it on first use."""
        with cls._registry_lock:
            cache = cls._registry.get(backend)
            if cache is None:
                cache = cls(backend)
                cls._registry[backend] = cache
            cache._leases += 1
            return cache

    @classmethod
    def shared_for(cls, backend: Backend) -> "EngineCache | None":
        """The live shared cache for ``backend`` without taking a lease."""
        with cls._registry_lock:
            return cls._registry.get(backend)

    @property
    def leases(self) -> int:
        """Engines currently holding this cache."""
        with self._registry_lock:
            return self._leases

    def close(self) -> None:
        """Release one lease; the last release performs the real close.

        The whole close — deregistration *and* sample drops — runs under
        the registry lock: a concurrent ``acquire`` would otherwise build
        a fresh cache and materialize a sample under the same
        deterministic name this close is about to drop. Safe ordering:
        nothing acquires the registry lock while holding a cache lock.
        """
        with self._registry_lock:
            self._leases = max(0, self._leases - 1)
            if self._leases > 0:
                return
            if type(self)._registry.get(self.backend) is self:
                del type(self)._registry[self.backend]
            super().close()
