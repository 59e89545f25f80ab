"""The serving subsystem: SeeDB as a concurrent multi-session service.

There is one serving class. :class:`SeeDBService` owns backends and
engines, canonicalises requests, coalesces identical in-flight ones,
admits them against bounded queues, schedules them on a bounded pool,
caches finished results keyed on the backend's data version, and keeps
the stats — for blocking requests and streams alike, through one
launch/settle pair. By default an admitted job executes in-process;
attach a :class:`WorkerRing` (``SeeDBService(ring=...)``, or the
:class:`ClusterService` constructor that builds one) and blocking jobs
execute on a consistent-hash ring of worker *processes* with private
backend replicas instead — for workloads the GIL caps in a single
process. Results come back in per-reply shared-memory segments
(:mod:`repro.service.shm`) and are cached once, in the service's LRU.
The HTTP frontend (:mod:`repro.frontend.server`) and interactive analyst
sessions both route through one service, sharing one set of warm caches.

Lock hierarchy (checked statically by ``python -m repro.analysis`` and at
runtime under ``SEEDB_SANITIZE=1``): the **service lock is outer**, the
**ring lock is inner**, and the ring never calls back into the service —
so ``service → ring`` is the only order the two are ever taken in.
Everything below them (engine caches, backend counters) is a leaf.
"""

from repro.service.cluster import (
    ClusterService,
    ClusterTimeouts,
    WorkerRing,
    cluster_service_from_uri,
    single_backend_cluster,
)
from repro.service.hashring import HashRing, stable_hash
from repro.service.service import (
    DEFAULT_BACKEND,
    SeeDBService,
    ServiceStats,
    single_backend_service,
)
from repro.service.shm import decode_result, encode_result

__all__ = [
    "SeeDBService",
    "ServiceStats",
    "ClusterService",
    "ClusterTimeouts",
    "HashRing",
    "WorkerRing",
    "DEFAULT_BACKEND",
    "cluster_service_from_uri",
    "decode_result",
    "encode_result",
    "single_backend_cluster",
    "single_backend_service",
    "stable_hash",
]
