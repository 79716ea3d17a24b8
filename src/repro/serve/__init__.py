"""Concurrent retrieval serving: micro-batching, caching, backpressure.

The production-facing layer over the vectorized retrievers::

    from repro.serve import RetrievalService, ServiceConfig

    with RetrievalService(retriever, multihop=multihop) as service:
        docs = service.retrieve("who founded Millwall ?", k=5)
        paths = service.retrieve_paths("where was the founder born ?")
        print(service.stats_summary())

See ``repro serve-bench`` for a CLI harness that replays a query file
from many client threads and reports throughput/latency/cache stats.
The service and its cache each record into a :class:`repro.perf.Stats`;
``stats_snapshot()`` joins them and :func:`service_readouts` derives
the ratios (mean batch size, cache hit ratio) from the counters, for
one service or a fleet-wide :func:`repro.perf.merge` alike.
"""

from repro.serve.batching import BatchQueue, PendingRequest
from repro.serve.cache import MISS, ResultCache, query_cache_key
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServiceStopped,
)
from repro.serve.service import (
    MODES,
    RetrievalService,
    ServiceConfig,
    service_readouts,
)

__all__ = [
    "BatchQueue",
    "DeadlineExceeded",
    "MISS",
    "MODES",
    "Overloaded",
    "PendingRequest",
    "ResultCache",
    "RetrievalService",
    "ServeError",
    "ServiceConfig",
    "ServiceStopped",
    "query_cache_key",
    "service_readouts",
]
