"""The in-process retrieval service: front door, workers, lifecycle.

:class:`RetrievalService` turns the vectorized retriever into a
traffic-handling layer: many client threads call :meth:`retrieve` /
:meth:`retrieve_paths` concurrently; worker threads drain the bounded
request queue in dynamically coalesced micro-batches and answer each
batch with one :meth:`~repro.retriever.single.SingleRetriever.
retrieve_many` (single-hop) or :meth:`~repro.pipeline.multihop.
MultiHopRetriever.retrieve_paths_batch` (multi-hop) call.

Guarantees:

* **Bounded latency, explicit rejection** — a full queue raises
  :class:`Overloaded` at submit time; a request whose deadline lapses
  before a worker reaches it fails with :class:`DeadlineExceeded`.
* **Determinism** — coalescing never changes answers: a batch is scored
  by the same single-matmul path as a sequential ``retrieve_batch``
  call, so results are identical to serving each request alone (exactly
  so under a batch-invariant encoder; see ``retrieve_paths_batch``).
* **Graceful shutdown** — ``stop()`` (or leaving the context manager)
  refuses new work, flushes every in-flight and queued request, then
  joins the workers. ``stop(drain=False)`` fails queued requests with
  :class:`ServiceStopped` instead.

Results returned for identical (normalized) queries may be shared
objects served from the LRU+TTL cache — treat them as read-only.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.perf import Stats, format_stats, ratio
from repro.pipeline.multihop import MultiHopRetriever
from repro.precision import PrecisionLike, parse_key, resolve
from repro.retriever.single import SingleRetriever
from repro.serve.batching import BatchQueue, PendingRequest
from repro.serve.cache import MISS, ResultCache, query_cache_key
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServiceStopped,
)

MODES = ("single", "paths")


def service_readouts(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Fill in the figures a service snapshot derives from its counters.

    Batch counts come from the batch-size histogram and the ratios from
    the counters. Applied to one service's snapshot and to a fleet-wide
    :func:`repro.perf.merge` of them alike, so merged ratios come from
    merged counters rather than a sum of per-worker ratios.
    """
    sizes = snapshot.get("batch_size_histogram", {})
    snapshot["batches"] = sum(sizes.values())
    snapshot["batched_requests"] = sum(
        size * count for size, count in sizes.items()
    )
    snapshot["mean_batch_size"] = ratio(
        snapshot["batched_requests"], snapshot["batches"]
    )
    cache = snapshot.get("cache")
    if cache is not None:
        cache["hit_ratio"] = ratio(
            cache["hits"], cache["hits"] + cache["misses"]
        )
    return snapshot


@dataclass
class ServiceConfig:
    """Sizing and behaviour knobs of one service instance."""

    max_batch_size: int = 16  # flush when this many compatible requests wait
    max_wait_ms: float = 2.0  # ... or when the oldest has waited this long
    max_pending: int = 256  # admission limit (Overloaded beyond this)
    workers: int = 1  # worker threads draining the queue
    cache_size: int = 1024  # LRU capacity; <= 0 disables caching
    cache_ttl_s: Optional[float] = None  # entry lifetime; None = no expiry
    default_k: int = 8  # results per request unless overridden
    default_deadline_s: Optional[float] = None  # per-request deadline
    # shards probed per request when the retriever has an active shard
    # plan; None = no pruning (provably exact). Overridable per request.
    default_nprobe: Optional[int] = None
    # precision policy applied to requests that don't name one; None
    # defers to the retriever's own policy. Part of the cache AND batch
    # keys, so quantized answers never serve an exact-mode request.
    default_precision: Optional[str] = None
    # build the retriever's scoring matrices inside start() instead of on
    # the first request's worker thread — a warm-started (attached)
    # retriever finishes this without any encoder call
    warm_start: bool = True


class RetrievalService:
    """Concurrent micro-batching front door over the trained retrievers.

    ``clock`` must be monotonic and drives deadlines, the batch window
    and cache TTLs; it is injectable so tests control time. Latency
    *measurement* always uses ``time.perf_counter``.
    """

    def __init__(
        self,
        retriever: SingleRetriever,
        multihop: Optional[MultiHopRetriever] = None,
        config: Optional[ServiceConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.retriever = retriever
        self.multihop = multihop
        self.config = config or ServiceConfig()
        if self.config.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.config.workers <= 0:
            raise ValueError("workers must be positive")
        self._clock = clock
        self._queue = BatchQueue(self.config.max_pending, clock=clock)
        self._cache = ResultCache(
            capacity=self.config.cache_size,
            ttl_s=self.config.cache_ttl_s,
            clock=clock,
        )
        # request outcomes, batching (the batch-size histogram is the
        # direct evidence coalescing happens) and end-to-end latency;
        # cache hits are counted once, by the cache's own stats
        self.stats = Stats(
            "submitted",
            "completed",
            "rejected_overload",
            "rejected_deadline",
            "failed",
            histograms=("batch_size_histogram",),
            latencies=("latency_ms",),
        )
        self._started_at = time.perf_counter()
        self._threads: List[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._running = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "RetrievalService":
        """Spawn the worker threads (idempotent).

        With ``warm_start`` (the default) the retriever's scoring
        matrices are built here, so the first request never pays the
        build — and never pays encoding at all when the retriever was
        attached to a persisted embedding store.
        """
        with self._state_lock:
            if self._running:
                return self
            if self.config.warm_start:
                # duck-typed: test stubs and minimal retrievers without
                # an ensure_ready() simply start cold
                ensure_ready = getattr(self.retriever, "ensure_ready", None)
                if ensure_ready is not None:
                    ensure_ready()
            self._running = True
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-{index}",
                    daemon=True,
                )
                for index in range(self.config.workers)
            ]
            for thread in self._threads:
                thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Refuse new work, settle everything pending, join the workers.

        ``drain=True`` (default) flushes every queued request through the
        normal batch path before the workers exit; ``drain=False`` fails
        queued requests with :class:`ServiceStopped` immediately.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            self._queue.stop()
            if not drain:
                for request in self._queue.drain_remaining():
                    request.fail(
                        ServiceStopped("service stopped before serving")
                    )
                    self.stats.incr("failed")
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout)

    def __enter__(self) -> "RetrievalService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        with self._state_lock:
            return self._running

    def pending(self) -> int:
        """Requests currently queued (excludes the batch being served)."""
        return len(self._queue)

    # -- submission ------------------------------------------------------
    def submit(
        self,
        question: str,
        k: Optional[int] = None,
        mode: str = "single",
        deadline_s: Optional[float] = None,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> PendingRequest:
        """Enqueue one request and return its future immediately.

        Raises :class:`Overloaded` when admission control rejects it and
        :class:`ServiceStopped` when the service is not running. A cache
        hit completes the returned request synchronously. ``nprobe``
        (default :attr:`ServiceConfig.default_nprobe`) prunes sharded
        scoring to that many shards; it is part of both the cache key and
        the batch key, so pruned and exact requests never mix — and so is
        ``precision`` (default :attr:`ServiceConfig.default_precision`),
        so quantized answers never serve exact-mode callers.
        """
        cfg = self.config
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r} (expected {MODES})")
        if mode == "paths" and self.multihop is None:
            raise ValueError(
                "service was built without a MultiHopRetriever; "
                "mode='paths' is unavailable"
            )
        with self._state_lock:
            if not self._running:
                raise ServiceStopped("service is not running; call start()")
        k = k if k is not None else cfg.default_k
        deadline_s = (
            deadline_s if deadline_s is not None else cfg.default_deadline_s
        )
        nprobe = nprobe if nprobe is not None else cfg.default_nprobe
        precision = (
            precision if precision is not None else cfg.default_precision
        )
        # the canonical key string (mode[:rescore_width]) — validated here
        # at the front door so malformed precisions fail at submit time
        precision_key = (
            None if precision is None else resolve(precision).key()
        )
        cache_key = query_cache_key(
            question, mode, k, nprobe, precision_key
        )
        deadline = (
            None if deadline_s is None else self._clock() + deadline_s
        )
        request = PendingRequest(
            question,
            mode,
            k,
            cache_key,
            deadline,
            nprobe=nprobe,
            precision=precision_key,
        )
        self.stats.incr("submitted")
        cached = self._cache.get(cache_key)
        if cached is not MISS:
            request.complete(cached)
            self.stats.incr("completed")
            return request
        try:
            self._queue.put(request)
        except Overloaded:
            self.stats.incr("rejected_overload")
            raise
        return request

    def retrieve(
        self,
        question: str,
        k: Optional[int] = None,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> Any:
        """Blocking single-hop retrieval (submit + wait)."""
        return self.submit(
            question, k=k, mode="single", deadline_s=deadline_s,
            nprobe=nprobe, precision=precision,
        ).result(timeout)

    def retrieve_paths(
        self,
        question: str,
        k: Optional[int] = None,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> Any:
        """Blocking multi-hop path retrieval (submit + wait)."""
        return self.submit(
            question, k=k, mode="paths", deadline_s=deadline_s,
            nprobe=nprobe, precision=precision,
        ).result(timeout)

    # -- observability ---------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Service + cache counters as one JSON-ready dict."""
        snapshot = self.stats.snapshot()
        cache = self._cache.stats.snapshot()
        snapshot["cache_hits"] = cache["hits"]
        snapshot["qps"] = ratio(
            snapshot["completed"], time.perf_counter() - self._started_at
        )
        snapshot["cache"] = cache
        return service_readouts(snapshot)

    def stats_summary(self) -> str:
        """Human-readable stats block."""
        return format_stats("service stats", self.stats_snapshot())

    # -- worker internals ------------------------------------------------
    def _worker_loop(self) -> None:
        max_wait = self.config.max_wait_ms / 1e3
        while True:
            batch = self._queue.take_batch(
                self.config.max_batch_size, max_wait
            )
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: List[PendingRequest]) -> None:
        """Serve one homogeneous batch with a single bulk retrieval call."""
        now = self._clock()
        live: List[PendingRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                request.fail(
                    DeadlineExceeded(
                        f"deadline passed before batch execution "
                        f"({request.question[:60]!r})"
                    )
                )
                self.stats.incr("rejected_deadline")
            else:
                live.append(request)
        if not live:
            return
        self.stats.tally("batch_size_histogram", len(live))
        # coalesce duplicate (normalized) questions: one scored row can
        # answer several waiting clients
        row_of: Dict[Any, int] = {}
        questions: List[str] = []
        for request in live:
            if request.cache_key not in row_of:
                row_of[request.cache_key] = len(questions)
                questions.append(request.question)
        mode, k, nprobe, precision_key = live[0].batch_key
        # pass nprobe/precision only when set so duck-typed retrievers
        # that predate those options keep working unchanged
        extra: Dict[str, Any] = {}
        if nprobe is not None:
            extra["nprobe"] = nprobe
        if precision_key is not None:
            extra["precision"] = parse_key(precision_key)
        try:
            if mode == "single":
                results = self.retriever.retrieve_many(
                    questions, k=k, **extra
                )
            else:
                results = self.multihop.retrieve_paths_batch(
                    questions, k_paths=k, **extra
                )
        except Exception as error:  # surface to every waiting client
            for request in live:
                request.fail(error)
                self.stats.incr("failed")
            return
        finished_at = time.perf_counter()
        for request in live:
            value = results[row_of[request.cache_key]]
            self._cache.put(request.cache_key, value)
            request.complete(value)
            self.stats.incr("completed")
            self.stats.observe(
                "latency_ms", finished_at - request.submitted_at
            )
