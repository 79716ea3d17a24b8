"""The one stats model: :class:`Stats`, :func:`merge` and :func:`format_stats`.

Every stats holder in the project is a :class:`Stats` instance — the
process-wide retrieval counters (:data:`COUNTERS`), each service and its
result cache, the network front door and the worker supervisor. One
instance holds three kinds of figures:

* **counters** — named numbers (``incr``); ``float`` accumulation of
  seconds is a read-modify-write that loses updates under contention,
  which is why even single increments take the lock;
* **histograms** — integer-keyed bucket counts (``tally``), e.g. the
  micro-batcher's batch-size distribution;
* **latency reservoirs** — bounded windows of ``perf_counter`` durations
  (``observe``), reported as p50/p95/p99/mean/max in milliseconds.

Counters and histograms share the instance's one lock. Each reservoir
is a :class:`LatencyReservoir` guarded by its own ring lock, so a
sample costs one lock acquisition, not two, and a snapshot sorting a
full window never stalls the counters.

Names are declared up front, so a snapshot always carries every key —
an idle service reports zeros rather than missing fields — and a
misspelt name fails loudly with ``KeyError``.

``snapshot()`` is one flat JSON-ready dict: counters map to numbers,
histograms to ``{key: count}`` and reservoirs to percentile summaries.
:func:`merge` folds snapshots from many processes (worker fleets) into
one, and :func:`format_stats` is the single human-readable rendering
behind every ``--stats`` block.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: latency samples each reservoir keeps (the most recent window)
RESERVOIR_SIZE = 65536


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample list.

    ``q`` in [0, 100]. Empty input returns 0.0 so stats snapshots stay
    total without special-casing an idle service.
    """
    if not sorted_samples:
        return 0.0
    if q <= 0:
        return float(sorted_samples[0])
    rank = max(1, -(-len(sorted_samples) * q // 100))  # ceil, nearest-rank
    return float(sorted_samples[min(int(rank) - 1, len(sorted_samples) - 1)])


class LatencyReservoir:
    """Bounded, thread-safe window of duration samples (seconds).

    Keeps the most recent ``capacity`` samples in a ring; percentiles are
    computed over that window. Bounded so a long-lived service cannot
    grow without limit, recent-biased so the numbers track current load.
    """

    def __init__(self, capacity: int = RESERVOIR_SIZE):
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._samples: List[float] = []
        self._cursor = 0  # ring write position once full
        self._count = 0  # total ever recorded
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._count += 1
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:
                self._samples[self._cursor] = seconds
                self._cursor = (self._cursor + 1) % self.capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def total_recorded(self) -> int:
        with self._lock:
            return self._count

    def percentiles(
        self, qs: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, float]:
        """``{"p50": ..., ...}`` plus mean/max over the current window."""
        with self._lock:
            window = sorted(self._samples)
        out = {f"p{q:g}": percentile(window, q) for q in qs}
        out["mean"] = sum(window) / len(window) if window else 0.0
        out["max"] = window[-1] if window else 0.0
        return out


class Stats:
    """Thread-safe named counters, histograms and latency reservoirs.

    ``Stats("hits", "misses", histograms=("sizes",),
    latencies=("latency_ms",))`` declares every name the instance will
    record; recording an undeclared name raises ``KeyError``.
    """

    def __init__(
        self,
        *counters: str,
        histograms: Sequence[str] = (),
        latencies: Sequence[str] = (),
    ):
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = dict.fromkeys(counters, 0)
        self._histograms: Dict[str, Dict[int, int]] = {
            name: {} for name in histograms
        }
        self._latencies = {
            name: LatencyReservoir(RESERVOIR_SIZE) for name in latencies
        }

    # -- recording ----------------------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        with self._lock:
            self._counters[name] += value

    def tally(self, name: str, key: int) -> None:
        """Count one event in bucket ``key`` of histogram ``name``."""
        with self._lock:
            buckets = self._histograms[name]
            buckets[key] = buckets.get(key, 0) + 1

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample into reservoir ``name``."""
        self._latencies[name].record(seconds)

    # -- reading ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Every declared figure as one flat JSON-ready dict.

        Counters and histograms are copied under the lock, so they are
        mutually consistent; each reservoir is summarized after it.
        """
        with self._lock:
            out: Dict[str, Any] = dict(self._counters)
            for name, buckets in self._histograms.items():
                out[name] = dict(sorted(buckets.items()))
            reservoirs = dict(self._latencies)
        for name, reservoir in reservoirs.items():
            out[name] = {
                key: seconds * 1e3
                for key, seconds in reservoir.percentiles().items()
            }
        return out

    def reset(self) -> None:
        """Zero every counter, empty every histogram and reservoir."""
        with self._lock:
            self._counters = dict.fromkeys(self._counters, 0)
            for buckets in self._histograms.values():
                buckets.clear()
            self._latencies = {
                name: LatencyReservoir(RESERVOIR_SIZE)
                for name in self._latencies
            }


#: The process-wide retrieval counters the encoders and scorers increment.
COUNTERS = Stats(
    "encode_calls",  # encoder forward batches
    "texts_encoded",  # total sentences through the encoder
    "tokens_encoded",  # tokens through the encoder forward
    "encode_seconds",  # wall-clock inside encode_numpy
    "matmul_calls",  # batched scoring products
    "matmul_seconds",  # wall-clock inside those products
    "queries",  # query vectors scored
    "docs_scored",  # (query, document) pairs, summed over a batch's queries
    "triples_scored",  # (query, triple) pairs, likewise
    "clue_triples_scored",  # candidate triples through an updater clue pass
    "docs_extracted",  # documents through triple extraction
    "docs_extract_reused",  # documents skipped by incremental ingest
    "triples_extracted",  # triples produced by extraction
    "extract_seconds",  # wall-clock inside extraction
    "rows_encoded",  # embedding rows (re-)encoded by refreshes
    "rows_reused",  # embedding rows reused verbatim by refreshes
    "refresh_seconds",  # wall-clock inside embedding refreshes
)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def encoder_throughput(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Encoder token throughput read off a :data:`COUNTERS` snapshot."""
    tokens = snapshot["tokens_encoded"]
    seconds = snapshot["encode_seconds"]
    return {
        "tokens": tokens,
        "seconds": seconds,
        "tokens_per_sec": ratio(tokens, seconds),
    }


def _is_histogram(section: Dict[Any, Any]) -> bool:
    # JSON turns integer bucket keys into strings; both forms count
    return all(str(key).isdigit() for key in section)


def _is_summary(section: Dict[Any, Any]) -> bool:
    return all(
        key in ("mean", "max")
        or (key[:1] == "p" and key[1:].replace(".", "", 1).isdigit())
        for key in section
    )


def _fold(into: Dict[str, Any], snapshot: Dict[str, Any]) -> None:
    for key, value in snapshot.items():
        if not isinstance(value, dict):
            into[key] = into.get(key, 0) + value
        elif _is_histogram(value):
            buckets = into.get(key, {})
            for bucket, count in value.items():
                buckets[int(bucket)] = buckets.get(int(bucket), 0) + count
            into[key] = dict(sorted(buckets.items()))
        elif _is_summary(value):
            worst = into.setdefault(key, {})
            for name, ms in value.items():
                worst[name] = max(worst.get(name, 0.0), float(ms))
        else:
            _fold(into.setdefault(key, {}), value)


def merge(
    snapshots: Iterable[Optional[Dict[str, Any]]],
    count_key: Optional[str] = None,
) -> Dict[str, Any]:
    """Fold :meth:`Stats.snapshot` dicts (e.g. one per worker) into one.

    Numbers sum; histograms sum bucket-wise, with the string keys a JSON
    round trip leaves turned back into ints; nested sections merge
    recursively. Percentile summaries cannot be combined exactly from
    per-process quantiles, so they take the element-wise worst (max) —
    a conservative fleet bound. Ratios derived from summed counters are
    sums too: recompute them from the merged counters. Empty snapshots
    are skipped; ``count_key`` names a key for how many were merged.
    """
    merged: Dict[str, Any] = {}
    n = 0
    for snapshot in snapshots:
        if not snapshot:
            continue
        n += 1
        _fold(merged, snapshot)
    if count_key is not None:
        merged[count_key] = n
    return merged


def _render(value: Any) -> str:
    if isinstance(value, dict):
        return "  ".join(f"{key}={_render(v)}" for key, v in value.items())
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_stats(title: str, snapshot: Dict[str, Any]) -> str:
    """The human-readable block behind every ``--stats`` output:
    ``title:`` then one ``  name: value`` line per snapshot key."""
    width = max((len(key) for key in snapshot), default=0) + 1
    lines = [f"{title}:"]
    for key, value in snapshot.items():
        lines.append(f"  {key + ':':<{width}} {_render(value)}")
    return "\n".join(lines)


class _Timer:
    """Callable returning the elapsed seconds (frozen at block exit)."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._stop: float = 0.0

    def freeze(self) -> None:
        self._stop = time.perf_counter()

    def __call__(self) -> float:
        return (self._stop or time.perf_counter()) - self._start


@contextmanager
def time_block():
    """``with time_block() as elapsed: ...`` — ``elapsed()`` in seconds."""
    timer = _Timer()
    try:
        yield timer
    finally:
        timer.freeze()
