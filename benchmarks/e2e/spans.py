"""Span recording from outside the program, and per-request accounting.

:class:`CompletionClock` stamps the moment every in-process request is
settled (``PendingRequest.complete``/``fail``), which the untraced run
needs for latency: the request object has no callback, and a waiting
thread per request would distort the load.

:class:`SpanRecorder` is the traced run's instrument. :func:`instrument`
wraps each layer's public entry point (class attributes or module
functions, patched in place and restored on exit) so every call records
a span: name, start, end, parent span and the batch or request it
serves. Spans stay in memory; :meth:`SpanRecorder.write` saves them when
the run ends. Nothing here changes what the wrapped calls return.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.encoder.minibert import MiniBertEncoder
from repro.ingest.embedding_store import EmbeddingStore
from repro.ingest.pipeline import IngestPipeline
from repro.net.supervisor import Supervisor
from repro.pipeline.multihop import MultiHopRetriever
from repro.retriever.single import SingleRetriever
from repro.serve import PendingRequest, RetrievalService
from repro.shard.plan import ShardPlan
from repro.storage.atomic import atomic_write_json
from repro.updater.updater import QuestionUpdater

import repro.net.supervisor as supervisor_module
import repro.retriever.single as single_module
import repro.shard.plan as plan_module


def request_tag(key: int) -> int:
    """Span tag of the request keyed ``key`` (a non-negative id);
    negative, so it never equals the id of a batch's root span."""
    return -(key + 1)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class CompletionClock:
    """``perf_counter`` stamp of every settled in-process request."""

    def __init__(self) -> None:
        self.stamps: Dict[int, float] = {}
        #: hook run on the settling thread (the traced run's batch link)
        self.on_settle: Optional[Callable[[PendingRequest], None]] = None

    @contextmanager
    def installed(self) -> Iterator["CompletionClock"]:
        patches = Patches()
        stamps = self.stamps
        clock = self

        def stamped(original):
            @functools.wraps(original)
            def settle(request, value):
                stamps[id(request)] = time.perf_counter()
                if clock.on_settle is not None:
                    clock.on_settle(request)
                return original(request, value)

            return settle

        for attr in ("complete", "fail"):
            patches.replace(
                PendingRequest, attr, stamped(PendingRequest.__dict__[attr])
            )
        try:
            yield self
        finally:
            patches.restore()


@dataclass
class Span:
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    #: batch id (root span id on a serving thread) or request tag
    tag: int
    #: work units the call handled (texts, query rows, ...)
    count: int = 0


class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: key of the request the generator thread is submitting right now
        self.current_request = 0
        #: (query rows, shards probed, triple rows scored) per search call
        self.probes: List[Tuple[int, int, int]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def last_root(self) -> Optional[Span]:
        """The most recent finished root span of the calling thread."""
        return getattr(self._local, "last_root", None)

    def in_span(self) -> bool:
        return bool(self._stack())

    @contextmanager
    def span(self, name: str, count: int = 0) -> Iterator[Span]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        tag = parent.tag if parent is not None else sid
        if parent is None and name == "serve.submit":
            tag = request_tag(self.current_request)
        record = Span(
            sid, parent.sid if parent else 0, name, time.perf_counter(), 0.0,
            tag, count,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is None:
                self._local.last_root = record
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, tag: int) -> None:
        """Record an interval measured elsewhere (e.g. a queue wait)."""
        with self._lock:
            self.spans.append(
                Span(next(self._ids), 0, name, start, end, tag)
            )

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> float:
        """Total self time of ``name`` spans: duration minus the union of
        their child spans' intervals."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent:
                children.setdefault(span.parent, []).append(span)
        total = 0.0
        for span in self.by_name(name):
            covered = 0.0
            cursor = span.start
            for child in sorted(
                children.get(span.sid, ()), key=lambda c: c.start
            ):
                start = max(child.start, cursor)
                if child.end > start:
                    covered += child.end - start
                    cursor = child.end
            total += (span.end - span.start) - covered
        return total

    def total_seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.by_name(name))

    def write(self, path: Path) -> None:
        atomic_write_json(
            path,
            [
                [s.sid, s.parent, s.name, s.start, s.end, s.tag, s.count]
                for s in self.spans
            ],
        )


def _count_of(name: str, args: tuple) -> int:
    """Work units of one call, read from its arguments."""
    if name in ("encoder.encode_numpy", "retriever.encode_questions"):
        return len(args[1])
    if name in ("retriever.retrieve_batch", "shard.search"):
        return len(args[1]) if getattr(args[1], "ndim", 1) > 1 else 1
    return 0


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every layer entry point with a span for the block's duration.

    ``aggregate_segments`` is wrapped where it is called: in
    ``repro.retriever.single`` and ``repro.shard.plan``.
    ``worker_control`` is wrapped where ``Supervisor.rollout`` calls it,
    so each worker's reload round trip is one span.
    """
    patches = Patches()

    def spanned(name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with recorder.span(name, _count_of(name, args)):
                return function(*args, **kwargs)

        return wrapper

    methods = [
        (RetrievalService, "submit", "serve.submit"),
        (SingleRetriever, "encode_questions", "retriever.encode_questions"),
        (SingleRetriever, "retrieve_many", "retriever.retrieve_many"),
        (SingleRetriever, "retrieve_batch", "retriever.retrieve_batch"),
        (MiniBertEncoder, "encode_numpy", "encoder.encode_numpy"),
        (QuestionUpdater, "select_clue", "updater.select_clue"),
        (
            MultiHopRetriever,
            "retrieve_paths_batch",
            "pipeline.retrieve_paths_batch",
        ),
        (IngestPipeline, "extract", "ingest.extract"),
        (IngestPipeline, "encode", "ingest.encode"),
        (Supervisor, "rollout", "supervisor.rollout"),
    ]
    for owner, attr, name in methods:
        patches.replace(owner, attr, spanned(name, owner.__dict__[attr]))
    search = ShardPlan.__dict__["search"]

    @functools.wraps(search)
    def probed_search(plan, queries, strategy, nprobe=None):
        with recorder.span("shard.search", _count_of("shard.search",
                                                     (plan, queries))):
            result = search(plan, queries, strategy, nprobe)
        # the layout-derived row count, outside the timed span: the
        # scoring counter over-counts the sharded path
        probed = plan.probe(queries, nprobe)
        rows = sum(
            plan.shards[int(shard)].n_rows
            for shards in probed
            for shard in shards
        )
        recorder.probes.append(
            (len(probed), sum(len(shards) for shards in probed), rows)
        )
        return result

    patches.replace(ShardPlan, "search", probed_search)
    opener = EmbeddingStore.__dict__["open"].__func__
    patches.replace(
        EmbeddingStore, "open", classmethod(spanned("store.open", opener))
    )
    for module in (single_module, plan_module):
        patches.replace(
            module,
            "aggregate_segments",
            spanned("retriever.aggregate", module.aggregate_segments),
        )
    control = supervisor_module.worker_control

    @functools.wraps(control)
    def timed_control(handle, message, *args, **kwargs):
        name = f"supervisor.{message.get('op', 'control')}"
        with recorder.span(name):
            return control(handle, message, *args, **kwargs)

    patches.replace(supervisor_module, "worker_control", timed_control)
    try:
        yield
    finally:
        patches.restore()
