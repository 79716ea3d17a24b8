"""Open-loop request schedules and the two drivers that send them.

A schedule is a fixed number of requests (rate x seconds) at seeded
arrival times: sorted uniform draws over the phase, which is a Poisson
process conditioned on its count, so every seed sends exactly as many
requests per phase and the tail percentile is taken over the same
sample count. Each request's latency runs from its *scheduled* send
time, so a stalled system also charges the wait it imposes on later
requests; how late the generator itself ran is reported separately.

Both drivers run on the calling thread and open nothing else:

* in-process — ``RetrievalService.submit`` at each due time; completion
  is stamped by :class:`spans.CompletionClock` on the serving thread;
* fleet — one connection to the front door, request frames pipelined
  with ``repro.net.protocol`` async framing and matched back by id.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.protocol import (
    canonical_json,
    read_frame_async,
    write_frame_async,
)
from repro.serve import Overloaded, ServiceStopped

#: percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (
    99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0
)
#: samples a tail percentile needs beyond it
TAIL_BEYOND = 10
#: how often a saturating generator looks at the backlog again
SATURATE_POLL_S = 0.001
#: seconds to wait for the last responses of a phase
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Request:
    seq: int
    due: float  # seconds after the phase starts
    text: str
    mode: str  # "single" | "paths"
    repeat: bool  # (text, mode) was already sent earlier in the phase


@dataclass
class Outcome:
    request: Request
    due: float  # absolute perf_counter of the scheduled send
    sent: float = math.nan
    done: float = math.nan
    error: str = ""
    results: Any = None
    generation: Optional[int] = None
    #: response body bytes and codec seconds (traced fleet runs only)
    resp_bytes: int = 0
    codec_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    name: str
    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    #: CPU seconds of the benchmark process and its workers over the phase
    cpu_s: float = 0.0
    #: in-process only: the settled requests and the service that ran
    handles: List[Any] = field(default_factory=list)
    service: Any = None
    counters: Dict[str, Any] = field(default_factory=dict)


def make_schedule(
    rng: np.random.RandomState,
    singles: Sequence[str],
    paths: Sequence[str],
    rate: float,
    seconds: float,
    paths_share: float,
    repeat_share: float,
) -> List[Request]:
    """``rate * seconds`` requests; a ``paths_share`` of them multi-hop,
    a ``repeat_share`` of them repeating an earlier request of the phase.
    Fresh requests draw from a per-phase permutation of each pool."""
    n = max(1, int(round(rate * seconds)))
    times = np.sort(rng.uniform(0.0, seconds, size=n))
    n_paths = int(round(paths_share * n))
    modes = ["paths"] * n_paths + ["single"] * (n - n_paths)
    rng.shuffle(modes)
    n_repeat = int(round(repeat_share * n))
    first = max(1, n // 10)
    repeats = set(
        (rng.choice(n - first, size=n_repeat, replace=False) + first).tolist()
        if n_repeat
        else ()
    )
    pools = {
        "single": iter([singles[i] for i in rng.permutation(len(singles))]),
        "paths": iter([paths[i] for i in rng.permutation(len(paths))]),
    }
    schedule: List[Request] = []
    fresh: Dict[str, List[Request]] = {"single": [], "paths": []}
    for seq in range(n):
        mode = modes[seq]
        if seq in repeats and fresh[mode]:
            earlier = fresh[mode][int(rng.randint(len(fresh[mode])))]
            request = Request(seq, float(times[seq]), earlier.text, mode, True)
        else:
            text = next(pools[mode], None)
            if text is None:
                raise ValueError(f"{mode} pool exhausted at request {seq}")
            request = Request(seq, float(times[seq]), text, mode, False)
            fresh[mode].append(request)
        schedule.append(request)
    return schedule


def pool_needs(
    rates: Sequence[float], seconds: Sequence[float], paths_share: float
) -> Tuple[int, int]:
    """Upper bounds of fresh (single, paths) requests over phases."""
    single = paths = 0
    for rate, duration in zip(rates, seconds):
        n = max(1, int(round(rate * duration)))
        n_paths = int(round(paths_share * n))
        single, paths = max(single, n - n_paths), max(paths, n_paths)
    return single, paths


def sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)


def drive_inprocess(
    service,
    schedule: Sequence[Request],
    stamps: Dict[int, float],
    k: Optional[int] = None,
    backlog_limit: int = 200,
    recorder=None,
    lead_s: float = 0.05,
    saturate: bool = False,
) -> Tuple[List[Outcome], List[Any]]:
    """Send ``schedule`` to an in-process service; returns the outcomes
    and the settled ``PendingRequest`` objects (None where unsent).

    Once more than ``backlog_limit`` requests queue, the rest of the
    schedule is marked ``backlog`` (a failed step), which also keeps the
    service's own admission limit from refusing anything. With
    ``saturate`` the generator instead waits for the queue to shrink, so
    the service stays busy for the whole phase; whatever is still unsent
    when the schedule's time is up is marked ``unsent``.
    """
    t0 = time.perf_counter() + lead_s
    outcomes = [Outcome(r, t0 + r.due) for r in schedule]
    pending: List[Any] = [None] * len(schedule)
    extra = {} if k is None else {"k": k}
    stop_at = outcomes[-1].due if outcomes else t0
    stalled = False
    for index, request in enumerate(schedule):
        outcome = outcomes[index]
        while saturate and service.pending() > backlog_limit:
            time.sleep(SATURATE_POLL_S)
        if saturate and time.perf_counter() > stop_at:
            outcome.error = "unsent"
            continue
        if stalled or service.pending() > backlog_limit:
            stalled = True
            outcome.error = "backlog"
            continue
        sleep_until(outcome.due)
        if recorder is not None:
            recorder.current_request = id(outcome)
        outcome.sent = time.perf_counter()
        try:
            pending[index] = service.submit(
                request.text, mode=request.mode, **extra
            )
        except (Overloaded, ServiceStopped) as error:
            outcome.error = f"refused: {type(error).__name__}"
    for index, handle in enumerate(pending):
        if handle is None:
            continue
        outcome = outcomes[index]
        try:
            outcome.results = handle.result(DRAIN_TIMEOUT_S)
        except Exception as error:  # every failure counts, none is retried
            outcome.error = f"{type(error).__name__}: {error}"
        outcome.done = stamps.get(id(handle), time.perf_counter())
    return outcomes, pending


async def _fleet_session(
    address: Tuple[str, int],
    schedule: Sequence[Request],
    k: Optional[int],
    backlog_limit: int,
    measure_codec: bool,
    lead_s: float,
    saturate: bool,
) -> List[Outcome]:
    reader, writer = await asyncio.open_connection(*address)
    t0 = time.perf_counter() + lead_s
    outcomes = [Outcome(r, t0 + r.due) for r in schedule]
    waiting: Dict[int, Outcome] = {}
    all_sent = asyncio.Event()

    async def receive() -> None:
        while waiting or not all_sent.is_set():
            frame = await read_frame_async(reader)
            if frame is None:
                break
            now = time.perf_counter()
            outcome = waiting.pop(frame.get("id"), None)
            if outcome is None:
                continue
            outcome.done = now
            if measure_codec:
                started = time.perf_counter()
                body = canonical_json(frame)
                json.loads(body)
                outcome.codec_s = time.perf_counter() - started
                outcome.resp_bytes = len(body)
            if frame.get("ok"):
                outcome.results = frame.get("results")
                outcome.generation = frame.get("generation")
            else:
                error = frame.get("error") or {}
                outcome.error = (
                    f"{error.get('type')}: {error.get('message')}"
                )

    receiver = asyncio.create_task(receive())
    try:
        stalled = False
        stop_at = outcomes[-1].due if outcomes else t0
        for outcome in outcomes:
            request = outcome.request
            while saturate and len(waiting) > backlog_limit:
                await asyncio.sleep(SATURATE_POLL_S)
            if saturate and time.perf_counter() > stop_at:
                outcome.error = "unsent"
                continue
            if stalled or len(waiting) > backlog_limit:
                stalled = True
                outcome.error = "backlog"
                continue
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            frame: Dict[str, Any] = {
                "op": "query",
                "id": request.seq,
                "question": request.text,
                "mode": request.mode,
            }
            if k is not None:
                frame["k"] = k
            waiting[request.seq] = outcome
            outcome.sent = time.perf_counter()
            await write_frame_async(writer, frame)
        all_sent.set()
        if waiting:
            await asyncio.wait_for(receiver, timeout=DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        for outcome in waiting.values():
            outcome.error = "timeout"
            outcome.done = time.perf_counter()
    finally:
        receiver.cancel()
        writer.close()
        await writer.wait_closed()
    return outcomes


def drive_fleet(
    address: Tuple[str, int],
    schedule: Sequence[Request],
    k: Optional[int] = None,
    backlog_limit: int = 200,
    measure_codec: bool = False,
    lead_s: float = 0.05,
    saturate: bool = False,
) -> List[Outcome]:
    """Send ``schedule`` through the fleet's front door on one connection
    (``backlog_limit`` and ``saturate`` as for :func:`drive_inprocess`,
    counting requests awaiting their response)."""
    return asyncio.run(
        _fleet_session(
            address, schedule, k, backlog_limit, measure_codec, lead_s,
            saturate,
        )
    )


# -- phase statistics -----------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    if not sorted_values:
        return math.nan
    index = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return float(sorted_values[index])


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(percentile, value, samples): the highest listed percentile with at
    least :data:`TAIL_BEYOND` samples beyond it (the median when none)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, nearest_rank(ordered, pct), n
    return 50.0, nearest_rank(ordered, 50.0), n


def latencies_ms(outcomes: Sequence[Outcome], mode: str) -> List[float]:
    return [
        o.latency * 1e3
        for o in outcomes
        if o.ok and o.request.mode == mode
    ]


def lateness_ms(outcomes: Sequence[Outcome]) -> List[float]:
    return [
        (o.sent - o.due) * 1e3 for o in outcomes if not math.isnan(o.sent)
    ]


def saturated_rate(outcomes: Sequence[Outcome], seconds: float) -> float:
    """Completions per second within the phase's scheduled window."""
    start = min(o.due for o in outcomes)
    return sum(
        1 for o in outcomes if o.ok and o.done <= start + seconds
    ) / seconds


def step_passes(
    outcomes: Sequence[Outcome], limits_ms: Dict[str, float]
) -> Tuple[bool, str]:
    """A ladder step passes with no failures, every mode's tail within
    its limit, and no growing backlog: the last response must arrive
    within the strictest limit after the last scheduled send."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        return False, f"{len(failed)} failed ({failed[0].error})"
    passed = True
    notes = []
    for mode, limit in limits_ms.items():
        values = latencies_ms(outcomes, mode)
        if values:
            pct, value, _ = tail(values)
            notes.append(f"{mode} p{pct:g} {value:.1f}/{limit:g} ms")
            passed = passed and value <= limit
    drain = (max(o.done for o in outcomes) - max(o.due for o in outcomes)) * 1e3
    notes.append(f"drain {drain:.1f} ms")
    if drain > min(limits_ms.values()):
        passed = False
        notes.append("backlog growing")
    return passed, ", ".join(notes)
