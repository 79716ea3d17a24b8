"""End-to-end question benchmark: text question in, checked answer out.

One run builds a workload's corpus through the real ingest path, sends
HotpotQA-style questions from an open-loop generator to the in-process
``repro.serve`` service or to a 2-worker ``repro.net`` fleet, checks
every answer against an in-process oracle, and prints a report followed
by one JSON line::

    python3 benchmarks/e2e/run.py --workload mixed-small --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
nominal rounds of the same seed with a span around every layer entry
point and prints the per-layer metrics (plus tracing overhead and
coverage). The metric names printed in the JSON line come from
``BENCHMARK.json``; the workload constants (rates, limits, sizes and the
per-layer predictions) live in ``workloads.json`` beside this file.
Exits 1 when an answer check fails and 2 when the run is invalid because
the generator fell behind its schedule.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread per process: parallelism comes from the service and
# worker processes, and spinning BLAS threads on 2 CPUs would bill idle
# spinning as request CPU time. Set before NumPy loads; workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import builder  # noqa: E402
import procstat  # noqa: E402
import spans  # noqa: E402
import traffic  # noqa: E402
from oracle import Oracle, answer_of  # noqa: E402
from repro.ingest.pipeline import IngestPipeline  # noqa: E402
from repro.net import (  # noqa: E402
    Fleet,
    NetClient,
    SupervisorError,
    WorkerSpec,
    worker_control,
)
from repro.perf import COUNTERS  # noqa: E402
from repro.serve import RetrievalService, ServiceConfig  # noqa: E402

#: random-stream keys: the schedule of a phase is drawn from [seed, key]
NOMINAL_KEY = 1
EDIT_KEY = 50
WARMUP_KEY = 97
SATURATE_KEY = 98
LADDER_KEY = 100
#: extraction processes of a cold ingest (the host has 2 CPUs)
INGEST_WORKERS = 2
#: a question no pool holds: proves readiness without seeding caches
PING_QUESTION = "which document answers the readiness probe ?"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


@dataclass
class Update:
    """One fleet-reload write: edit, re-ingest, publish, roll out."""

    generation: int
    edited_at: float
    published_at: float
    rolled_at: float
    stats: Any
    #: hard-linked copy of the published store the oracle attaches later
    snapshot: Path


@dataclass
class Checked:
    """Answer-check findings over every phase of a run."""

    wrong: List[str] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)

    def in_phases(self, names: Sequence[str]) -> int:
        return sum(
            1
            for line in self.wrong + self.stale
            if line.split(" ", 1)[0] in names
        )


class Bench:
    """Shared run logic; subclasses supply the serving transport."""

    def __init__(
        self, args, config: Dict[str, Any], units: Dict[str, str], work: Path
    ):
        self.config = config
        self.units = units
        self.name = args.workload
        self.spec = config["workloads"][args.workload]
        self.work = work
        self.seed = int(args.seed)
        self.seconds = float(args.seconds)
        self.rounds = int(config["nominal_rounds"])
        self.round_s = (
            self.seconds * float(config["nominal_share"]) / self.rounds
        )
        self.step_s = self.seconds * float(config["step_share"])
        self.rate = float(self.spec["nominal_qps"])
        self.k = self.spec["k"]
        self.nprobe = self.spec["nprobe"]
        self.paths_share = float(self.spec["paths_share"])
        self.limits = {
            mode: float(limit)
            for mode, limit in self.spec["limits_ms"].items()
        }
        stepped = list(self.spec["ladder_qps"]) + [self.spec["saturation_qps"]]
        self.n_single, self.n_paths = traffic.pool_needs(
            stepped + [self.rate],
            [self.step_s] * len(stepped) + [self.round_s],
            self.paths_share,
        )
        self.checked = Checked()
        self.phases: List[traffic.Phase] = []
        self.state: Optional[builder.WorldState] = None
        self.oracle: Optional[Oracle] = None

    # -- reporting ----------------------------------------------------------
    @staticmethod
    def say(text: str) -> None:
        print(text, flush=True)

    # -- inputs ---------------------------------------------------------------
    def n_questions(self) -> int:
        return max(self.n_single, self.n_paths)

    def schedule(self, rate: float, seconds: float, key: int):
        """A phase's requests, drawn from the head of the question list
        just long enough for the phase: phases reuse questions (each runs
        on fresh serving state), which keeps the oracle's work small."""
        questions = self.state.questions
        n_single, n_paths = traffic.pool_needs(
            [rate], [seconds], self.paths_share
        )
        return traffic.make_schedule(
            np.random.RandomState([self.seed, key]),
            questions[:n_single],
            questions[:n_paths],
            rate,
            seconds,
            self.paths_share,
            float(self.spec["repeat_share"]),
        )

    # -- the rate search ------------------------------------------------------
    def saturate(self, index: int) -> float:
        """Throughput the system sustains when more is offered than it
        can take: the workload's saturation rate for a step's time, with
        at most ``backlog_limit`` requests queued."""
        rate = self.spec["saturation_qps"]
        phase = self.run_phase(
            f"saturate@{rate:g}-{index + 1}", rate, self.step_s,
            SATURATE_KEY + index, saturate=True,
        )
        capacity = traffic.saturated_rate(phase.outcomes, self.step_s)
        self.say(f"  saturated throughput {capacity:.1f} req/s")
        return capacity

    def confirm_max_rate(self, capacity: float) -> float:
        """Completion rate of the highest ladder rung that meets every
        limit with no failure and no growing backlog. The walk starts at
        the highest rung within ``confirm_share`` of the saturated
        throughput and steps down the fixed ladder one rung at a time."""
        share = float(self.config["confirm_share"])
        rungs = [r for r in self.spec["ladder_qps"] if r <= share * capacity]
        for index, rate in enumerate(reversed(rungs)):
            phase = self.run_phase(
                f"step@{rate:g}", rate, self.step_s,
                LADDER_KEY + len(rungs) - index,
            )
            passed, why = traffic.step_passes(phase.outcomes, self.limits)
            self.say(
                f"  ladder {rate:g} req/s: "
                f"{'pass' if passed else 'fail'} ({why})"
            )
            if passed:
                done = [o.done for o in phase.outcomes]
                return len(done) / (max(done) - phase.outcomes[0].due)
        return 0.0

    # -- answer checking ------------------------------------------------------
    def oracle_for(self, outcome: traffic.Outcome) -> Optional[Oracle]:
        return self.oracle

    def check_answers(self) -> None:
        """Check every served answer. References are computed here, one
        question at a time, after the last timed phase."""
        started = time.perf_counter()
        for phase in self.phases:
            for outcome in phase.outcomes:
                if outcome.ok:
                    self.check_one(phase, outcome)
        self.say(
            f"oracle: {time.perf_counter() - started:.2f} s, outside the "
            "timed phases"
        )

    def check_one(
        self, phase: traffic.Phase, outcome: traffic.Outcome
    ) -> None:
        request = outcome.request
        oracle = self.oracle_for(outcome)
        if oracle is None:
            self.checked.stale.append(
                f"{phase.name} #{request.seq}: unknown generation "
                f"{outcome.generation}"
            )
            return
        served = answer_of(request.mode, outcome.results)
        reason = oracle.check(request.text, request.mode, served)
        if reason is not None:
            self.checked.wrong.append(
                f"{phase.name} #{request.seq} {request.mode} "
                f"{request.text[:50]!r}: {reason}"
            )

    # -- nominal rounds -------------------------------------------------------
    def thirds(self) -> List[List[int]]:
        return [
            part.tolist()
            for part in np.array_split(np.arange(self.rounds), 3)
        ]

    def writes(self, index: int) -> int:
        """Writes carried by nominal round ``index`` (fleet-reload only)."""
        return 0

    def run_rounds(
        self,
        label: str,
        indices: Optional[Sequence[int]] = None,
        **options,
    ) -> List[traffic.Phase]:
        """Nominal-rate rounds (all, or those at ``indices``)."""
        rounds = []
        for index in range(self.rounds) if indices is None else indices:
            writes = self.writes(index)
            extra = dict(options, updates=writes) if writes else options
            rounds.append(self.run_phase(
                f"{label}-{index + 1}", self.rate, self.round_s,
                NOMINAL_KEY + index, **extra,
            ))
        return rounds

    def round_metrics(
        self, rounds: Sequence[traffic.Phase], out: Dict[str, float]
    ) -> None:
        """p50 is the median of the rounds' medians, so a transient slow
        spell of the host moves it little; the tail pools every round's
        samples; CPU per request divides the rounds' total CPU time."""
        outcomes = self.nominal_outcomes(rounds)
        for mode in ("single", "paths"):
            values = traffic.latencies_ms(outcomes, mode)
            if not values:
                continue
            p50s = [
                median(traffic.latencies_ms(r.outcomes, mode))
                for r in rounds
            ]
            pct, value, n = traffic.tail(values)
            out[f"{mode}_p50_ms"] = median(p50s)
            out[f"{mode}_tail_ms"] = value
            self.say(
                f"  {mode}: n={n}, round p50s "
                + " ".join(f"{v:.2f}" for v in p50s)
                + f" ms, tail = p{pct:g} {value:.3f} ms over all rounds"
            )
        completed = sum(o.ok for o in outcomes)
        out["cpu_ms_per_req"] = (
            sum(r.cpu_s for r in rounds) / max(1, completed) * 1e3
        )

    @staticmethod
    def nominal_outcomes(
        rounds: Sequence[traffic.Phase],
    ) -> List[traffic.Outcome]:
        return [o for r in rounds for o in r.outcomes]

    def workload_properties(self, rounds: Sequence[traffic.Phase]) -> None:
        requests = [o.request for o in self.nominal_outcomes(rounds)]
        repeats = sum(r.repeat for r in requests) / len(requests)
        paths = sum(r.mode == "paths" for r in requests) / len(requests)
        self.say(
            f"workload properties (nominal rounds): repeat share "
            f"{repeats:.4f}, multi-hop share {paths:.4f}"
        )

    def recall_metrics(
        self, rounds: Sequence[traffic.Phase], out: Dict[str, float]
    ) -> None:
        values = [
            self.oracle_for(o).recall(
                o.request.text, answer_of("single", o.results)
            )
            for o in self.nominal_outcomes(rounds)
            if o.ok and o.request.mode == "single"
        ]
        if values:
            out["recall_at_k"] = mean(values)
            out["recall_min"] = min(values)

    def late_check(
        self, rounds: Sequence[traffic.Phase]
    ) -> Tuple[float, bool]:
        late = sorted(traffic.lateness_ms(self.nominal_outcomes(rounds)))
        p99 = traffic.nearest_rank(late, 99.0)
        limit = float(self.config["gen_late_limit_ms"])
        valid = p99 <= limit
        self.say(
            f"generator lateness p99 {p99:.3f} ms "
            f"({'valid' if valid else f'INVALID: over {limit:g} ms'})"
        )
        return p99, valid

    def nominal_failures(self, rounds: Sequence[traffic.Phase]) -> int:
        """Failed, refused or wrong answers at the nominal rate, stale
        generations, and rejected rollouts."""
        names = [r.name for r in rounds]
        failed = sum(not o.ok for o in self.nominal_outcomes(rounds))
        return failed + self.checked.in_phases(names) + len(
            self.checked.rejected
        )

    def finish(
        self,
        metrics: Dict[str, float],
        names: Sequence[str],
        rounds: Sequence[traffic.Phase],
        valid: bool,
    ) -> Dict[str, Any]:
        """Print every metric with its unit and build the JSON result."""
        for phase in self.phases:
            sent = sum(not math.isnan(o.sent) for o in phase.outcomes)
            ok = sum(o.ok for o in phase.outcomes)
            self.say(
                f"phase {phase.name}: rate {phase.rate:g} req/s, scheduled "
                f"{len(phase.outcomes)}, sent {sent}, succeeded {ok}, "
                f"failed {len(phase.outcomes) - ok}"
            )
        for name, value in metrics.items():
            self.say(f"metric {name} = {value:.6g} {self.units[name]}")
        for name in names:
            if name not in metrics:
                self.say(f"metric {name} absent on this workload (0 in JSON)")
        for line in self.checked.wrong[:10] + self.checked.stale[:10]:
            self.say(f"WRONG {line}")
        for line in self.checked.rejected:
            self.say(f"REJECTED {line}")
        attempted = sum(len(p.outcomes) for p in self.phases)
        failed = (
            len(self.checked.wrong)
            + len(self.checked.stale)
            + len(self.checked.rejected)
            + sum(not o.ok for o in self.nominal_outcomes(rounds))
        )
        self.say(
            f"answers: {attempted} requests over {len(self.phases)} phases, "
            f"{len(self.checked.wrong)} wrong, {len(self.checked.stale)} "
            f"stale, {len(self.checked.rejected)} rejected rollouts"
        )
        return {
            "valid": valid,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {
                        "value": float(metrics.get(name, 0.0)),
                        "unit": self.units[name],
                    }
                    for name in names
                },
            },
        }

    # -- the untraced run ------------------------------------------------------
    def run(self, names: Sequence[str]) -> Dict[str, Any]:
        times = [
            self.setup_once(index)
            for index in range(int(self.config["setups_per_run"]))
        ]
        setup_s = median([t.total_s for t in times])
        self.say(
            "setup: "
            + ", ".join(
                f"{t.total_s:.3f} (world {t.world_s:.2f}, ingest "
                f"{t.ingest_s:.2f}, shards {t.shards_s:.2f}, start "
                f"{t.start_s:.2f})"
                for t in times
            )
            + f" s; median {setup_s:.3f} s"
        )
        self.prepare_oracle()
        self.warm_up()
        metrics: Dict[str, float] = {"setup_s": setup_s}
        # nominal rounds interleave with the rate search, so a slow spell
        # of the shared host hits a minority of them; of the two
        # saturation steps, the one the host slowed less counts. Writes
        # (fleet-reload) come last, so the stepped phases all run on one
        # store generation and the oracle references it once.
        first, second, last = self.thirds()
        rounds = self.run_rounds("nominal", first)
        capacity = self.saturate(0)
        rounds += self.run_rounds("nominal", second)
        capacity = max(capacity, self.saturate(1))
        metrics["max_rate_qps"] = self.confirm_max_rate(capacity)
        rounds += self.run_rounds("nominal", last)
        self.check_answers()
        self.workload_properties(rounds)
        _, valid = self.late_check(rounds)
        self.round_metrics(rounds, metrics)
        sent = len(self.nominal_outcomes(rounds))
        metrics["fail_ratio"] = self.nominal_failures(rounds) / sent
        self.recall_metrics(rounds, metrics)
        metrics["peak_rss_mb"] = procstat.total_peak_rss(self.pids())
        self.extra_metrics(rounds, metrics)
        return self.finish(metrics, names, rounds, valid)

    # -- the traced run ------------------------------------------------------
    def run_traced(self, names: Sequence[str]) -> Dict[str, Any]:
        """The nominal rounds untraced, then again with layer spans."""
        times = self.setup_once(0)
        self.say(f"setup: {times.total_s:.3f} s")
        self.prepare_oracle()
        self.warm_up()
        plain = self.run_rounds("plain")
        recorder = spans.SpanRecorder()
        traced = self.traced_rounds(recorder)
        self.check_answers()
        late_p99, valid = self.late_check(traced)
        metrics = self.layer_metrics(traced, recorder, times)
        self.save_spans(recorder)
        cpu_traced = sum(p.cpu_s for p in traced)
        busy = sum(p.end - p.start for p in traced)
        metrics["gen.late_p99_ms"] = late_p99
        metrics["proc.cpu_share"] = cpu_traced / busy
        metrics["trace.overhead"] = cpu_traced / sum(p.cpu_s for p in plain)
        return self.finish(metrics, names, traced, valid)

    def warm_up(self) -> None:
        """An unmeasured (but checked) phase at the nominal rate, so lazy
        first-call costs land in no measured phase."""
        self.run_phase(
            "warmup", self.rate, float(self.config["warmup_s"]), WARMUP_KEY
        )

    def extra_metrics(
        self, rounds: Sequence[traffic.Phase], metrics: Dict[str, float]
    ) -> None:
        """Workload-specific end-to-end metrics (fleet-reload's writes)."""

    def pids(self) -> List[int]:
        return [os.getpid()]

    def close(self) -> None:
        """Stop whatever the run started."""

    def save_spans(self, recorder: spans.SpanRecorder) -> None:
        """Write the traced run's spans where the run's scratch space
        is not deleted: ``.bench_work/spans/<workload>-seed<seed>.json``."""
        out = self.work.parent / "spans"
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{self.name}-seed{self.seed}.json"
        recorder.write(path)
        self.say(f"spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")


class InProcessBench(Bench):
    """``single-large`` and ``mixed-small``: the service in this process."""

    def __init__(self, args, config, units, work):
        super().__init__(args, config, units, work)
        self.clock = spans.CompletionClock()
        self.retriever = None
        self.multihop = None
        self.recorder: Optional[spans.SpanRecorder] = None
        #: id(PendingRequest) -> root span of the bulk call that served it
        self.links: Dict[int, spans.Span] = {}

    def new_service(self) -> RetrievalService:
        config = ServiceConfig(default_nprobe=self.nprobe)
        return RetrievalService(
            self.retriever, multihop=self.multihop, config=config
        ).start()

    def setup_once(self, index: int) -> builder.SetupTimes:
        """Cold start: world, ingest + publish, attach, shards, service."""
        times = builder.SetupTimes()
        watch = builder.Stopwatch()
        state = builder.build_world(
            self.seed, int(self.spec["distractors"]), self.n_questions()
        )
        times.world_s = watch.lap()
        cache = self.work / f"setup{index}"
        result = IngestPipeline(state.corpus, workers=INGEST_WORKERS).run(
            cache, state.encoder
        )
        times.ingest_s = watch.lap()
        times.ingest_stats = result.stats
        retriever = builder.attach_published(state, cache)
        times.attach_ms = watch.lap() * 1e3
        if self.spec["shards"]:
            retriever.build_shards(int(self.spec["shards"]), mode="centroid")
        times.shards_s = watch.lap()
        self.state, self.retriever = state, retriever
        self.multihop = (
            builder.make_multihop(state, retriever)
            if self.paths_share > 0
            else None
        )
        service = self.new_service()
        try:
            service.submit(PING_QUESTION, mode="single").result(60.0)
        finally:
            service.stop()
        times.start_s = watch.lap() + times.attach_ms / 1e3
        shutil.rmtree(cache, ignore_errors=True)
        return times

    def prepare_oracle(self) -> None:
        self.oracle = Oracle(
            self.retriever,
            self.multihop,
            k_single=self.k or ServiceConfig.default_k,
            k_paths=ServiceConfig.default_k,
            nprobe=self.nprobe,
        )

    def run_phase(
        self,
        name: str,
        rate: float,
        seconds: float,
        key: int,
        saturate: bool = False,
    ) -> traffic.Phase:
        """One open-loop phase against a fresh service (empty cache)."""
        phase = traffic.Phase(name, rate)
        schedule = self.schedule(rate, seconds, key)
        service = self.new_service()
        COUNTERS.reset()
        pids = self.pids()
        cpu0 = procstat.total_cpu(pids)
        phase.start = time.perf_counter()
        with self.clock.installed():
            phase.outcomes, phase.handles = traffic.drive_inprocess(
                service,
                schedule,
                self.clock.stamps,
                k=self.k,
                backlog_limit=int(self.config["backlog_limit"]),
                recorder=self.recorder,
                saturate=saturate,
            )
        phase.end = time.perf_counter()
        phase.cpu_s = procstat.total_cpu(pids) - cpu0
        phase.counters = COUNTERS.snapshot()
        phase.service = service
        service.stop()
        self.phases.append(phase)
        return phase

    # -- traced run -----------------------------------------------------------
    def traced_rounds(
        self, recorder: spans.SpanRecorder
    ) -> List[traffic.Phase]:
        """Nominal rounds with spans; links each settled request to the
        root span of the bulk call that served it."""
        self.recorder = recorder

        def link(request) -> None:
            # settled on the serving thread right after its bulk call
            # returned; inside a submit span it was a cache hit
            if not recorder.in_span():
                root = recorder.last_root()
                if root is not None:
                    self.links[id(request)] = root

        self.clock.on_settle = link
        try:
            with spans.instrument(recorder):
                return self.run_rounds("traced")
        finally:
            self.clock.on_settle = None
            self.recorder = None

    def layer_metrics(
        self,
        rounds: Sequence[traffic.Phase],
        recorder: spans.SpanRecorder,
        times: builder.SetupTimes,
    ) -> Dict[str, float]:
        out = setup_layer_metrics(times)
        links = self.links
        roots = {"retriever.retrieve_many": "single",
                 "pipeline.retrieve_paths_batch": "paths"}
        mode_of_batch = {
            s.sid: roots[s.name]
            for s in recorder.spans
            if s.parent == 0 and s.name in roots
        }
        submits = {s.tag: s for s in recorder.by_name("serve.submit")}
        served = {"single": 0, "paths": 0}
        batches: Dict[str, set] = {"single": set(), "paths": set()}
        waits: List[float] = []
        covered = wall = 0.0
        counters: Dict[str, float] = {}
        hits = submitted = rejected = completed = 0
        for phase in rounds:
            for name, value in phase.counters.items():
                counters[name] = counters.get(name, 0) + value
            stats = phase.service.stats_snapshot()
            hits += stats["cache_hits"]
            submitted += stats["submitted"]
            rejected += stats["rejected_overload"] + stats["rejected_deadline"]
            for outcome, handle in zip(phase.outcomes, phase.handles):
                if handle is None or not outcome.ok:
                    continue
                completed += 1
                tag = spans.request_tag(id(outcome))
                submit = submits.get(tag)
                root = links.get(id(handle))
                wall += outcome.done - outcome.due
                if root is None:  # answered from the cache inside submit
                    covered += submit.end - submit.start if submit else 0.0
                    continue
                mode = mode_of_batch.get(root.sid, outcome.request.mode)
                served[mode] += 1
                batches[mode].add(root.sid)
                waits.append((root.start - handle.submitted_at) * 1e3)
                if submit is not None:
                    recorder.add("serve.queue", submit.end, root.start, tag)
                    covered += root.end - submit.start
        waits.sort()
        out["serve.queue_wait_p50_ms"] = traffic.nearest_rank(waits, 50.0)
        out["serve.queue_wait_p99_ms"] = traffic.nearest_rank(waits, 99.0)
        out["serve.cache_hit_ratio"] = hits / max(1, submitted)
        out["serve.rejected"] = float(rejected)
        encodes = recorder.by_name("encoder.encode_numpy")
        for mode in ("single", "paths"):
            if served[mode]:
                out[f"serve.batch_size_{mode}"] = (
                    served[mode] / len(batches[mode])
                )
                calls = sum(mode_of_batch.get(s.tag) == mode for s in encodes)
                out[f"encoder.calls_per_{mode}"] = calls / served[mode]
        completed = max(1, completed)
        encode_s = sum(s.end - s.start for s in encodes)
        tokens = counters.get("tokens_encoded", 0)
        out["encoder.tokens_per_req"] = tokens / completed
        out["encoder.ms_per_req"] = encode_s / completed * 1e3
        out["encoder.tokens_per_s"] = tokens / encode_s if encode_s else 0.0
        batch_calls = recorder.by_name("retriever.retrieve_batch")
        rows = sum(s.count for s in batch_calls)
        if rows:
            out["retriever.ms_per_query"] = (
                recorder.total_seconds("retriever.retrieve_batch") / rows * 1e3
            )
            out["retriever.aggregate_ms_per_query"] = (
                recorder.total_seconds("retriever.aggregate") / rows * 1e3
            )
        queries = counters.get("queries", 0)
        if queries:
            out["retriever.matmul_ms_per_query"] = (
                counters["matmul_seconds"] / queries * 1e3
            )
            out["retriever.rows_per_query"] = (
                counters["triples_scored"] / queries
            )
        if recorder.probes:
            probed = sum(p[0] for p in recorder.probes)
            out["shard.probed_per_query"] = (
                sum(p[1] for p in recorder.probes) / probed
            )
            out["shard.rows_per_query"] = (
                sum(p[2] for p in recorder.probes) / probed
            )
            out["shard.search_ms_per_query"] = (
                recorder.total_seconds("shard.search") / probed * 1e3
            )
            # the scoring counter over-counts the sharded path: use the
            # plan layout
            out["retriever.rows_per_query"] = out["shard.rows_per_query"]
        if served["paths"]:
            n = served["paths"]
            clues = recorder.by_name("updater.select_clue")
            clue_s = sum(s.end - s.start for s in clues)
            out["retriever.queries_per_paths"] = sum(
                s.count
                for s in batch_calls
                if mode_of_batch.get(s.tag) == "paths"
            ) / n
            out["updater.calls_per_paths"] = len(clues) / n
            out["updater.ms_per_paths"] = clue_s / n * 1e3
            out["updater.share_of_paths"] = clue_s / recorder.total_seconds(
                "pipeline.retrieve_paths_batch"
            )
            out["pipeline.self_ms_per_paths"] = (
                recorder.self_seconds("pipeline.retrieve_paths_batch")
                / n * 1e3
            )
        for mode, root_name in (
            ("single", "retriever.retrieve_many"),
            ("paths", "pipeline.retrieve_paths_batch"),
        ):
            if served[mode]:
                self.say(
                    f"{mode} request time split (self time): "
                    + ", ".join(
                        f"{name} {share:.3f}"
                        for name, share in time_split(recorder, root_name)
                    )
                )
        out["trace.coverage"] = covered / wall if wall else 0.0
        return out


def time_split(
    recorder: spans.SpanRecorder, root_name: str
) -> List[Tuple[str, float]]:
    """Share of all ``root_name`` root spans' time by layer self time."""
    roots = {s.sid for s in recorder.by_name(root_name) if s.parent == 0}
    mine = spans.SpanRecorder()
    mine.spans = [s for s in recorder.spans if s.tag in roots]
    total = sum(s.end - s.start for s in mine.spans if s.sid in roots)
    shares = [
        (name, mine.self_seconds(name) / total)
        for name in sorted({s.name for s in mine.spans})
    ]
    return sorted(shares, key=lambda item: -item[1])


def setup_layer_metrics(times: builder.SetupTimes) -> Dict[str, float]:
    stats = times.ingest_stats
    return {
        "setup.world_s": times.world_s,
        "setup.ingest_s": times.ingest_s,
        "setup.shards_s": times.shards_s,
        "setup.start_s": times.start_s,
        "ingest.extract_s": stats.extract_seconds,
        "ingest.encode_s": stats.encode_seconds,
        "ingest.save_s": stats.save_seconds,
        "ingest.docs_extracted": float(stats.docs_extracted),
        "ingest.rows_reused_ratio": stats.rows_reused
        / max(1, stats.rows_total),
        "store.attach_ms": times.attach_ms,
    }


class FleetBench(Bench):
    """``fleet-reload``: a 2-worker fleet fed over TCP while it reloads."""

    def __init__(self, args, config, units, work):
        super().__init__(args, config, units, work)
        self.fleet: Optional[Fleet] = None
        self.store_dir: Optional[Path] = None
        self.corpus = None
        self.updates: List[Update] = []
        self.base_generation = 0
        self.oracles: Dict[int, Oracle] = {}
        #: the oracle's attach time of each update's generation
        self.attach_ms: List[float] = []
        #: (phase, stats frame before, after) of traced rounds without writes
        self.frames: List[Tuple[traffic.Phase, Dict[str, Any], Dict[str, Any]]] = []

    def pids(self) -> List[int]:
        handles = self.fleet.supervisor.handles() if self.fleet else []
        return [os.getpid()] + [h.pid for h in handles]

    def setup_once(self, index: int) -> builder.SetupTimes:
        """Cold start: world, ingest + publish, fleet spawn until every
        worker answers and the front door routes a query."""
        self.close()  # a previous setup's fleet; not part of this one
        times = builder.SetupTimes()
        watch = builder.Stopwatch()
        state = builder.build_world(self.seed, 0, self.n_questions())
        times.world_s = watch.lap()
        cache = self.work / f"setup{index}"
        result = IngestPipeline(state.corpus, workers=INGEST_WORKERS).run(
            cache, state.encoder
        )
        times.ingest_s = watch.lap()
        times.ingest_stats = result.stats
        spec = WorkerSpec(
            target=f"{builder.__name__}:{builder.fleet_bundle.__name__}",
            kwargs={"seed": self.seed},
            store_dir=str(cache),
        )
        workers = int(self.spec["workers"])
        fleet = Fleet(spec, workers=workers).start()
        try:
            for handle in fleet.supervisor.handles():
                worker_control(handle, {"op": "ping"}, timeout=60.0)
            with NetClient(fleet.address, timeout_s=60.0) as client:
                while client.ping().get("workers", 0) < workers:
                    time.sleep(0.01)
                client.query_raw(PING_QUESTION)
        except BaseException:
            fleet.stop()
            raise
        times.start_s = watch.lap()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.fleet, self.store_dir, self.state = fleet, cache, state
        self.corpus = state.corpus
        self.base_generation = result.embeddings.generation
        return times

    def make_oracle(self, retriever) -> Oracle:
        return Oracle(
            retriever,
            builder.make_multihop(self.state, retriever),
            k_single=ServiceConfig.default_k,
            k_paths=ServiceConfig.default_k,
        )

    def prepare_oracle(self) -> None:
        retriever = builder.attach_published(self.state, self.store_dir)
        self.oracle = self.make_oracle(retriever)
        self.oracles[self.base_generation] = self.oracle

    def oracle_for(self, outcome: traffic.Outcome) -> Optional[Oracle]:
        return self.oracles.get(outcome.generation)

    def check_answers(self) -> None:
        """First attach each update's generation from its snapshot, here
        rather than in the timed rounds that published it."""
        for update in self.updates:
            started = time.perf_counter()
            retriever = builder.attach_published(self.state, update.snapshot)
            self.attach_ms.append((time.perf_counter() - started) * 1e3)
            self.oracles[update.generation] = self.make_oracle(retriever)
        super().check_answers()

    def check_one(
        self, phase: traffic.Phase, outcome: traffic.Outcome
    ) -> None:
        """Also: no response may carry a generation older than one every
        worker already served when the request was sent."""
        super().check_one(phase, outcome)
        floor = max(
            (u.generation for u in self.updates if u.rolled_at < outcome.sent),
            default=self.base_generation,
        )
        if (outcome.generation or 0) < floor:
            self.checked.stale.append(
                f"{phase.name} #{outcome.request.seq}: generation "
                f"{outcome.generation} after {floor} was served"
            )

    def rollout(self, what: str) -> List[int]:
        """Roll the fleet onto the store directory; returns the workers'
        generations. A worker whose reload fails is respawned by the
        supervisor without counting a restart, so a worker replaced
        during the roll, like a roll that raises, is recorded as a
        rejected rollout."""
        supervisor = self.fleet.supervisor
        before = {h.slot: h.incarnation for h in supervisor.handles()}
        try:
            generations = self.fleet.rollout(str(self.store_dir))
        except SupervisorError as error:
            self.checked.rejected.append(f"{what}: {error}")
            return []
        after = {h.slot: h.incarnation for h in supervisor.handles()}
        replaced = sorted(s for s in before if after.get(s) != before[s])
        if replaced:
            self.checked.rejected.append(
                f"{what}: workers {replaced} replaced instead of reloaded"
            )
        return generations

    def fresh_services(self, name: str) -> None:
        """Roll every worker onto the current generation again: each
        builds a new service, so a phase starts with empty caches."""
        self.rollout(f"fresh services for {name}")

    def worker_stats(self) -> Dict[str, Any]:
        with NetClient(self.fleet.address, timeout_s=60.0) as client:
            return client.stats()

    def writes(self, index: int) -> int:
        """The last third of the nominal rounds each carry writes."""
        last = self.thirds()[2]
        return int(self.spec["writes_per_round"]) if index in last else 0

    def run_phase(
        self,
        name: str,
        rate: float,
        seconds: float,
        key: int,
        updates: int = 0,
        frames: bool = False,
        saturate: bool = False,
    ) -> traffic.Phase:
        """One open-loop phase on fresh worker services; ``updates``
        writes are spread evenly over it by a second thread. ``frames``
        captures the workers' stats frames around a phase without
        writes (a rollout replaces the services those frames read)."""
        frames = frames and not updates
        self.fresh_services(name)
        before = self.worker_stats() if frames else None
        phase = traffic.Phase(name, rate)
        schedule = self.schedule(rate, seconds, key)
        errors: List[BaseException] = []
        writer = None
        pids = self.pids()
        cpu0 = procstat.total_cpu(pids)
        phase.start = time.perf_counter()
        if updates:
            writer = threading.Thread(
                target=self.update_loop,
                args=(phase.start, seconds, updates, errors),
                name="e2e-updates",
            )
            writer.start()
        try:
            phase.outcomes = traffic.drive_fleet(
                self.fleet.address,
                schedule,
                k=self.k,
                backlog_limit=int(self.config["backlog_limit"]),
                measure_codec=frames,
                saturate=saturate,
            )
        finally:
            if writer is not None:
                writer.join()
        phase.end = time.perf_counter()
        phase.cpu_s = procstat.total_cpu(pids) - cpu0
        if frames:
            self.frames.append((phase, before, self.worker_stats()))
        if errors:
            raise errors[0]
        self.phases.append(phase)
        return phase

    def update_loop(
        self,
        started: float,
        seconds: float,
        count: int,
        errors: List[BaseException],
    ) -> None:
        """Edit, re-ingest, publish and roll out ``count`` times, evenly
        spread over the phase. Each generation is snapshotted for the
        oracle, which attaches it after the timed phases."""
        try:
            rng = np.random.RandomState(
                [self.seed, EDIT_KEY, len(self.updates)]
            )
            for index in range(count):
                traffic.sleep_until(
                    started + (index + 1) * seconds / (count + 1)
                )
                edited_at = time.perf_counter()
                self.corpus = builder.edit_corpus(
                    self.corpus, rng, int(self.spec["edit_docs"])
                )
                # a few dirty documents: a worker pool would cost more
                # than it saves
                result = IngestPipeline(self.corpus).run(
                    self.store_dir, self.state.encoder
                )
                published_at = time.perf_counter()
                generation = result.embeddings.generation
                generations = self.rollout(f"generation {generation}")
                rolled_at = time.perf_counter()
                # workers only read the store: it still holds this
                # generation until the next write
                snapshot = builder.snapshot_published(
                    self.store_dir, self.work / f"generation{generation}"
                )
                self.updates.append(
                    Update(generation, edited_at, published_at, rolled_at,
                           result.stats, snapshot)
                )
                if any(g != generation for g in generations):
                    self.checked.rejected.append(
                        f"generation {generation}: workers at {generations}"
                    )
        except Exception as error:  # re-raised by run_phase
            errors.append(error)

    def extra_metrics(
        self, rounds: Sequence[traffic.Phase], metrics: Dict[str, float]
    ) -> None:
        updates = self.updates
        if not updates:
            return
        metrics["update_s"] = median(
            [u.published_at - u.edited_at for u in updates]
        )
        metrics["rollout_s"] = median(
            [u.rolled_at - u.published_at for u in updates]
        )
        in_flight = [
            o.latency * 1e3
            for o in self.nominal_outcomes(rounds)
            if o.ok
            and any(
                o.sent < u.rolled_at and o.done > u.published_at
                for u in updates
            )
        ]
        if in_flight:
            pct, value, n = traffic.tail(in_flight)
            metrics["reload_tail_ms"] = value
            self.say(
                f"  in flight during rollouts: n={n}, tail = p{pct:g} "
                f"{value:.3f} ms"
            )

    # -- traced run -----------------------------------------------------------
    def traced_rounds(
        self, recorder: spans.SpanRecorder
    ) -> List[traffic.Phase]:
        with spans.instrument(recorder):
            return self.run_rounds("traced", frames=True)

    def layer_metrics(
        self,
        rounds: Sequence[traffic.Phase],
        recorder: spans.SpanRecorder,
        times: builder.SetupTimes,
    ) -> Dict[str, float]:
        self.say(
            "worker-side layers are read from the stats frames of the "
            "rounds without a write; their time split comes from "
            "mixed-small, which sends the same traffic in-process"
        )
        out = self.fleet_layer_metrics()
        out.update(self.update_layer_metrics(recorder, times))
        return out

    def fleet_layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        per_worker: Dict[int, int] = {}
        hits = rejected = tokens = retried = 0
        encode_s = worker_p50 = 0.0
        received = []
        for phase, before, after in self.frames:
            received += [o for o in phase.outcomes if o.ok]
            old = {w["slot"]: w for w in before["workers"]}
            for worker in after["workers"]:
                stats = worker["stats"]
                base = old.get(worker["slot"], {})
                base_stats = base.get("stats") or {}
                delta = stats["submitted"] - base_stats.get("submitted", 0)
                slot = worker["slot"]
                per_worker[slot] = per_worker.get(slot, 0) + delta
                hits += stats["cache_hits"] - base_stats.get("cache_hits", 0)
                rejected += (
                    stats["rejected_overload"] + stats["rejected_deadline"]
                    - base_stats.get("rejected_overload", 0)
                    - base_stats.get("rejected_deadline", 0)
                )
                encoder = worker["encoder"]
                base_encoder = base.get("encoder") or {}
                tokens += encoder["tokens"] - base_encoder.get("tokens", 0)
                encode_s += encoder["seconds"] - base_encoder.get(
                    "seconds", 0.0
                )
                worker_p50 += stats["latency_ms"]["p50"] * delta
            retried += (
                after["frontdoor"]["retried"] - before["frontdoor"]["retried"]
            )
        total = max(1, sum(per_worker.values()))
        completed = max(1, len(received))
        out["serve.cache_hit_ratio"] = hits / total
        out["serve.rejected"] = float(rejected)
        out["encoder.tokens_per_req"] = tokens / completed
        out["encoder.ms_per_req"] = encode_s / completed * 1e3
        out["encoder.tokens_per_s"] = tokens / encode_s if encode_s else 0.0
        client_p50 = median([(o.done - o.sent) * 1e3 for o in received])
        out["net.overhead_p50_ms"] = client_p50 - worker_p50 / total
        # worker processes are not traced: coverage is the share of the
        # client-observed median the workers' own service timing explains
        out["trace.coverage"] = worker_p50 / total / client_p50
        out["net.resp_bytes"] = mean([o.resp_bytes for o in received])
        out["net.codec_us_per_resp"] = (
            mean([o.codec_s for o in received]) * 1e6
        )
        out["net.worker_share_max"] = max(per_worker.values()) / total
        out["net.redispatched"] = float(retried)
        out["net.restarts"] = float(self.fleet.supervisor.restarts)
        return out

    def update_layer_metrics(
        self, recorder: spans.SpanRecorder, times: builder.SetupTimes
    ) -> Dict[str, float]:
        out = setup_layer_metrics(times)
        stats = [u.stats for u in self.updates]
        out.update({
            "ingest.extract_s": mean([s.extract_seconds for s in stats]),
            "ingest.encode_s": mean([s.encode_seconds for s in stats]),
            "ingest.save_s": mean([s.save_seconds for s in stats]),
            "ingest.docs_extracted": mean(
                [float(s.docs_extracted) for s in stats]
            ),
            "ingest.rows_reused_ratio": mean(
                [s.rows_reused / max(1, s.rows_total) for s in stats]
            ),
            "store.attach_ms": mean(self.attach_ms),
            "supervisor.reload_ms": mean(
                [
                    (s.end - s.start) * 1e3
                    for s in recorder.by_name("supervisor.reload")
                ]
            ),
        })
        return out

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # unwind through the finally blocks, which stop the fleet's workers
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    # forked children (ingest pool and fleet workers) must die on SIGTERM
    # at once, as multiprocessing expects: an ingest pool worker that
    # unwound instead once hung its pool's shutdown
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    args = parse_args(argv)
    config = json.loads((HERE / "workloads.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in config["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in benchmark[section]]
    # BENCHMARK.json gives the unit of every metric it lists;
    # workloads.json gives those of the metrics it does not
    units = {
        name: table["unit"]
        for part in ("end_to_end", "per_layer")
        for name, table in config[part].items()
        if "unit" in table
    }
    units.update(
        (metric["name"], metric["unit"])
        for part in ("end_to_end", "per_layer")
        for metric in benchmark[part]
    )
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    kind = config["workloads"][args.workload]["transport"]
    bench = (FleetBench if kind == "fleet" else InProcessBench)(
        args, config, units, work
    )
    try:
        outcome = (bench.run_traced if args.trace else bench.run)(names)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no spans were kept
        except OSError:
            pass  # lint: ignore[except-pass] -- kept spans live there
    print(f"run wall time {time.perf_counter() - started:.1f} s", flush=True)
    if not outcome["valid"]:
        print("run invalid: the generator fell behind its schedule",
              file=sys.stderr)
        return 2
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
