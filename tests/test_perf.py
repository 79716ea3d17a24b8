"""Tests for ``repro.perf``: the Stats registry, merge, percentiles."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import (
    LatencyReservoir,
    Stats,
    format_stats,
    merge,
    percentile,
)


def _scoring_stats() -> Stats:
    return Stats(
        "encode_calls",
        "texts_encoded",
        "matmul_calls",
        "matmul_seconds",
        "queries",
        "docs_scored",
        "triples_scored",
        histograms=("batch_size_histogram",),
        latencies=("latency_ms",),
    )


class TestPerfCountersThreadSafety:
    N_THREADS = 8
    N_INCREMENTS = 2000

    def test_concurrent_increments_are_exact(self):
        counters = _scoring_stats()
        barrier = threading.Barrier(self.N_THREADS)

        def hammer():
            barrier.wait()  # maximize interleaving
            for i in range(self.N_INCREMENTS):
                counters.incr("encode_calls")
                counters.incr("texts_encoded", 3)
                counters.incr("matmul_calls")
                counters.incr("matmul_seconds", 0.001)
                counters.incr("queries", 2)
                counters.incr("docs_scored", 5)
                counters.incr("triples_scored", 7)
                counters.tally("batch_size_histogram", 1 + i % 4)
                counters.observe("latency_ms", 0.001)

        threads = [
            threading.Thread(target=hammer) for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = self.N_THREADS * self.N_INCREMENTS
        snap = counters.snapshot()
        assert snap["encode_calls"] == total
        assert snap["texts_encoded"] == 3 * total
        assert snap["matmul_calls"] == total
        assert snap["queries"] == 2 * total
        # scoring sizes are per-batch totals, already summed over queries
        assert snap["docs_scored"] == 5 * total
        assert snap["triples_scored"] == 7 * total
        # float accumulation is the update a lockless counter drops
        assert snap["matmul_seconds"] == pytest.approx(0.001 * total)
        assert snap["batch_size_histogram"] == {
            size: total // 4 for size in (1, 2, 3, 4)
        }
        reservoir = counters._latencies["latency_ms"]
        assert reservoir.total_recorded == total
        assert snap["latency_ms"]["max"] == pytest.approx(1.0)

    def test_reset_clears_every_field(self):
        counters = _scoring_stats()
        counters.incr("encode_calls")
        counters.incr("texts_encoded", 4)
        counters.incr("matmul_seconds", 0.5)
        counters.tally("batch_size_histogram", 3)
        counters.observe("latency_ms", 0.2)
        counters.reset()
        snap = counters.snapshot()
        assert all(not snap[name] for name in snap if name != "latency_ms")
        assert not any(snap["latency_ms"].values())

    def test_undeclared_name_raises(self):
        with pytest.raises(KeyError):
            Stats("hits").incr("hit")

    def test_summary_reflects_snapshot(self):
        counters = _scoring_stats()
        counters.incr("encode_calls")
        counters.incr("texts_encoded", 10)
        text = format_stats("perf counters", counters.snapshot())
        assert text.splitlines()[0] == "perf counters:"
        assert "  encode_calls:         1\n" in text
        assert "  texts_encoded:        10\n" in text


#: one recorded event: (counter or histogram?, name index, value)
_EVENTS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=6),
    ),
    max_size=60,
)


class TestMerge:
    @settings(max_examples=60, deadline=None)
    @given(events=_EVENTS, n_parts=st.integers(min_value=1, max_value=5))
    def test_merge_of_split_stream_equals_one_instance(
        self, events, n_parts
    ):
        names = ("a", "b", "c")

        def fresh() -> Stats:
            return Stats(*names, histograms=("h0", "h1", "h2"))

        whole = fresh()
        parts = [fresh() for _ in range(n_parts)]
        for index, (is_counter, name, value) in enumerate(events):
            for stats in (whole, parts[index % n_parts]):
                if is_counter:
                    stats.incr(names[name], value)
                else:
                    stats.tally(f"h{name}", value)
        merged = merge(stats.snapshot() for stats in parts)
        assert merged == whole.snapshot()

    def test_nested_sections_sum_and_empty_snapshots_skip(self):
        merged = merge(
            [{"cache": {"hits": 1}}, None, {}, {"cache": {"hits": 2}}],
            count_key="n",
        )
        assert merged == {"cache": {"hits": 3}, "n": 2}


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_nearest_rank_known_values(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100 sorted
        assert percentile(samples, 50.0) == 50.0
        assert percentile(samples, 95.0) == 95.0
        assert percentile(samples, 99.0) == 99.0
        assert percentile(samples, 100.0) == 100.0

    def test_extremes_and_single_sample(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([1.0, 2.0], 0.0) == 1.0
        assert percentile([1.0, 2.0], 100.0) == 2.0


class TestLatencyReservoir:
    def test_percentiles_over_window(self):
        reservoir = LatencyReservoir(capacity=256)
        for value in range(1, 101):
            reservoir.record(value / 1000.0)
        stats = reservoir.percentiles()
        assert stats["p50"] == pytest.approx(0.050)
        assert stats["p95"] == pytest.approx(0.095)
        assert stats["p99"] == pytest.approx(0.099)
        assert stats["max"] == pytest.approx(0.100)
        assert stats["mean"] == pytest.approx(0.0505)

    def test_ring_keeps_most_recent_when_full(self):
        reservoir = LatencyReservoir(capacity=10)
        for value in range(25):
            reservoir.record(float(value))
        assert len(reservoir) == 10
        assert reservoir.total_recorded == 25
        stats = reservoir.percentiles()
        # window holds some mix of recent values, never the earliest ones
        assert stats["max"] == 24.0
        assert stats["p50"] >= 10.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)

    def test_threaded_recording_keeps_exact_count(self):
        reservoir = LatencyReservoir(capacity=100)
        threads = [
            threading.Thread(
                target=lambda: [reservoir.record(0.001) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert reservoir.total_recorded == 2000
        assert len(reservoir) == 100
