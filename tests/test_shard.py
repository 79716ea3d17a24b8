"""Tests for ``repro.shard``: parity, pruning recall, persistence.

The load-bearing claims:

* sharded retrieval with no pruning is **byte-identical** to the
  unsharded single-matmul path at 1/2/4 shards in both assignment modes
  (same doc ids, same float scores, same matched triples, same
  per-triple score vectors);
* recall@k against exact retrieval is monotone non-decreasing in
  ``nprobe`` and exactly 1.0 at ``nprobe = n_shards``;
* a split store round-trips through save/open and warm-starts the
  retriever with zero re-encoding.
"""

import numpy as np
import pytest

from repro.perf import COUNTERS
from repro.retriever.single import SingleRetriever
from repro.retriever.strategies import (
    ONE_FACT,
    TOP_K,
    ScoreStrategy,
    l2_normalize_rows,
)
from repro.shard import (
    ShardedEmbeddingStore,
    ShardedStoreError,
    ShardPlan,
    assign_centroid,
    assign_range,
    recall_at_k,
    segment_means,
    topk_doc_order,
)

QUESTIONS = [
    "Where was the first person born ?",
    "Which club does the historian play for ?",
    "What is linked to the novelist ?",
]


@pytest.fixture(scope="module")
def sharder(encoder, store):
    """A private retriever whose shard state the tests may mutate."""
    retriever = SingleRetriever(encoder, store)
    retriever.refresh_embeddings()
    return retriever


# ---------------------------------------------------------------------------
# deterministic top-k merge
# ---------------------------------------------------------------------------


class TestTopkDocOrder:
    def test_orders_by_score_desc_then_id_asc(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        ids = np.array([7, 3, 2, 1])
        order = topk_doc_order(scores, ids, 3)
        assert ids[order].tolist() == [3, 2, 7]

    def test_permutation_invariant(self):
        rng = np.random.RandomState(0)
        scores = rng.choice([0.1, 0.5, 0.9], size=64)  # heavy ties
        ids = np.arange(64)
        base = ids[topk_doc_order(scores, ids, 10)]
        for _ in range(5):
            perm = rng.permutation(64)
            got = ids[perm][topk_doc_order(scores[perm], ids[perm], 10)]
            assert got.tolist() == base.tolist()

    def test_k_clamps_and_zero(self):
        scores = np.array([0.3, 0.2])
        ids = np.array([0, 1])
        assert topk_doc_order(scores, ids, 99).shape[0] == 2
        assert topk_doc_order(scores, ids, 0).shape[0] == 0
        assert topk_doc_order(np.zeros(0), np.zeros(0), 5).shape[0] == 0

    def test_recall_at_k(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([2, 3, 4])) == (
            pytest.approx(2 / 3)
        )
        assert recall_at_k(np.zeros(0), np.zeros(0)) == 1.0


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


class TestAssignment:
    def test_range_is_contiguous_and_near_equal(self):
        labels = assign_range(10, 3)
        assert labels.tolist() == sorted(labels.tolist())
        sizes = np.bincount(labels, minlength=3)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 10

    def test_range_more_shards_than_docs(self):
        labels = assign_range(2, 5)
        assert labels.shape[0] == 2
        assert set(labels.tolist()) <= set(range(5))

    def test_centroid_deterministic(self):
        rng = np.random.RandomState(7)
        vectors = rng.randn(40, 8)
        labels_a, centroids_a = assign_centroid(vectors, 4)
        labels_b, centroids_b = assign_centroid(vectors, 4)
        assert np.array_equal(labels_a, labels_b)
        assert np.array_equal(centroids_a, centroids_b)
        assert labels_a.shape[0] == 40

    def test_centroid_groups_clusters_together(self):
        rng = np.random.RandomState(3)
        centers = rng.randn(4, 16) * 4.0
        vectors = np.concatenate(
            [centers[i] + 0.05 * rng.randn(25, 16) for i in range(4)]
        )
        labels, _ = assign_centroid(vectors, 4)
        # every ground-truth cluster lands (almost) wholly in one shard
        for i in range(4):
            block = labels[i * 25 : (i + 1) * 25]
            majority = np.bincount(block).max()
            assert majority >= 24

    def test_segment_means_skips_empty_segments(self):
        matrix = np.arange(12.0).reshape(6, 2)
        offsets = np.array([0, 2, 2, 5])  # doc 1 has no rows
        means = segment_means(matrix, offsets)
        assert np.array_equal(means[0], matrix[0:2].mean(axis=0))
        assert np.array_equal(means[1], np.zeros(2))
        assert np.array_equal(means[2], matrix[2:5].mean(axis=0))
        assert np.array_equal(means[3], matrix[5:6].mean(axis=0))


# ---------------------------------------------------------------------------
# parity: sharded == unsharded, byte for byte
# ---------------------------------------------------------------------------


class TestShardParity:
    @pytest.mark.parametrize("mode", ["range", "centroid"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_no_pruning_is_byte_identical(self, sharder, mode, n_shards):
        sharder.detach_shards()
        exact = sharder.retrieve_many(
            QUESTIONS, k=5, keep_triple_scores=True
        )
        sharder.build_shards(n_shards, mode=mode)
        try:
            sharded = sharder.retrieve_many(
                QUESTIONS, k=5, keep_triple_scores=True
            )
        finally:
            sharder.detach_shards()
        for exact_docs, sharded_docs in zip(exact, sharded):
            assert [d.doc_id for d in exact_docs] == [
                d.doc_id for d in sharded_docs
            ]
            # float equality, not approx: same dot products, same order
            assert [d.score for d in exact_docs] == [
                d.score for d in sharded_docs
            ]
            assert [str(d.matched_triple) for d in exact_docs] == [
                str(d.matched_triple) for d in sharded_docs
            ]
            for a, b in zip(exact_docs, sharded_docs):
                assert np.array_equal(a.triple_scores, b.triple_scores)

    def test_nprobe_all_shards_is_exact(self, sharder):
        sharder.detach_shards()
        exact = sharder.retrieve_many(QUESTIONS, k=4)
        sharder.build_shards(4, mode="centroid")
        try:
            probed = sharder.retrieve_many(QUESTIONS, k=4, nprobe=4)
        finally:
            sharder.detach_shards()
        for exact_docs, probed_docs in zip(exact, probed):
            assert [d.doc_id for d in exact_docs] == [
                d.doc_id for d in probed_docs
            ]
            assert [d.score for d in exact_docs] == [
                d.score for d in probed_docs
            ]

    def test_parity_holds_for_topk_strategy(self, sharder):
        strategy = ScoreStrategy(TOP_K, k=2)
        sharder.detach_shards()
        exact = sharder.retrieve_many(QUESTIONS, k=5, strategy=strategy)
        sharder.build_shards(3, mode="range")
        try:
            sharded = sharder.retrieve_many(
                QUESTIONS, k=5, strategy=strategy
            )
        finally:
            sharder.detach_shards()
        for exact_docs, sharded_docs in zip(exact, sharded):
            assert [(d.doc_id, d.score) for d in exact_docs] == [
                (d.doc_id, d.score) for d in sharded_docs
            ]

    def test_candidate_ids_bypass_the_plan(self, sharder):
        sharder.detach_shards()
        candidates = [0, 3, 5, 8]
        exact = sharder.retrieve_many(
            QUESTIONS, k=3, candidate_ids=candidates
        )
        sharder.build_shards(4, mode="range")
        try:
            got = sharder.retrieve_many(
                QUESTIONS, k=3, candidate_ids=candidates
            )
        finally:
            sharder.detach_shards()
        for exact_docs, got_docs in zip(exact, got):
            assert [(d.doc_id, d.score) for d in exact_docs] == [
                (d.doc_id, d.score) for d in got_docs
            ]

    def test_nprobe_without_shards_raises(self, sharder):
        sharder.detach_shards()
        with pytest.raises(ValueError, match="nprobe"):
            sharder.retrieve_many(QUESTIONS, k=3, nprobe=1)


class TestScoringCounters:
    def test_pruned_search_counts_probed_rows(self, sharder, hotpot):
        """`docs_scored` / `triples_scored` sum what each query scored:
        the rows and documents of its probed shards only."""
        questions = [q.text for q in hotpot.all_questions[:8]]
        plan = sharder.build_shards(4, mode="centroid")
        try:
            before = COUNTERS.snapshot()
            sharder.retrieve_many(questions, k=3, nprobe=1)
            after = COUNTERS.snapshot()
            queries = l2_normalize_rows(sharder.encode_questions(questions))
        finally:
            sharder.detach_shards()
        probed = [
            plan.shards[int(shard_id)]
            for shard_ids in plan.probe(queries, 1)
            for shard_id in shard_ids
        ]
        # the queries must probe shards of different sizes, or a
        # per-batch maximum would pass for the sum
        assert len({shard.n_rows for shard in probed}) > 1
        assert after["triples_scored"] - before["triples_scored"] == sum(
            shard.n_rows for shard in probed
        )
        assert after["docs_scored"] - before["docs_scored"] == sum(
            len(shard) for shard in probed
        )


# ---------------------------------------------------------------------------
# pruned recall properties (synthetic clustered corpus, ShardPlan direct)
# ---------------------------------------------------------------------------


def _clustered_plan_inputs(
    n_docs=240, n_centers=8, dim=16, max_triples=3, seed=5
):
    rng = np.random.RandomState(seed)
    centers = rng.randn(n_centers, dim) * 3.0
    rows = []
    offsets = []
    cursor = 0
    doc_center = rng.randint(n_centers, size=n_docs)
    for doc_id in range(n_docs):
        n_rows = 1 + rng.randint(max_triples)
        offsets.append(cursor)
        rows.append(
            centers[doc_center[doc_id]] + 0.1 * rng.randn(n_rows, dim)
        )
        cursor += n_rows
    matrix = np.concatenate(rows)
    normed = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    queries = centers[rng.randint(n_centers, size=12)] + 0.1 * rng.randn(
        12, dim
    )
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return normed, np.arange(n_docs), np.asarray(offsets), queries


class TestPrunedRecall:
    N_SHARDS = 8

    def _recalls(self):
        normed, doc_ids, offsets, queries = _clustered_plan_inputs()
        plan = ShardPlan.build(
            normed, doc_ids, offsets, self.N_SHARDS, mode="centroid"
        )
        strategy = ScoreStrategy(ONE_FACT)
        exact_top = [
            scores.doc_ids[topk_doc_order(scores.scores, scores.doc_ids, 10)]
            for scores in plan.search(queries, strategy, nprobe=None)
        ]
        recalls = []
        for nprobe in range(1, self.N_SHARDS + 1):
            scored = plan.search(queries, strategy, nprobe=nprobe)
            total = 0.0
            for query_scores, exact_ids in zip(scored, exact_top):
                approx = query_scores.doc_ids[
                    topk_doc_order(
                        query_scores.scores, query_scores.doc_ids, 10
                    )
                ]
                total += recall_at_k(approx, exact_ids)
            recalls.append(total / len(exact_top))
        return recalls

    def test_recall_monotone_in_nprobe(self):
        recalls = self._recalls()
        # average recall may not be strictly monotone per query, but the
        # probe sets are nested per query, so recall is monotone exactly
        for lower, higher in zip(recalls, recalls[1:]):
            assert higher >= lower - 1e-12

    def test_recall_is_one_at_full_probe(self):
        recalls = self._recalls()
        assert recalls[-1] == 1.0

    def test_clustered_data_prunes_well(self):
        recalls = self._recalls()
        # centroid shards over clustered docs: tiny nprobe, high recall
        assert recalls[1] >= 0.9


# ---------------------------------------------------------------------------
# sharded persistence
# ---------------------------------------------------------------------------


class TestShardedStore:
    @pytest.mark.parametrize("mode", ["range", "centroid"])
    def test_split_save_open_combined_roundtrip(
        self, sharder, tmp_path, mode
    ):
        sharder.detach_shards()
        exported = sharder.export_embeddings()
        sharded = ShardedEmbeddingStore.split(exported, 3, mode=mode)
        assert sharded.total_rows == exported.matrix.shape[0]
        assert sharded.total_docs == len(exported.doc_ids)
        sharded.save(tmp_path)
        loaded = ShardedEmbeddingStore.open(tmp_path)
        assert loaded.n_shards == 3
        assert loaded.mode == mode
        combined = loaded.combined()
        assert np.array_equal(
            np.asarray(combined.matrix), np.asarray(exported.matrix)
        )
        assert combined.doc_ids == exported.doc_ids
        assert combined.offsets == exported.offsets
        assert combined.row_hashes == exported.row_hashes

    def test_attach_sharded_zero_reencode_and_parity(
        self, sharder, encoder, store, tmp_path
    ):
        sharder.detach_shards()
        exact = sharder.retrieve_many(QUESTIONS, k=5)
        sharded = ShardedEmbeddingStore.split(
            sharder.export_embeddings(), 4, mode="centroid"
        )
        sharded.save(tmp_path)
        warm = SingleRetriever(encoder, store)
        adopted = warm.attach_sharded(ShardedEmbeddingStore.open(tmp_path))
        assert adopted == sharded.total_rows
        assert warm.refresh_embeddings() == 0  # zero re-encoding
        assert warm.shard_plan is not None
        assert warm.shard_plan.n_shards == 4
        # the persisted assignment is honored verbatim
        assert warm.shard_plan.assignment == sharded.assignment()
        got = warm.retrieve_many(QUESTIONS, k=5)
        for exact_docs, got_docs in zip(exact, got):
            assert [(d.doc_id, d.score) for d in exact_docs] == [
                (d.doc_id, d.score) for d in got_docs
            ]

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(ShardedStoreError, match="no sharded"):
            ShardedEmbeddingStore.open(tmp_path / "nope")

    def test_open_rejects_bad_version(self, sharder, tmp_path):
        import json

        sharder.detach_shards()
        ShardedEmbeddingStore.split(
            sharder.export_embeddings(), 2
        ).save(tmp_path)
        manifest_path = tmp_path / "sharded_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShardedStoreError, match="version"):
            ShardedEmbeddingStore.open(tmp_path)

    def test_split_rejects_bad_inputs(self, sharder):
        sharder.detach_shards()
        exported = sharder.export_embeddings()
        with pytest.raises(ValueError, match="positive"):
            ShardedEmbeddingStore.split(exported, 0)
        with pytest.raises(ValueError, match="mode"):
            ShardedEmbeddingStore.split(exported, 2, mode="bogus")
