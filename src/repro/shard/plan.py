"""The sharded scoring plan: per-shard top-k with an exact global merge.

A :class:`ShardPlan` splits one stacked, L2-normalized triple matrix
into N shards (each document's triples live wholly in one shard) plus a
coarse-quantization layer: one unit centroid per shard. A query scores
the centroids first and prunes to the ``nprobe`` closest shards before
any triple matmul runs — the IVF structure that decouples query cost
from total corpus size.

Exactness contract: per-document scores are plain dot products against
the same normalized rows, so they are bitwise identical to the
unsharded path, and the global merge orders by ``(score desc, doc id
asc)`` — a total order. With ``nprobe = n_shards`` (no pruning) sharded
retrieval is therefore *provably byte-identical* to exact top-k; with
``nprobe < n_shards`` it trades recall for a proportional cut in matmul
work. The 1/2/4-shard parity tests pin the first property, the
recall-monotonicity property tests the second.

A plan built with ``quantize=True`` additionally carries a symmetric
per-row int8 copy of every shard matrix (one float32 scale per row —
8x smaller than float64, what makes millions of docs fit in RAM).
:meth:`ShardPlan.search_quantized` scores the int8 copy *coarsely*,
keeps the top ``rescore_width`` documents per query under the same
``(score desc, doc id asc)`` total order, then rescores exactly those
documents' float rows. Because the survivor set is a prefix of the
coarse total order, widening ``rescore_width`` can only add documents —
recall@k is monotone in the rescore width, and equals exact recall once
every true top-k document survives the coarse cut.

This is the only scoring path of :class:`~repro.retriever.single.
SingleRetriever`: an unsharded retriever scores through a one-shard
range plan (a zero-copy view of its matrix), and ``candidate_ids``
through a one-shard plan over the gathered candidate rows
(:meth:`ShardPlan.gathered`). Every search returns one
:class:`QueryScores` per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.precision import (
    ACCUM_DTYPE,
    coarse_scores,
    ensure_float,
    quantize_rows,
)
from repro.retriever.strategies import (
    ScoreStrategy,
    aggregate_segments,
    segment_lengths,
)
from repro.shard.assignment import (
    MODES,
    assign_documents,
    segment_means,
)
from repro.shard.merge import topk_doc_order


@dataclass
class Shard:
    """One shard: a doc subset, their triple rows, and a coarse centroid."""

    shard_id: int
    doc_ids: np.ndarray  # (n_docs,) int64
    offsets: np.ndarray  # (n_docs,) int64 shard-local segment starts
    lengths: np.ndarray  # (n_docs,) int64 triple rows per document
    sources: np.ndarray  # (n_docs,) int64 segment starts in the plan matrix
    matrix: np.ndarray  # (n_rows, dim) L2-normalized triple rows
    centroid: np.ndarray  # (dim,) unit centroid (zero when empty)
    q_matrix: Optional[np.ndarray] = None  # (n_rows, dim) int8 rows
    q_scales: Optional[np.ndarray] = None  # (n_rows,) float32 row scales

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def quantized(self) -> bool:
        return self.q_matrix is not None

    def __len__(self) -> int:
        return int(self.doc_ids.shape[0])


def gather_shard(
    matrix: np.ndarray,
    doc_ids: Sequence[int],
    starts: Sequence[int],
    lengths: Sequence[int],
    shard_id: int = 0,
) -> Shard:
    """A shard over ``matrix[starts[i] : starts[i] + lengths[i]]`` for
    each document ``doc_ids[i]``, in the given order.

    The one way a segment layout is cut out of a stacked matrix: plan
    shards, ``candidate_ids`` subsets and the quantized rescore's
    survivors. Rows forming one contiguous run stay a zero-copy view
    (every range-mode shard); any other layout is gathered. A zero length
    is a document without triples: it scores ``EMPTY_SCORE`` with no
    explaining triple.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    n_rows = int(lengths.sum())
    first = int(starts[0]) if starts.size else 0
    if np.array_equal(starts - first, offsets):
        rows = matrix[first : first + n_rows]
    else:
        rows = matrix[
            np.repeat(starts - offsets, lengths) + np.arange(n_rows)
        ]
    centroid = np.zeros(matrix.shape[1], dtype=matrix.dtype)
    if n_rows:
        mean = np.asarray(rows).mean(axis=0)
        norm = np.linalg.norm(mean)
        centroid = mean / norm if norm > 0.0 else mean
    return Shard(shard_id, doc_ids, offsets, lengths, starts, rows, centroid)


class ScoredShard(NamedTuple):
    """One query's scores against one shard."""

    shard: Shard
    flat: np.ndarray  # (n_rows,) per-triple scores
    aggregated: np.ndarray  # (n_docs,) per-document strategy aggregates
    matched: np.ndarray  # (n_docs,) segment-local explaining triple


def _score_shard(
    shard: Shard, queries_normed: np.ndarray, strategy: ScoreStrategy
) -> List[ScoredShard]:
    """One matmul of the query block against the shard, then the
    per-document segment aggregation for each query row."""
    block = queries_normed @ shard.matrix.T
    return [
        ScoredShard(
            shard, flat, *aggregate_segments(flat, shard.offsets, strategy)
        )
        for flat in block
    ]


def _joined(pieces: List[np.ndarray], dtype) -> np.ndarray:
    """Concatenated per-shard pieces; a single piece is not copied."""
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=dtype)


class QueryScores:
    """One query's per-document scores over every shard it scored.

    ``doc_ids``, ``scores`` (strategy aggregates) and ``matched`` (the
    segment-local index of each document's explaining triple) are
    parallel arrays in shard order; rank them with
    :func:`~repro.shard.merge.topk_doc_order`. ``n_triples`` counts the
    triple rows scored exactly. :meth:`triple_scores` recovers one
    document's per-triple scores (the explanation path) without
    re-scoring. Built once from the per-shard pieces; read-only, since
    a single shard's arrays are shared rather than copied.
    """

    __slots__ = ("doc_ids", "scores", "matched", "n_triples", "_parts")

    def __init__(self, parts: List[ScoredShard]) -> None:
        self._parts = parts
        self.doc_ids = _joined([p.shard.doc_ids for p in parts], np.int64)
        self.scores = _joined([p.aggregated for p in parts], ACCUM_DTYPE)
        self.matched = _joined([p.matched for p in parts], np.int64)
        self.n_triples = sum(p.shard.n_rows for p in parts)

    def triple_scores(self, position: int) -> np.ndarray:
        """Flat triple scores of the document at ``position``."""
        for part in self._parts:
            shard = part.shard
            if position < len(shard):
                start = int(shard.offsets[position])
                stop = start + int(shard.lengths[position])
                return part.flat[start:stop].copy()
            position -= len(shard)
        raise IndexError("position beyond the scored documents")


class ShardPlan:
    """N shards over one stacked matrix + the centroid pruning layer."""

    def __init__(
        self,
        matrix: np.ndarray,
        shards: List[Shard],
        mode: str,
        assignment: Dict[int, int],
        quantized: bool = False,
    ):
        self.matrix = matrix  # the stacked rows every shard is cut from
        self.shards = shards
        self.mode = mode
        self.assignment = assignment  # doc_id -> shard_id
        self.quantized = quantized
        self.centroids = (
            np.stack([s.centroid for s in shards])
            if shards
            else np.zeros((0, 0), dtype=ACCUM_DTYPE)
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def total_rows(self) -> int:
        return sum(shard.n_rows for shard in self.shards)

    @property
    def total_docs(self) -> int:
        return sum(len(shard) for shard in self.shards)

    # -- construction ----------------------------------------------------
    @classmethod
    def build(
        cls,
        normed_matrix: np.ndarray,
        doc_ids: Sequence[int],
        offsets: Sequence[int],
        n_shards: int,
        mode: str = "range",
        assignment: Optional[Dict[int, int]] = None,
        quantize: bool = False,
    ) -> "ShardPlan":
        """Split a stacked normalized matrix into a scoring plan.

        ``doc_ids``/``offsets`` describe the segment layout exactly as
        :class:`~repro.ingest.embedding_store.EmbeddingStore` does. An
        explicit ``assignment`` (doc_id -> shard_id, e.g. from a persisted
        sharded manifest) wins over recomputing one; it must cover every
        document. ``quantize`` additionally derives the per-shard int8
        copies that :meth:`search_quantized` scores.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if mode not in MODES:
            raise ValueError(
                f"unknown shard mode {mode!r} (expected {MODES})"
            )
        # dtype-preserving: the precision policy chose the matrix dtype
        # upstream; sharding must not silently widen a float32 corpus
        normed_matrix = ensure_float(normed_matrix)
        doc_id_arr = np.asarray(list(doc_ids), dtype=np.int64)
        offset_arr = np.asarray(list(offsets), dtype=np.int64)
        lengths = segment_lengths(offset_arr, normed_matrix.shape[0])
        n_docs = doc_id_arr.shape[0]
        if assignment is not None and all(
            int(d) in assignment for d in doc_id_arr
        ):
            labels = np.asarray(
                [assignment[int(d)] for d in doc_id_arr], dtype=np.int64
            )
        elif mode == "centroid":
            labels = assign_documents(
                mode,
                n_docs,
                n_shards,
                doc_vectors=segment_means(normed_matrix, offset_arr),
            )
        else:
            labels = assign_documents(mode, n_docs, n_shards)
        shards = []
        for shard_id in range(n_shards):
            positions = np.nonzero(labels == shard_id)[0]
            shards.append(
                gather_shard(
                    normed_matrix,
                    doc_id_arr[positions],
                    offset_arr[positions],
                    lengths[positions],
                    shard_id,
                )
            )
        mapping = dict(zip(doc_id_arr.tolist(), labels.tolist()))
        plan = cls(normed_matrix, shards, mode, mapping)
        if quantize:
            plan.quantize()
        return plan

    @classmethod
    def gathered(
        cls,
        matrix: np.ndarray,
        doc_ids: Sequence[int],
        starts: Sequence[int],
        lengths: Sequence[int],
    ) -> "ShardPlan":
        """A one-shard plan over the given documents' rows of ``matrix``,
        in the given order (see :func:`gather_shard`)."""
        shard = gather_shard(matrix, doc_ids, starts, lengths)
        assignment = dict.fromkeys(shard.doc_ids.tolist(), 0)
        return cls(matrix, [shard], "range", assignment)

    def quantize(self) -> "ShardPlan":
        """Derive the int8 copy of every shard matrix (idempotent).

        Quantization is deterministic — re-quantizing the same float rows
        yields byte-identical int8/scale arrays — so a plan rebuilt from
        a persisted store and one carrying the store's persisted sidecar
        score identically.
        """
        for shard in self.shards:
            if shard.q_matrix is None:
                shard.q_matrix, shard.q_scales = quantize_rows(shard.matrix)
        self.quantized = True
        return self

    # -- query path ------------------------------------------------------
    def probe(
        self, queries_normed: np.ndarray, nprobe: Optional[int] = None
    ) -> List[np.ndarray]:
        """Per-query shard ids to score, closest centroid first.

        ``nprobe`` of None (or >= ``n_shards``) probes everything — the
        no-pruning, provably exact configuration. Centroid ties break
        toward the lower shard id so probing is deterministic.
        """
        n_shards = self.n_shards
        nprobe = n_shards if nprobe is None else max(1, int(nprobe))
        nprobe = min(nprobe, n_shards)
        queries_normed = np.atleast_2d(queries_normed)
        if nprobe >= n_shards:
            every = np.arange(n_shards, dtype=np.int64)
            return [every for _ in range(queries_normed.shape[0])]
        centroid_scores = queries_normed @ self.centroids.T
        shard_ids = np.arange(n_shards, dtype=np.int64)
        out: List[np.ndarray] = []
        for row in centroid_scores:
            order = np.lexsort((shard_ids, -row))
            out.append(order[:nprobe].astype(np.int64))
        return out

    def _probed_groups(
        self, queries_normed: np.ndarray, nprobe: Optional[int]
    ) -> List[Tuple[Shard, List[int]]]:
        """(shard, indices of the queries probing it) for every probed
        non-empty shard, shard-major: a batch pays each shard's matrix at
        most once."""
        if nprobe is None or nprobe >= self.n_shards:
            # no pruning: every query probes every shard
            every = list(range(queries_normed.shape[0]))
            return [(shard, every) for shard in self.shards if len(shard)]
        by_shard: Dict[int, List[int]] = {}
        for query_index, shard_ids in enumerate(
            self.probe(queries_normed, nprobe)
        ):
            for shard_id in shard_ids.tolist():
                by_shard.setdefault(shard_id, []).append(query_index)
        return [
            (self.shards[shard_id], by_shard[shard_id])
            for shard_id in sorted(by_shard)
            if len(self.shards[shard_id])
        ]

    def search(
        self,
        queries_normed: np.ndarray,
        strategy: ScoreStrategy,
        nprobe: Optional[int] = None,
    ) -> List[QueryScores]:
        """Score every query against its probed shards (shard-major).

        Executes one matmul per (shard, queries-probing-it) group, then
        aggregates per document with the segment reductions.
        """
        queries_normed = np.atleast_2d(ensure_float(queries_normed))
        n_queries = queries_normed.shape[0]
        parts: List[List[ScoredShard]] = [[] for _ in range(n_queries)]
        for shard, query_indices in self._probed_groups(
            queries_normed, nprobe
        ):
            block = (
                queries_normed
                if len(query_indices) == n_queries
                else queries_normed[query_indices]
            )
            scored = _score_shard(shard, block, strategy)
            for query_index, part in zip(query_indices, scored):
                parts[query_index].append(part)
        return [QueryScores(query_parts) for query_parts in parts]

    def search_quantized(
        self,
        queries_normed: np.ndarray,
        strategy: ScoreStrategy,
        rescore_width: int,
        nprobe: Optional[int] = None,
    ) -> List[QueryScores]:
        """Coarse int8 scoring, then an exact rescore of the survivors.

        Per probed shard the int8 copy is scored chunk-wise (~1 byte of
        DRAM traffic per matrix element) and aggregated per document;
        the global top-``rescore_width`` documents per query — under the
        same ``(score desc, doc id asc)`` total order as every other
        ranking site — then have their *float* rows gathered and scored
        exactly, as ``candidate_ids`` are. Survivors form a prefix of the
        coarse total order, so recall@k is monotone in ``rescore_width``.
        """
        if not self.quantized:
            raise ValueError(
                "plan has no int8 copy; build with quantize=True or "
                "call plan.quantize() first"
            )
        queries_normed = np.atleast_2d(ensure_float(queries_normed))
        rescore_width = max(1, int(rescore_width))
        coarse: List[List[Tuple[Shard, np.ndarray]]] = [
            [] for _ in range(queries_normed.shape[0])
        ]
        for shard, query_indices in self._probed_groups(
            queries_normed, nprobe
        ):
            block = coarse_scores(
                shard.q_matrix, shard.q_scales, queries_normed[query_indices]
            )
            for column, query_index in enumerate(query_indices):
                aggregated, _ = aggregate_segments(
                    block[:, column], shard.offsets, strategy
                )
                coarse[query_index].append((shard, aggregated))
        results: List[QueryScores] = []
        for query, scored in zip(queries_normed, coarse):
            shards = [shard for shard, _ in scored]
            doc_ids = _joined([shard.doc_ids for shard in shards], np.int64)
            survivors = topk_doc_order(
                _joined([agg for _, agg in scored], ACCUM_DTYPE),
                doc_ids,
                rescore_width,
            )
            rescore = gather_shard(
                self.matrix,
                doc_ids[survivors],
                _joined([s.sources for s in shards], np.int64)[survivors],
                _joined([s.lengths for s in shards], np.int64)[survivors],
            )
            results.append(
                QueryScores(_score_shard(rescore, query[None, :], strategy))
            )
        return results
