"""The explainable single retriever (paper Sec. III-B, Fig. 4).

Encodes every flattened triple fact of every document once, then answers
one-hop retrieval queries: encode the question, compute cosine scores
against all triple facts, aggregate per document with a score strategy,
return the top-k documents *with the matching triple* — the concrete,
explainable evidence the paper emphasizes.

Scoring is vectorized: :meth:`SingleRetriever.refresh_embeddings` stacks
all triples into one L2-normalized ``(total_triples, dim)`` matrix with
per-document offsets, so a query (or a whole batch of queries) is scored
with a single matmul and the per-document aggregation runs as
``reduceat`` segment reductions (:func:`repro.retriever.strategies.
aggregate_segments`). Every retrieval runs through a
:class:`~repro.shard.plan.ShardPlan`: the configured shards, a one-shard
zero-copy plan when unsharded, or a one-shard plan over the gathered
rows of ``candidate_ids``.

Embedding maintenance is **incremental**: every refresh remembers a
per-document row hash (the flattened triple texts) plus the encoder
fingerprint, and the next :meth:`SingleRetriever.refresh_embeddings`
re-encodes only documents whose rows or encoder changed — everything
else is reused verbatim. :meth:`SingleRetriever.attach_embeddings` seeds
that cache from a persisted :class:`repro.ingest.embedding_store.
EmbeddingStore`, so a warm start re-encodes nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.encoder.minibert import MiniBertEncoder
from repro.ingest.embedding_store import EmbeddingStore
from repro.ingest.fingerprint import encoder_fingerprint, triples_fingerprint
from repro.oie.triple import Triple
from repro.perf import COUNTERS, time_block
from repro.precision import ACCUM_DTYPE, PrecisionLike, cast_matrix, resolve
from repro.retriever.store import TripleStore
from repro.retriever.strategies import (
    ONE_FACT,
    ScoreStrategy,
    aggregate_segments,  # re-exported; scoring calls it in repro.shard.plan
    l2_normalize_rows,
    segment_lengths,
)
from repro.shard.merge import topk_doc_order
from repro.shard.plan import QueryScores, ShardPlan
from repro.shard.store import ShardedEmbeddingStore
from repro.text.tokenize import tokenize


@dataclass(frozen=True)
class TokenTable:
    """Token strings of triple texts as padded interned-id matrices.

    ``ids`` interns token *strings*, never encoder vocab ids: those fold
    every unseen token onto UNK, so an unseen triple token would read as
    already in the question. Row ``r`` of ``tokens`` holds text ``r``'s
    ``tokenize`` tokens, of ``weights`` their encoder idf weights and of
    ``caps`` its capitalized whitespace words, lower-cased; padding (at
    least one column) is id -1 with weight 0.
    """

    ids: Dict[str, int]
    tokens: np.ndarray
    weights: np.ndarray
    caps: np.ndarray

    @classmethod
    def build(cls, texts: Sequence[str], encoder: MiniBertEncoder) -> "TokenTable":
        ids: Dict[str, int] = {}
        vocab, idf = encoder.vocab, encoder._token_weights
        token_rows = [tokenize(text) for text in texts]
        cap_rows = [
            [w.lower() for w in text.split() if w[:1].isupper()]
            for text in texts
        ]

        def padded(rows: List[List[str]], fill, value) -> np.ndarray:
            out = np.full((len(rows), max([1, *map(len, rows)])), fill)
            for i, row in enumerate(rows):
                out[i, : len(row)] = [value(item) for item in row]
            return out

        def intern(item: str) -> int:
            return ids.setdefault(item, len(ids))

        return cls(
            ids,
            padded(token_rows, -1, intern),
            padded(token_rows, 0.0, lambda t: idf[vocab.id_of(t)]),
            padded(cap_rows, -1, intern),
        )


@dataclass(frozen=True)
class ClueCandidates:
    """Candidate clue triples of many (question, document) segments:
    candidate ``i`` is row ``rows[i]`` of ``tokens``, has cosine
    ``cosines[i]`` to question ``owners[i]``, and segment ``s`` starts at
    candidate ``offsets[s]``."""

    tokens: TokenTable
    rows: np.ndarray
    offsets: np.ndarray
    owners: np.ndarray
    cosines: np.ndarray


@dataclass
class RetrievedDocument:
    """One retrieval result with its explanation."""

    doc_id: int
    title: str
    score: float
    matched_triple: Optional[Triple]  # the explaining triple (argmax)
    triple_scores: Optional[np.ndarray] = None

    def explain(self) -> str:
        """Human-readable justification of why this document matched."""
        if self.matched_triple is None:
            return f"{self.title}: no triple facts (score {self.score:.3f})"
        return (
            f"{self.title}: matched triple {self.matched_triple} "
            f"(score {self.score:.3f})"
        )


class SingleRetriever:
    """Dense triple-fact retrieval over a :class:`TripleStore`."""

    def __init__(
        self,
        encoder: MiniBertEncoder,
        store: TripleStore,
        strategy: Optional[ScoreStrategy] = None,
        precision: PrecisionLike = None,
    ):
        self.encoder = encoder
        self.store = store
        self.strategy = strategy or ScoreStrategy(ONE_FACT)
        # dtype policy of every matrix this retriever holds; inherited
        # from the encoder when not given so an exact-parity (float64)
        # encoder yields an exact-parity retriever without repetition
        # (duck-typed: stub encoders without a policy get the default)
        self.precision = (
            resolve(getattr(encoder, "precision", None))
            if precision is None
            else resolve(precision)
        )
        # the plan every retrieval scores through: built from the
        # (n_shards, mode, quantize) spec, or one range shard when the
        # spec is None; rebuilt whenever the scoring matrices refresh
        self._shard_spec: Optional[tuple] = None
        self._shard_assignment: Optional[Dict[int, int]] = None
        self.detach_embeddings()

    # -- embedding maintenance ------------------------------------------------
    def refresh_embeddings(
        self, batch_size: int = 128, force: bool = False
    ) -> int:
        """(Re-)encode the flattened triples of documents whose rows changed.

        Call after training the encoder or editing the store; retrieval
        uses these cached embeddings. Besides the per-document views this
        builds the flat normalized matrix + offsets that the single-matmul
        path scores.

        Incremental: a document's cached rows are reused verbatim when its
        triples hash (:func:`~repro.ingest.fingerprint.triples_fingerprint`)
        and the encoder fingerprint both match what the rows were computed
        under — whether cached by a previous refresh or seeded from a
        persisted store via :meth:`attach_embeddings`. All dirty documents
        are re-encoded in one encoder pass, so a full refresh stays
        bitwise-identical to the original always-recompute implementation.
        Returns the number of rows that were (re-)encoded; ``force=True``
        recomputes everything.
        """
        with time_block() as elapsed:
            current_fp = encoder_fingerprint(self.encoder)
            reuse_ok = not force and current_fp == self._encoder_fp
            dim = self.encoder.config.dim
            # (doc_id, n_rows, row_hash, cached-segment-or-None) per doc
            plan: List[tuple] = []
            dirty_texts: List[str] = []
            for doc_id in self.store.doc_ids():
                flattened = self.store.flattened(doc_id)
                row_hash = triples_fingerprint(flattened)
                cached = self._embeddings.get(doc_id) if reuse_ok else None
                if (
                    cached is not None
                    and self._row_hashes.get(doc_id) == row_hash
                    and cached.shape[0] == len(flattened)
                ):
                    plan.append((doc_id, len(flattened), row_hash, cached))
                else:
                    plan.append((doc_id, len(flattened), row_hash, None))
                    dirty_texts.extend(flattened)
            if dirty_texts:
                encoded = cast_matrix(
                    self.encoder.encode_numpy(
                        dirty_texts, batch_size=batch_size
                    ),
                    self.precision.dtype,
                )
                COUNTERS.incr("encode_calls")
                COUNTERS.incr("texts_encoded", len(dirty_texts))
            else:
                encoded = np.zeros((0, dim), dtype=self.precision.dtype)
            attached = self._attached
            if (
                not dirty_texts
                and attached is not None
                and [int(d) for d in attached.doc_ids] == [p[0] for p in plan]
                and attached.matrix.shape[0] == sum(p[1] for p in plan)
            ):
                # clean warm start: score straight off the attached
                # (possibly memmapped) matrix, no per-segment reassembly
                matrix = np.asarray(attached.matrix)
            else:
                pieces: List[np.ndarray] = []
                cursor = 0
                for _, n_rows, _, cached in plan:
                    if cached is None:
                        pieces.append(encoded[cursor : cursor + n_rows])
                        cursor += n_rows
                    else:
                        pieces.append(np.asarray(cached))
                matrix = (
                    np.concatenate(pieces)
                    if pieces
                    else np.zeros((0, dim), dtype=self.precision.dtype)
                )
            self._embeddings = {}
            self._doc_order = []
            self._offsets = []
            self._row_hashes = {}
            start = 0
            for doc_id, n_rows, row_hash, _ in plan:
                self._embeddings[doc_id] = matrix[start : start + n_rows]
                self._doc_order.append(doc_id)
                self._offsets.append(start)
                self._row_hashes[doc_id] = row_hash
                start += n_rows
            self._stacked = matrix
            self._normed = l2_normalize_rows(matrix)
            self._tokens = None
            self._doc_pos = {d: i for i, d in enumerate(self._doc_order)}
            self._offsets_arr = np.asarray(self._offsets, dtype=np.int64)
            self._lengths = segment_lengths(self._offsets_arr, start)
            self._encoder_fp = current_fp
            self._rebuild_plan()
        COUNTERS.incr("rows_encoded", len(dirty_texts))
        COUNTERS.incr("rows_reused", start - len(dirty_texts))
        COUNTERS.incr("refresh_seconds", elapsed())
        return len(dirty_texts)

    def attach_embeddings(self, embeddings: EmbeddingStore) -> int:
        """Seed the embedding cache from a persisted :class:`EmbeddingStore`.

        Adopts the store's per-document segments, row hashes and encoder
        fingerprint so the next :meth:`refresh_embeddings` re-encodes only
        documents whose rows (or the encoder) changed since the store was
        written — zero on a clean warm start. Returns the number of rows
        adopted; a store with the wrong embedding dimension or an
        inconsistent layout is rejected (returns 0, cache left empty).
        """
        self.detach_embeddings()
        matrix = embeddings.matrix
        if matrix.ndim != 2 or matrix.shape[1] != self.encoder.config.dim:
            return 0
        if np.dtype(matrix.dtype) != self.precision.dtype:
            # a store persisted under another precision policy (e.g. a
            # legacy float64 store on a float32 retriever) must not leak
            # its dtype into scoring — reject and let refresh re-encode
            return 0
        if len(embeddings.doc_ids) != len(embeddings.offsets):
            return 0
        total = int(matrix.shape[0])
        offsets = np.asarray(embeddings.offsets, dtype=np.int64)
        lengths = segment_lengths(offsets, total)
        if offsets.size and (offsets[0] < 0 or lengths.min() < 0):
            return 0
        for doc_id, start, length in zip(
            embeddings.doc_ids, offsets.tolist(), lengths.tolist()
        ):
            self._embeddings[int(doc_id)] = matrix[start : start + length]
        self._row_hashes = {
            int(d): str(h) for d, h in embeddings.row_hashes.items()
        }
        self._encoder_fp = embeddings.encoder_fingerprint
        self._attached = embeddings
        return total

    @property
    def store_generation(self) -> Optional[int]:
        """Publish generation of the attached store (None when cold-built).

        Networked serving tags every response with the generation its
        worker scored against, so clients can prove a single answer never
        mixes store generations across a hot swap.
        """
        attached = self._attached
        if attached is None:
            return None
        return int(getattr(attached, "generation", 0))

    def detach_embeddings(self) -> None:
        """Drop every cached embedding and all dirty-tracking state."""
        self._embeddings: Dict[int, np.ndarray] = {}
        self._stacked: Optional[np.ndarray] = None
        self._normed: Optional[np.ndarray] = None
        # built from the store by the first clue pass, dropped with _normed
        self._tokens: Optional[TokenTable] = None
        self._doc_order: List[int] = []
        self._doc_pos: Dict[int, int] = {}
        self._offsets: List[int] = []
        self._offsets_arr: Optional[np.ndarray] = None
        self._lengths: Optional[np.ndarray] = None
        # dirty-row tracking: what each cached segment was computed from
        self._row_hashes: Dict[int, str] = {}
        self._encoder_fp: Optional[str] = None
        self._attached: Optional[EmbeddingStore] = None
        self._plan: Optional[ShardPlan] = None

    def export_embeddings(
        self, construction_fingerprint: str = ""
    ) -> EmbeddingStore:
        """Snapshot the current stacked matrix as a persistable store."""
        self._ensure_fresh()
        return EmbeddingStore(
            matrix=np.ascontiguousarray(
                self._stacked, dtype=self.precision.dtype
            ),
            doc_ids=[int(d) for d in self._doc_order],
            offsets=[int(o) for o in self._offsets],
            row_hashes=dict(self._row_hashes),
            encoder_fingerprint=(
                self._encoder_fp or encoder_fingerprint(self.encoder)
            ),
            construction_fingerprint=construction_fingerprint,
        )

    def ensure_ready(self) -> None:
        """Build (or finish warm-starting) the scoring matrices if needed."""
        self._ensure_fresh()

    def _ensure_fresh(self) -> None:
        if self._stacked is None:
            self.refresh_embeddings()
        elif self._plan is None:
            self._rebuild_plan()

    # -- sharded scoring ------------------------------------------------------
    @property
    def shard_plan(self) -> Optional[ShardPlan]:
        """The active :class:`ShardPlan`, or None when unsharded."""
        return self._plan if self._shard_spec is not None else None

    def build_shards(
        self, n_shards: int, mode: str = "range", quantize: bool = False
    ) -> ShardPlan:
        """Split the scoring matrix into ``n_shards`` with centroid pruning.

        Subsequent :meth:`retrieve_batch` calls route through the plan
        (per-shard matmuls + exact global merge) and accept ``nprobe``.
        The plan is rebuilt automatically on every embedding refresh.
        ``quantize`` (implied when the retriever's precision policy is
        int8-rescore) derives the int8 shard copies that quantized
        requests score coarsely.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        quantize = bool(quantize) or self.precision.quantized
        self._shard_spec = (int(n_shards), mode, quantize)
        self._shard_assignment = None
        self._plan = None
        self._ensure_fresh()
        return self._plan

    def attach_sharded(self, sharded: ShardedEmbeddingStore) -> int:
        """Warm-start from a persisted :class:`ShardedEmbeddingStore`.

        Attaches the combined (ascending-doc-id) view for the incremental
        cache, then pins the persisted document-to-shard assignment so the
        rebuilt plan groups documents exactly as the saved shards do.
        Returns the number of rows adopted (0 on rejection, like
        :meth:`attach_embeddings`).
        """
        total = self.attach_embeddings(sharded.combined())
        if total or sharded.total_rows == 0:
            self._shard_spec = (
                sharded.n_shards,
                sharded.mode,
                sharded.quantized or self.precision.quantized,
            )
            self._shard_assignment = sharded.assignment()
            self._plan = None
        return total

    def detach_shards(self) -> None:
        """Return to unsharded scoring (embedding cache is untouched)."""
        self._shard_spec = None
        self._shard_assignment = None
        self._plan = None

    def _rebuild_plan(self) -> None:
        n_shards, mode, quantize = self._shard_spec or (1, "range", False)
        self._plan = ShardPlan.build(
            self._normed,
            self._doc_order,
            self._offsets,
            n_shards,
            mode=mode,
            assignment=self._shard_assignment,
            quantize=quantize,
        )
        self._shard_assignment = self._plan.assignment

    def doc_embeddings(self, doc_id: int) -> np.ndarray:
        """The cached triple embedding matrix of one document."""
        self._ensure_fresh()
        return self._embeddings.get(
            doc_id,
            np.zeros(
                (0, self.encoder.config.dim), dtype=self.precision.dtype
            ),
        )

    # -- retrieval ----------------------------------------------------------
    def encode_question(self, question: str) -> np.ndarray:
        """The question's [CLS] embedding as a numpy vector."""
        COUNTERS.incr("encode_calls")
        COUNTERS.incr("texts_encoded")
        return cast_matrix(
            self.encoder.encode_numpy([question])[0], self.precision.dtype
        )

    def encode_questions(self, questions: Sequence[str]) -> np.ndarray:
        """Batch of question embeddings, one encoder pass."""
        if not questions:
            return np.zeros(
                (0, self.encoder.config.dim), dtype=self.precision.dtype
            )
        COUNTERS.incr("encode_calls")
        COUNTERS.incr("texts_encoded", len(questions))
        return cast_matrix(
            self.encoder.encode_numpy(list(questions)), self.precision.dtype
        )

    def triple_scores(self, query_vec: np.ndarray, doc_id: int) -> np.ndarray:
        """Cosine of one query against one document's triples (fast path)."""
        self._ensure_fresh()
        position = self._doc_pos.get(doc_id)
        if position is None:
            return np.zeros(0)
        start = self._offsets[position]
        stop = start + int(self._lengths[position])
        query_vec = cast_matrix(query_vec, self.precision.dtype)
        norm = np.linalg.norm(query_vec)
        if norm:
            query_vec = query_vec / norm
        return self._normed[start:stop] @ query_vec

    def clue_candidates(
        self,
        query_matrix: np.ndarray,
        doc_ids: Sequence[int],
        owners: Sequence[int],
    ) -> ClueCandidates:
        """Every stored triple of ``doc_ids[s]`` as a clue candidate of
        query row ``owners[s]``, with no encoder call: cosines come from
        the stored policy-dtype rows, summed row by row in float64 so they
        do not depend on the batch shape."""
        self._ensure_fresh()
        if self._tokens is None:
            texts = [t for d in self._doc_order for t in self.store.flattened(d)]
            self._tokens = TokenTable.build(texts, self.encoder)
        positions = np.asarray(
            [self._doc_pos[int(doc_id)] for doc_id in doc_ids], dtype=np.int64
        )
        lengths = self._lengths[positions]
        offsets = np.cumsum(lengths) - lengths
        # each document's row range, concatenated
        shift = self._offsets_arr[positions] - offsets
        rows = np.repeat(shift, lengths) + np.arange(int(lengths.sum()))
        owner_rows = np.repeat(np.asarray(owners, dtype=np.int64), lengths)
        queries_normed = l2_normalize_rows(
            cast_matrix(query_matrix, self.precision.dtype)
        )
        cosines = (
            self._normed[rows].astype(ACCUM_DTYPE) * queries_normed[owner_rows]
        ).sum(axis=1)
        return ClueCandidates(self._tokens, rows, offsets, owner_rows, cosines)

    def retrieve(
        self,
        question: str,
        k: int = 10,
        strategy: Optional[ScoreStrategy] = None,
        candidate_ids: Optional[Sequence[int]] = None,
        keep_triple_scores: bool = False,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[RetrievedDocument]:
        """Top-k documents for ``question`` with matched-triple explanations.

        ``candidate_ids`` restricts scoring to those documents, scored
        exactly (a library hook for rerankers; see :meth:`retrieve_batch`
        for its contract). ``nprobe`` limits
        sharded scoring to that many closest shards (requires
        :meth:`build_shards` / :meth:`attach_sharded`; None = no pruning).
        ``precision`` overrides the retriever's policy per request — see
        :meth:`retrieve_batch`.
        """
        self._ensure_fresh()
        strategy = strategy or self.strategy
        query_vec = self.encode_question(question)
        return self.retrieve_by_vector(
            query_vec,
            k=k,
            strategy=strategy,
            candidate_ids=candidate_ids,
            keep_triple_scores=keep_triple_scores,
            nprobe=nprobe,
            precision=precision,
        )

    def retrieve_by_vector(
        self,
        query_vec: np.ndarray,
        k: int = 10,
        strategy: Optional[ScoreStrategy] = None,
        candidate_ids: Optional[Sequence[int]] = None,
        keep_triple_scores: bool = False,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[RetrievedDocument]:
        """Same as :meth:`retrieve` for an already-encoded question."""
        return self.retrieve_batch(
            np.asarray(query_vec)[None, :],
            k=k,
            strategy=strategy,
            candidate_ids=candidate_ids,
            keep_triple_scores=keep_triple_scores,
            nprobe=nprobe,
            precision=precision,
        )[0]

    def retrieve_many(
        self,
        questions: Sequence[str],
        k: int = 10,
        strategy: Optional[ScoreStrategy] = None,
        candidate_ids: Optional[Sequence[int]] = None,
        keep_triple_scores: bool = False,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[List[RetrievedDocument]]:
        """Top-k documents for a batch of question *texts*.

        The bulk text entry point shared by ``repro query --batch`` and
        the serving layer's micro-batcher: one encoder pass over all
        questions (:meth:`encode_questions`), then one
        :meth:`retrieve_batch` matmul.
        """
        if not questions:
            return []
        return self.retrieve_batch(
            self.encode_questions(questions),
            k=k,
            strategy=strategy,
            candidate_ids=candidate_ids,
            keep_triple_scores=keep_triple_scores,
            nprobe=nprobe,
            precision=precision,
        )

    def retrieve_batch(
        self,
        query_matrix: np.ndarray,
        k: int = 10,
        strategy: Optional[ScoreStrategy] = None,
        candidate_ids: Optional[Sequence[int]] = None,
        keep_triple_scores: bool = False,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[List[RetrievedDocument]]:
        """Top-k documents for every row of ``query_matrix`` at once.

        Returns one result list per query row, each identical to what
        :meth:`retrieve_by_vector` returns for that row. Scoring runs
        through the retriever's :class:`ShardPlan` — one matmul per
        (shard, queries probing it), then segment reductions per document;
        unsharded, that is one matmul over the whole matrix. ``nprobe``
        prunes a sharded plan to that many centroid-closest shards (None
        or ``>= n_shards`` probes everything, which is provably identical
        to the unsharded path).

        ``candidate_ids`` are always scored exactly, through a one-shard
        plan over their gathered rows: ``nprobe`` and ``int8-rescore`` do
        not apply to them. Ids are de-duplicated order-preserving; an id
        outside the corpus raises ``KeyError``; a corpus document without
        triples ranks with ``EMPTY_SCORE`` and no explanation.

        ``precision`` overrides the retriever policy per request. A float
        request must match the dtype the matrices are held in — a
        mixed-precision retriever never silently serves an exact-mode
        request. ``int8-rescore`` requests need an active shard plan
        (whose int8 copy is derived on first use).
        """
        self._ensure_fresh()
        strategy = strategy or self.strategy
        requested = (
            self.precision if precision is None else resolve(precision)
        )
        if not requested.quantized and (
            requested.dtype != self.precision.dtype
        ):
            raise ValueError(
                f"retriever holds {self.precision.dtype.name} matrices; "
                f"cannot serve a {requested.mode} request exactly"
            )
        queries = np.atleast_2d(
            cast_matrix(query_matrix, self.precision.dtype)
        )
        if nprobe is not None and self._shard_spec is None:
            raise ValueError(
                "nprobe requires an active shard plan; call "
                "build_shards() or attach_sharded() first"
            )
        quantized = requested.quantized and candidate_ids is None
        if quantized and self._shard_spec is None:
            raise ValueError(
                "int8-rescore requires an active shard plan; call "
                "build_shards() or attach_sharded() first"
            )
        plan = (
            self._plan
            if candidate_ids is None
            else self._candidate_plan(candidate_ids)
        )
        n_queries = queries.shape[0]
        if n_queries == 0 or plan.total_docs == 0 or k <= 0:
            return [[] for _ in range(n_queries)]
        queries_normed = l2_normalize_rows(queries)
        with time_block() as elapsed:
            if quantized:
                # deterministic and cheap relative to plan builds, so a
                # first quantized request may derive the int8 copy
                scored = plan.quantize().search_quantized(
                    queries_normed,
                    strategy,
                    max(int(requested.rescore_width), int(k)),
                    nprobe,
                )
            else:
                scored = plan.search(queries_normed, strategy, nprobe)
        # per-batch totals: what each query actually scored, so pruned
        # shards and int8-rescore cuts are not counted
        COUNTERS.incr("matmul_calls")
        COUNTERS.incr("matmul_seconds", elapsed())
        COUNTERS.incr("queries", n_queries)
        COUNTERS.incr(
            "docs_scored", sum(int(q.doc_ids.shape[0]) for q in scored)
        )
        COUNTERS.incr("triples_scored", sum(q.n_triples for q in scored))
        return [
            self._materialize(query_scores, k, keep_triple_scores)
            for query_scores in scored
        ]

    def _candidate_plan(self, candidate_ids: Sequence[int]) -> ShardPlan:
        """A one-shard plan over the rows of the de-duplicated candidates."""
        n_corpus = len(self.store.corpus)
        unique = list(dict.fromkeys(int(doc_id) for doc_id in candidate_ids))
        for doc_id in unique:
            if not 0 <= doc_id < n_corpus:
                raise KeyError(
                    f"candidate doc_id {doc_id} not in corpus "
                    f"(valid range 0..{n_corpus - 1})"
                )
        positions = np.asarray(
            [self._doc_pos.get(doc_id, -1) for doc_id in unique],
            dtype=np.int64,
        )
        known = positions >= 0
        starts = np.zeros(len(unique), dtype=np.int64)
        lengths = np.zeros(len(unique), dtype=np.int64)
        starts[known] = self._offsets_arr[positions[known]]
        lengths[known] = self._lengths[positions[known]]
        return ShardPlan.gathered(self._normed, unique, starts, lengths)

    def _materialize(
        self, scored: QueryScores, k: int, keep_triple_scores: bool
    ) -> List[RetrievedDocument]:
        """The top-k documents of one query, in (score desc, doc id asc)
        order, with their explaining triples."""
        results: List[RetrievedDocument] = []
        for position in topk_doc_order(scored.scores, scored.doc_ids, k):
            position = int(position)
            doc_id = int(scored.doc_ids[position])
            local = int(scored.matched[position])
            triples = self.store.triples(doc_id)
            results.append(
                RetrievedDocument(
                    doc_id=doc_id,
                    title=self.store.corpus[doc_id].title,
                    score=float(scored.scores[position]),
                    matched_triple=(
                        triples[local] if 0 <= local < len(triples) else None
                    ),
                    triple_scores=(
                        scored.triple_scores(position)
                        if keep_triple_scores
                        else None
                    ),
                )
            )
        return results
