"""The per-document reference scorer: the oracle every scoring path is
pinned to.

Scores one document at a time with a plain cosine and a scalar
aggregation, the paper's Eqs. 2, 6 and 7 written as directly as
possible. It takes O(corpus) Python iterations per query, so only the
parity tests and the retrieval throughput benchmark call it.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.retriever.single import RetrievedDocument, SingleRetriever
from repro.retriever.strategies import (
    EMPTY_SCORE,
    ONE_FACT,
    TOP_K,
    ScoreStrategy,
)


def cosine_matrix(
    query_vec: np.ndarray, triple_matrix: np.ndarray, eps: float = 1e-8
) -> np.ndarray:
    """Cosine of one query vector against rows of ``triple_matrix``."""
    if triple_matrix.size == 0:
        return np.zeros(0)
    q_norm = np.linalg.norm(query_vec) + eps
    t_norms = np.linalg.norm(triple_matrix, axis=1) + eps
    return (triple_matrix @ query_vec) / (t_norms * q_norm)


def aggregate(strategy: ScoreStrategy, scores: np.ndarray) -> float:
    """Collapse one document's per-triple scores into its score."""
    if scores.size == 0:
        return EMPTY_SCORE
    if strategy.name == ONE_FACT:
        return float(scores.max())
    if strategy.name == TOP_K:
        k = min(strategy.k, scores.size)
        return float(np.partition(scores, -k)[-k:].mean())
    return float(scores.mean())


def matched_index(scores: np.ndarray) -> int:
    """Index of the explaining triple (argmax); -1 without triples."""
    if scores.size == 0:
        return -1
    return int(scores.argmax())


def score_documents(
    query_vec: np.ndarray,
    doc_triple_matrices: Dict[int, np.ndarray],
    strategy: ScoreStrategy,
) -> Dict[int, float]:
    """Score every document by its aggregated triple-fact similarity."""
    return {
        doc_id: aggregate(strategy, cosine_matrix(query_vec, matrix))
        for doc_id, matrix in doc_triple_matrices.items()
    }


def reference_retrieve(
    retriever: SingleRetriever,
    query_vec: np.ndarray,
    k: int = 10,
    strategy: Optional[ScoreStrategy] = None,
    candidate_ids: Optional[Sequence[int]] = None,
    keep_triple_scores: bool = False,
) -> List[RetrievedDocument]:
    """What :meth:`SingleRetriever.retrieve_by_vector` must return,
    computed document by document from the cached embeddings."""
    strategy = strategy or retriever.strategy
    store = retriever.store
    if candidate_ids is not None:
        doc_ids = list(dict.fromkeys(int(d) for d in candidate_ids))
        n_corpus = len(store.corpus)
        for doc_id in doc_ids:
            if not 0 <= doc_id < n_corpus:
                raise KeyError(
                    f"candidate doc_id {doc_id} not in corpus "
                    f"(valid range 0..{n_corpus - 1})"
                )
    else:
        doc_ids = store.doc_ids()
    results: List[RetrievedDocument] = []
    for doc_id in doc_ids:
        scores = cosine_matrix(query_vec, retriever.doc_embeddings(doc_id))
        index = matched_index(scores)
        triples = store.triples(doc_id)
        results.append(
            RetrievedDocument(
                doc_id=doc_id,
                title=store.corpus[doc_id].title,
                score=aggregate(strategy, scores),
                matched_triple=(
                    triples[index] if 0 <= index < len(triples) else None
                ),
                triple_scores=scores if keep_triple_scores else None,
            )
        )
    results.sort(key=lambda r: (-r.score, r.doc_id))
    return results[: max(k, 0)]
