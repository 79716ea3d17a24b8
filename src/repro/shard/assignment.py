"""Document-to-shard assignment: contiguous ranges or coarse centroids.

Two modes, both deterministic:

* ``range`` — near-equal contiguous doc-id chunks. Zero-cost to compute,
  shard matrices stay *views* into the stacked embedding matrix, and the
  shard concatenation preserves ascending doc order. The right default
  when queries must stay exact (``nprobe = n_shards``).
* ``centroid`` — seeded spherical k-means over per-document mean
  embeddings, the IVF-style coarse quantization layer. Documents cluster
  around semantic centroids, so pruning to the ``nprobe`` closest shards
  keeps recall high. This plays the role the canopy/HAC machinery in
  :mod:`repro.triples` plays for triples — coarse groups first, fine
  scoring only inside the groups a query can plausibly hit.

Every tie (equal centroid distances, equal scores) breaks toward the
lower index, so the assignment is a pure function of its inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.precision import ACCUM_DTYPE
from repro.retriever.strategies import l2_normalize_rows, segment_lengths

MODES = ("range", "centroid")

#: k-means refinement passes; fixed (not convergence-tested) so the
#: assignment is deterministic and O(iterations * n_docs * n_shards).
_KMEANS_ITERATIONS = 10


def segment_means(
    matrix: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-document mean of embedding rows (zero rows for empty docs)."""
    # assignment math always accumulates in the (float64) accumulator
    # dtype regardless of the store dtype: shard labels must not change
    # when the precision policy does
    matrix = np.asarray(matrix, dtype=ACCUM_DTYPE)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_docs = offsets.shape[0]
    dim = matrix.shape[1] if matrix.ndim == 2 else 0
    means = np.zeros((n_docs, dim), dtype=ACCUM_DTYPE)
    if n_docs == 0 or matrix.shape[0] == 0:
        return means
    lengths = segment_lengths(offsets, matrix.shape[0])
    nonempty = lengths > 0
    if not nonempty.any():
        return means
    sums = np.add.reduceat(matrix, offsets[nonempty], axis=0)
    # reduceat over non-empty starts only: consecutive non-empty starts
    # bracket exactly one document's rows (see aggregate_segments)
    means[nonempty] = sums / lengths[nonempty, None]
    return means


def assign_range(n_docs: int, n_shards: int) -> np.ndarray:
    """Shard label per document position: contiguous near-equal chunks."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    labels = np.zeros(n_docs, dtype=np.int64)
    if n_docs == 0:
        return labels
    bounds = np.linspace(0, n_docs, n_shards + 1).astype(np.int64)
    for shard_id in range(n_shards):
        labels[bounds[shard_id] : bounds[shard_id + 1]] = shard_id
    return labels


def assign_centroid(
    doc_vectors: np.ndarray, n_shards: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(labels, centroids) from seeded spherical k-means over documents.

    Initial centroids are the normalized vectors of ``n_shards`` evenly
    spaced documents (deterministic — no RNG), refined for a fixed number
    of passes. Nearest-centroid ties break toward the lower centroid id;
    a centroid that loses all members keeps its previous position.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    vectors = l2_normalize_rows(np.asarray(doc_vectors, dtype=ACCUM_DTYPE))
    n_docs = vectors.shape[0]
    if n_docs == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros((n_shards, doc_vectors.shape[1]), dtype=ACCUM_DTYPE),
        )
    seeds = np.linspace(0, n_docs - 1, min(n_shards, n_docs)).astype(
        np.int64
    )
    centroids = np.zeros((n_shards, vectors.shape[1]), dtype=ACCUM_DTYPE)
    centroids[: seeds.shape[0]] = vectors[seeds]
    labels = np.zeros(n_docs, dtype=np.int64)
    for _ in range(_KMEANS_ITERATIONS):
        # cosine similarity against unit centroids; argmax returns the
        # FIRST maximal index, i.e. ties already break toward low ids
        similarity = vectors @ centroids.T
        labels = np.argmax(similarity, axis=1).astype(np.int64)
        for shard_id in range(n_shards):
            members = vectors[labels == shard_id]
            if members.shape[0] == 0:
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0.0:
                centroids[shard_id] = mean / norm
    return labels, centroids


def assign_documents(
    mode: str,
    n_docs: int,
    n_shards: int,
    doc_vectors: np.ndarray = None,
) -> np.ndarray:
    """Shard label per document position under ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown shard mode {mode!r} (expected {MODES})")
    if mode == "range" or n_shards == 1:
        return assign_range(n_docs, n_shards)
    if doc_vectors is None:
        raise ValueError("centroid assignment needs per-document vectors")
    labels, _ = assign_centroid(doc_vectors, n_shards)
    return labels
