"""Sharded, ANN-pruned retrieval: split the index, prune, merge exactly.

The gateway to the million-document regime the dense-retrieval line
(MDR, Path Retriever — see PAPERS.md) operates in: query cost follows
index *structure*, not total corpus size.

* :mod:`repro.shard.assignment` — doc-id-range or coarse-centroid
  (seeded k-means) document-to-shard assignment.
* :mod:`repro.shard.plan` — :class:`ShardPlan`: per-shard scoring with
  IVF-style centroid pruning (``nprobe``) and an exact global merge.
* :mod:`repro.shard.merge` — the deterministic ``(score desc, id asc)``
  top-k every ranking site routes through.
* :mod:`repro.shard.store` — :class:`ShardedEmbeddingStore`: shards
  persisted as sibling :class:`~repro.ingest.embedding_store.
  EmbeddingStore` directories under one sharded manifest.
"""

from repro.shard.assignment import (
    MODES,
    assign_centroid,
    assign_documents,
    assign_range,
    segment_means,
)
from repro.shard.merge import recall_at_k, topk_doc_order
from repro.shard.plan import QueryScores, Shard, ShardPlan
from repro.shard.store import (
    SHARDED_MANIFEST_NAME,
    ShardedEmbeddingStore,
    ShardedStoreError,
)

__all__ = [
    "MODES",
    "QueryScores",
    "SHARDED_MANIFEST_NAME",
    "Shard",
    "ShardPlan",
    "ShardedEmbeddingStore",
    "ShardedStoreError",
    "assign_centroid",
    "assign_documents",
    "assign_range",
    "recall_at_k",
    "segment_means",
    "topk_doc_order",
]
