"""Micro-benchmark: per-document loop vs single-matmul retrieval.

Builds a synthetic 200-document corpus with a deterministic hashing
encoder (no transformer forward — the benchmark isolates the *scoring*
path, which is what the vectorized rewrite changed), then times the
per-document reference scorer (``tests/reference_scoring.py``) against
`retrieve_by_vector` / `retrieve_batch` and writes ``BENCH_retrieval.json``
next to this file.

Marked ``perf``; tier-1 (`testpaths = tests`) never collects it, so the
suite stays fast.
"""

import sys
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.corpus import Corpus, Document
from repro.data.world import Entity
from repro.oie.triple import Triple
from repro.perf import COUNTERS
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.retriever.strategies import ONE_FACT, ScoreStrategy
from repro.storage.atomic import atomic_write_json

# the reference scorer is a test oracle and lives with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_scoring import reference_retrieve  # noqa: E402

pytestmark = pytest.mark.perf

N_DOCS = 200
TRIPLES_PER_DOC = 8
N_QUERIES = 50
DIM = 64
OUT_PATH = Path(__file__).parent / "BENCH_retrieval.json"


class HashingEncoder:
    """Deterministic random-projection stand-in for MiniBERT.

    Each distinct text maps to a fixed pseudo-random vector, so retrieval
    is reproducible and encoding costs nothing — the timings below measure
    scoring, not the transformer.
    """

    def __init__(self, dim: int = DIM):
        self.config = SimpleNamespace(dim=dim)

    def _vector(self, text: str) -> np.ndarray:
        seed = zlib.crc32(text.encode("utf-8"))
        return np.random.RandomState(seed).randn(self.config.dim)

    def encode_numpy(self, texts, batch_size: int = 64) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.config.dim))
        return np.stack([self._vector(t) for t in texts])


@pytest.fixture(scope="module")
def synthetic_retriever():
    rng = np.random.RandomState(17)
    words = [f"tok{i}" for i in range(400)]
    documents = []
    store_rows = {}
    for doc_id in range(N_DOCS):
        title = f"Doc {doc_id}"
        triples = [
            Triple(
                subject=title,
                predicate=str(words[rng.randint(len(words))]),
                object=" ".join(
                    words[rng.randint(len(words))] for _ in range(3)
                ),
            )
            for _ in range(TRIPLES_PER_DOC)
        ]
        documents.append(
            Document(
                doc_id=doc_id,
                title=title,
                text=" ".join(t.flatten() for t in triples),
                entity=Entity(uid=doc_id, name=title, kind="synthetic"),
            )
        )
        store_rows[doc_id] = triples
    store = TripleStore(Corpus(documents))
    for doc_id, triples in store_rows.items():
        store.put(doc_id, triples)
    retriever = SingleRetriever(HashingEncoder(), store)
    retriever.refresh_embeddings()
    return retriever


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_speedup(synthetic_retriever):
    retriever = synthetic_retriever
    rng = np.random.RandomState(3)
    queries = rng.randn(N_QUERIES, DIM)
    strategy = ScoreStrategy(ONE_FACT)

    def run_legacy():
        for row in queries:
            reference_retrieve(retriever, row, k=10, strategy=strategy)

    def run_vectorized():
        for row in queries:
            retriever.retrieve_by_vector(row, k=10, strategy=strategy)

    def run_batched():
        retriever.retrieve_batch(queries, k=10, strategy=strategy)

    # sanity: same answers before timing
    sample = queries[0]
    fast = retriever.retrieve_by_vector(sample, k=10, strategy=strategy)
    slow = reference_retrieve(retriever, sample, k=10, strategy=strategy)
    assert [r.doc_id for r in fast] == [r.doc_id for r in slow]
    np.testing.assert_allclose(
        [r.score for r in fast], [r.score for r in slow], atol=1e-6
    )

    COUNTERS.reset()
    legacy_s = _time(run_legacy)
    vectorized_s = _time(run_vectorized)
    batched_s = _time(run_batched)
    speedup = legacy_s / vectorized_s
    batch_speedup = legacy_s / batched_s

    payload = {
        "n_docs": N_DOCS,
        "triples_per_doc": TRIPLES_PER_DOC,
        "n_queries": N_QUERIES,
        "dim": DIM,
        "legacy_seconds": legacy_s,
        "vectorized_seconds": vectorized_s,
        "batched_seconds": batched_s,
        "speedup_vectorized": speedup,
        "speedup_batched": batch_speedup,
        "queries_per_second_vectorized": N_QUERIES / vectorized_s,
        "queries_per_second_batched": N_QUERIES / batched_s,
        "counters": COUNTERS.snapshot(),
    }
    atomic_write_json(OUT_PATH, payload, indent=2)
    print(
        f"\nretrieval throughput: legacy {legacy_s * 1e3:.1f} ms, "
        f"vectorized {vectorized_s * 1e3:.1f} ms ({speedup:.1f}x), "
        f"batched {batched_s * 1e3:.1f} ms ({batch_speedup:.1f}x)"
    )
    # the acceptance bar: single-matmul scoring is at least 3x the loop
    assert speedup >= 3.0, payload
    assert batch_speedup >= speedup * 0.9, payload
