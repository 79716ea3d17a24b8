"""Micro-benchmark: encoder token throughput, graph vs fused inference.

Encodes a generated world's field texts twice through the same
:class:`MiniBertEncoder` weights:

* **graph** — ``encode_graph`` (``tests/reference_encoder.py``), the
  autograd reference path
  (``Tensor`` ops in float64, cast at the boundary), and
* **fused** — ``encode_numpy``, the :class:`repro.nn.infer` session
  (flat plan of fused numpy kernels, length-bucketed batches, compute
  in the precision policy's dtype).

Both legs count the same tokens, so tokens/sec is directly comparable.

Gates (from the fused-inference issue):

* fused tokens/sec >= 2x graph tokens/sec — asserted only on hosts with
  >= 4 CPUs; smaller boxes still record the ratio with ``cpu_limited``
  set so readers don't mistake a starved BLAS for a regression;
* in float64 mode the fused [CLS] vector is <= 1e-6 from the graph's
  (unconditional — parity doesn't depend on core count);
* downstream top-k retrieval over the benchmark world is identical
  (doc ids and matched triples) whether the store was encoded by the
  graph path or the fused path (unconditional).

Writes ``BENCH_encoder.json`` next to this file. Marked ``perf`` +
``encoder``; tier-1 (``testpaths = tests``) never collects it.
"""

import functools
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import World, WorldConfig, build_corpus
from repro.encoder import EncoderConfig, MiniBertEncoder
from repro.nn.infer import InferenceSession
from repro.precision import F64
from repro.retriever import SingleRetriever, build_triple_store
from repro.storage.atomic import atomic_write_json
from repro.text import Vocab, tokenize

# the graph reference path is a test oracle and lives with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_encoder import encode_graph  # noqa: E402

pytestmark = [pytest.mark.perf, pytest.mark.encoder]

OUT_PATH = Path(__file__).parent / "BENCH_encoder.json"
BENCH_WORLD = WorldConfig(
    n_persons=48,
    n_clubs=12,
    n_bands=12,
    n_cities=10,
    n_countries=4,
    n_companies=8,
    n_films=8,
    n_universities=4,
    n_awards=4,
    seed=11,
)
ENCODER_CONFIG = EncoderConfig(dim=64, n_layers=2, n_heads=4, max_len=64)
BATCH_SIZE = 64
REPEATS = 3
MIN_SPEEDUP = 2.0
K = 5

QUESTIONS = [
    "Where was the first person born ?",
    "Which club does the historian play for ?",
    "What is linked to the novelist ?",
    "Which city is the band from ?",
]


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def bench_setup():
    """(texts, store, corpus, vocab) for the benchmark world."""
    world = World(BENCH_WORLD)
    corpus = build_corpus(world)
    store = build_triple_store(corpus)
    texts = [store.field_text(d.doc_id) for d in corpus]
    vocab = Vocab.from_texts([d.text for d in corpus], tokenize)
    return texts, store, corpus, vocab


def _encoder(vocab, texts, **kwargs) -> MiniBertEncoder:
    encoder = MiniBertEncoder(vocab, ENCODER_CONFIG, **kwargs)
    encoder.fit_idf(texts)
    return encoder


def _time_encode(encode, texts) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        encode(texts, batch_size=BATCH_SIZE)
        best = min(best, time.perf_counter() - start)
    return best


def test_encoder_throughput(bench_setup):
    texts, store, corpus, vocab = bench_setup
    cpus = _cpus()
    cpu_limited = cpus < 4
    encoder = _encoder(vocab, texts)
    total_tokens = sum(len(encoder.text_to_ids(t)) for t in texts)

    # -- throughput: graph reference vs fused session --------------------
    encoder.encode_numpy(texts[:8])  # warm (bake the session, touch BLAS)
    graph_encode = functools.partial(encode_graph, encoder)
    graph_encode(texts[:8])
    graph_s = _time_encode(graph_encode, texts)
    fused_s = _time_encode(encoder.encode_numpy, texts)
    graph_tps = total_tokens / graph_s
    fused_tps = total_tokens / fused_s
    speedup = fused_tps / graph_tps if graph_tps else 0.0

    # -- parity: fused [CLS] vs graph [CLS] in float64 -------------------
    cls_config = EncoderConfig(dim=64, n_layers=2, n_heads=4, max_len=64,
                               pooling="cls")
    cls_encoder = MiniBertEncoder(vocab, cls_config, precision="float64")
    sample = texts[:32]
    ids, mask = cls_encoder._pad_bucket(
        [cls_encoder.text_to_ids(t) for t in sample], F64
    )
    model = cls_encoder.model.eval()
    graph_cls = model.encode_cls(ids, mask=mask).numpy()
    fused_cls = InferenceSession(model, dtype=F64).encode_cls(ids, mask=mask)
    cls_max_diff = float(np.abs(fused_cls - graph_cls).max())

    # -- downstream: top-k identical graph-encoded vs fused-encoded ------
    graph_encoder = _encoder(vocab, texts)
    graph_encoder.encode_numpy = functools.partial(encode_graph, graph_encoder)
    fused_encoder = _encoder(vocab, texts)
    graph_retriever = SingleRetriever(graph_encoder, store)
    graph_retriever.refresh_embeddings()
    fused_retriever = SingleRetriever(fused_encoder, store)
    fused_retriever.refresh_embeddings()
    topk_identical = True
    for question in QUESTIONS:
        graph_docs = graph_retriever.retrieve(question, k=K)
        fused_docs = fused_retriever.retrieve(question, k=K)
        if [d.doc_id for d in graph_docs] != [d.doc_id for d in fused_docs]:
            topk_identical = False
        if [str(d.matched_triple) for d in graph_docs] != [
            str(d.matched_triple) for d in fused_docs
        ]:
            topk_identical = False

    payload = {
        "n_docs": len(texts),
        "total_tokens": int(total_tokens),
        "dim": ENCODER_CONFIG.dim,
        "n_layers": ENCODER_CONFIG.n_layers,
        "n_heads": ENCODER_CONFIG.n_heads,
        "batch_size": BATCH_SIZE,
        "cpus": cpus,
        "cpu_limited": cpu_limited,
        "graph_seconds": graph_s,
        "fused_seconds": fused_s,
        "graph_tokens_per_sec": graph_tps,
        "fused_tokens_per_sec": fused_tps,
        "speedup": speedup,
        "cls_max_abs_diff_float64": cls_max_diff,
        "topk_identical": topk_identical,
        "k": K,
    }
    atomic_write_json(OUT_PATH, payload, indent=2)
    print(
        f"\nencoder throughput @ {len(texts)} docs / {total_tokens} tokens: "
        f"graph {graph_tps:.0f} tokens/s, fused {fused_tps:.0f} tokens/s "
        f"({speedup:.1f}x), float64 [CLS] max diff {cls_max_diff:.2e}, "
        f"top-{K} identical: {topk_identical}"
    )
    # parity and determinism gates are unconditional
    assert cls_max_diff <= 1e-6, payload
    assert topk_identical, payload
    # the speedup bar only means something with real cores behind BLAS
    if not cpu_limited:
        assert speedup >= MIN_SPEEDUP, payload
