"""Corpus, encoder and serving-state construction for the e2e benchmark.

Everything is a pure function of the workload seed, so the benchmark
process and every fleet worker process rebuild bit-identical encoders
(their fingerprints match the published store, and attaching it
re-encodes nothing). The encoder is an untrained MiniBERT (dim 64, two
layers, four heads) with IDF pooling fitted on the corpus text, in the
default float32 precision policy.

Corpora go through the real ingest path: OIE + Algorithm 1 extraction
and encoding by :class:`repro.ingest.pipeline.IngestPipeline`, which
also publishes the store (``store.json`` + ``embeddings/``) that the
serving side attaches.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from repro.data.corpus import Corpus
from repro.data.documents import build_corpus
from repro.data.hotpot import build_hotpot_dataset
from repro.data.stream import StreamConfig, stream_documents
from repro.data.world import World, WorldConfig
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.ingest.embedding_store import EmbeddingStore
from repro.ingest.pipeline import EMBEDDINGS_DIR, STORE_NAME
from repro.net.bootstrap import ServingBundle
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.updater.updater import QuestionUpdater, UpdaterConfig

ENCODER = EncoderConfig(dim=64, n_layers=2, n_heads=4)


@dataclass
class WorldState:
    """The generated inputs of one workload: corpus, questions, encoder."""

    seed: int
    corpus: Corpus
    #: unique HotpotQA-style question texts, in a seeded order
    questions: List[str]
    encoder: MiniBertEncoder
    updater: QuestionUpdater
    multihop_config: MultiHopConfig = field(default_factory=MultiHopConfig)


def build_world(
    seed: int, distractors: int = 0, n_questions: int = 0
) -> WorldState:
    """Seeded base ``World`` corpus plus ``distractors`` streamed documents.

    Questions come from ``build_hotpot_dataset`` over the base world (all
    splits); when ``n_questions`` asks for more unique texts than one
    dataset holds, datasets with further seeds rephrase the same chains.
    The vocabulary covers the corpus and the first dataset's questions,
    and the IDF pooling weights are fitted on the corpus text only, so
    the encoder (and its fingerprint) depends on neither the question
    count nor later document edits.
    """
    world = World(WorldConfig(seed=seed))
    base = build_corpus(world)
    documents = list(base)
    if distractors > 0:
        stream = StreamConfig(n_docs=distractors, seed=seed)
        documents += [
            dataclasses.replace(doc, doc_id=len(base) + doc.doc_id)
            for doc in stream_documents(stream)
        ]
    corpus = Corpus(documents)
    dataset = build_hotpot_dataset(world, base)
    first = sorted({q.text for q in dataset.train + dataset.test})
    texts = set(first)
    for extra in range(1, 64):
        if len(texts) >= n_questions:
            break
        rephrased = build_hotpot_dataset(world, base, seed=seed + extra)
        texts.update(q.text for q in rephrased.train + rephrased.test)
    if len(texts) < n_questions:
        raise ValueError(f"world {seed} yields only {len(texts)} questions")
    ordered = sorted(texts)
    order = np.random.RandomState(seed).permutation(len(ordered))
    questions = [ordered[i] for i in order]
    vocab = Vocab.from_texts([doc.text for doc in corpus] + first, tokenize)
    encoder = MiniBertEncoder(vocab, ENCODER)
    encoder.fit_idf([doc.text for doc in corpus])
    updater = QuestionUpdater(encoder, UpdaterConfig())
    return WorldState(seed, corpus, questions, encoder, updater)


def fleet_bundle(seed: int) -> ServingBundle:
    """Worker-side bundle factory (``builder:fleet_bundle``).

    Rebuilds the same encoder and updater as the benchmark process. The
    bundle's own triple store is empty: workers always serve the published
    ``store.json`` of their store directory, loaded against this corpus.
    Edits change document text only, never titles, so the corpus a worker
    rebuilds here names every result correctly in every generation.
    """
    state = build_world(seed)
    return ServingBundle(
        encoder=state.encoder,
        store=TripleStore(state.corpus),
        updater=state.updater,
        multihop_config=state.multihop_config,
    )


def attach_published(
    state: WorldState, cache_dir: Path, corpus: Optional[Corpus] = None
) -> SingleRetriever:
    """A retriever warm-attached to the store published in ``cache_dir``.

    Does what a fleet worker does on (re)load: load ``store.json``, open
    the embedding store and adopt its rows. Loads the matrix into memory
    (no memmap) so the retriever outlives later publishes that garbage-
    collect the data file.
    """
    triples = TripleStore.load(
        cache_dir / STORE_NAME, corpus or state.corpus
    )
    retriever = SingleRetriever(state.encoder, triples)
    embeddings = EmbeddingStore.open(cache_dir / EMBEDDINGS_DIR, mmap=False)
    if retriever.attach_embeddings(embeddings) == 0:
        raise RuntimeError(f"published store in {cache_dir} was rejected")
    retriever.ensure_ready()
    return retriever


def snapshot_published(cache_dir: Path, out: Path) -> Path:
    """Hard-linked copy of the store published in ``cache_dir``.

    Publishing replaces each file by an atomic rename and never rewrites
    one in place, so the links keep this generation's bytes after later
    publishes into ``cache_dir``. Costs a few links, not a copy.
    """
    out.mkdir(parents=True)
    os.link(cache_dir / STORE_NAME, out / STORE_NAME)
    shutil.copytree(
        cache_dir / EMBEDDINGS_DIR, out / EMBEDDINGS_DIR, copy_function=os.link
    )
    return out


def make_multihop(
    state: WorldState, retriever: SingleRetriever
) -> MultiHopRetriever:
    return MultiHopRetriever(retriever, state.updater, state.multihop_config)


def edit_corpus(
    corpus: Corpus, rng: np.random.RandomState, n_docs: int
) -> Corpus:
    """Append one sentence of another document to ``n_docs`` documents.

    Titles never change. The appended sentence carries another entity, so
    the edited documents extract new triples and answers can move.
    """
    documents = list(corpus)
    for doc_id in rng.choice(len(documents), size=n_docs, replace=False):
        donor = documents[int(rng.randint(len(documents)))]
        sentence = donor.text.split(". ")[0].rstrip(".") + "."
        target = documents[int(doc_id)]
        documents[int(doc_id)] = dataclasses.replace(
            target, text=f"{target.text} {sentence}"
        )
    return Corpus(documents)


@dataclass
class SetupTimes:
    """Wall seconds of one cold start, by stage."""

    world_s: float = 0.0
    ingest_s: float = 0.0
    shards_s: float = 0.0
    start_s: float = 0.0
    attach_ms: float = 0.0
    ingest_stats: Any = None  # the cold ingest's IngestStats

    @property
    def total_s(self) -> float:
        return self.world_s + self.ingest_s + self.shards_s + self.start_s


class Stopwatch:
    """Consecutive ``perf_counter`` laps."""

    def __init__(self) -> None:
        self._last = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        return elapsed
