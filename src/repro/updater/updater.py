"""The learned question updater (paper Sec. III-C).

The paper scores each candidate triple by encoding the concatenation
``L = q ⊕ t_i`` and, during training, comparing it to the encoding of the
ground next-hop question ``q'``; the highest-scoring triple becomes the
updater-clue. We realize this as a selector: a linear head over four
novelty statistics of ``(q, t_i)`` produces the clue score, trained
listwise so the gold clue (the triple whose concatenation is most similar
to the ground ``q'`` — exactly the paper's training-time criterion)
outranks its siblings. At inference no ``q'`` is needed: the head alone
scores the candidates in O(|T_d|).

:func:`clue_features` is the one feature function: serving feeds it the
indexed rows (``SingleRetriever.clue_candidates``, no encoder call),
training fresh encodes (:meth:`QuestionUpdater.encoded_candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus
from repro.data.hotpot import HotpotQuestion
from repro.encoder.minibert import MiniBertEncoder
from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.oie.triple import Triple
from repro.perf import COUNTERS
from repro.retriever.single import ClueCandidates, TokenTable
from repro.retriever.store import TripleStore
from repro.retriever.strategies import (
    ScoreStrategy,
    aggregate_segments,
    l2_normalize_rows,
    l2_normalize_vec,
)
from repro.text.tokenize import tokenize
from repro.updater.golden import ground_clue_index
from repro.updater.question import compose_updated_question


@dataclass
class UpdaterConfig:
    """Updater head training knobs."""

    epochs: int = 2
    lr: float = 1e-2
    logit_scale: float = 1.0
    max_candidates: int = 12
    clip_norm: float = 5.0
    seed: int = 23


def clue_features(
    questions: Sequence[str], candidates: ClueCandidates
) -> np.ndarray:
    """(n, 4) novelty statistics of every candidate against its question.

    [idf-weighted novelty fraction, novel capitalized words, cosine,
    normalized triple length]. "This triple introduces a novel rare
    entity" is a *statistic* of the token sets, not a fixed direction in
    embedding space, so a linear head cannot recover it from bag-like
    embeddings alone. Novelty is decided on token strings: a triple
    token is novel when ``tokenize(question)`` lacks it, a capitalized
    whitespace word when its lower-cased form is not among those tokens.
    """
    table = candidates.tokens
    owners = candidates.owners[:, None]
    COUNTERS.incr("clue_triples_scored", owners.shape[0])
    # seen[q, i]: question q has interned string i; the spare last
    # column (padding, and question tokens no triple has) reads as seen
    seen = np.zeros((len(questions), len(table.ids) + 1), dtype=bool)
    seen[:, -1] = True
    for index, question in enumerate(questions):
        seen[index, [table.ids.get(t, -1) for t in set(tokenize(question))]] = True
    tokens = table.tokens[candidates.rows]
    weights = table.weights[candidates.rows]
    # cumulative sums add left to right, as the scalar ``sum`` does
    total_idf = weights.cumsum(axis=1)[:, -1]
    novel_idf = (weights * ~seen[owners, tokens]).cumsum(axis=1)[:, -1]
    novel_caps = (~seen[owners, table.caps[candidates.rows]]).sum(axis=1)
    return np.column_stack(
        [
            novel_idf / np.where(total_idf == 0.0, 1.0, total_idf),
            np.minimum(novel_caps, 5) / 5.0,
            candidates.cosines,
            np.minimum((tokens >= 0).sum(axis=1), 30) / 30.0,
        ]
    )


class QuestionUpdater:
    """Selects the updater-clue triple and composes the new question."""

    def __init__(self, encoder: MiniBertEncoder, config: Optional[UpdaterConfig] = None):
        self.encoder = encoder
        self.config = config or UpdaterConfig()
        rng = np.random.RandomState(self.config.seed)
        self.head = Linear(4, 1, rng=rng)  # one weight per clue feature

    # -- scoring ---------------------------------------------------------
    def encoded_candidates(
        self, question: str, triples: Sequence[Triple]
    ) -> ClueCandidates:
        """One segment of candidates whose cosines come from fresh encodes."""
        texts = [t.flatten() for t in triples]
        question_vec = l2_normalize_vec(self.encoder.encode_numpy([question])[0])
        cosines = l2_normalize_rows(self.encoder.encode_numpy(texts)) @ question_vec
        return ClueCandidates(
            TokenTable.build(texts, self.encoder),
            rows=np.arange(len(texts)),
            offsets=np.zeros(1, dtype=np.int64),
            owners=np.zeros(len(texts), dtype=np.int64),
            cosines=cosines,
        )

    def features(self, question: str, triples: Sequence[Triple]) -> np.ndarray:
        """Feature matrix of one question's candidates, from the encoder."""
        return clue_features([question], self.encoded_candidates(question, triples))

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Head output, row by row: independent of the other rows."""
        weight = self.head.weight.data.reshape(-1)
        return (features * weight).sum(axis=1) + float(self.head.bias.data[0])

    def score_triples(
        self, question: str, triples: Sequence[Triple]
    ) -> np.ndarray:
        """Clue scores for every candidate triple (no gradients)."""
        if not triples:
            return np.zeros(0)
        return self.logits(self.features(question, triples))

    def select_clue(
        self, questions: Sequence[str], candidates: ClueCandidates
    ) -> np.ndarray:
        """Segment-local index of every segment's clue (-1 when empty):
        one feature pass, one head pass and a segment argmax whose ties
        go to the lowest triple index."""
        logits = self.logits(clue_features(questions, candidates))
        return aggregate_segments(logits, candidates.offsets, ScoreStrategy())[1]

    def update_question(self, question: str, triples: Sequence[Triple]) -> str:
        """One updater step: pick the clue and compose ``q'``."""
        if not triples:
            return question
        index = int(self.score_triples(question, triples).argmax())
        return compose_updated_question(question, triples[index])


class UpdaterTrainer:
    """Trains the updater head listwise (the encoder stays fixed)."""

    def __init__(self, updater: QuestionUpdater, config: Optional[UpdaterConfig] = None):
        self.updater = updater
        self.config = config or updater.config
        self._rng = np.random.RandomState(self.config.seed)

    def build_examples(
        self,
        questions: Sequence[HotpotQuestion],
        corpus: Corpus,
        store: TripleStore,
    ) -> List[Tuple[str, List[Triple], int]]:
        """(question, hop-1 candidate triples, gold index) instances.

        Only bridge questions supervise the updater — for comparison
        questions both documents match the original question directly.
        """
        examples = []
        for question in questions:
            if not question.is_bridge or len(question.gold_titles) < 2:
                continue
            hop1 = corpus.by_title(question.gold_titles[0])
            hop2 = corpus.by_title(question.gold_titles[1])
            if hop1 is None or hop2 is None:
                continue
            triples = store.triples(hop1.doc_id)[: self.config.max_candidates]
            gold = ground_clue_index(triples, hop2)
            if gold is None or len(triples) < 2:
                continue
            examples.append((question.text, triples, gold))
        return examples

    def train(
        self,
        examples: Sequence[Tuple[str, List[Triple], int]],
        verbose: bool = False,
    ) -> List[float]:
        """Listwise training; returns per-epoch mean losses."""
        cfg = self.config
        updater = self.updater
        parameters = updater.head.parameters()
        optimizer = Adam(parameters, lr=cfg.lr)
        losses: List[float] = []
        for epoch in range(cfg.epochs):
            order = self._rng.permutation(len(examples))
            epoch_losses = []
            for i in order:
                question, triples, gold = examples[i]
                features = Tensor(updater.features(question, triples))
                logits = updater.head(features).reshape(-1) * cfg.logit_scale
                loss = -logits.softmax(axis=-1).log()[gold]
                for parameter in parameters:
                    parameter.zero_grad()
                loss.backward()
                optimizer.clip_grad_norm(cfg.clip_norm)
                optimizer.step()
                epoch_losses.append(loss.item())
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
            losses.append(mean_loss)
            if verbose:  # pragma: no cover - console output
                print(f"[updater] epoch {epoch + 1}/{cfg.epochs} "
                      f"loss={mean_loss:.4f}")
        return losses
