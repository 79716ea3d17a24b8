"""The per-candidate reference clue scorer: the oracle the vectorized
clue pass is pinned to.

Re-encodes the question and one document's triples, then computes the
four novelty statistics in a Python loop over the triples, the way
``QuestionUpdater`` scored clues before it read them off the index. It
makes two encoder calls per (question, document) pair, so only the
parity tests call it.
"""

from typing import Optional, Sequence

import numpy as np

from repro.oie.triple import Triple
from repro.retriever.strategies import l2_normalize_rows, l2_normalize_vec
from repro.text.tokenize import tokenize

#: pinned |cosine - reference cosine| bound per precision policy: the
#: index cosine reads a stored row of that dtype, the reference a fresh
#: float64 or float32 encode of one document alone
COSINE_TOLERANCE = {"float32": 1e-6, "float64": 1e-12}


def scalar_features(encoder, question: str, triples: Sequence[Triple]) -> np.ndarray:
    """(n, 4) novelty statistics per candidate triple.

    [idf-weighted novelty fraction, novel capitalized tokens,
    cos(enc(t), enc(q)), normalized triple length]
    """
    vocab = encoder.vocab
    weights = encoder._token_weights
    question_tokens = set(tokenize(question))
    question_vec = l2_normalize_vec(encoder.encode_numpy([question])[0])
    triple_vecs = encoder.encode_numpy([t.flatten() for t in triples])
    cosines = l2_normalize_rows(triple_vecs) @ question_vec
    rows = []
    for i, triple in enumerate(triples):
        tokens = tokenize(triple.flatten())
        total_idf = sum(weights[vocab.id_of(t)] for t in tokens) or 1.0
        novel_idf = sum(
            weights[vocab.id_of(t)]
            for t in tokens
            if t not in question_tokens
        )
        novel_caps = sum(
            1
            for word in triple.flatten().split()
            if word[:1].isupper() and word.lower() not in question_tokens
        )
        rows.append(
            [
                novel_idf / total_idf,
                min(novel_caps, 5) / 5.0,
                float(cosines[i]),
                min(len(tokens), 30) / 30.0,
            ]
        )
    return np.asarray(rows)


def head_scores(updater, question: str, triples: Sequence[Triple]) -> np.ndarray:
    """The reference head scores of one document's candidates."""
    if not triples:
        return np.zeros(0)
    features = scalar_features(updater.encoder, question, triples)
    return (features @ updater.head.weight.data).reshape(-1) + float(
        updater.head.bias.data[0]
    )


def select_clue(updater, question: str, triples: Sequence[Triple]) -> Optional[int]:
    """Index of the reference clue (first maximum), None without triples."""
    scores = head_scores(updater, question, triples)
    return int(scores.argmax()) if scores.size else None
