"""The vectorized clue pass: updater clues read off the index.

``SingleRetriever.clue_candidates`` and ``repro.updater.updater.
clue_features`` replace a per-(question, hop-1 document) loop that
re-encoded the question and the document's triples. These tests pin the
pass to that loop (``tests/reference_updater.py``) under both float
precision policies, and check that it is independent of batch
composition, makes no encoder call of its own, counts its work exactly
and never reads a stale token table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_updater as reference
from repro.encoder import MiniBertEncoder
from repro.oie.triple import Triple
from repro.perf import COUNTERS
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.retriever import SingleRetriever, TripleStore
from repro.updater.updater import QuestionUpdater, clue_features

POLICIES = ("float32", "float64")


@pytest.fixture(scope="module")
def stacks(vocab, store, corpus, encoder):
    """(encoder, retriever, updater) per precision policy."""
    out = {}
    for policy in POLICIES:
        enc = MiniBertEncoder(vocab, encoder.config, precision=policy)
        enc.fit_idf([store.field_text(d.doc_id) for d in corpus])
        retriever = SingleRetriever(enc, store)
        retriever.refresh_embeddings()
        out[policy] = (enc, retriever, QuestionUpdater(enc))
    return out


@pytest.fixture(scope="module")
def questions(hotpot):
    return [q.text for q in hotpot.test]


def _multihop(retriever, updater, k_hop1=4):
    return MultiHopRetriever(
        retriever, updater, MultiHopConfig(k_hop1=k_hop1, k_hop2=3, k_paths=8)
    )


def _segments(retriever, questions, k=4):
    """(question index, doc id) of every hop-1 candidate of ``questions``."""
    matrix = retriever.encode_questions(questions)
    hits = retriever.retrieve_batch(matrix, k=k)
    pairs = [(qi, hit.doc_id) for qi, row in enumerate(hits) for hit in row]
    return matrix, pairs


def _choice_view(paths):
    return [(p.doc_ids, p.clue, p.updated_question) for p in paths]


def _path_view(paths):
    return [
        (p.doc_ids, p.score, p.hop_scores, p.clue, p.updated_question)
        for p in paths
    ]


@pytest.mark.parametrize("policy", POLICIES)
class TestReferenceParity:
    def test_feature_columns(self, stacks, questions, store, policy):
        enc, retriever, _ = stacks[policy]
        matrix, pairs = _segments(retriever, questions)
        candidates = retriever.clue_candidates(
            matrix, [d for _, d in pairs], [qi for qi, _ in pairs]
        )
        features = clue_features(questions, candidates)
        bounds = list(candidates.offsets) + [features.shape[0]]
        worst = 0.0
        for (qi, doc_id), start, stop in zip(pairs, bounds, bounds[1:]):
            want = reference.scalar_features(
                enc, questions[qi], store.triples(doc_id)
            )
            got = features[start:stop]
            assert got.shape == want.shape
            # idf-novelty, novel capitals, length: exactly equal
            assert np.array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
            worst = max(worst, float(np.abs(got[:, 2] - want[:, 2]).max()))
        assert worst <= reference.COSINE_TOLERANCE[policy]

    def test_chosen_clue_matches_up_to_near_ties(
        self, stacks, questions, store, policy
    ):
        _, retriever, updater = stacks[policy]
        matrix, pairs = _segments(retriever, questions)
        chosen = updater.select_clue(
            questions,
            retriever.clue_candidates(
                matrix, [d for _, d in pairs], [qi for qi, _ in pairs]
            ),
        )
        # a cosine off by the tolerance moves a head score by at most
        # |w_cos| times as much
        slack = reference.COSINE_TOLERANCE[policy] * max(
            1.0, abs(float(updater.head.weight.data[2, 0]))
        )
        agree = 0
        for (qi, doc_id), local in zip(pairs, chosen.tolist()):
            triples = store.triples(doc_id)
            want = reference.select_clue(updater, questions[qi], triples)
            if local == (-1 if want is None else want):
                agree += 1
                continue
            scores = reference.head_scores(updater, questions[qi], triples)
            assert scores.max() - scores[local] <= slack
        assert agree >= 0.95 * len(pairs)

    def test_paths_identical_to_reference_pipeline(
        self, stacks, questions, store, policy, monkeypatch
    ):
        _, retriever, updater = stacks[policy]
        multihop = _multihop(retriever, updater)
        got = multihop.retrieve_paths_batch(questions)

        # the reference pipeline: the same retrieval with every clue
        # re-encoded per (question, hop-1 document)
        def segments(self, query_matrix, doc_ids, owners):
            return list(zip(doc_ids, owners))

        def reference_clues(self, batch_questions, pairs):
            picks = [
                reference.select_clue(
                    self, batch_questions[qi], store.triples(doc_id)
                )
                for doc_id, qi in pairs
            ]
            return np.asarray([-1 if p is None else p for p in picks])

        monkeypatch.setattr(SingleRetriever, "clue_candidates", segments)
        monkeypatch.setattr(QuestionUpdater, "select_clue", reference_clues)
        want = multihop.retrieve_paths_batch(questions)
        assert [_path_view(p) for p in got] == [_path_view(p) for p in want]


class TestBatchComposition:
    @settings(max_examples=15, deadline=None)
    @given(cuts=st.sets(st.integers(min_value=1, max_value=9), max_size=4))
    def test_any_split_matches_one_at_a_time(
        self, stacks, questions, cuts
    ):
        _, retriever, updater = stacks["float32"]
        multihop = _multihop(retriever, updater)
        subset = questions[:10]
        bounds = [0] + sorted(cuts) + [len(subset)]
        split = []
        for start, stop in zip(bounds, bounds[1:]):
            split.extend(multihop.retrieve_paths_batch(subset[start:stop]))
        alone = [multihop.retrieve_paths(q) for q in subset]
        # clues and paths are exact; scores carry the encoder's and the
        # scoring matmul's batch-shape jitter (a float32 ulp or two)
        assert [_choice_view(p) for p in split] == [
            _choice_view(p) for p in alone
        ]
        np.testing.assert_allclose(
            [p.score for row in split for p in row],
            [p.score for row in alone for p in row],
            atol=1e-6,
        )


class TestEncoderWork:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("k_hop1", [1, 4, 8])
    def test_two_encoder_calls_per_batch(
        self, stacks, questions, batch, k_hop1, monkeypatch
    ):
        enc, retriever, updater = stacks["float32"]
        retriever.ensure_ready()
        calls = []
        encode = enc.encode_numpy

        def counted(texts, *args, **kwargs):
            calls.append(len(texts))
            return encode(texts, *args, **kwargs)

        monkeypatch.setattr(enc, "encode_numpy", counted)
        paths = _multihop(retriever, updater, k_hop1).retrieve_paths_batch(
            questions[:batch]
        )
        assert any(p.clue is not None for row in paths for p in row)
        # the questions, then every clue text of the batch
        assert len(calls) == 2
        assert calls[0] == batch

    def test_counter_counts_candidate_rows_exactly(
        self, stacks, questions, store
    ):
        _, retriever, updater = stacks["float32"]
        _, pairs = _segments(retriever, questions[:5])
        expected = sum(len(store.triples(d)) for _, d in pairs)
        before = COUNTERS.snapshot()["clue_triples_scored"]
        _multihop(retriever, updater).retrieve_paths_batch(questions[:5])
        after = COUNTERS.snapshot()["clue_triples_scored"]
        assert after - before == expected


class TestTokenTableFreshness:
    @staticmethod
    def _copy(store):
        copy = TripleStore(store.corpus)
        for doc_id in store.doc_ids():
            copy.put(doc_id, store.triples(doc_id))
        return copy

    @staticmethod
    def _features_of(retriever, question, doc_id):
        matrix = retriever.encode_questions([question])
        candidates = retriever.clue_candidates(matrix, [doc_id], [0])
        return clue_features([question], candidates)

    def test_edit_then_refresh_or_attach_rebuilds(self, encoder, store, questions):
        edited = self._copy(store)
        retriever = SingleRetriever(encoder, edited)
        retriever.refresh_embeddings()
        question = questions[0]
        doc_id = store.doc_ids()[0]
        self._features_of(retriever, question, doc_id)  # builds the table

        # a triple token the encoder vocab has never seen: novel, even
        # though its vocab id is UNK
        fresh = [
            Triple("Zorblax", "founded", "Quuxville Rovers"),
            Triple(store.corpus[doc_id].title, "admired", "zorblax"),
        ]
        edited.put(doc_id, fresh)
        retriever.refresh_embeddings()
        got = self._features_of(retriever, question, doc_id)
        want = reference.scalar_features(encoder, question, fresh)
        assert np.array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
        assert got[0, 0] == 1.0  # every token of the first triple is new

        again = [Triple("Quuxville Rovers", "won", "the Blorp Cup")]
        edited.put(doc_id, again)
        source = SingleRetriever(encoder, edited)
        source.refresh_embeddings()
        assert retriever.attach_embeddings(source.export_embeddings()) > 0
        got = self._features_of(retriever, question, doc_id)
        want = reference.scalar_features(encoder, question, again)
        assert got.shape == want.shape == (1, 4)
        assert np.array_equal(got[:, [0, 1, 3]], want[:, [0, 1, 3]])
        assert abs(got[0, 2] - want[0, 2]) <= reference.COSINE_TOLERANCE[
            "float32"
        ]
