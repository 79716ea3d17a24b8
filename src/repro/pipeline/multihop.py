"""Iterative retriever-updater document-path retrieval.

Hop 1 fetches candidate documents with the single retriever; for each
candidate the question updater selects an updater-clue triple from the
document's indexed triples and composes ``q'``; hop 2 runs the single
retriever with ``q'``. A path's score is the
sum of its per-hop scores (paper Eq. 8) — the "Triple-fact Retrieval-base"
configuration. Rescoring the resulting candidate paths with the path
ranking model gives the full "Triple-fact Retrieval".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.oie.triple import Triple
from repro.precision import PrecisionLike
from repro.retriever.single import RetrievedDocument, SingleRetriever
from repro.retriever.strategies import l2_normalize_rows
from repro.updater.question import compose_updated_question
from repro.updater.updater import QuestionUpdater


@dataclass
class DocumentPath:
    """One candidate reasoning path (hop-1 doc, hop-2 doc)."""

    doc_ids: Tuple[int, ...]
    titles: Tuple[str, ...]
    score: float
    hop_scores: Tuple[float, ...] = ()
    clue: Optional[Triple] = None  # updater-clue used between hops
    matched_triples: Tuple[Optional[Triple], ...] = ()
    updated_question: Optional[str] = None

    @property
    def title_set(self) -> frozenset:
        return frozenset(self.titles)

    def explain(self) -> str:
        """Human-readable account of the reasoning chain."""
        lines = [f"path score {self.score:.3f}"]
        for hop, title in enumerate(self.titles):
            matched = (
                self.matched_triples[hop]
                if hop < len(self.matched_triples)
                else None
            )
            lines.append(f"  hop {hop + 1}: {title} via {matched}")
            if hop == 0 and self.clue is not None:
                lines.append(f"  updater-clue: {self.clue}")
        return "\n".join(lines)


@dataclass
class MultiHopConfig:
    """Beam widths of the iterative retrieval."""

    k_hop1: int = 8  # hop-1 candidates to expand
    k_hop2: int = 4  # hop-2 candidates per hop-1 document
    k_paths: int = 8  # paths returned
    # weight of the updater-clue embedding in the hop-2 query vector.
    # The paper appends the clue tokens to the question; with a full-size
    # BERT, attention re-weights the novel tokens, but mean pooling would
    # drown ~5 clue tokens in ~20 question tokens — so the clue enters the
    # query as an explicit embedding mix: v(q') = v(q) + clue_weight*v(t').
    clue_weight: float = 1.0


class MultiHopRetriever:
    """Retriever-updater iteration over a shared triple store."""

    def __init__(
        self,
        retriever: SingleRetriever,
        updater: QuestionUpdater,
        config: Optional[MultiHopConfig] = None,
    ):
        self.retriever = retriever
        self.updater = updater
        self.config = config or MultiHopConfig()

    @staticmethod
    def _clue_text(question: str, clue: Triple) -> str:
        """The encoded bridge signal of one updater clue.

        Encode only the clue's *novel* tokens: the full flattened triple
        still contains the anchor entity (its subject), which would pull
        hop 2 straight back to hop-1-like documents; the novel part is the
        bridge signal. The sharpest such signal is the novel *entity*:
        prefer capitalized novel tokens, then any novel token, then the
        whole clue.
        """
        question_tokens = set(
            t.lower() for t in question.replace("?", " ").split()
        )
        novel = [
            token
            for token in clue.flatten().split()
            if token.lower() not in question_tokens
        ]
        capitalized = [t for t in novel if t[:1].isupper()]
        return " ".join(capitalized or novel) or clue.flatten()

    def retrieve_paths(
        self,
        question: str,
        k_paths: Optional[int] = None,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[DocumentPath]:
        """Top-k document paths for ``question`` (Eq. 8 scoring): a batch
        of one through :meth:`retrieve_paths_batch`."""
        return self.retrieve_paths_batch(
            [question], k_paths=k_paths, nprobe=nprobe, precision=precision
        )[0]

    def retrieve_paths_batch(
        self,
        questions: Sequence[str],
        k_paths: Optional[int] = None,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[List[DocumentPath]]:
        """Path retrieval for many questions with batch-amortized stages.

        The serving layer's substrate: all questions encode in one pass,
        hop 1 runs as one :meth:`SingleRetriever.retrieve_batch` matmul,
        one :meth:`QuestionUpdater.select_clue` pass picks every hop-1
        candidate's clue from the indexed triples
        (:meth:`SingleRetriever.clue_candidates`, no encoder call), every
        clue text across every question encodes as one batch, and the
        hop-2 queries of *all* questions run as one further
        ``retrieve_batch`` call: two encoder calls per batch in all.
        Per-question results match :meth:`retrieve_paths` up to the
        encoder's and the scoring matmul's batch-shape jitter (a float32
        ulp or two), so only paths tied that closely can reorder.

        ``nprobe`` and ``precision`` are forwarded to both hops'
        ``retrieve_batch`` calls, so a quantized policy prunes *both*
        hops' matmuls.
        """
        cfg = self.config
        if k_paths is None:
            k_paths = cfg.k_paths
        questions = list(questions)
        if not questions:
            return []
        if k_paths <= 0:
            return [[] for _ in questions]
        question_matrix = self.retriever.encode_questions(questions)
        hop1_lists = self.retriever.retrieve_batch(
            question_matrix, k=cfg.k_hop1, nprobe=nprobe, precision=precision
        )
        hop1 = [
            (qi, hit) for qi, hits in enumerate(hop1_lists) for hit in hits
        ]
        owners = np.asarray([qi for qi, _ in hop1], dtype=np.int64)
        # one encoder-free clue pass over every (question, hop-1 doc) pair
        chosen = self.updater.select_clue(
            questions,
            self.retriever.clue_candidates(
                question_matrix, [hit.doc_id for _, hit in hop1], owners
            ),
        )
        clues: List[Optional[Triple]] = []
        updated: List[str] = []
        clue_texts: List[str] = []
        clue_rows: List[int] = []  # hop-2 rows that mix in a clue
        for row, ((qi, hit), local) in enumerate(zip(hop1, chosen.tolist())):
            question = questions[qi]
            if local < 0:  # a hop-1 document without triples
                clues.append(None)
                updated.append(question)
                continue
            clue = self.retriever.store.triples(hit.doc_id)[local]
            clues.append(clue)
            updated.append(compose_updated_question(question, clue))
            clue_texts.append(self._clue_text(question, clue))
            clue_rows.append(row)
        hop2_matrix = question_matrix[owners]
        if clue_texts:
            # every clue text of the batch encodes as one encoder pass
            clue_matrix = self.retriever.encode_questions(clue_texts)
            questions_normed = l2_normalize_rows(question_matrix)
            hop2_matrix[clue_rows] = (
                questions_normed[owners[clue_rows]]
                + cfg.clue_weight * l2_normalize_rows(clue_matrix)
            )
        # one Q×T matmul covers every question's every second hop
        hop2_lists = (
            self.retriever.retrieve_batch(
                hop2_matrix,
                k=cfg.k_hop2 + 1,
                nprobe=nprobe,
                precision=precision,
            )
            if hop1
            else []
        )
        out: List[List[DocumentPath]] = []
        start = 0
        for hop1_results in hop1_lists:
            stop = start + len(hop1_results)
            out.append(
                self._assemble_paths(
                    hop1_results,
                    clues[start:stop],
                    updated[start:stop],
                    hop2_lists[start:stop],
                    k_paths,
                )
            )
            start = stop
        return out

    def _assemble_paths(
        self,
        hop1_results: Sequence[RetrievedDocument],
        clues: Sequence[Optional[Triple]],
        updated_questions: Sequence[str],
        hop2_lists: Sequence[List[RetrievedDocument]],
        k_paths: int,
    ) -> List[DocumentPath]:
        """Combine one question's hop results into ranked paths (Eq. 8)."""
        cfg = self.config
        paths: List[DocumentPath] = []
        seen = set()
        for hop1, clue, updated, hop2_results in zip(
            hop1_results, clues, updated_questions, hop2_lists
        ):
            survivors = 0
            for hop2 in hop2_results:
                # the +1 overfetch exists only to absorb the hop-1 doc
                # itself; cap the survivors so the per-candidate beam stays
                # exactly k_hop2 even when the hop-1 doc is absent
                if survivors >= cfg.k_hop2:
                    break
                if hop2.doc_id == hop1.doc_id:
                    continue
                key = (hop1.doc_id, hop2.doc_id)
                if key in seen:
                    continue
                seen.add(key)
                survivors += 1
                paths.append(
                    DocumentPath(
                        doc_ids=(hop1.doc_id, hop2.doc_id),
                        titles=(hop1.title, hop2.title),
                        score=hop1.score + hop2.score,
                        hop_scores=(hop1.score, hop2.score),
                        clue=clue,
                        matched_triples=(
                            hop1.matched_triple,
                            hop2.matched_triple,
                        ),
                        updated_question=updated,
                    )
                )
        paths.sort(key=lambda p: (-p.score, p.doc_ids))
        return paths[:k_paths]
