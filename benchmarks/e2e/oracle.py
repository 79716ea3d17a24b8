"""Answer oracle: per-question references and the served-answer check.

References are computed in-process, one question at a time, outside
every timed phase, on the retriever configuration that served the
answer (its store generation, shard plan and ``nprobe``). A served list
must match its reference except where reference scores tie within
:data:`TOLERANCE`: float32 scoring can round differently for another
batch shape and reorder such near-ties, and nothing else.

Answers are compared as ``(key, score)`` lists: the key is the document
id of a single-hop result and the document-id pair of a path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: |score difference| under which two results count as tied. Float32
#: cosines carry ~6e-8 relative rounding; a path score adds two of them.
TOLERANCE = 1e-5
#: extra reference depth, so a near-tie swapped in from just past rank k
#: can still be recognised as a tie
MARGIN = 5

Answer = List[Tuple[Any, float]]


def answer_of(mode: str, results: Sequence[Any]) -> Answer:
    """``(key, score)`` list of result objects or wire dicts."""
    out: Answer = []
    for item in results:
        if isinstance(item, dict):
            if mode == "paths":
                key: Any = tuple(int(d) for d in item["doc_ids"])
            else:
                key = int(item["doc_id"])
            out.append((key, float(item["score"])))
        elif mode == "paths":
            out.append((tuple(item.doc_ids), float(item.score)))
        else:
            out.append((int(item.doc_id), float(item.score)))
    return out


class Oracle:
    """References of one serving configuration, memoised per request."""

    def __init__(
        self,
        retriever,
        multihop=None,
        k_single: Optional[int] = None,
        k_paths: Optional[int] = None,
        nprobe: Optional[int] = None,
    ):
        self.retriever = retriever
        self.multihop = multihop
        self.k = {"single": k_single, "paths": k_paths}
        self.nprobe = nprobe
        self._refs: Dict[Tuple[str, str], Answer] = {}
        self._exact: Dict[str, Answer] = {}

    def _depth(self, mode: str) -> int:
        return int(self.k[mode]) + MARGIN

    def reference(self, text: str, mode: str) -> Answer:
        key = (text, mode)
        if key not in self._refs:
            if mode == "paths":
                results = self.multihop.retrieve_paths_batch(
                    [text], k_paths=self._depth(mode), nprobe=self.nprobe
                )[0]
            else:
                results = self.retriever.retrieve_many(
                    [text], k=self._depth(mode), nprobe=self.nprobe
                )[0]
            self._refs[key] = answer_of(mode, results)
        return self._refs[key]

    def exact(self, text: str) -> Answer:
        """Full-probe single-hop reference (the recall baseline)."""
        if self.nprobe is None:
            return self.reference(text, "single")
        if text not in self._exact:
            results = self.retriever.retrieve_many(
                [text], k=self._depth("single")
            )[0]
            self._exact[text] = answer_of("single", results)
        return self._exact[text]

    def check(self, text: str, mode: str, served: Answer) -> Optional[str]:
        """None when ``served`` matches the reference, else the reason."""
        reference = self.reference(text, mode)
        expected = reference[: self.k[mode]]
        if len(served) != len(expected):
            return f"{len(served)} results, reference has {len(expected)}"
        where = {key: (pos, score) for pos, (key, score) in enumerate(reference)}
        seen = set()
        for position, (key, score) in enumerate(served):
            if key in seen:
                return f"duplicate result {key}"
            seen.add(key)
            if key not in where:
                return f"result {key} at rank {position} not in reference"
            _, ref_score = where[key]
            if abs(ref_score - score) > TOLERANCE:
                return f"result {key} scored {score}, reference {ref_score}"
            if abs(ref_score - expected[position][1]) > TOLERANCE:
                return (
                    f"result {key} at rank {position} does not tie with "
                    f"reference rank {position} ({expected[position][0]})"
                )
        return None

    def recall(self, text: str, served: Answer) -> float:
        """Overlap of served single-hop top-k with the full-probe top-k.

        Documents tied with the k-th exact score (within the tolerance)
        count as part of the exact set.
        """
        k = self.k["single"]
        exact = self.exact(text)
        if not exact:
            return 1.0
        cutoff = exact[min(k, len(exact)) - 1][1] - TOLERANCE
        allowed = {key for key, score in exact if score >= cutoff}
        hits = sum(1 for key, _ in served[:k] if key in allowed)
        return hits / min(k, len(exact))
