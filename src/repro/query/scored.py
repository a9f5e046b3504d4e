"""Scored cursors: WAND / block-max streaming top-k ranked retrieval.

PR 2 gave *boolean* queries a cursor pipeline with top-k early exit, but
``rank()`` still scored every document containing any query term.  This
module is the ranked counterpart: every query term becomes a
:class:`ScoredCursor` — a stream of ``(doc id, BM25 contribution)`` pairs in
ascending doc-id order that also knows an *upper bound* on any contribution
it can ever produce — and :class:`WandCursor` merges them with the WAND
pruning rule (Broder et al., CIKM '03): maintain a top-k heap; a candidate
document whose summed term upper bounds cannot beat the current k-th best
score is skipped without being scored, and whole runs of documents are
leapt over by seeking the lagging cursors straight to the pivot.

The protocol extends the boolean cursor contract with scoring:

``doc()``
    The current document id (``None`` once exhausted).  Unlike
    :class:`~repro.query.cursors.DocIdCursor`, a scored cursor *holds* a
    position: ``seek`` to a target at or before the current doc is a no-op,
    which is what lets the WAND driver probe cursors repeatedly while
    deciding whether a pivot is worth scoring.

``score()``
    The term's BM25 contribution at the current document — computed with
    exactly the same arithmetic (and the same operand order) as the
    exhaustive ranking loop, so WAND results are bit-identical to it.

``next()`` / ``seek(target)``
    Advance; ``seek`` lands on the first doc ``>= target`` (clamped to the
    current position, never backward).

``max_score()``
    Upper bound on ``score()`` over every remaining document.  Bounds may be
    conservative (stale-high) — that only costs pruning opportunities, never
    correctness.

``block_max(doc)`` / ``block_end(doc)``
    Block-max refinement (Ding & Suel, SIGIR '11): a tighter bound that
    holds over the fixed doc-id block containing ``doc``, and the last doc
    id of that block.  Cursors without block structure fall back to the
    global bound over an unbounded block.

Exactness: WAND with these rules returns *exactly* the exhaustive top-k —
same floating-point scores, same order.  Candidates are fully scored in
ascending doc-id order and per-document contributions are accumulated in
query-term order (the exhaustive loop's accumulation order); the heap
tie-break matches the final ``(-score, doc_id)`` sort; and the prune test is
strict (``bound <= threshold`` skips) because an equal-scoring later
document loses the tie anyway.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

#: ``block_end`` sentinel for cursors without block structure: one block
#: spanning every possible doc id.
UNBOUNDED_BLOCK_END = (1 << 62) - 1


# ---------------------------------------------------------------------------
# shared BM25 arithmetic
#
# The inverted index routes its exhaustive ranking loop *and* its scored
# cursors through these helpers, so "WAND equals exhaustive, bit for bit"
# holds by construction: the same closure performs the same operations in
# the same order either way.
# ---------------------------------------------------------------------------


def bm25_idf(total_docs: int, document_frequency: int) -> float:
    """The BM25 inverse document frequency (always positive)."""
    return math.log(1.0 + (total_docs - document_frequency + 0.5) / (document_frequency + 0.5))


def bm25_scorer(
    idf: float,
    k1: float,
    b: float,
    average_length: float,
    length_for: Callable[[int], int],
) -> Callable[[int, int], float]:
    """A per-term contribution function ``score(doc_id, tf)``."""

    def score(doc_id: int, term_frequency: int) -> float:
        doc_length = length_for(doc_id) or 1
        denominator = term_frequency + k1 * (1 - b + b * doc_length / average_length)
        return idf * (term_frequency * (k1 + 1)) / denominator

    return score


def bm25_upper_bound(
    idf: float,
    k1: float,
    b: float,
    max_tf: int,
    min_length: int = 0,
    average_length: float = 1.0,
) -> float:
    """Upper bound on the term's contribution for any document.

    The contribution is increasing in tf and decreasing in document length,
    so evaluating at the largest term frequency and the smallest document
    length seen for the term dominates every real posting (``min_length=0``
    degrades to the loosest ``doc_length/average_length → 0`` bound).  Both
    inputs may be conservative — a deleted document's frequency or length
    lingering in a persisted bound — which merely loosens, never breaks,
    the bound.  The expression mirrors :func:`bm25_scorer` operation for
    operation, so for a posting that *attains* both extremes the bound
    equals the real contribution bit for bit — and WAND's strict prune test
    can then skip whole runs of equal-scoring documents.
    """
    if max_tf <= 0:
        return 0.0
    return idf * (max_tf * (k1 + 1)) / (
        max_tf + k1 * (1 - b + b * min_length / average_length)
    )


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


class RankStats:
    """Work counters for ranked retrieval (``fs.stats()["ranked"]``)."""

    __slots__ = (
        "queries",
        "exhaustive_queries",
        "documents_scored",
        "candidates_pruned",
        "blocks_skipped",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: WAND-pruned rank() calls / exhaustive (unlimited) rank() calls.
        self.queries = 0
        self.exhaustive_queries = 0
        #: documents fully evaluated (every matching term's contribution).
        self.documents_scored = 0
        #: pivot candidates rejected by the (block-)bound test without being
        #: scored; documents leapt over wholesale are not even counted.
        self.candidates_pruned = 0
        #: whole posting blocks skipped by the block-max refinement.
        self.blocks_skipped = 0

    def snapshot(self) -> dict:
        return {
            "queries": self.queries,
            "exhaustive_queries": self.exhaustive_queries,
            "documents_scored": self.documents_scored,
            "candidates_pruned": self.candidates_pruned,
            "blocks_skipped": self.blocks_skipped,
        }


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------


class ScoredCursor:
    """Base class of the scored-cursor protocol (see module docstring)."""

    def doc(self) -> Optional[int]:
        """Current document id, or ``None`` once exhausted."""
        raise NotImplementedError

    def score(self) -> float:
        """This term's contribution at the current document."""
        raise NotImplementedError

    def next(self) -> Optional[int]:
        """Advance to the next document; returns it (or ``None``)."""
        raise NotImplementedError

    def seek(self, target: int) -> Optional[int]:
        """Advance to the first doc ``>= target`` (clamped, never backward)."""
        doc = self.doc()
        while doc is not None and doc < target:
            doc = self.next()
        return doc

    def max_score(self) -> float:
        """Upper bound on ``score()`` over every remaining document."""
        raise NotImplementedError

    def block_max(self, doc: int) -> float:
        """Upper bound over the block containing ``doc`` (default: global)."""
        return self.max_score()

    def block_end(self, doc: int) -> int:
        """Last doc id of the block containing ``doc``."""
        return UNBOUNDED_BLOCK_END


# ---------------------------------------------------------------------------
# the WAND operator
# ---------------------------------------------------------------------------


class WandCursor:
    """K-way merge of scored cursors with WAND/block-max top-k pruning.

    Maintains a size-``limit`` min-heap of ``(score, -doc_id)`` — the heap
    minimum is the *threshold*: once the heap is full, a candidate document
    is only worth scoring if the sum of its terms' upper bounds strictly
    beats it.  Cursors are kept in query-term order internally so a fully
    scored document accumulates contributions exactly like the exhaustive
    loop does.
    """

    def __init__(
        self,
        cursors: Sequence[ScoredCursor],
        limit: int,
        stats: Optional[RankStats] = None,
        span=None,
    ) -> None:
        #: query-term order — the scoring accumulation order.
        self._cursors = [cursor for cursor in cursors if cursor.doc() is not None]
        self._limit = limit
        self._stats = stats if stats is not None else RankStats()
        self._heap: List[Tuple[float, int]] = []
        #: optional telemetry span (duck-typed: elapsed/rows/annotate) stamped
        #: by :meth:`top_k` with the merge's work counters and wall time.
        self._span = span

    # ------------------------------------------------------------- helpers

    def _threshold(self) -> Optional[float]:
        if len(self._heap) < self._limit:
            return None
        return self._heap[0][0]

    def _offer(self, doc: int, score: float) -> None:
        # Candidates arrive in ascending doc order, so on an exact score tie
        # the incumbent (smaller doc id) must win — hence the strict ``>``.
        entry = (score, -doc)
        if len(self._heap) < self._limit:
            heapq.heappush(self._heap, entry)
        elif score > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def _score_pivot(self, pivot: int) -> None:
        """Fully evaluate ``pivot`` (contributions in query-term order)."""
        score = 0.0
        matched = []
        for cursor in self._cursors:
            if cursor.doc() == pivot:
                score += cursor.score()
                matched.append(cursor)
        for cursor in matched:
            cursor.next()
        self._stats.documents_scored += 1
        self._offer(pivot, score)

    def _block_prune(self, live: List[ScoredCursor], pivot: int, threshold: float) -> bool:
        """Try to reject ``pivot`` on block-level bounds; True if pruned.

        ``live`` is sorted by current doc and ``live[0]`` sits on ``pivot``.
        Only cursors positioned at ``pivot`` can contribute to it, so their
        summed block maxima bound its true score.  When even that fails to
        beat the threshold, a second test over everyone positioned inside
        the pivot's block decides whether the *entire* rest of the block can
        be leapt over in one seek.
        """
        aligned_upper = 0.0
        for cursor in live:
            if cursor.doc() != pivot:
                break  # sorted: everything after is beyond the pivot
            aligned_upper += cursor.block_max(pivot)
        if aligned_upper > threshold:
            return False
        end = min(cursor.block_end(pivot) for cursor in live if cursor.doc() == pivot)
        in_block = [cursor for cursor in live if cursor.doc() <= end]
        block_upper = 0.0
        for cursor in in_block:
            # ``doc() <= end`` keeps every cursor inside the block containing
            # the pivot, so block_max(pivot) bounds its contribution to any
            # document up to ``end``.
            block_upper += cursor.block_max(pivot)
        if block_upper <= threshold:
            for cursor in in_block:
                cursor.seek(end + 1)
            self._stats.blocks_skipped += 1
        else:
            for cursor in live:
                if cursor.doc() == pivot:
                    cursor.next()
            self._stats.candidates_pruned += 1
        return True

    # ---------------------------------------------------------------- run

    def top_k(self) -> List[Tuple[int, float]]:
        """The top-``limit`` ``(doc_id, score)`` pairs, best first.

        Ordering matches the exhaustive sort exactly: score descending,
        doc id ascending among equals.
        """
        if self._span is not None:
            return self._timed_top_k()
        return self._top_k()

    def _timed_top_k(self) -> List[Tuple[int, float]]:
        span = self._span
        stats = self._stats
        scored_before = stats.documents_scored
        pruned_before = stats.candidates_pruned
        skipped_before = stats.blocks_skipped
        started = perf_counter()
        top = self._top_k()
        span.elapsed += perf_counter() - started
        span.rows += len(top)
        span.annotate(
            documents_scored=stats.documents_scored - scored_before,
            candidates_pruned=stats.candidates_pruned - pruned_before,
            blocks_skipped=stats.blocks_skipped - skipped_before,
        )
        return top

    def _top_k(self) -> List[Tuple[int, float]]:
        if self._limit <= 0:
            return []
        live = [cursor for cursor in self._cursors if cursor.doc() is not None]
        while live:
            live.sort(key=lambda cursor: cursor.doc())
            threshold = self._threshold()
            upper = 0.0
            pivot_index = None
            for index, cursor in enumerate(live):
                upper += cursor.max_score()
                if threshold is None or upper > threshold:
                    pivot_index = index
                    break
            if pivot_index is None:
                break  # all remaining terms together cannot beat the heap
            pivot = live[pivot_index].doc()
            if live[0].doc() < pivot:
                # No document before the pivot can reach the threshold: the
                # lagging cursors leap straight to it (the WAND skip).
                for cursor in live[:pivot_index]:
                    cursor.seek(pivot)
            elif threshold is not None and self._block_prune(live, pivot, threshold):
                pass  # pruned (or the whole block skipped) without scoring
            else:
                self._score_pivot(pivot)
            live = [cursor for cursor in live if cursor.doc() is not None]
        return sorted(
            ((-negdoc, score) for score, negdoc in self._heap),
            key=lambda hit: (-hit[1], hit[0]),
        )
