"""Block-max top-k ranked retrieval: score a posting block at a time.

PR 2 gave *boolean* queries a cursor pipeline with top-k early exit, but
``rank()`` still scored every document containing any query term.  This
module is the ranked counterpart.  Every query term becomes a
:class:`ScoredCursor` that stands on one posting *block* of the term at a
time (the documents whose ids share ``doc >> shift``) and knows two upper
bounds: one on any contribution the term can still make, and one, from the
block's stored maximum frequency, on any contribution inside its current
block.  :class:`WandCursor` walks the union of the terms' blocks in
ascending block order with a size-``limit`` heap, and prunes with the
heap's minimum, the *threshold* (Ding & Suel, "Faster top-k document
retrieval using block-max indexes", SIGIR '11; Broder et al., CIKM '03,
for WAND):

* the terms whose summed term bounds cannot beat the threshold are
  *non-essential* (Turtle & Flood's MaxScore): they no longer drive the
  walk, they are sought to the blocks the others reach; once every term is
  non-essential the walk ends;
* a block whose present terms' summed block bounds cannot beat the
  threshold is skipped without decoding a row;
* otherwise the block's present terms are split the same way by their
  block bounds, and only slots an essential term hits become candidates:
  each present term's rows are decoded once, its contributions computed
  with one comprehension over the block, and each candidate's score summed
  and offered to the heap.

The cursor protocol (one block at a time):

``block``
    The current block id (``None`` once exhausted); ``upper`` is the term's
    bound over every remaining block.
``next()`` / ``seek(target)``
    Move to the next block, or to the first block ``>= target`` (never
    backward); both return the new block id.
``block_max()``
    Upper bound on the term's contribution to any document of the current
    block.
``slots()`` / ``score(norms, restrict)``
    The current block's slots (``doc`` minus the block's first id), and the
    term's contributions at them: ``norms`` maps a slot to its BM25 length
    normaliser ``k1 * (1 - b + b * dl / avg)``; with ``restrict`` only rows
    whose slot is a key of ``norms`` are scored.

Exactness: the result is *exactly* the exhaustive top-k — same
floating-point scores, same order.  A contribution is
``idf * (tf * (k1 + 1)) / (tf + norm)``, the exhaustive loop's expression
with only ``k1 + 1`` and the normaliser evaluated ahead; a candidate's
score starts at ``0.0`` and adds contributions in query-term order, the
exhaustive loop's order; candidates are offered in ascending doc-id order
and the heap keeps the incumbent on a tie, matching the final
``(-score, doc_id)`` sort.  Every prune test sums bounds in query-term
order too, so (float addition being monotone) a pruned document's true
score is at most the tested sum, and the tests are strict (``<=``
threshold prunes) because an equal-scoring later document loses the tie
anyway.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# shared BM25 arithmetic
#
# The exhaustive reference ranking and the bound audit score with
# :func:`bm25_scorer`; the block scorer evaluates the same expression (see
# the module docstring), and bounds come from :func:`bm25_upper_bound`.
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
    equals the real contribution bit for bit — and the strict prune test
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
        #: rank() calls (block scorer) / rank_exhaustive() calls (reference).
        self.queries = 0
        self.exhaustive_queries = 0
        #: documents fully evaluated (every matching term's contribution).
        self.documents_scored = 0
        #: slots of a scored block that only non-essential terms hit: left
        #: unscored by the block-level split.
        self.candidates_pruned = 0
        #: blocks an essential term reached, skipped on their block bounds
        #: without decoding a row.
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
    """Base class of the block-scored cursor protocol (see module docstring)."""

    #: current block id, ``None`` once exhausted.
    block: Optional[int] = None
    #: bound on the term's contribution over every remaining block.
    upper: float = 0.0

    def next(self) -> Optional[int]:
        raise NotImplementedError

    def seek(self, target: int) -> Optional[int]:
        raise NotImplementedError

    def block_max(self) -> float:
        raise NotImplementedError

    def slots(self) -> Sequence[int]:
        raise NotImplementedError

    def score(self, norms: Dict[int, float],
              restrict: bool = False) -> Tuple[Sequence[int], List[float]]:
        raise NotImplementedError


def _non_essential(bounds: Sequence[float], threshold: float) -> List[bool]:
    """MaxScore's split: flag the terms, smallest bound first, whose bounds
    summed in query-term order stay ``<= threshold``.

    A document only flagged terms hit scores at most that sum — its own sum
    runs in the same order over a subset — so it cannot enter the heap.
    """
    flags = [False] * len(bounds)
    for index in sorted(range(len(bounds)), key=bounds.__getitem__):
        flags[index] = True
        total = 0.0
        for bound, flag in zip(bounds, flags):
            if flag:
                total += bound
        if total > threshold:
            flags[index] = False
            break
    return flags


# ---------------------------------------------------------------------------
# the block driver
# ---------------------------------------------------------------------------


class WandCursor:
    """Block-at-a-time top-k over scored cursors (see the module docstring).

    ``norms(block, slots)`` maps each of a block's candidate slots to its
    BM25 length normaliser (one length read per scored block); a document
    id is ``(block << shift) + slot``.  ``limit=None`` keeps every scored
    document.  Cursors are kept in query-term order, the order a candidate's
    contributions are summed in.
    """

    def __init__(
        self,
        cursors: Sequence[ScoredCursor],
        limit: Optional[int],
        norms: Callable[[int, Sequence[int]], Dict[int, float]],
        shift: int,
        stats: Optional[RankStats] = None,
        span=None,
    ) -> None:
        self._cursors = [cursor for cursor in cursors if cursor.block is not None]
        self._limit = math.inf if limit is None else limit
        self._norms = norms
        self._shift = shift
        self._stats = stats if stats is not None else RankStats()
        self._heap: List[Tuple[float, int]] = []
        #: optional telemetry span (duck-typed: elapsed/rows/annotate) stamped
        #: by :meth:`top_k` with the walk's work counters and wall time.
        self._span = span

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
        heap, limit, stats = self._heap, self._limit, self._stats
        if limit <= 0:
            return []
        live = walk = self._cursors
        split_at = None  # the threshold ``walk`` was split at
        while live:
            full = len(heap) >= limit
            if full:
                threshold = heap[0][0]
                if threshold != split_at:
                    split_at = threshold
                    lazy = _non_essential([cursor.upper for cursor in live], threshold)
                    walk = [cursor for cursor, flag in zip(live, lazy) if not flag]
                if not walk:
                    break  # no remaining document can beat the heap
            block = min([cursor.block for cursor in walk])
            present, ended = [], False
            for cursor in live:
                if cursor.block < block:  # only a non-essential term lags
                    cursor.seek(block)
                if cursor.block == block:
                    present.append(cursor)
                elif cursor.block is None:
                    ended = True
            if not full:
                self._score_block(block, present, [False] * len(present))
            else:
                flags = _non_essential([cursor.block_max() for cursor in present], threshold)
                if False in flags:
                    self._score_block(block, present, flags)
                else:
                    stats.blocks_skipped += 1
            for cursor in present:
                if cursor.next() is None:
                    ended = True
            if ended:
                live = walk = [cursor for cursor in live if cursor.block is not None]
                split_at = None
        return sorted(
            ((-negdoc, score) for score, negdoc in heap),
            key=lambda hit: (-hit[1], hit[0]),
        )

    def _score_block(self, block: int, present: List[ScoredCursor],
                     flags: List[bool]) -> None:
        """Score the slots an essential term hits and offer them to the heap."""
        essential = [cursor.slots() for cursor, flag in zip(present, flags) if not flag]
        candidates = essential[0] if len(essential) == 1 else sorted(set().union(*essential))
        norms = self._norms(block, candidates)
        totals = dict.fromkeys(candidates, 0.0)
        lazy_hits = 0
        for at, (cursor, flag) in enumerate(zip(present, flags)):  # query-term order
            slots, contributions = cursor.score(norms, flag)
            if at == 0:  # 0.0 + c is c, bit for bit
                totals.update(zip(slots, contributions))
            else:
                for slot, contribution in zip(slots, contributions):
                    totals[slot] += contribution
            lazy_hits += len(slots) if flag else 0
        stats = self._stats
        stats.documents_scored += len(totals)
        if True in flags:
            lazy = [cursor.slots() for cursor, flag in zip(present, flags) if flag]
            stats.candidates_pruned += (len(lazy[0]) - lazy_hits if len(lazy) == 1
                                        else len(set().union(*lazy).difference(totals)))
        heap, limit, base = self._heap, self._limit, block << self._shift
        offers = iter(totals.items())  # ascending doc id
        if len(heap) < limit:
            for slot, score in offers:
                heapq.heappush(heap, (score, -(base + slot)))
                if len(heap) >= limit:
                    break
        threshold = heap[0][0] if heap else 0.0  # no offer is left unless full
        for slot, score in offers:
            # On an exact tie the incumbent (smaller doc id) wins: strict ``>``.
            if score > threshold:
                heapq.heapreplace(heap, (score, -(base + slot)))
                threshold = heap[0][0]
