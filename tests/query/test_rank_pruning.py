"""Pruning guard: top-k ranking must do measurably less work than exhaustive.

The differential harness proves ``rank`` exact; this proves it *prunes*, so
losing the block-max or MaxScore tests fails the ordinary test run rather
than only the full-size E13 benchmark.  The corpus has E13's shape at
twenty posting blocks: ``common`` and ``filler`` in every document, ``rare``
(three times) in a sliver of them spread through the id space.
"""

import pytest

from repro.fulltext.persistent_index import BLOCK_SPAN, PersistentInvertedIndex

CORPUS_SIZE = 20 * BLOCK_SPAN
RARE_SIZE = 25
TOP_K = 10


def build_engine(heavy=False):
    """E13's corpus; ``heavy`` appends one document repeating ``common`` and
    ``filler``, which loosens their term-wide bounds so that only the blocks'
    own maxima can prune."""
    engine = PersistentInvertedIndex()
    stride = CORPUS_SIZE // RARE_SIZE
    for doc_id in range(CORPUS_SIZE):
        text = "common filler text"
        if doc_id % stride == 0 and doc_id // stride < RARE_SIZE:
            text += " rare rare rare"
        engine.add_document(doc_id, text)
    if heavy:
        engine.add_document(CORPUS_SIZE, "common common common filler filler filler")
    return engine


def work(engine, query):
    """``(documents scored exhaustively, rank's counters)``, answers checked."""
    engine.reset_counters()
    expected = engine.rank_exhaustive(query, limit=TOP_K)
    exhaustive = engine.ranked.documents_scored
    engine.reset_counters()
    assert engine.rank(query, limit=TOP_K) == expected
    return exhaustive, engine.ranked.snapshot()


@pytest.mark.parametrize("query", ["rare common", "common filler"])
def test_top_k_scores_five_times_fewer_documents(query):
    exhaustive, stats = work(build_engine(), query)
    assert exhaustive == CORPUS_SIZE
    assert stats["documents_scored"] * 5 <= exhaustive, stats


def test_common_terms_end_the_walk_once_their_bounds_cannot_beat_the_heap():
    # Every short document scores what the terms' bounds allow, so the first
    # block fills the heap and the walk ends without visiting another block.
    _exhaustive, stats = work(build_engine(), "common filler")
    assert stats["documents_scored"] == BLOCK_SPAN, stats
    assert stats["blocks_skipped"] == 0, stats


def test_block_maxima_skip_blocks_the_term_bounds_cannot():
    exhaustive, stats = work(build_engine(heavy=True), "common filler")
    assert exhaustive == CORPUS_SIZE + 1
    assert stats["blocks_skipped"] > 1, stats
    assert stats["documents_scored"] * 5 <= exhaustive, stats


def test_a_rare_term_drives_the_walk_and_common_rows_are_pruned():
    _exhaustive, stats = work(build_engine(), "rare common")
    # After the first block only the rare documents are candidates; the
    # common term's rows in their blocks are counted as pruned.
    assert stats["documents_scored"] <= BLOCK_SPAN + RARE_SIZE, stats
    assert stats["candidates_pruned"] > 0, stats
