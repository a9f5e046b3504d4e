"""E13 — ranked streaming (WAND/block-max top-k) vs. exhaustive BM25.

PR 2 taught *boolean* queries to stop early; ``rank()`` still scored every
document containing any query term.  The scored-cursor pipeline
(repro.query.scored) closes that gap: per-term cursors carry upper-bound
scores (the term's statistics record and each posting block's exact
``max_tf`` trailer), and the WAND merge skips documents — and, by the
block trailers, whole posting blocks — that provably cannot reach the top k.

This benchmark builds the same kind of deliberately skewed corpus E10 used
— one term in every document, a rare high-signal term in a sliver of them —
and asks for the top 10 both ways:

* ``exhaustive`` — score every matching document, sort, cut (the seed
  behaviour and the ``limit=None`` path);
* ``wand limit=10`` — the streamed top-k.

Expected shape: identical hits (scores and order, bit for bit — the
differential harness's invariant) while WAND scores ≥ 5× fewer documents,
with correspondingly lower latency.
"""

from __future__ import annotations

import time

import pytest

from repro.fulltext.persistent_index import PersistentInvertedIndex

from conftest import emit_table, scaled

#: documents in the skewed corpus ("common" appears in all of them).
CORPUS_SIZE = scaled(4000, 400)
#: documents also carrying the rare term (spread evenly through the id space
#: — the worst case for early termination, since the good docs come late).
RARE_SIZE = scaled(25, 8)
#: latency-measurement repetitions.
REPEATS = scaled(30, 5)
TOP_K = 10

QUERIES = [
    ("rare ∨ common", "rare common"),
    ("rare only", "rare"),
    ("two common", "common filler"),
]


def build_engine():
    engine = PersistentInvertedIndex()
    stride = CORPUS_SIZE // RARE_SIZE
    for doc_id in range(CORPUS_SIZE):
        text = "common filler text"
        if doc_id % stride == 0 and doc_id // stride < RARE_SIZE:
            text += " rare rare rare"
        engine.add_document(doc_id, text)
    return engine


@pytest.fixture(scope="module")
def engine():
    return build_engine()


def timed(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e13_wand_scores_fewer_documents(engine):
    rows = []
    for label, query in QUERIES:
        engine.reset_counters()
        exhaustive = engine.rank_exhaustive(query, limit=TOP_K)
        scored_exhaustive = engine.ranked.documents_scored

        engine.reset_counters()
        streamed = engine.rank(query, limit=TOP_K)
        stats = engine.ranked.snapshot()

        # Correctness first: pruning changes cost, never answers.
        assert streamed == exhaustive, f"{label}: WAND diverged"

        ratio = scored_exhaustive / max(1, stats["documents_scored"])
        if label == "rare ∨ common":
            # Acceptance: the headline query scores >= 5x fewer docs.
            assert ratio >= 5.0, f"{label}: only {ratio:.1f}x fewer documents scored"

        latency_exhaustive = timed(
            lambda q=query: engine.rank_exhaustive(q, limit=TOP_K), REPEATS
        )
        latency_wand = timed(lambda q=query: engine.rank(q, limit=TOP_K), REPEATS)

        rows.append(
            (
                label,
                scored_exhaustive,
                stats["documents_scored"],
                stats["candidates_pruned"],
                stats["blocks_skipped"],
                round(ratio, 1),
                round(latency_exhaustive * 1e6),
                round(latency_wand * 1e6),
                round(latency_exhaustive / max(latency_wand, 1e-9), 1),
            )
        )
    emit_table(
        f"E13 — ranked streaming at limit={TOP_K} "
        f"({CORPUS_SIZE} docs, rare={RARE_SIZE})",
        (
            "query",
            "scored:exh",
            "scored:wand",
            "pruned",
            "blk-skip",
            "score-gain(x)",
            "lat:exh(us)",
            "lat:wand(us)",
            "lat-gain(x)",
        ),
        rows,
    )


def test_e13_headline_latency_beats_exhaustive(engine):
    """The headline query must also be measurably faster, not just cheaper."""
    query = "rare common"
    latency_exhaustive = timed(lambda: engine.rank_exhaustive(query, limit=TOP_K), REPEATS)
    latency_wand = timed(lambda: engine.rank(query, limit=TOP_K), REPEATS)
    assert latency_wand < latency_exhaustive, (
        f"WAND ({latency_wand * 1e6:.0f}us) not faster than "
        f"exhaustive ({latency_exhaustive * 1e6:.0f}us)"
    )


def test_e13_rank_latency(benchmark, engine):
    benchmark(lambda: engine.rank("rare common", limit=TOP_K))
