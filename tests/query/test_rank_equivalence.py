"""Differential harness: block-max top-k BM25 must equal exhaustive BM25 exactly.

The safety contract of the ranked-streaming pipeline is *exact* top-k:
``rank(query, limit=k)`` — the block scorer, its block-max and MaxScore
pruning, persisted bounds — must return bit-identical results (same
floating-point scores, same order) to scoring every matching document term
at a time and sorting (``rank_exhaustive``).  Anything less means pruning
dropped a true result, or a block summed a score differently.

Locked down here across every axis that could break it:

* randomized seeded corpora with churn (removes, rewrites, appends), of two
  posting blocks and of more than ten;
* the full filesystem stack on a WAL device, before and after a re-mount,
  and after unlink/rename/rewrite churn on the re-mounted instance;
* limits ``{1, k, n, > n, None}`` (heap never full, exactly full, overfull,
  unbounded);
* equal-score ties (order must be deterministic: ascending object id),
  also across a block boundary;
* duplicate query terms, removed documents (an ``L`` slot of 0), rows only
  the unsettled overlay holds, and block ids past 2 ** 32.

Seeds come from ``RANK_SEEDS`` so CI can widen the sweep.
"""

import os
import random

import pytest

from repro.core import HFADFileSystem
from repro.fulltext.persistent_index import BLOCK_SPAN, PersistentInvertedIndex
from repro.storage import BlockDevice

SEEDS = [int(s) for s in os.environ.get("RANK_SEEDS", "11,23").split(",")]

#: skewed vocabulary — low indices are drawn far more often, so corpora get
#: a realistic mix of stop-word-like terms and rare discriminating ones.
WORDS = [f"term{i:02d}" for i in range(24)]


def skewed_text(rng, min_words=3, max_words=30):
    count = rng.randint(min_words, max_words)
    return " ".join(
        WORDS[min(rng.randrange(1 + rng.randrange(len(WORDS))), len(WORDS) - 1)]
        for _ in range(count)
    )


def build_engines(seed, docs=70, churn=30):
    """A randomized corpus plus churn, indexed."""
    rng = random.Random(seed)
    engine = PersistentInvertedIndex()
    live = set(range(docs))
    for doc_id in range(docs):
        engine.add_document(doc_id, skewed_text(rng))
    for _ in range(churn):
        doc_id = rng.choice(sorted(live))
        roll = rng.random()
        if roll < 0.3 and len(live) > 5:
            engine.remove_document(doc_id)
            live.discard(doc_id)
        elif roll < 0.65:
            engine.update_document(doc_id, skewed_text(rng))
        else:
            engine.append_terms(doc_id, rng.choice(WORDS))
    return engine


def probe_queries(rng):
    single = [rng.choice(WORDS) for _ in range(4)]
    multi = [" ".join(rng.choice(WORDS) for _ in range(n)) for n in (2, 3, 5)]
    duplicated = [f"{WORDS[0]} {WORDS[0]} {WORDS[3]}"]  # repeated query term
    missing = [f"{WORDS[1]} nosuchterm", "nosuchterm"]
    return single + multi + duplicated + missing


def assert_rank_matches_exhaustive(engine, queries, k=5):
    n = engine.document_count
    for query in queries:
        for limit in (1, k, n, n + 7, None):
            expected = engine.rank_exhaustive(query, limit=limit)
            assert engine.rank(query, limit=limit) == expected, (query, limit)


#: 70 documents fill two posting blocks; 704 fill eleven.
@pytest.mark.parametrize("docs, churn", [(70, 30), (11 * BLOCK_SPAN, 200)])
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_match_exhaustive_at_every_limit(seed, docs, churn):
    engine = build_engines(seed, docs=docs, churn=churn)
    assert_rank_matches_exhaustive(engine, probe_queries(random.Random(seed * 13)))


def test_duplicate_query_terms_count_twice_across_blocks():
    engine = PersistentInvertedIndex()
    rng = random.Random(5)
    for doc_id in range(3 * BLOCK_SPAN):
        engine.add_document(doc_id, " ".join(
            rng.choice(["alpha", "beta", "gamma", "filler"]) for _ in range(rng.randint(1, 9))))
    assert_rank_matches_exhaustive(engine, ["alpha alpha beta", "beta alpha alpha",
                                            "gamma gamma gamma"])
    twice = engine.rank("alpha alpha", limit=None)
    assert [hit.doc_id for hit in twice] == [hit.doc_id for hit in engine.rank("alpha", limit=None)]


def test_an_equal_score_tie_across_a_block_boundary_breaks_by_oid():
    """Oids 63 and 64 share the top score from two blocks; a limit that cuts
    the tie keeps the one from the earlier block."""
    engine = PersistentInvertedIndex()
    for doc_id in range(2 * BLOCK_SPAN):
        engine.add_document(doc_id, "filler words here" if doc_id not in (20, 63, 64, 100)
                            else "tied tied filler")
    for limit in (1, 2, 3, 4, 5):
        hits = engine.rank("tied filler", limit=limit)
        assert hits == engine.rank_exhaustive("tied filler", limit=limit), limit
        assert [hit.doc_id for hit in hits][:4] == [20, 63, 64, 100][:limit]
    top = engine.rank("tied filler", limit=2)
    assert top[0].score == top[1].score and [hit.doc_id for hit in top] == [20, 63]


@pytest.mark.parametrize("settle", [False, True])
def test_removed_documents_leave_l_slots_of_zero_and_never_score(settle):
    engine = PersistentInvertedIndex()
    rng = random.Random(17)
    for doc_id in range(3 * BLOCK_SPAN):
        engine.add_document(doc_id, skewed_text(rng))
    if settle:
        engine.settle()  # the removals then go through ``R`` records
    # All of block 1, and scattered documents of blocks 0 and 2.
    removed = set(range(BLOCK_SPAN, 2 * BLOCK_SPAN)) | {0, 5, 63, 2 * BLOCK_SPAN, 191}
    for doc_id in sorted(removed):
        engine.remove_document(doc_id)
    assert engine._length_memo()(70) == 0 and 70 not in engine.document_ids()
    assert_rank_matches_exhaustive(engine, probe_queries(random.Random(3)))
    for query in (WORDS[0], f"{WORDS[0]} {WORDS[1]} {WORDS[5]}"):
        assert not removed & {hit.doc_id for hit in engine.rank(query, limit=None)}


def test_terms_only_the_unsettled_overlay_holds():
    engine = PersistentInvertedIndex()
    rng = random.Random(29)
    for doc_id in range(2 * BLOCK_SPAN):
        engine.add_document(doc_id, skewed_text(rng))
    engine.settle()
    for doc_id in (3, 70, 130, 131, 200, 255):  # blocks 0, 1, 2 (new), 3 (new)
        engine.add_document(doc_id, f"fresh {WORDS[0]} fresh {skewed_text(rng)}")
    prefix = engine._posting_prefix("fresh")
    assert engine.backlog[1] > 0
    assert list(engine.tree.cursor(prefix=prefix)) == []  # in the overlay only
    assert_rank_matches_exhaustive(engine, ["fresh", f"fresh {WORDS[0]}", f"{WORDS[2]} fresh"])
    assert sorted(hit.doc_id for hit in engine.rank("fresh", limit=None)) == [3, 70, 130, 131, 200, 255]


def test_block_ids_past_two_to_the_32():
    """Slots 0 and 63 of blocks just below and past 2 ** 32, beside small oids."""
    engine = PersistentInvertedIndex()
    edge = 1 << 32
    oids = [0, 1, 63, 64, edge - BLOCK_SPAN, edge - 1, edge, edge + BLOCK_SPAN - 1,
            edge + BLOCK_SPAN, (1 << 63) + 5]
    words = ["alpha", "beta", "gamma", "delta", "echo"]
    for at, oid in enumerate(oids):
        engine.add_document(oid, " ".join(words[(at + i) % 5] for i in range(at % 4 + 1)))
    assert engine.document_ids() == oids
    assert_rank_matches_exhaustive(engine, words + ["alpha echo", "beta gamma delta alpha"],
                                   k=3)
    assert {hit.doc_id for hit in engine.rank("alpha beta gamma delta echo", limit=None)} == set(oids)


@pytest.mark.parametrize("seed", SEEDS)
def test_wand_actually_prunes_on_skewed_corpora(seed):
    """The harness must not pass vacuously: top-k at small limits has to do
    measurably less scoring work than the exhaustive reference."""
    engine = build_engines(seed, docs=300, churn=0)
    query = f"{WORDS[0]} {WORDS[20]}"  # one common term, one rare term
    engine.reset_counters()
    exhaustive = engine.rank_exhaustive(query, limit=10)
    scored_exhaustive = engine.ranked.documents_scored
    engine.reset_counters()
    assert engine.rank(query, limit=10) == exhaustive
    scored_wand = engine.ranked.documents_scored
    assert scored_wand < scored_exhaustive, (
        f"WAND scored {scored_wand} of {scored_exhaustive} documents — no pruning"
    )


def test_tie_breaking_is_deterministic_by_doc_id():
    """Equal-score documents order by ascending id at every limit,
    including limits that cut through the tie group."""
    engine = PersistentInvertedIndex()
    for doc_id in (9, 3, 7, 1, 5):  # insertion order deliberately shuffled
        engine.add_document(doc_id, "identical tie content")
    for limit in (2, 5, None):
        hits = engine.rank("tie content", limit=limit)
        expected_ids = [1, 3, 5, 7, 9][: limit if limit is not None else 5]
        assert [hit.doc_id for hit in hits] == expected_ids
        assert len({hit.score for hit in hits}) == 1  # truly tied
    assert engine.rank("tie", limit=3) == engine.rank_exhaustive("tie", limit=3)


# ---------------------------------------------------------------------------
# full-stack: WAL device, remount, churn
# ---------------------------------------------------------------------------


def fs_ops(rng, fs, oids, serial):
    """One batch of unlink/rename/rewrite churn against the live objects."""
    for _ in range(12):
        roll = rng.random()
        if not oids or roll < 0.3:
            serial += 1
            oid = fs.create(skewed_text(rng).encode(), path=f"/d{serial}.txt")
            oids.append(oid)
        elif roll < 0.45:
            oid = rng.choice(oids)
            paths = fs.paths_for(oid)
            if paths:
                fs.unlink_path(paths[0])
        elif roll < 0.6:
            oid = rng.choice(oids)
            paths = fs.paths_for(oid)
            if paths:
                serial += 1
                fs.rename_path(paths[0], f"/moved{serial}.txt")
        elif roll < 0.8:
            oid = rng.choice(oids)
            # rewrite: truncate the whole body, then append fresh content
            fs.truncate(oid, 0, fs.stat(oid).size)
            fs.append(oid, skewed_text(rng).encode())
        else:
            oid = oids.pop(rng.randrange(len(oids)))
            fs.delete(oid)
    return serial


def assert_fs_rank_matches_exhaustive(fs, rng):
    engine = fs.fulltext_index.index
    n = engine.document_count
    for query in probe_queries(rng):
        for limit in (1, 5, n, n + 3):
            expected = engine.rank_exhaustive(query, limit=limit)
            assert fs.rank(query, limit=limit) == expected, (query, limit)
    assert not engine.bound_violations()


@pytest.mark.parametrize("seed", SEEDS)
def test_fs_rank_equivalence_across_remount_and_churn(seed):
    rng = random.Random(seed * 31)
    device = BlockDevice(num_blocks=1 << 16)
    fs = HFADFileSystem(
        device=device, query_cache_entries=0
    )
    oids, serial = [], 0
    serial = fs_ops(rng, fs, oids, serial)
    serial = fs_ops(rng, fs, oids, serial)
    assert_fs_rank_matches_exhaustive(fs, rng)
    stats = fs.stats()["ranked"]
    assert stats["queries"] > 0 and stats["documents_scored"] > 0

    # Persisted bounds must survive the unmount/mount cycle intact.
    fs.close()
    mounted = HFADFileSystem.mount(device, query_cache_entries=0)
    assert_fs_rank_matches_exhaustive(mounted, rng)

    # ... and keep absorbing churn on the re-mounted instance.
    serial = fs_ops(rng, mounted, oids, serial)
    assert_fs_rank_matches_exhaustive(mounted, rng)
    mounted.close()


def test_rank_limit_edge_cases():
    fs = HFADFileSystem(query_cache_entries=0)
    fs.create(b"alpha beta gamma", path="/x.txt")
    assert fs.rank("alpha", limit=0) == []
    assert fs.rank("", limit=5) == []
    assert fs.rank("nosuchterm", limit=5) == []
    assert fs.naming.stats.ranked_queries == 3
    fs.close()
