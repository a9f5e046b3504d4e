"""The ranked-result cache: keyed on the FULLTEXT index generation.

``rank()`` runs the scorer over every matching posting — the most
expensive read in the system — yet desktop-search workloads repeat the
same few text queries verbatim.  The cache memoizes ``(text, limit)`` hit
lists and invalidates them wholesale whenever the FULLTEXT generation
moves (any content mutation), so a cached ranking can never be served
across a write that might have changed the scores.
"""

import pytest

from repro.cache import RankedResultCache
from repro.core import HFADFileSystem
from repro.errors import CacheError


@pytest.fixture()
def fs():
    fs = HFADFileSystem()
    fs.create(b"beach vacation photos from the island", owner="a")
    fs.create(b"beach umbrella receipt", owner="b")
    fs.create(b"quarterly report nothing relevant", owner="c")
    yield fs
    fs.close()


def test_repeat_rank_hits_cache(fs):
    first = fs.rank("beach vacation")
    hits_before = fs.ranked_cache.stats.hits
    second = fs.rank("beach vacation")
    assert fs.ranked_cache.stats.hits == hits_before + 1
    assert [(h.doc_id, h.score) for h in first] == \
        [(h.doc_id, h.score) for h in second]


def test_write_invalidates_ranking(fs):
    stale = fs.rank("beach vacation")
    # A new highly-relevant document must change the next ranking: the
    # generation bump turns the cached entry into a stale drop, never a hit.
    oid = fs.create(b"beach beach beach vacation vacation", owner="d")
    fresh = fs.rank("beach vacation")
    assert fs.ranked_cache.stats.stale_drops >= 1
    assert oid in [hit.doc_id for hit in fresh]
    assert [(h.doc_id, h.score) for h in stale] != \
        [(h.doc_id, h.score) for h in fresh]


def test_cached_ranking_equals_uncached(fs):
    expected = fs.rank("beach vacation")
    cached = fs.rank("beach vacation")
    fs.ranked_cache.clear()
    recomputed = fs.rank("beach vacation")
    for other in (cached, recomputed):
        assert [(h.doc_id, round(h.score, 12)) for h in expected] == \
            [(h.doc_id, round(h.score, 12)) for h in other]


def test_limit_is_part_of_the_key(fs):
    fs.rank("beach", limit=1)
    hits_before = fs.ranked_cache.stats.hits
    fs.rank("beach", limit=2)  # different key: a miss, not a truncated hit
    assert fs.ranked_cache.stats.hits == hits_before
    assert len(fs.rank("beach", limit=2)) <= 2


def test_snapshot_and_stats_surface(fs):
    fs.rank("beach")
    fs.rank("beach")
    snapshot = fs.ranked_cache.snapshot()
    assert snapshot["entries"] == len(fs.ranked_cache) >= 1
    assert snapshot["hits"] >= 1
    # The cache also reports through the filesystem-wide stats surface.
    assert "ranked_cache" in fs.stats()


def test_capacity_eviction_and_validation():
    with pytest.raises(CacheError):
        RankedResultCache(registry=None, tag="FULLTEXT", capacity=0)
    fs = HFADFileSystem(query_cache_entries=2)
    try:
        fs.create(b"alpha beta gamma delta", owner="a")
        assert fs.ranked_cache is not None
        for text in ("alpha", "beta", "gamma"):
            fs.rank(text)
        assert len(fs.ranked_cache) <= 2
    finally:
        fs.close()


def test_disabled_with_query_cache():
    fs = HFADFileSystem(query_cache_entries=0)
    try:
        fs.create(b"alpha beta", owner="a")
        assert fs.ranked_cache is None
        assert fs.rank("alpha")  # rank still works, just uncached
    finally:
        fs.close()
