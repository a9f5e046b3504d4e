"""Tests for background (lazy) indexing."""

import pytest

from repro.errors import FullTextError
from repro.fulltext import LazyIndexer, PersistentInvertedIndex


class TestSynchronousMode:
    def test_immediate_visibility(self):
        indexer = LazyIndexer(synchronous=True)
        indexer.submit(1, "grand canyon photos")
        assert indexer.pending == 0
        assert indexer.search("canyon") == [1]
        assert indexer.is_visible(1)

    def test_removal(self):
        indexer = LazyIndexer(synchronous=True)
        indexer.submit(1, "to be removed")
        indexer.submit_removal(1)
        assert indexer.search("removed") == []
        assert indexer.stats.removed == 1

    def test_flush_trivially_true(self):
        indexer = LazyIndexer(synchronous=True)
        assert indexer.flush() is True


class TestBackgroundMode:
    def test_documents_become_visible_after_flush(self):
        with LazyIndexer(workers=2) as indexer:
            for i in range(50):
                indexer.submit(i, f"document number {i} about photos")
            assert indexer.flush(timeout=10)
            assert len(indexer.search("photo")) == 50

    def test_ranked_search_through_indexer(self):
        with LazyIndexer(workers=1) as indexer:
            indexer.submit(1, "photo photo photo")
            indexer.submit(2, "one photo only in this much longer document")
            indexer.flush(timeout=10)
            hits = indexer.rank("photo")
            assert hits[0].doc_id == 1

    def test_background_removal(self):
        with LazyIndexer(workers=1) as indexer:
            indexer.submit(7, "temporary content")
            indexer.flush(timeout=10)
            indexer.submit_removal(7)
            indexer.close(drain=True)
            assert indexer.index.search("temporary") == []

    def test_stats_track_progress(self):
        with LazyIndexer(workers=1) as indexer:
            for i in range(20):
                indexer.submit(i, "words here")
            indexer.flush(timeout=10)
            assert indexer.stats.enqueued == 20
            assert indexer.stats.indexed == 20

    def test_submit_after_close_rejected(self):
        indexer = LazyIndexer(workers=1)
        indexer.start()
        indexer.close()
        with pytest.raises(FullTextError):
            indexer.submit(1, "too late")
        with pytest.raises(FullTextError):
            indexer.submit_removal(1)

    def test_wraps_existing_index(self):
        index = PersistentInvertedIndex()
        index.add_document(100, "pre existing content")
        indexer = LazyIndexer(index=index, synchronous=True)
        assert indexer.search("existing") == [100]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            LazyIndexer(workers=0)

    def test_lazy_start_on_submit(self):
        indexer = LazyIndexer(workers=1)
        indexer.submit(1, "auto started")
        assert indexer.flush(timeout=10)
        assert indexer.is_visible(1)
        indexer.close()


class TestBacklog:
    def test_synchronous_backlog_is_always_drained(self):
        indexer = LazyIndexer(synchronous=True)
        indexer.submit(1, "right away")
        indexer.submit_removal(1)
        assert indexer.backlog() == {
            "queued": 0, "in_flight": 0, "completed": 2, "failed": 0,
        }

    def test_background_backlog_drains_to_zero_after_flush(self):
        with LazyIndexer(workers=2) as indexer:
            for i in range(100):
                indexer.submit(i, f"backlog document {i}")
            assert indexer.flush(timeout=10)
            backlog = indexer.backlog()
            assert backlog["queued"] == 0
            assert backlog["in_flight"] == 0
            assert backlog["completed"] == 100
            assert backlog["failed"] == 0

    def test_backlog_counts_are_consistent_mid_stream(self):
        # Sampled while workers are running, the split between queued and
        # in-flight can be anything — but it must add up to pending and
        # never go negative.
        with LazyIndexer(workers=1) as indexer:
            for i in range(200):
                indexer.submit(i, f"streaming document number {i}")
                if i % 50 == 0:
                    backlog = indexer.backlog()
                    assert backlog["queued"] >= 0
                    assert backlog["in_flight"] >= 0
                    assert (backlog["queued"] + backlog["in_flight"]
                            == indexer.pending)
            assert indexer.flush(timeout=10)
            assert indexer.backlog()["queued"] == 0

    def test_filesystem_gauges_read_zero_at_quiescence(self):
        from repro.core.filesystem import HFADFileSystem

        with HFADFileSystem(lazy_indexing=True) as fs:
            for i in range(40):
                fs.create(content=f"gauge document {i}".encode(), owner="m")
            assert fs.wait_for_indexing(timeout=10)
            telemetry = fs.stats()["telemetry"]
            assert telemetry["gauges"]["indexer.queued"] == 0
            assert telemetry["gauges"]["indexer.in_flight"] == 0
            assert telemetry["gauges"]["indexer.completed"] == 40
