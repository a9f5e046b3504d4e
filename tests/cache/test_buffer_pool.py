"""Direct tests for the shared BufferPool: budget, pins, dirty write-back,
multi-consumer sharing and statistics."""

import sys
import threading

import pytest

from repro.cache import BufferPool
from repro.errors import CacheError


def make_pool(capacity=4):
    pool = BufferPool(capacity=capacity)
    written = {}
    consumer = pool.register("test", writeback=written.__setitem__)
    return pool, consumer, written


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            BufferPool(capacity=0)

    def test_miss_then_hit(self):
        pool, consumer, _ = make_pool()
        assert consumer.get(1) is None
        consumer.put(1, "node")
        assert consumer.get(1) == "node"
        assert consumer.stats.misses == 1
        assert consumer.stats.hits == 1

    def test_put_updates_in_place(self):
        pool, consumer, _ = make_pool()
        consumer.put(1, "old")
        consumer.put(1, "new")
        assert consumer.get(1) == "new"
        assert len(pool) == 1

    def test_budget_is_global(self):
        pool, consumer, _ = make_pool(capacity=4)
        other = pool.register("other")
        for page in range(3):
            consumer.put(page, page)
        for page in range(3):
            other.put(page, page)
        # Six pages were inserted through two consumers but the pool holds 4.
        assert len(pool) <= 4

    def test_consumer_names_are_isolated(self):
        pool, consumer, _ = make_pool()
        other = pool.register("other")
        consumer.put(1, "mine")
        other.put(1, "theirs")
        assert consumer.get(1) == "mine"
        assert other.get(1) == "theirs"

    def test_register_deduplicates_names(self):
        pool, _, _ = make_pool()
        a = pool.register("dup")
        b = pool.register("dup")
        assert a.name != b.name


class TestEviction:
    def test_eviction_keeps_pool_at_capacity(self):
        pool, consumer, _ = make_pool(capacity=3)
        for page in range(10):
            consumer.put(page, page)
        assert len(pool) <= 3
        assert consumer.stats.evictions >= 7

    def test_clean_eviction_skips_writeback(self):
        pool, consumer, written = make_pool(capacity=2)
        for page in range(5):
            consumer.put(page, page, dirty=False)
        assert written == {}

    def test_dirty_eviction_writes_back_before_reuse(self):
        pool, consumer, written = make_pool(capacity=2)
        consumer.put(1, "dirty-one", dirty=True)
        consumer.put(2, "dirty-two", dirty=True)
        consumer.put(3, "dirty-three", dirty=True)  # evicts page 1
        assert 1 in written
        assert written[1] == "dirty-one"
        assert consumer.stats.writebacks == 1

    def test_dirty_page_without_writeback_callback_is_an_error(self):
        pool = BufferPool(capacity=1)
        consumer = pool.register("nowb")
        consumer.put(1, "dirty", dirty=True)
        with pytest.raises(CacheError):
            consumer.put(2, "evicts-1")


class TestPinning:
    def test_pinned_page_survives_eviction_pressure(self):
        pool, consumer, _ = make_pool(capacity=3)
        consumer.put(1, "pinned")
        consumer.pin(1)
        for page in range(2, 20):
            consumer.put(page, page)
        assert consumer.get(1) == "pinned"

    def test_all_pinned_overflows_and_counts(self):
        pool, consumer, _ = make_pool(capacity=2)
        consumer.put(1, "a")
        consumer.put(2, "b")
        consumer.pin(1)
        consumer.pin(2)
        consumer.put(3, "c")  # no victim: admitted past the budget
        assert len(pool) == 3
        assert pool.pin_overflows == 1
        assert pool.snapshot()["pin_overflows"] == 1
        consumer.unpin(1)
        consumer.put(4, "d")  # drains back to the budget around pinned 2
        assert len(pool) == 2
        assert consumer.cached_pages() == {2: "b", 4: "d"}
        assert pool.pin_overflows == 1

    def test_unpin_reenables_eviction(self):
        pool, consumer, _ = make_pool(capacity=2)
        consumer.put(1, "a")
        consumer.put(2, "b")
        consumer.pin(1)
        consumer.pin(2)
        consumer.unpin(1)
        consumer.put(3, "c")  # must evict page 1, the only unpinned one
        assert consumer.get(1) is None
        assert consumer.get(2) == "b"

    def test_pins_nest(self):
        pool, consumer, _ = make_pool(capacity=2)
        consumer.put(1, "a")
        consumer.pin(1)
        consumer.pin(1)
        consumer.unpin(1)
        assert pool.pinned_pages == 1
        consumer.unpin(1)
        assert pool.pinned_pages == 0

    def test_unbalanced_unpin_rejected(self):
        pool, consumer, _ = make_pool()
        consumer.put(1, "a")
        with pytest.raises(CacheError):
            consumer.unpin(1)

    def test_pin_of_nonresident_page_rejected(self):
        pool, consumer, _ = make_pool()
        with pytest.raises(CacheError):
            consumer.pin(42)


class TestFlushAndInvalidate:
    def test_flush_writes_all_dirty_pages(self):
        pool, consumer, written = make_pool(capacity=4)
        consumer.put(1, "a", dirty=True)
        consumer.put(2, "b", dirty=True)
        consumer.put(3, "c", dirty=False)
        assert pool.flush() == 2
        assert written == {1: "a", 2: "b"}
        assert pool.dirty_pages == 0
        # Pages stay resident after a flush.
        assert consumer.get(1) == "a"

    def test_flush_single_consumer(self):
        pool, consumer, written = make_pool(capacity=4)
        other_written = {}
        other = pool.register("other", writeback=other_written.__setitem__)
        consumer.put(1, "mine", dirty=True)
        other.put(1, "theirs", dirty=True)
        assert consumer.flush() == 1
        assert written == {1: "mine"}
        assert other_written == {}

    def test_invalidate_drops_without_writeback(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "doomed", dirty=True)
        consumer.invalidate(1)
        assert consumer.get(1) is None
        assert written == {}  # freed pages are not written back

    def test_drop_all_flushes_then_drops(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "a", dirty=True)
        consumer.put(2, "b")
        consumer.drop_all()
        assert written == {1: "a"}
        assert len(pool) == 0


class TestStats:
    def test_snapshot_shape(self):
        pool, consumer, _ = make_pool(capacity=4)
        consumer.put(1, "a")
        consumer.get(1)
        consumer.get(2)
        snap = pool.snapshot()
        assert snap["capacity"] == 4
        assert snap["resident"] == 1
        assert snap["totals"]["hits"] == 1
        assert snap["totals"]["misses"] == 1
        assert snap["consumers"]["test"]["hit_ratio"] == 0.5

    def test_unregister_drops_consumer_and_pages(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "a", dirty=True)
        consumer.flush()
        pool.unregister(consumer)
        assert len(pool) == 0
        assert "test" not in pool.consumers

    def test_osd_delete_churn_does_not_leak_consumers(self):
        # Regression: object churn must not grow the pool's consumer list
        # (objects once had a tree, and a consumer, each).
        from repro.osd.object_store import ObjectStore

        store = ObjectStore(buffer_pool=BufferPool(capacity=16))
        baseline = len(store.buffer_pool.consumers)
        for _ in range(10):
            oid = store.create()
            store.write(oid, 0, b"payload")
            store.delete(oid)
        assert len(store.buffer_pool.consumers) == baseline

    def test_osd_delete_churn_does_not_leak_device_blocks(self):
        # Regression: a dead object's chunks and the master-tree pages its
        # extents grew must go back to the buddy allocator.
        from repro.osd.object_store import ObjectStore

        store = ObjectStore(buffer_pool=BufferPool(capacity=16))
        oid = store.create()
        store.write(oid, 0, b"prime")
        store.delete(oid)
        baseline = store.allocator.free_blocks
        for _ in range(20):
            oid = store.create()
            store.write(oid, 0, b"payload" * 64)
            store.delete(oid)
        assert store.allocator.free_blocks == baseline

    def test_snapshot_is_safe_beside_page_traffic(self):
        # A served ``stats`` request reads the pool on one executor thread
        # while page traffic on another resizes the frame table.
        pool = BufferPool(capacity=256)
        consumer = pool.register("hot", writeback=lambda page_id, value: None)
        stop = threading.Event()

        def churn():
            key = 0
            while not stop.is_set():
                consumer.put(key, key, dirty=True)
                key += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(2000):
                pool.snapshot()
        finally:
            stop.set()
            writer.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not writer.is_alive()

    def test_per_consumer_attribution(self):
        pool, consumer, _ = make_pool(capacity=8)
        other = pool.register("other")
        consumer.put(1, "a")
        consumer.get(1)
        other.get(99)
        assert consumer.stats.hits == 1
        assert consumer.stats.misses == 0
        assert other.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1


class TestDiscardFootgun:
    """Dropping dirty frames without write-back must be explicit and counted."""

    def test_drop_all_without_writeback_refuses_dirty_frames(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "dirty", dirty=True)
        with pytest.raises(CacheError, match="discard=True"):
            consumer.drop_all(write_back=False)
        # The refused drop left everything intact.
        assert consumer.get(1) == "dirty"
        assert written == {}

    def test_unregister_refuses_dirty_frames(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "dirty", dirty=True)
        with pytest.raises(CacheError):
            pool.unregister(consumer)
        assert written == {}

    def test_explicit_discard_drops_and_counts(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "dirty", dirty=True)
        consumer.put(2, "clean")
        consumer.drop_all(write_back=False, discard=True)
        assert len(pool) == 0
        assert written == {}
        assert consumer.stats.discards == 1  # only the dirty frame counts
        assert pool.stats.discards == 1
        assert pool.snapshot()["totals"]["discards"] == 1

    def test_clean_frames_drop_without_ceremony(self):
        pool, consumer, _ = make_pool()
        consumer.put(1, "clean")
        consumer.drop_all(write_back=False)
        assert len(pool) == 0
        assert consumer.stats.discards == 0


class TestWalIntegration:
    """Page LSNs, the WAL hook, and the checkpoint horizon."""

    def test_put_stamps_page_lsn(self):
        pool, consumer, _ = make_pool()
        consumer.put(1, "node", dirty=True, lsn=41)
        assert consumer.page_lsn(1) == 41
        consumer.put(1, "node2", dirty=True, lsn=57)
        assert consumer.page_lsn(1) == 57

    def test_wal_hook_called_before_writeback(self):
        events = []
        pool = BufferPool(capacity=4)
        pool.wal_hook = lambda lsn: events.append(("wal", lsn))
        consumer = pool.register(
            "t", writeback=lambda page, value: events.append(("home", page))
        )
        consumer.put(1, "node", dirty=True, lsn=9)
        pool.flush()
        assert events == [("wal", 9), ("home", 1)]

    def test_wal_hook_called_on_eviction_too(self):
        events = []
        pool = BufferPool(capacity=1)
        pool.wal_hook = events.append
        consumer = pool.register("t", writeback=lambda page, value: None)
        consumer.put(1, "a", dirty=True, lsn=5)
        consumer.put(2, "b")  # evicts page 1
        assert events == [5]

    def test_unlogged_pages_skip_the_hook(self):
        events = []
        pool = BufferPool(capacity=4)
        pool.wal_hook = events.append
        consumer = pool.register("t", writeback=lambda page, value: None)
        consumer.put(1, "legacy", dirty=True)  # no lsn
        pool.flush()
        assert events == []

    def test_min_dirty_lsn_tracks_the_checkpoint_horizon(self):
        pool, consumer, _ = make_pool(capacity=8)
        assert pool.min_dirty_lsn() is None
        consumer.put(1, "a", dirty=True, lsn=30)
        consumer.put(2, "b", dirty=True, lsn=12)
        consumer.put(3, "c", lsn=1)  # clean: does not hold the horizon back
        assert pool.min_dirty_lsn() == 12
        pool.flush()
        assert pool.min_dirty_lsn() is None

    def test_flush_page_writes_one_dirty_page(self):
        pool, consumer, written = make_pool()
        consumer.put(1, "a", dirty=True)
        consumer.put(2, "b", dirty=True)
        assert pool.flush_page(consumer, 1) is True
        assert written == {1: "a"}
        assert pool.flush_page(consumer, 1) is False  # now clean
        assert pool.flush_page(consumer, 99) is False  # not resident
