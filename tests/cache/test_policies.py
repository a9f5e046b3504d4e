"""LRU eviction, driven through the pool.

The suite checks *correctness* properties (the victim is the least recently
used resident, unpinned page; freed pages are forgotten; the pool stays
bounded and never loses data), not retention quality.  ``stripes=1`` keeps
one global LRU order so the reference model below is exact.
"""

import random
from collections import OrderedDict

from repro.cache import BufferPool


class TestPolicyConformance:
    """Drive a one-stripe pool against a reference LRU order."""

    def test_victim_is_resident_and_unpinned(self):
        pool = BufferPool(capacity=4, stripes=1)
        consumer = pool.register("lru")
        order = OrderedDict()  # resident pages, least recently used first
        rng = random.Random(7)
        evictions = 0
        for step in range(500):
            page = rng.randrange(20)
            if consumer.get(page) is not None:
                order.move_to_end(page)
                continue
            assert page not in order
            pinned = None
            if len(order) == 4:
                pinned = rng.choice(sorted(order))
                consumer.pin(pinned)
            consumer.put(page, step)
            if pinned is not None:
                consumer.unpin(pinned)
                victim = next(key for key in order if key != pinned)
                del order[victim]
                evictions += 1
            order[page] = None
            assert set(consumer.cached_pages()) == set(order)
        assert evictions == consumer.stats.evictions > 100

    def test_removed_key_is_never_chosen(self):
        pool = BufferPool(capacity=3, stripes=1)
        consumer = pool.register("lru")
        for page in ("a", "b", "c"):
            consumer.put(page, page)
        consumer.invalidate("a")  # the page was freed: oldest, but gone
        consumer.put("d", "d")    # fills the free frame, evicts nothing
        assert consumer.stats.evictions == 0
        for page in ("e", "f", "g"):
            consumer.put(page, page)
        # b, c and d left in LRU order; the forgotten key was never a victim.
        assert set(consumer.cached_pages()) == {"e", "f", "g"}
        assert consumer.stats.evictions == 3


class TestPolicyConformanceThroughPool:
    """End-to-end: a pool with a backing store must never lose data."""

    def _run_workload(self, capacity, accesses, universe, seed):
        backing = {}
        writes = []

        def writeback(page_id, value):
            writes.append(page_id)
            backing[page_id] = value

        pool = BufferPool(capacity=capacity)
        consumer = pool.register("workload", writeback=writeback)
        rng = random.Random(seed)
        for step in range(accesses):
            page = rng.randrange(universe)
            if rng.random() < 0.3:
                consumer.get(page)
                consumer.put(page, (page, step), dirty=True)
            else:
                value = consumer.get(page)
                if value is None:
                    # Miss: fetch from backing store (or create) and cache.
                    consumer.put(page, backing.get(page, (page, None)))
            assert len(pool) <= capacity
        pool.flush()
        return pool, consumer, backing, writes

    def test_bounded_and_consistent(self):
        pool, consumer, backing, writes = self._run_workload(
            capacity=8, accesses=2000, universe=32, seed=11
        )
        assert len(pool) <= 8
        assert consumer.stats.hits > 0
        assert consumer.stats.misses > 0
        assert consumer.stats.evictions > 0
        # Dirty evictions must have produced writebacks.
        assert consumer.stats.writebacks > 0
        assert pool.dirty_pages == 0  # final flush cleaned everything

    def test_read_your_writes(self):
        pool = BufferPool(capacity=4)
        backing = {}
        consumer = pool.register("ryw", writeback=backing.__setitem__)
        # Write 20 distinct pages through a 4-page pool; every page must be
        # recoverable either from the pool or from the backing store.
        for page in range(20):
            consumer.put(page, f"v{page}", dirty=True)
        pool.flush()
        for page in range(20):
            value = consumer.get(page)
            if value is None:
                value = backing[page]
            assert value == f"v{page}"

    def test_hot_page_retention_under_skew(self):
        """An extremely hot page stays resident (statistically)."""
        pool = BufferPool(capacity=4)
        consumer = pool.register("skew")
        rng = random.Random(3)
        hot_hits = 0
        hot_accesses = 0
        for step in range(3000):
            if rng.random() < 0.5:
                page = "hot"
            else:
                page = rng.randrange(64)
            value = consumer.get(page)
            if page == "hot":
                hot_accesses += 1
                hot_hits += 1 if value is not None else 0
            if value is None:
                consumer.put(page, page)
        # The hot page is accessed every other step, so it is resident most
        # of the time.
        assert hot_hits / hot_accesses > 0.5
