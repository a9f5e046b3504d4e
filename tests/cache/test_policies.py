"""The conformance suite an eviction policy must pass, and the pool over it.

The suite checks *correctness* properties (victims are resident and unpinned,
removed keys are forgotten, the pool stays bounded and never loses data), not
retention quality.  The bare-policy tests are parametrized over the
:class:`~repro.cache.EvictionPolicy` implementations — LRU is the only one.
"""

import random

import pytest

from repro.cache import BufferPool, LRUPolicy


@pytest.fixture(params=[LRUPolicy], ids=["lru"])
def make_policy(request):
    return request.param


class TestPolicyInterface:
    def test_capacity_must_be_positive(self, make_policy):
        with pytest.raises(ValueError):
            make_policy(0)


class TestPolicyConformance:
    """Drive the bare policy object with a random reference workload."""

    def test_victim_is_resident_and_unpinned(self, make_policy):
        policy = make_policy(4)
        resident = set()
        rng = random.Random(7)
        for step in range(500):
            key = rng.randrange(20)
            if key in resident:
                policy.on_hit(key)
            else:
                if len(resident) == 4:
                    pinned = {rng.choice(sorted(resident))}
                    victim = policy.victim(pinned)
                    assert victim in resident
                    assert victim not in pinned
                    policy.on_remove(victim)
                    resident.discard(victim)
                policy.on_add(key)
                resident.add(key)

    def test_all_pinned_yields_no_victim(self, make_policy):
        policy = make_policy(3)
        for key in ("a", "b", "c"):
            policy.on_add(key)
        assert policy.victim({"a", "b", "c"}) is None

    def test_removed_key_is_never_chosen(self, make_policy):
        policy = make_policy(3)
        for key in ("a", "b", "c"):
            policy.on_add(key)
        policy.on_remove("a")
        for _ in range(3):
            victim = policy.victim(set())
            assert victim in {"b", "c"}
            policy.on_remove(victim)
            policy.on_add(victim)

    def test_empty_policy_has_no_victim(self, make_policy):
        policy = make_policy(3)
        assert policy.victim(set()) is None


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
