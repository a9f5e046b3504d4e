"""The sharded buffer pool: stripe layout, exact stats, thread safety."""

import json
import os
import subprocess
import sys
import threading

from repro.cache import BufferPool
from repro.cache.buffer_pool import _auto_stripes


class TestStripeLayout:
    def test_small_pools_default_to_one_stripe(self):
        # Tiny pools keep exact global eviction order (the LRU tests'
        # semantics); striping only kicks in when capacity can spare it.
        assert _auto_stripes(4) == 1
        assert _auto_stripes(63) == 1
        assert BufferPool(capacity=16).snapshot()["stripes"] == 1

    def test_large_pools_stripe_automatically(self):
        assert _auto_stripes(64) >= 2
        assert _auto_stripes(256) == 8
        assert BufferPool(capacity=256).snapshot()["stripes"] == 8

    def test_explicit_stripes_and_capacity_split(self):
        pool = BufferPool(capacity=10, stripes=4)
        capacities = [stripe.capacity for stripe in pool._stripes]
        assert sum(capacities) == 10
        assert max(capacities) - min(capacities) <= 1  # remainder spread

    def test_stripes_never_exceed_capacity(self):
        pool = BufferPool(capacity=2, stripes=8)
        assert pool.snapshot()["stripes"] == 2

    def test_total_resident_respects_capacity(self):
        pool = BufferPool(capacity=12, stripes=4)
        consumer = pool.register("a")
        for key in range(100):
            consumer.put(key, key)
        assert len(pool) <= 12

    def test_instrument_locks_wraps_every_stripe(self):
        pool = BufferPool(capacity=256, stripes=8)
        seen = []

        class Wrapper:
            def __init__(self, index, inner):
                self.index, self.inner = index, inner

            def __enter__(self):
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        def wrap(index, lock):
            seen.append(index)
            return Wrapper(index, lock)

        pool.instrument_locks(wrap)
        assert seen == list(range(8))
        consumer = pool.register("a")
        consumer.put(1, "x")
        assert consumer.get(1) == "x"


class TestExactStats:
    def test_per_consumer_stats_aggregate_across_stripes(self):
        pool = BufferPool(capacity=64, stripes=4)
        consumer = pool.register("a")
        for key in range(40):
            consumer.put(key, key)
        hits = sum(1 for key in range(40) if consumer.get(key) is not None)
        stats = consumer.stats
        assert stats.insertions == 40
        assert stats.hits == hits
        assert stats.misses == 40 - hits
        # the pool-wide aggregate equals the per-consumer sum
        assert pool.stats.insertions == 40

    def test_stats_exact_under_concurrent_consumers(self):
        pool = BufferPool(capacity=128, stripes=8)
        consumers = [pool.register(f"c{n}") for n in range(4)]
        rounds = 300
        barrier = threading.Barrier(len(consumers))

        def worker(consumer):
            barrier.wait()
            for key in range(rounds):
                consumer.put(key, key)
                consumer.get(key)

        threads = [threading.Thread(target=worker, args=(c,))
                   for c in consumers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for consumer in consumers:
            # own-key traffic only: each consumer's counters are exact,
            # not merely approximately summed across stripes.
            assert consumer.stats.insertions == rounds
        total = pool.stats
        assert total.insertions == rounds * len(consumers)
        assert total.hits + total.misses == rounds * len(consumers)

    def test_dirty_write_back_travels_to_the_right_consumer(self):
        written = []
        pool = BufferPool(capacity=4, stripes=2)
        consumer = pool.register(
            "a", writeback=lambda page_id, value: written.append(page_id))
        for key in range(8):
            consumer.put(key, key, dirty=True, lsn=1)
        pool.flush()
        assert sorted(written)  # every dirty page went through write-back
        assert pool.stats.writebacks == len(written)


class TestConcurrentPageOps:
    def test_parallel_mixed_ops_keep_invariants(self):
        pool = BufferPool(capacity=64, stripes=8)
        consumer = pool.register("shared",
                                 writeback=lambda page_id, value: None)
        errors = []
        barrier = threading.Barrier(4)

        def worker(worker_id):
            barrier.wait()
            try:
                for index in range(500):
                    key = (worker_id * 31 + index) % 96
                    if index % 3 == 0:
                        consumer.put(key, index, dirty=True, lsn=1)
                    elif consumer.get(key) is None:
                        consumer.put(key, index)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(pool) <= 64
        snapshot = pool.snapshot()
        assert snapshot["stripes"] == 8
        assert snapshot["resident"] == len(pool)

    def test_pinned_pages_survive_concurrent_eviction_pressure(self):
        pool = BufferPool(capacity=16, stripes=4)
        consumer = pool.register("a")
        consumer.put("keep", "payload")
        consumer.pin("keep")
        barrier = threading.Barrier(2)

        def flooder(base):
            barrier.wait()
            for index in range(400):
                consumer.put((base, index), index)

        threads = [threading.Thread(target=flooder, args=(n,))
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert consumer.get("keep") == "payload"
        consumer.unpin("keep")


def test_single_stripe_keeps_global_lru_order():
    # stripes=1 is the exact PR 8 baseline: one policy instance, global
    # recency order — the ablation's control arm.
    pool = BufferPool(capacity=3, stripes=1)
    consumer = pool.register("a")
    for key in "abc":
        consumer.put(key, key)
    consumer.get("a")  # refresh
    consumer.put("d", "d")  # evicts the coldest: "b"
    assert consumer.get("b") is None
    assert consumer.get("a") == "a"


# 400 objects: the working set (master + full-text pages) must outgrow the
# 64-page pool — the smallest that stripes — or no stripe ever has to choose.
_FIXED_OP_LIST = """
import json
from repro.core import HFADFileSystem
fs = HFADFileSystem(num_blocks=1 << 15, cache_pages=64)
oids = [fs.create(f"document {i} about topic{i % 7} and word{i % 13}".encode(),
                  owner=f"user{i % 5}", annotations=[f"label{i % 11}"])
        for i in range(400)]
for i in range(300):
    fs.read(oids[(i * 37) % len(oids)])
    fs.find(("UDEF", f"label{i % 11}"))
    fs.search_text(f"topic{i % 7}")
pool = fs.stats()["buffer_pool"]
totals = pool["totals"]
assert pool["stripes"] > 1 and totals["evictions"] > 0 and totals["misses"] > 0
print(json.dumps([totals, pool["consumers"]], sort_keys=True))
"""


class TestStripeChoiceIsProcessIndependent:
    def test_pool_counters_do_not_depend_on_the_hash_seed(self):
        # The stripe a page lands in decides which pages compete for one LRU
        # list; derived from a str hash it changed with PYTHONHASHSEED, and
        # so did misses and evictions for one and the same op list.
        def run(seed):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            done = subprocess.run([sys.executable, "-c", _FIXED_OP_LIST], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        assert run("1") == run("2")
