"""The buffer pool under threads and across processes: exact counters,
write-back routing, invariants under mixed page traffic, pins under
eviction pressure, and counters that do not depend on the hash seed."""

import json
import os
import subprocess
import sys
import threading

from repro.cache import BufferPool


class TestExactStats:
    def test_per_consumer_stats_sum_to_pool_totals(self):
        pool = BufferPool(capacity=64)
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
        pool = BufferPool(capacity=128)
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
            # own-key traffic only: each consumer's counters are exact.
            assert consumer.stats.insertions == rounds
        total = pool.stats
        assert total.insertions == rounds * len(consumers)
        assert total.hits + total.misses == rounds * len(consumers)

    def test_write_back_reaches_the_owning_consumer(self):
        written = []
        pool = BufferPool(capacity=4)
        consumer = pool.register(
            "a", writeback=lambda page_id, value: written.append(page_id))
        for key in range(8):
            consumer.put(key, key, dirty=True, lsn=1)
        pool.flush()
        assert sorted(written)  # every dirty page went through write-back
        assert pool.stats.writebacks == len(written)


class TestConcurrentPageOps:
    def test_total_resident_respects_capacity(self):
        pool = BufferPool(capacity=12)
        consumer = pool.register("a")
        for key in range(100):
            consumer.put(key, key)
        assert len(pool) <= 12

    def test_parallel_mixed_ops_keep_invariants(self):
        pool = BufferPool(capacity=64)
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
        assert pool.snapshot()["resident"] == len(pool)

    def test_pins_survive_concurrent_eviction(self):
        pool = BufferPool(capacity=16)
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


def test_eviction_follows_global_lru_order():
    pool = BufferPool(capacity=3)
    consumer = pool.register("a")
    for key in "abc":
        consumer.put(key, key)
    consumer.get("a")  # refresh
    consumer.put("d", "d")  # evicts the coldest: "b"
    assert consumer.get("b") is None
    assert consumer.get("a") == "a"


# 400 objects: the working set (master + full-text pages) must outgrow the
# 64-page pool, or eviction never has to choose a victim.
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
assert totals["evictions"] > 0 and totals["misses"] > 0
print(json.dumps([totals, pool["consumers"]], sort_keys=True))
"""


class TestHashSeed:
    def test_pool_counters_do_not_depend_on_the_hash_seed(self):
        # Which pages compete for the LRU list decides misses and evictions;
        # nothing in the pool may derive that from a per-process str hash.
        def run(seed):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            done = subprocess.run([sys.executable, "-c", _FIXED_OP_LIST], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        assert run("1") == run("2")
