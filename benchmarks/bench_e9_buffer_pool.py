"""E9 — the unified cache subsystem: the buffer pool and query caching.

The paper's viability argument (Section 3) leans on database buffer
management: index lookups only rival hierarchical traversal if hot index
pages and hot query results stay in memory.  This experiment measures both
halves of ``repro.cache``:

* **Buffer pool** — one btree, a few times the pool's size, worked through
  a fixed-budget LRU :class:`~repro.cache.BufferPool` on two access
  patterns: a Zipfian point-lookup workload (skewed, cache-friendly) and a
  repeated full scan (the classic LRU killer).  Reported: device reads and
  hit ratio, with the uncached path (``cache_pages=0``) as the baseline.
  (The LFU / Clock / ARC sweep this used to run is frozen in README
  "Retired configurations".)
* **Query cache** — the same boolean query repeated against a corpus-loaded
  hFAD with the query-result cache on and off.  Reported: cold and warm
  latency and index lookups per run.  Expected shape: the warm cached run
  does zero index lookups and is markedly faster than the uncached path;
  a mutation between runs restores the cold cost (generation invalidation).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.btree import BPlusTree, DevicePageStore
from repro.cache import BufferPool
from repro.core import HFADFileSystem
from repro.storage import BlockDevice, BuddyAllocator
from repro.workloads import load_into_hfad

from conftest import emit_table, scaled

KEYS = scaled(400, 100)
POOL_PAGES = 24
ZIPF_S = 1.2
LOOKUPS = scaled(3000, 400)


def _build_tree(cached: bool):
    """A device-backed btree, its pages through a pool or straight to the device."""
    device = BlockDevice(num_blocks=1 << 15, block_size=512)
    allocator = BuddyAllocator(total_blocks=1 << 15)
    if cached:
        store = DevicePageStore(device, allocator,
                                buffer_pool=BufferPool(capacity=POOL_PAGES), name="e9")
    else:
        store = DevicePageStore(device, allocator, cache_pages=0)
    tree = BPlusTree(store=store)
    for i in range(KEYS):
        # Values a 4 KB page holds under twenty of: at full scale the tree
        # is a few times the pool.
        tree.put(b"%06d" % i, (b"value-%d" % i).ljust(200))
    return tree, store, device


def _zipf_keys(rng, count):
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYS)]
    return [b"%06d" % key for key in rng.choices(range(KEYS), weights=weights, k=count)]


def _scan_keys(rounds):
    return [b"%06d" % i for _ in range(rounds) for i in range(KEYS)]


def _run_workload(tree, store, device, keys):
    store.drop_cache()
    reads_before = device.stats.reads
    for key in keys:
        assert tree.lookup(key) is not None
    return device.stats.reads - reads_before


def test_e9_pool_absorbs_reads():
    rows = []
    zipf_reads_by_label = {}
    for label, cached in (("uncached", False), ("lru", True)):
        tree, store, device = _build_tree(cached)
        zipf_reads = _run_workload(
            tree, store, device, _zipf_keys(random.Random(9), LOOKUPS)
        )
        scan_reads = _run_workload(tree, store, device, _scan_keys(4))
        zipf_reads_by_label[label] = zipf_reads
        hit_ratio = f"{store._consumer.stats.hit_ratio:.2f}" if cached else "-"
        rows.append((label, zipf_reads, scan_reads, hit_ratio))
    assert zipf_reads_by_label["lru"] < zipf_reads_by_label["uncached"], (
        "the pool did not reduce device reads on the Zipfian workload"
    )
    emit_table(
        "E9 — device reads through the buffer pool "
        f"({POOL_PAGES}-page pool, {KEYS}-key btree, depth {tree.depth()})",
        ["pool", f"zipf reads ({LOOKUPS} lookups)", "scan reads (4 passes)", "hit ratio"],
        rows,
    )


QUERY = "USER/margo AND (UDEF/vacation OR UDEF/beach) AND NOT APP/quicken"
REPEATS = scaled(50, 5)


def _timed_queries(fs, repeats):
    lookups_before = fs.registry.stats.lookups
    start = time.perf_counter()
    for _ in range(repeats):
        result = fs.query(QUERY)
    elapsed = time.perf_counter() - start
    return result, elapsed / repeats, fs.registry.stats.lookups - lookups_before


def test_e9_query_cache_warm_vs_cold(corpus):
    cached_fs = HFADFileSystem(num_blocks=1 << 17)
    uncached_fs = HFADFileSystem(num_blocks=1 << 17, query_cache_entries=0)
    try:
        load_into_hfad(cached_fs, corpus)
        load_into_hfad(uncached_fs, corpus)

        cold_result, cold_latency, cold_lookups = _timed_queries(cached_fs, 1)
        warm_result, warm_latency, warm_lookups = _timed_queries(cached_fs, REPEATS)
        plain_result, plain_latency, plain_lookups = _timed_queries(uncached_fs, REPEATS)

        assert warm_result == plain_result == cold_result  # caching never changes answers
        assert warm_lookups == 0  # warm repeats never touch the indexes
        assert plain_lookups > 0
        # The acceptance criterion: warm cached repeats beat the uncached path.
        assert warm_latency < plain_latency

        # A mutation under one of the query's tags invalidates precisely.
        invalidations_before = cached_fs.query_cache.stats.stale_drops
        oid = cached_fs.create(b"", owner="margo", annotations=["vacation"])
        fresh = cached_fs.query(QUERY)
        assert oid in fresh
        assert cached_fs.query_cache.stats.stale_drops == invalidations_before + 1

        emit_table(
            f"E9 — repeated boolean query, warm cache vs uncached (x{REPEATS})",
            ["configuration", "latency/query (us)", "index lookups"],
            [
                ("cold (first run, cache on)", f"{cold_latency * 1e6:.1f}", cold_lookups),
                ("warm (cache on)", f"{warm_latency * 1e6:.1f}", warm_lookups),
                ("uncached", f"{plain_latency * 1e6:.1f}", plain_lookups),
            ],
        )
    finally:
        cached_fs.close()
        uncached_fs.close()


@pytest.mark.parametrize("config", ["cached", "uncached"])
def test_e9_query_latency(benchmark, corpus, config):
    fs = HFADFileSystem(
        num_blocks=1 << 17,
        query_cache_entries=256 if config == "cached" else 0,
    )
    try:
        load_into_hfad(fs, corpus)
        fs.query(QUERY)  # warm the cache (a no-op for the uncached config)
        benchmark(lambda: fs.query(QUERY))
    finally:
        fs.close()


def test_e9_pool_lookup_latency(benchmark):
    tree, store, device = _build_tree(cached=True)
    keys = _zipf_keys(random.Random(5), 200)
    benchmark(lambda: [tree.lookup(key) for key in keys])
