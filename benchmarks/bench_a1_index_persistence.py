"""A1 (ablation) — what the buffer pool buys the on-device btrees.

Every btree page lives on the device, allocated through the buddy allocator,
cached by a buffer pool of configurable size and logged by the WAL, as the
engine runs it (each insert is one transaction).  This benchmark reports
device reads for repeated btree lookups against the pool size, and times an
ingest of small objects.  The in-memory configuration it used to compare
against is retired; its last table is in README "Retired configurations".
"""

from __future__ import annotations

from repro.btree import BPlusTree, DevicePageStore
from repro.cache import BufferPool
from repro.core import HFADFileSystem
from repro.integrity import IntegrityContext
from repro.recovery import RecoveryManager
from repro.storage import BlockDevice, BuddyAllocator

from conftest import emit_table, scaled

PAYLOAD = b"object payload " * 64  # ~1 KiB
JOURNAL_BLOCKS = 255


def logged_store(cache_pages):
    """A device page store in the engine's configuration: WAL-logged pages,
    the pool's write-backs under the WAL rule, checked page-ins."""
    device = BlockDevice(num_blocks=1 << 15)
    recovery = RecoveryManager(device, journal_start=1, journal_blocks=JOURNAL_BLOCKS)
    pool = BufferPool(capacity=cache_pages)
    recovery.attach_pool(pool)
    allocator = BuddyAllocator(total_blocks=1 << 15)
    allocator.reserve(0, 1 + JOURNAL_BLOCKS)
    return DevicePageStore(device, allocator, pool, recovery, IntegrityContext())


def test_a1_page_cache_absorbs_reads():
    rows = []
    reads_by_cache = {}
    for cache_pages in (16, 256):
        store = logged_store(cache_pages)
        device, transaction = store.device, store.recovery.transaction
        with transaction():
            tree = BPlusTree(store=store)
        for index in range(2000):
            with transaction():
                tree.put(f"key{index:06d}".encode(), b"v" * 32)
        device.reset_stats()
        for index in range(0, 2000, 7):
            tree.lookup(f"key{index:06d}".encode())
        reads_by_cache[cache_pages] = device.stats.reads
        rows.append((cache_pages, device.stats.reads, store.cache_hits, store.cache_misses))
    # A pool the tree fits in never goes back to the device; the uncached
    # row (two page reads per lookup) is in README "Retired configurations".
    assert reads_by_cache[256] < reads_by_cache[16]
    emit_table(
        "A1 — device reads for 286 btree lookups vs page-cache size",
        ["cache pages", "device reads", "cache hits", "cache misses"],
        rows,
    )


def test_a1_ingest_latency(benchmark):
    def ingest():
        fs = HFADFileSystem(num_blocks=1 << 16)
        for index in range(40):
            fs.create(PAYLOAD + str(index).encode(), index_content=False)
        fs.close()

    benchmark.pedantic(ingest, rounds=scaled(5, 2), iterations=1)
