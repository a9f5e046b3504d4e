"""Direct tests for the btree page stores and node encoding."""

import pytest

from repro.btree import PAGE_BYTES, DevicePageStore, InMemoryPageStore
from repro.btree.node import NO_PAGE, InnerNode, LeafNode, decode_node
from repro.cache import BufferPool
from repro.errors import BTreeError
from repro.storage import BlockDevice, BuddyAllocator


class TestNodeEncoding:
    def test_leaf_roundtrip(self):
        leaf = LeafNode(keys=[b"a", b"bb"], values=[b"1", b""], next_leaf=42)
        decoded = decode_node(leaf.encode())
        assert decoded.keys == [b"a", b"bb"]
        assert decoded.values == [b"1", b""]
        assert decoded.next_leaf == 42
        assert decoded.is_leaf

    def test_inner_roundtrip(self):
        inner = InnerNode(keys=[b"m"], children=[3, 9])
        decoded = decode_node(inner.encode())
        assert decoded.keys == [b"m"]
        assert decoded.children == [3, 9]
        assert not decoded.is_leaf

    def test_empty_leaf_roundtrip(self):
        decoded = decode_node(LeafNode().encode())
        assert decoded.keys == []
        assert decoded.next_leaf == NO_PAGE

    def test_truncated_and_garbage_pages_rejected(self):
        with pytest.raises(BTreeError):
            decode_node(b"\x01")
        with pytest.raises(BTreeError):
            decode_node(b"\x09" + b"\x00" * 64)  # unknown node type


class TestInMemoryPageStore:
    def test_allocate_write_read_free(self):
        store = InMemoryPageStore()
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"k"], values=[b"v"]))
        assert store.read(page).keys == [b"k"]
        assert store.live_pages == 1
        store.free(page)
        assert store.live_pages == 0
        with pytest.raises(BTreeError):
            store.free(page)

    def test_read_of_unknown_or_unwritten_page(self):
        store = InMemoryPageStore()
        with pytest.raises(BTreeError):
            store.read(999)
        page = store.allocate()
        with pytest.raises(BTreeError):
            store.read(page)

    def test_write_to_unallocated_page_rejected(self):
        store = InMemoryPageStore()
        with pytest.raises(BTreeError):
            store.write(12345, LeafNode())

    def test_counters(self):
        store = InMemoryPageStore()
        page = store.allocate()
        store.write(page, LeafNode())
        store.read(page)
        assert (store.reads, store.writes) == (1, 1)
        store.reset_counters()
        assert (store.reads, store.writes) == (0, 0)


class TestDevicePageStore:
    def make_store(self, cache_pages=8):
        device = BlockDevice(num_blocks=1 << 12, block_size=512)
        allocator = BuddyAllocator(total_blocks=1 << 12)
        pool = BufferPool(capacity=cache_pages)
        return DevicePageStore(device, allocator, pool), device

    def test_roundtrip_through_device_blocks(self):
        store, device = self.make_store()
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"disk"], values=[b"yes"]))
        store.drop_cache()  # write-back, then a cold pool: a real page-in
        assert store.read(page).values == [b"yes"]
        assert device.stats.writes == 1
        assert device.stats.reads == 1

    def test_cache_hit_and_miss_counters(self):
        store, device = self.make_store(cache_pages=4)
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"k"], values=[b"v"]))
        store.drop_cache()
        store.read(page)
        store.read(page)
        assert store.cache_misses == 1
        assert store.cache_hits == 1
        assert device.stats.reads == 1  # second read served from cache

    def test_cache_eviction_is_bounded(self):
        store, _ = self.make_store(cache_pages=2)
        pages = []
        for index in range(5):
            page = store.allocate()
            store.write(page, LeafNode(keys=[bytes([index])], values=[b""]))
            pages.append(page)
        assert len(store.pool) <= 2

    def test_oversized_node_rejected(self):
        store, _ = self.make_store()
        page = store.allocate()
        with pytest.raises(BTreeError):
            store.write(page, LeafNode(keys=[b"k"], values=[bytes(4096)]))

    def test_every_page_is_page_bytes_of_whole_blocks(self):
        store, device = self.make_store()
        assert store.page_blocks * device.block_size == PAGE_BYTES
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"k"], values=[b"v"]))
        store.flush()
        assert device.stats.blocks_written == store.page_blocks

    def test_free_returns_blocks_to_allocator(self):
        store, _ = self.make_store()
        free_before = store.allocator.free_blocks
        page = store.allocate()
        assert store.allocator.free_blocks < free_before
        store.free(page)
        assert store.allocator.free_blocks == free_before

    def test_invalid_page_blocks(self):
        # A page is whole blocks: a block bigger than a page cannot hold one.
        device = BlockDevice(num_blocks=64, block_size=2 * PAGE_BYTES)
        allocator = BuddyAllocator(total_blocks=64)
        with pytest.raises(ValueError, match="whole number"):
            DevicePageStore(device, allocator, BufferPool(capacity=8))


class TestSharedBufferPool:
    """DevicePageStore on an explicitly shared pool (the OSD configuration)."""

    def make_shared(self, capacity=8):
        device = BlockDevice(num_blocks=1 << 12, block_size=512)
        allocator = BuddyAllocator(total_blocks=1 << 12)
        pool = BufferPool(capacity=capacity)
        stores = [
            DevicePageStore(device, allocator, pool, name=f"store{i}")
            for i in range(2)
        ]
        return pool, stores, device

    def test_two_stores_share_one_budget(self):
        pool, (a, b), _ = self.make_shared(capacity=4)
        for store in (a, b):
            for index in range(4):
                page = store.allocate()
                store.write(page, LeafNode(keys=[bytes([index])], values=[b""]))
        assert len(pool) <= 4

    def test_per_store_statistics(self):
        pool, (a, b), _ = self.make_shared(capacity=8)
        page = a.allocate()
        a.write(page, LeafNode(keys=[b"k"], values=[b"v"]))
        a.read(page)
        assert a.cache_hits == 1
        assert b.cache_hits == 0


class TestWriteBack:
    """Regression: a dirty evicted page must reach the device before reuse."""

    def make_store(self, cache_pages=2):
        device = BlockDevice(num_blocks=1 << 12, block_size=512)
        allocator = BuddyAllocator(total_blocks=1 << 12)
        store = DevicePageStore(device, allocator, BufferPool(capacity=cache_pages))
        return store, device

    def test_write_back_defers_device_writes(self):
        store, device = self.make_store(cache_pages=4)
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"k"], values=[b"v"]))
        assert store.writes == 1
        assert device.stats.writes == 0  # still buffered dirty

    def test_dirty_evicted_page_is_written_back_before_reuse(self):
        store, device = self.make_store(cache_pages=2)
        pages = []
        for index in range(3):
            page = store.allocate()
            store.write(page, LeafNode(keys=[bytes([index])], values=[b"x"]))
            pages.append(page)
        # Capacity 2, three dirty pages: the first was evicted and must have
        # been written to the device, not dropped.
        assert device.stats.writes == 1
        node = store.read(pages[0])  # re-read through the device
        assert node.keys == [bytes([0])]

    def test_flush_persists_all_dirty_pages(self):
        store, device = self.make_store(cache_pages=8)
        pages = []
        for index in range(4):
            page = store.allocate()
            store.write(page, LeafNode(keys=[bytes([index])], values=[b""]))
            pages.append(page)
        assert device.stats.writes == 0
        assert store.flush() == 4
        assert device.stats.writes == 4
        # A second flush has nothing to do.
        assert store.flush() == 0

    def test_drop_cache_flushes_dirty_pages_first(self):
        store, device = self.make_store(cache_pages=8)
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"durable"], values=[b"yes"]))
        store.drop_cache()
        assert device.stats.writes == 1
        assert store.read(page).keys == [b"durable"]

    def test_freed_dirty_page_is_not_written_back(self):
        store, device = self.make_store(cache_pages=8)
        page = store.allocate()
        store.write(page, LeafNode(keys=[b"doomed"], values=[b""]))
        store.free(page)
        store.flush()
        assert device.stats.writes == 0

    def test_tree_on_write_back_store_round_trips(self):
        from repro.btree import BPlusTree

        store, device = self.make_store(cache_pages=4)
        tree = BPlusTree(store=store, max_keys=8)
        for i in range(100):
            tree.put(b"%04d" % i, b"v%d" % i)
        # Evictions during the build already persisted most pages; a final
        # flush persists the rest, so every lookup works even after the
        # cache is emptied.
        store.flush()
        store.drop_cache()
        for i in range(100):
            assert tree.lookup(b"%04d" % i) == b"v%d" % i
        # The root is genuinely on the device: a store on a cold pool sees it.
        fresh = DevicePageStore(device, store.allocator, BufferPool(capacity=1))
        assert fresh.read(tree._root_id) is not None

