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


def write_leaf(stack, store, key=b"k", value=b"v"):
    """Allocate a page and write one leaf to it, in a transaction of its own."""
    with stack.recovery.transaction():
        page = store.allocate()
        store.write(page, LeafNode(keys=[key], values=[value]))
    return page


class TestDevicePageStore:
    @pytest.fixture
    def make_store(self, logged_stack):
        def make(cache_pages=8):
            stack = logged_stack(cache_pages=cache_pages)
            return stack, stack.store
        return make

    def test_roundtrip_through_device_blocks(self, make_store):
        stack, store = make_store()
        page = write_leaf(stack, store, b"disk", b"yes")
        reads = stack.device.stats.reads
        store.drop_cache()  # write-back, then a cold pool: a real page-in
        assert store.read(page).values == [b"yes"]
        assert store._consumer.stats.writebacks == 1
        assert stack.device.stats.reads == reads + 1

    def test_cache_hit_and_miss_counters(self, make_store):
        stack, store = make_store(cache_pages=4)
        page = write_leaf(stack, store)
        store.drop_cache()
        reads = stack.device.stats.reads
        store.read(page)
        store.read(page)
        assert store.cache_misses == 1
        assert store.cache_hits == 1
        assert stack.device.stats.reads == reads + 1  # second read served from cache

    def test_cache_eviction_is_bounded(self, make_store):
        stack, store = make_store(cache_pages=2)
        for index in range(5):
            write_leaf(stack, store, bytes([index]), b"")
        assert len(store.pool) <= 2

    def test_oversized_node_rejected(self, make_store):
        stack, store = make_store()
        with stack.recovery.transaction():
            page = store.allocate()
            with pytest.raises(BTreeError):
                store.write(page, LeafNode(keys=[b"k"], values=[bytes(4096)]))

    def test_every_page_is_page_bytes_of_whole_blocks(self, make_store):
        stack, store = make_store()
        assert store.page_blocks * stack.device.block_size == PAGE_BYTES
        write_leaf(stack, store)
        before = stack.device.stats.blocks_written
        store.flush()  # the commit synced the WAL: the flush writes the home only
        assert stack.device.stats.blocks_written - before == store.page_blocks

    def test_free_returns_blocks_to_allocator(self, make_store):
        stack, store = make_store()
        free_before = store.allocator.free_blocks
        with stack.recovery.transaction():
            page = store.allocate()
            assert store.allocator.free_blocks < free_before
            store.free(page)
            # The block is held until the freeing frame is durable.
            assert store.allocator.free_blocks < free_before
        assert store.allocator.free_blocks == free_before

    def test_invalid_page_blocks(self, logged_stack):
        # A page is whole blocks: a block bigger than a page cannot hold one.
        stack = logged_stack()
        device = BlockDevice(num_blocks=64, block_size=2 * PAGE_BYTES)
        with pytest.raises(ValueError, match="whole number"):
            DevicePageStore(device, BuddyAllocator(total_blocks=64), stack.pool,
                            stack.recovery, stack.integrity)


class TestSharedBufferPool:
    """DevicePageStore on an explicitly shared pool (the OSD configuration)."""

    @pytest.fixture
    def make_shared(self, logged_stack):
        def make(capacity=8):
            stack = logged_stack(cache_pages=capacity)
            return stack, (stack.store, stack.page_store(name="store1"))
        return make

    def test_two_stores_share_one_budget(self, make_shared):
        stack, stores = make_shared(capacity=4)
        for store in stores:
            for index in range(4):
                write_leaf(stack, store, bytes([index]), b"")
        assert len(stack.pool) <= 4

    def test_per_store_statistics(self, make_shared):
        stack, (a, b) = make_shared(capacity=8)
        page = write_leaf(stack, a)
        a.read(page)
        assert a.cache_hits == 1
        assert b.cache_hits == 0


class TestWriteBack:
    """Regression: a dirty evicted page must reach the device before reuse.

    Home writes are counted as the pool's write-backs: the WAL writes too."""

    @pytest.fixture
    def make_store(self, logged_stack):
        def make(cache_pages=2):
            stack = logged_stack(cache_pages=cache_pages, journal_blocks=256)
            return stack, stack.store
        return make

    def test_write_back_defers_device_writes(self, make_store):
        stack, store = make_store(cache_pages=4)
        page = write_leaf(stack, store)
        assert store.writes == 1
        assert store._consumer.stats.writebacks == 0  # still buffered dirty
        assert stack.device.read_blocks(page, store.page_blocks) == bytes(PAGE_BYTES)

    def test_dirty_evicted_page_is_written_back_before_reuse(self, make_store):
        stack, store = make_store(cache_pages=2)
        pages = [write_leaf(stack, store, bytes([index]), b"x") for index in range(3)]
        # Capacity 2, three dirty pages: the first was evicted and must have
        # been written to the device, not dropped.
        assert store._consumer.stats.writebacks == 1
        node = store.read(pages[0])  # re-read through the device
        assert node.keys == [bytes([0])]

    def test_flush_persists_all_dirty_pages(self, make_store):
        stack, store = make_store(cache_pages=8)
        with stack.recovery.transaction():
            for index in range(4):
                store.write(store.allocate(), LeafNode(keys=[bytes([index])], values=[b""]))
        assert store._consumer.stats.writebacks == 0
        assert store.flush() == 4
        assert store._consumer.stats.writebacks == 4
        # A second flush has nothing to do.
        assert store.flush() == 0

    def test_drop_cache_flushes_dirty_pages_first(self, make_store):
        stack, store = make_store(cache_pages=8)
        page = write_leaf(stack, store, b"durable", b"yes")
        store.drop_cache()
        assert store._consumer.stats.writebacks == 1
        assert store.read(page).keys == [b"durable"]

    def test_freed_dirty_page_is_not_written_back(self, make_store):
        stack, store = make_store(cache_pages=8)
        page = write_leaf(stack, store, b"doomed", b"")
        with stack.recovery.transaction():
            store.free(page)
        store.flush()
        assert store._consumer.stats.writebacks == 0

    def test_tree_on_write_back_store_round_trips(self, make_store):
        stack, store = make_store(cache_pages=4)
        tree = stack.tree(max_keys=8)
        for i in range(100):
            with stack.recovery.transaction():
                tree.put(b"%04d" % i, b"v%d" % i)
        # Evictions during the build already persisted most pages; a final
        # flush persists the rest, so every lookup works even after the
        # cache is emptied.
        store.flush()
        store.drop_cache()
        for i in range(100):
            assert tree.lookup(b"%04d" % i) == b"v%d" % i
        # The root is genuinely on the device: a store on a cold pool sees it.
        fresh = stack.page_store(pool=BufferPool(capacity=1))
        assert fresh.read(tree._root_id) is not None
