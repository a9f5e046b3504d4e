"""Unit and property-based tests for the B+-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, DevicePageStore
from repro.btree.node import LEAF_ENTRY_OVERHEAD, NODE_OVERHEAD
from repro.cache import BufferPool
from repro.errors import BTreeError, KeyNotFoundError


def key(i: int) -> bytes:
    return f"key{i:08d}".encode()


def value(i: int) -> bytes:
    return f"value{i}".encode()


class TestBasicOperations:
    def test_put_and_lookup(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"alpha", b"1")
        assert tree.lookup(b"alpha") == b"1"

    def test_lookup_missing_raises(self):
        tree = BPlusTree(max_keys=4)
        with pytest.raises(KeyNotFoundError):
            tree.lookup(b"nope")

    def test_get_with_default(self):
        tree = BPlusTree(max_keys=4)
        assert tree.get(b"missing") is None
        assert tree.get(b"missing", b"fallback") == b"fallback"

    def test_overwrite_does_not_grow_count(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"k", b"v1")
        tree.put(b"k", b"v2")
        assert len(tree) == 1
        assert tree.lookup(b"k") == b"v2"

    def test_contains(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"k", b"v")
        assert b"k" in tree
        assert b"other" not in tree

    def test_empty_value_allowed(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"k", b"")
        assert tree.lookup(b"k") == b""
        assert b"k" in tree

    def test_null_key_supported_and_sorts_first(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"zz", b"1")
        tree.put(b"", b"metadata")
        tree.put(b"aa", b"2")
        assert tree.first() == (b"", b"metadata")

    def test_non_bytes_keys_rejected(self):
        tree = BPlusTree(max_keys=4)
        with pytest.raises(BTreeError):
            tree.put("string", b"v")
        with pytest.raises(BTreeError):
            tree.put(b"k", 17)

    def test_max_keys_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(max_keys=2)

    def test_first_last(self):
        tree = BPlusTree(max_keys=4)
        for i in [5, 1, 9, 3]:
            tree.put(key(i), value(i))
        assert tree.first() == (key(1), value(1))
        assert tree.last() == (key(9), value(9))

    def test_first_last_empty_raises(self):
        tree = BPlusTree(max_keys=4)
        with pytest.raises(KeyNotFoundError):
            tree.first()
        with pytest.raises(KeyNotFoundError):
            tree.last()


class TestSplitting:
    def test_many_inserts_stay_sorted(self):
        tree = BPlusTree(max_keys=4)
        for i in range(500):
            tree.put(key(i), value(i))
        assert len(tree) == 500
        assert [k for k, _ in tree.items()] == [key(i) for i in range(500)]
        tree.check_invariants()

    def test_reverse_order_inserts(self):
        tree = BPlusTree(max_keys=4)
        for i in reversed(range(300)):
            tree.put(key(i), value(i))
        assert [k for k, _ in tree.items()] == [key(i) for i in range(300)]
        tree.check_invariants()

    def test_depth_grows_logarithmically(self):
        tree = BPlusTree(max_keys=4)
        for i in range(1000):
            tree.put(key(i), value(i))
        assert 3 <= tree.depth() <= 12

    def test_all_values_retrievable_after_splits(self):
        tree = BPlusTree(max_keys=5)
        for i in range(800):
            tree.put(key(i * 7919 % 10000), value(i))
        for i in range(800):
            assert tree.lookup(key(i * 7919 % 10000)) is not None


class TestDeletion:
    def test_delete_existing(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"k", b"v")
        tree.delete(b"k")
        assert len(tree) == 0
        assert tree.get(b"k") is None

    def test_delete_missing_raises(self):
        tree = BPlusTree(max_keys=4)
        with pytest.raises(KeyNotFoundError):
            tree.delete(b"missing")

    def test_pop(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"k", b"v")
        assert tree.pop(b"k") == b"v"
        assert tree.pop(b"k", b"default") == b"default"
        with pytest.raises(KeyNotFoundError):
            tree.pop(b"k")

    def test_delete_everything_in_order(self):
        tree = BPlusTree(max_keys=4)
        for i in range(200):
            tree.put(key(i), value(i))
        for i in range(200):
            tree.delete(key(i))
            tree.check_invariants()
        assert len(tree) == 0

    def test_delete_everything_reverse_order(self):
        tree = BPlusTree(max_keys=4)
        for i in range(200):
            tree.put(key(i), value(i))
        for i in reversed(range(200)):
            tree.delete(key(i))
        assert len(tree) == 0
        tree.check_invariants()

    def test_interleaved_insert_delete(self):
        tree = BPlusTree(max_keys=4)
        for i in range(300):
            tree.put(key(i), value(i))
        for i in range(0, 300, 2):
            tree.delete(key(i))
        tree.check_invariants()
        assert len(tree) == 150
        for i in range(300):
            if i % 2:
                assert tree.lookup(key(i)) == value(i)
            else:
                assert tree.get(key(i)) is None

    def test_delete_shrinks_depth(self):
        tree = BPlusTree(max_keys=4)
        for i in range(500):
            tree.put(key(i), value(i))
        deep = tree.depth()
        for i in range(495):
            tree.delete(key(i))
        assert tree.depth() < deep
        tree.check_invariants()


class TestCursors:
    def make_tree(self, n=100, max_keys=6):
        tree = BPlusTree(max_keys=max_keys)
        for i in range(n):
            tree.put(key(i), value(i))
        return tree

    def test_full_scan_in_order(self):
        tree = self.make_tree(50)
        assert [k for k, _ in tree.cursor()] == [key(i) for i in range(50)]

    def test_range_scan(self):
        tree = self.make_tree(100)
        got = [k for k, _ in tree.cursor(start=key(10), end=key(20))]
        assert got == [key(i) for i in range(10, 20)]

    def test_prefix_scan(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"user/alice", b"1")
        tree.put(b"user/bob", b"2")
        tree.put(b"group/dev", b"3")
        got = sorted(k for k, _ in tree.cursor(prefix=b"user/"))
        assert got == [b"user/alice", b"user/bob"]

    def test_prefix_not_cut_short_by_high_bytes(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"p/" + b"\xff" * 12, b"1")
        tree.put(b"p/aaa", b"2")
        got = [k for k, _ in tree.cursor(prefix=b"p/")]
        assert len(got) == 2

    def test_prefix_with_start_rejected(self):
        tree = self.make_tree(10)
        with pytest.raises(BTreeError):
            tree.cursor(prefix=b"a", start=b"b")

    def test_reverse_scan(self):
        tree = self.make_tree(20)
        got = [k for k, _ in tree.cursor(reverse=True)]
        assert got == [key(i) for i in reversed(range(20))]

    def test_cursor_count_and_first(self):
        tree = self.make_tree(30)
        cursor = tree.cursor(start=key(5), end=key(9))
        assert cursor.count() == 4
        assert cursor.first() == (key(5), value(5))
        assert tree.cursor(start=key(500)).first() is None

    def test_keys_values_iterators(self):
        tree = self.make_tree(10)
        assert list(tree.keys()) == [key(i) for i in range(10)]
        assert list(tree.values()) == [value(i) for i in range(10)]
        assert list(tree.cursor().keys()) == [key(i) for i in range(10)]
        assert list(tree.cursor().values()) == [value(i) for i in range(10)]


class TestDevicePageStore:
    @pytest.fixture
    def make_device_tree(self, logged_stack):
        def make(cache_pages=16):
            stack = logged_stack(cache_pages=cache_pages, journal_blocks=256,
                                 num_blocks=1 << 14)
            return stack.tree(), stack
        return make

    def test_roundtrip_through_device(self, make_device_tree):
        tree, stack = make_device_tree()
        with stack.recovery.transaction():
            for i in range(200):
                tree.put(key(i), value(i))
        reads = stack.device.stats.reads
        stack.store.drop_cache()  # write-back, then a cold pool: lookups page in
        for i in range(200):
            assert tree.lookup(key(i)) == value(i)
        assert stack.store._consumer.stats.writebacks > 0
        assert stack.device.stats.reads > reads

    def test_persistence_is_real_blocks(self, make_device_tree):
        tree, stack = make_device_tree()
        with stack.recovery.transaction():
            tree.put(b"durable", b"yes")
        stack.store.flush()
        # Reading through a second store (a cold pool) over the same device
        # must see the data.
        fresh_store = stack.page_store(pool=BufferPool(capacity=1))
        node = fresh_store.read(tree._root_id)
        assert b"durable" in node.keys

    def test_cache_absorbs_repeated_reads(self, make_device_tree):
        tree, stack = make_device_tree(cache_pages=64)
        device, store = stack.device, stack.store
        with stack.recovery.transaction():
            for i in range(100):
                tree.put(key(i), value(i))
        before = device.stats.reads
        for _ in range(10):
            tree.lookup(key(50))
        cached_reads = device.stats.reads - before
        store.drop_cache()
        before = device.stats.reads
        for _ in range(10):
            tree.lookup(key(50))
            store.drop_cache()
        uncached_reads = device.stats.reads - before
        assert cached_reads < uncached_reads

    def test_invariants_on_device_tree(self, make_device_tree):
        tree, stack = make_device_tree()
        with stack.recovery.transaction():
            for i in range(300):
                tree.put(key(i), value(i))
        with stack.recovery.transaction():
            for i in range(0, 300, 3):
                tree.delete(key(i))
        tree.check_invariants()

    def test_fat_values_split_by_bytes_instead_of_overflowing(self, make_device_tree):
        # Nodes used to overflow their page when values were fat; trees over
        # a page store now split on *encoded bytes*, so this just works.
        tree, stack = make_device_tree()
        with stack.recovery.transaction():
            for i in range(64):
                tree.put(key(i), bytes(600))
        tree.check_invariants()
        for i in range(64):
            assert tree.lookup(key(i)) == bytes(600)
        # Every live node respects the page budget.
        assert tree.node_byte_limit == stack.store.page_bytes

    def test_growing_value_in_place_splits_by_bytes(self, make_device_tree):
        tree, stack = make_device_tree()
        page_bytes = stack.store.page_bytes
        with stack.recovery.transaction():
            for i in range(8):
                tree.put(key(i), b"small")
            for i in range(8):  # grow each value in place past a page's worth
                tree.put(key(i), bytes(page_bytes // 4))
        tree.check_invariants()
        for i in range(8):
            assert tree.lookup(key(i)) == bytes(page_bytes // 4)

    def test_single_value_larger_than_page_still_rejected(self, make_device_tree):
        tree, stack = make_device_tree()
        with pytest.raises(BTreeError):
            with stack.recovery.transaction():
                tree.put(b"giant", bytes(stack.store.page_bytes + 1))
        # Refused before any page was logged: the engine is still usable.
        assert not stack.recovery.poisoned


class TestByteOccupancy:
    """Over a store with a page size, bytes alone decide when a node splits,
    underflows, lends and merges; ``max_keys`` plays no part.  Each edit is
    a transaction of its own, as the engine runs them."""

    @pytest.fixture
    def make_tree(self, logged_stack):
        def make():
            stack = logged_stack(cache_pages=64, journal_blocks=256, num_blocks=1 << 14)
            return stack.tree(max_keys=3), stack.store, stack.recovery.transaction
        return make

    def non_root_sizes(self, tree):
        sizes, stack = [], [tree.root_id]
        while stack:
            node = tree.store.read(stack.pop())
            if not node.is_leaf:
                stack.extend(node.children)
                sizes.extend(tree.store.read(child).nbytes for child in node.children)
        return sizes

    def test_a_leaf_holds_a_page_of_entries_whatever_max_keys_says(self, make_tree):
        tree, store, txn = make_tree()
        entry = LEAF_ENTRY_OVERHEAD + len(key(0)) + 100
        fits = (store.page_bytes - NODE_OVERHEAD) // entry
        with txn():
            for i in range(fits):
                tree.put(key(i), bytes(100))
        assert tree.depth() == 1
        with txn():
            tree.put(key(fits), bytes(100))
        assert tree.depth() == 2
        tree.check_invariants()

    def test_deletes_keep_every_node_a_quarter_page(self, make_tree):
        tree, store, txn = make_tree()
        for i in range(2000):
            with txn():
                tree.put(key(i), bytes(400))
        assert tree.depth() == 3
        order = list(range(2000))
        random.Random(3).shuffle(order)
        for done, i in enumerate(order[:-5], 1):
            with txn():
                tree.delete(key(i))
            if done % 100 == 0:
                tree.check_invariants()
                # Entries this small never leave a node stuck under a quarter.
                assert all(size >= store.page_bytes // 4 for size in self.non_root_sizes(tree))
        assert tree.depth() == 1 and len(tree) == 5

    def test_replacing_values_with_smaller_ones_merges_the_leaves(self, make_tree):
        tree, store, txn = make_tree()
        for i in range(300):
            with txn():
                tree.put(key(i), bytes(200))
        leaves_before = len(self.non_root_sizes(tree))
        for i in range(300):
            with txn():
                tree.put(key(i), b"")  # the keys stay: no delete ever runs
        tree.check_invariants()
        sizes = self.non_root_sizes(tree)
        assert len(sizes) < leaves_before / 4
        assert all(size >= store.page_bytes // 4 for size in sizes)
        assert [k for k, _ in tree.items()] == [key(i) for i in range(300)]

    def test_a_sibling_lends_while_it_keeps_a_quarter_page_then_merges(self, make_tree):
        tree, store, txn = make_tree()
        with txn():
            for i in range(50):  # ascending: the split leaves the left leaf half full
                tree.put(key(i), bytes(100))
        left_id, right_id = tree.store.read(tree.root_id).children
        left_keys = len(tree.store.read(left_id).keys)
        lent = 0
        for i in reversed(range(50)):  # drain the tree from its right end
            with txn():
                tree.delete(key(i))
            tree.check_invariants()
            if tree.depth() == 1:
                break
            left, right = tree.store.read(left_id), tree.store.read(right_id)
            assert min(left.nbytes, right.nbytes) >= store.page_bytes // 4
            lent = max(lent, left_keys - len(left.keys))
        # The left leaf gave entries up, but never so many as to underflow
        # itself: with both at a quarter page the pair merged instead.
        assert 0 < lent < left_keys
        assert tree.depth() == 1 and len(tree) > 0

    def test_every_node_written_knows_its_encoded_size(self, make_tree, monkeypatch):
        # A page write checks the page budget against ``nbytes`` and leaves
        # the encode to the seal or the write-back, so the count kept edit by
        # edit must be the encoding's length through splits, lends, merges
        # and values that grow and shrink.
        tree, _store, txn = make_tree()
        written = []
        write = DevicePageStore.write
        monkeypatch.setattr(DevicePageStore, "write",
                            lambda store, page_id, node: (written.append(node),
                                                          write(store, page_id, node)))
        rng = random.Random(7)
        for _ in range(1500):
            i = rng.randrange(300)
            with txn():
                if rng.random() < 0.3:
                    tree.pop(key(i), None)
                else:
                    tree.put(key(i), bytes(rng.randrange(1, 160)))
            for node in written:
                assert node.nbytes == len(node.encode())
            written.clear()
        tree.check_invariants()


class TestTraversalAccounting:
    def test_node_visits_counted(self):
        tree = BPlusTree(max_keys=4)
        for i in range(100):
            tree.put(key(i), value(i))
        tree.reset_counters()
        tree.lookup(key(50))
        assert tree.node_visits == tree.depth()

    def test_a_membership_miss_descends_once(self):
        tree = BPlusTree(max_keys=4)
        for i in range(100):
            tree.put(key(i), value(i))
        tree.reset_counters()
        assert b"absent" not in tree
        assert key(50) in tree
        assert tree.node_visits == 2 * tree.depth()

    def test_reset_counters(self):
        tree = BPlusTree(max_keys=4)
        tree.put(b"a", b"b")
        tree.lookup(b"a")
        tree.reset_counters()
        assert tree.node_visits == 0


@st.composite
def operation_scripts(draw):
    keys = draw(st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=40, unique=True))
    ops = []
    for k in keys:
        ops.append(("put", k, draw(st.binary(max_size=16))))
    extra = draw(st.lists(st.sampled_from(keys), max_size=30))
    for k in extra:
        ops.append((draw(st.sampled_from(["delete", "put"])), k, b"x"))
    return ops


class TestBTreeProperties:
    @settings(max_examples=50, deadline=None)
    @given(operation_scripts(), st.integers(3, 8))
    def test_matches_dict_model(self, script, max_keys):
        tree = BPlusTree(max_keys=max_keys)
        model = {}
        for op, k, v in script:
            if op == "put":
                tree.put(k, v)
                model[k] = v
            else:
                if k in model:
                    tree.delete(k)
                    del model[k]
                else:
                    with pytest.raises(KeyNotFoundError):
                        tree.delete(k)
        assert len(tree) == len(model)
        for k, v in model.items():
            assert tree.lookup(k) == v
        assert [k for k, _ in tree.items()] == sorted(model)
        tree.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 10000), min_size=1, max_size=200))
    def test_sorted_iteration(self, numbers):
        tree = BPlusTree(max_keys=6)
        for n in numbers:
            tree.put(key(n), value(n))
        assert [k for k, _ in tree.items()] == [key(n) for n in sorted(numbers)]
        tree.check_invariants()

class TestByteBalancedSplits:
    """Regression: a count-middle split fallback could leave the half with a
    fat boundary entry over the page budget; the byte-balancing split must
    isolate fat entries at either end of the leaf."""

    @pytest.fixture
    def make_tree(self, logged_stack):
        def make():
            stack = logged_stack(cache_pages=16, journal_blocks=128)
            return stack.tree(), stack.store, stack.recovery.transaction
        return make

    def test_split_isolates_a_fat_trailing_value(self, make_tree):
        tree, store, txn = make_tree()
        fat = store.page_bytes // 2 + store.page_bytes // 4
        with txn():
            for i in range(80):
                tree.put(key(i), b"tiny")
        assert tree.depth() == 1
        with txn():
            tree.put(b"\xff-last", bytes(fat))  # sorts after every small key
        assert tree.depth() == 2
        tree.check_invariants()
        assert tree.lookup(b"\xff-last") == bytes(fat)

    def test_split_isolates_a_fat_leading_value(self, make_tree):
        tree, store, txn = make_tree()
        fat = store.page_bytes // 2 + store.page_bytes // 4
        with txn():
            tree.put(b"\x00-first", bytes(fat))  # sorts before every small key
            for i in range(80):
                tree.put(key(i), b"tiny")
        assert tree.depth() == 2
        tree.check_invariants()
        assert tree.lookup(b"\x00-first") == bytes(fat)
