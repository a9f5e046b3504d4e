"""``BPlusTree.bulk_load``: an empty count-limited tree built bottom up.

The built tree must pass ``check_invariants`` (every non-root node at least
``min_keys``), hold no node over ``max_keys``, iterate exactly its input,
cost one write per node, and then behave like any other tree under
``put`` / ``delete`` / ``apply_sorted``, held against a dict model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, DevicePageStore
from repro.cache import BufferPool
from repro.errors import BTreeError
from repro.storage import BlockDevice, BuddyAllocator

MAX_KEYS = (3, 4, 64)


def key(i: int) -> bytes:
    return b"k%05d" % i


def items_of(numbers):
    return [(key(i), b"v%d" % i) for i in sorted(numbers)]


def nodes(tree):
    """Every node of the tree, root first."""
    pending = [tree.root_id]
    while pending:
        node = tree.store.read(pending.pop())
        yield node
        if not node.is_leaf:
            pending.extend(node.children)


def assert_built(tree, items):
    tree.check_invariants()
    assert list(tree.items()) == items
    assert all(len(node.keys) <= tree.max_keys for node in nodes(tree))
    # One write per node built, plus the empty root the constructor wrote.
    built = tree.store.live_pages if items else 0
    assert tree.store.writes == built + 1


def sizes(max_keys):
    return [0, 1, max_keys, max_keys + 1, 2 * max_keys + 1]


class TestShapes:
    @pytest.mark.parametrize("max_keys,count",
                             [(m, n) for m in MAX_KEYS for n in sizes(m)])
    def test_edge_sizes(self, max_keys, count):
        tree = BPlusTree(max_keys=max_keys)
        items = items_of(range(count))
        tree.bulk_load(items)
        assert_built(tree, items)
        assert len(tree) == count

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MAX_KEYS), st.sets(st.integers(0, 5000), max_size=400))
    def test_random_sizes(self, max_keys, numbers):
        tree = BPlusTree(max_keys=max_keys)
        items = items_of(numbers)
        tree.bulk_load(items)
        assert_built(tree, items)

    def test_the_new_root_is_announced_and_the_empty_one_freed(self):
        moved = []
        tree = BPlusTree(max_keys=3, on_root_change=moved.append)
        empty_root = tree.root_id
        tree.bulk_load(items_of(range(20)))
        assert moved == [tree.root_id]
        assert tree.root_id != empty_root
        with pytest.raises(BTreeError):
            tree.store.read(empty_root)
        assert tree.depth() == 3  # 7 leaves of 2-3 keys under 2 inner nodes

    def test_an_empty_load_leaves_the_tree_as_it_was(self):
        moved = []
        tree = BPlusTree(max_keys=4, on_root_change=moved.append)
        root = tree.root_id
        tree.bulk_load([])
        assert (tree.root_id, moved, len(tree)) == (root, [], 0)


edits = st.lists(
    st.tuples(st.sampled_from(["put", "delete", "apply"]),
              st.dictionaries(st.integers(0, 600),
                              st.one_of(st.none(), st.binary(max_size=8)),
                              min_size=1, max_size=25)),
    max_size=12,
)


class TestAfterTheBuild:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MAX_KEYS), st.sets(st.integers(0, 600), max_size=300), edits)
    def test_edits_match_a_dict_model(self, max_keys, numbers, script):
        tree = BPlusTree(max_keys=max_keys)
        items = items_of(numbers)
        tree.bulk_load(items)
        model = dict(items)
        for kind, batch in script:
            if kind == "apply":
                tree.apply_sorted([(key(i), lambda _old, new=batch[i]: new)
                                   for i in sorted(batch)])
            for i, value in batch.items():
                if value is None:
                    if kind == "delete" and key(i) in model:
                        tree.delete(key(i))
                    if kind != "put":
                        model.pop(key(i), None)
                elif kind != "delete":
                    if kind == "put":
                        tree.put(key(i), value)
                    model[key(i)] = value
            tree.check_invariants()
            assert list(tree.items()) == sorted(model.items())


def byte_limited():
    device = BlockDevice(num_blocks=1 << 12, block_size=512)
    store = DevicePageStore(device, BuddyAllocator(total_blocks=1 << 12),
                            BufferPool(capacity=16))
    return BPlusTree(store=store)


class TestRejected:
    @pytest.mark.parametrize("numbers", [[2, 1], [1, 1], [1, 3, 2], [0, 1, 2, 2]])
    def test_unsorted_or_duplicate_keys(self, numbers):
        tree = BPlusTree(max_keys=3)
        with pytest.raises(BTreeError):
            tree.bulk_load([(key(i), b"v") for i in numbers])
        assert len(tree) == 0 and tree.store.writes == 1

    @pytest.mark.parametrize("pair", [("k", b"v"), (b"k", "v"), (b"k", None)])
    def test_non_bytes_keys_and_values(self, pair):
        tree = BPlusTree(max_keys=3)
        with pytest.raises(BTreeError):
            tree.bulk_load([pair])
        assert len(tree) == 0

    def test_a_non_empty_tree(self):
        tree = BPlusTree(max_keys=3)
        tree.put(key(1), b"v")
        with pytest.raises(BTreeError):
            tree.bulk_load(items_of([2, 3]))
        assert list(tree.keys()) == [key(1)]

    def test_a_store_with_a_page_size(self):
        tree = byte_limited()
        with pytest.raises(BTreeError):
            tree.bulk_load(items_of([1, 2]))
        assert len(tree) == 0
