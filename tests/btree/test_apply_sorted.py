"""``BPlusTree.apply_sorted``: a batch of keyed edits, one write per leaf.

Held against a dict model over mixed insert / replace / delete / no-op
batches, on a count-limited tree (splits and merges by key count) and a
byte-limited one (a device page store, splits by encoded size).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, DevicePageStore
from repro.cache import BufferPool
from repro.errors import BTreeError
from repro.storage import BlockDevice, BuddyAllocator


def key(i: int) -> bytes:
    return b"k%05d" % i


def count_limited():
    return BPlusTree(max_keys=4)


def byte_limited():
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    store = DevicePageStore(device, BuddyAllocator(total_blocks=1 << 14),
                            BufferPool(capacity=16))
    return BPlusTree(store=store)


def setter(value):
    return lambda _old: value


def apply_batch(tree, model, batch):
    """Apply ``{key number: new value or None}`` to the tree and to the model."""
    tree.apply_sorted([(key(i), setter(batch[i])) for i in sorted(batch)])
    for i, value in batch.items():
        if value is None:
            model.pop(key(i), None)
        else:
            model[key(i)] = value


def assert_matches(tree, model):
    tree.check_invariants()
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())


def count_fallbacks(tree, calls):
    """Count the edits ``apply_sorted`` hands to ``put`` / ``delete``."""
    def counted(name):
        plain = getattr(tree, name)

        def call(*args):
            calls[name] += 1
            return plain(*args)

        setattr(tree, name, call)

    counted("put")
    counted("delete")


batches = st.lists(
    st.dictionaries(
        st.integers(0, 120),
        st.one_of(st.none(), st.binary(min_size=0, max_size=40)),
        max_size=30,
    ),
    min_size=1, max_size=8,
)


class TestAgainstDictModel:
    @settings(max_examples=60, deadline=None)
    @given(batches, st.sampled_from([count_limited, byte_limited]))
    def test_mixed_batches(self, script, make_tree):
        tree, model = make_tree(), {}
        for batch in script:
            apply_batch(tree, model, batch)
            assert_matches(tree, model)

    @pytest.mark.parametrize("make_tree", [count_limited, byte_limited])
    def test_seeded_churn_splits_and_underflows(self, make_tree):
        # Growth then shrinkage: the first batches must split leaves, the
        # last must empty them, and both must have gone through put/delete.
        tree, model, calls = make_tree(), {}, {"put": 0, "delete": 0}
        count_fallbacks(tree, calls)
        # Values a count-limited leaf holds four of, and a page a dozen of.
        scale = 1 if tree.node_byte_limit is None else 8
        rng = random.Random(7)
        for phase in range(12):
            batch = {}
            for _ in range(40):
                i = rng.randrange(400)
                grow = rng.random() < (0.85 if phase < 6 else 0.1)
                batch[i] = bytes(scale * rng.randrange(1, 60)) if grow else None
            for i in rng.sample(sorted(model), min(5, len(model))):
                batch[int(i[1:])] = model[i]  # no-op: the value it already has
            apply_batch(tree, model, batch)
            assert_matches(tree, model)
        assert tree.depth() > 1
        assert calls["put"] > 0 and calls["delete"] > 0

    def test_fn_sees_the_old_value(self):
        tree = count_limited()
        tree.put(key(1), b"one")
        seen = []
        tree.apply_sorted([(key(1), lambda old: seen.append(old) or old + b"!"),
                           (key(2), lambda old: seen.append(old) or b"two")])
        assert seen == [b"one", None]
        assert dict(tree.items()) == {key(1): b"one!", key(2): b"two"}


class TestOrdering:
    @pytest.mark.parametrize("numbers", [[2, 1], [1, 1], [1, 3, 2]])
    def test_unsorted_or_duplicate_keys_raise_and_apply_nothing(self, numbers):
        tree = count_limited()
        with pytest.raises(BTreeError):
            tree.apply_sorted([(key(i), setter(b"v")) for i in numbers])
        assert len(tree) == 0

    def test_non_bytes_values_rejected(self):
        with pytest.raises(BTreeError):
            count_limited().apply_sorted([(key(1), setter("text"))])


class TestWriteCounts:
    def make_tree(self):
        tree = BPlusTree(max_keys=16)
        for i in range(0, 200, 2):
            tree.put(key(i), b"v")
        return tree

    def leaf_keys(self, tree, probe):
        _page_id, leaf = tree._find_leaf(key(probe))
        return [int(k[1:]) for k in leaf.keys]

    def test_a_batch_inside_one_leaf_is_one_write(self):
        tree = self.make_tree()
        first, second, third = self.leaf_keys(tree, 100)[:3]
        before = tree.store.writes
        tree.apply_sorted([
            (key(first), setter(b"replaced")),
            (key(first + 1), setter(b"inserted")),
            (key(second), setter(None)),
            (key(third), setter(b"v")),  # unchanged
        ])
        assert tree.store.writes - before == 1
        assert tree.get(key(first)) == b"replaced"
        assert tree.get(key(first + 1)) == b"inserted"
        assert key(second) not in tree
        tree.check_invariants()

    def test_a_batch_over_three_leaves_is_three_writes(self):
        tree = self.make_tree()
        targets = {self.leaf_keys(tree, probe)[0] for probe in (20, 100, 180)}
        assert len(targets) == 3
        before = tree.store.writes
        tree.apply_sorted([(key(i), setter(b"new")) for i in sorted(targets)])
        assert tree.store.writes - before == 3

    def test_returning_the_input_writes_nothing(self):
        tree = self.make_tree()
        before = tree.store.writes
        tree.apply_sorted([(key(i), lambda old: old) for i in range(0, 200)])
        assert tree.store.writes == before
        assert len(tree) == 100
