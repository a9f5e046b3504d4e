"""The append split: a leaf overflowing at the end of an ascending run splits full.

``BPlusTree(append_ranges=...)`` declares key ranges whose new keys arrive
in ascending order.  When the insert of a new key that ends its range's run
overflows a leaf, the left leaf keeps as much as its page holds and the
right one at least a quarter page; every other split stays even.  Held on
logged device stores (splits by bytes), against a dict model, and through
the engine's mkfs and mount paths.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import LEAF_ENTRY_OVERHEAD
from repro.core import HFADFileSystem
from repro.storage import BlockDevice

DECLARED = ((b"a", b"b"),)


def key(run: bytes, number: int) -> bytes:
    return run + struct.pack(">I", number)


def leaves(tree):
    """Every leaf, left to right, by a walk from the root."""
    found, stack = [], [tree.root_id]
    while stack:
        node = tree.store.read(stack.pop())
        if node.is_leaf:
            found.append(node)
        else:
            stack.extend(reversed(node.children))
    return found


def fills(tree, nodes):
    return [node.nbytes / tree.node_byte_limit for node in nodes]


def make_tree(logged_stack, append_ranges=()):
    stack = logged_stack(cache_pages=16, journal_blocks=256, num_blocks=1 << 14)
    return stack.tree(append_ranges=append_ranges), stack.recovery.transaction


def put_all(tree, txn, items):
    for item_key, value in items:
        with txn():
            tree.put(item_key, value)


def entry_size(item_key, value):
    return LEAF_ENTRY_OVERHEAD + len(item_key) + len(value)


def fill_root_leaf(tree, txn, keys, value):
    """Put ``keys`` in order while the root leaf still fits the next one;
    returns the keys put."""
    put = []
    for item_key in keys:
        root = tree.store.read(tree.root_id)
        if root.nbytes + entry_size(item_key, value) > tree.node_byte_limit:
            break
        put_all(tree, txn, [(item_key, value)])
        put.append(item_key)
    return put


def assert_split_evenly(tree):
    """The tree is two leaves whose sizes differ by at most one entry."""
    left, right = leaves(tree)
    largest = max(left.entry_size(i) for i in range(len(left.keys)))
    largest = max(largest, *(right.entry_size(i) for i in range(len(right.keys))))
    assert abs(left.nbytes - right.nbytes) <= largest, (left.nbytes, right.nbytes)


class TestAscendingAppends:
    @pytest.mark.parametrize("after", [(), [key(b"z", n) for n in range(5)]],
                             ids=["alone", "before-another-run"])
    def test_a_declared_run_fills_its_leaves(self, logged_stack, after):
        tree, txn = make_tree(logged_stack, DECLARED)
        put_all(tree, txn, [(k, b"tail") for k in after])
        put_all(tree, txn, [(key(b"a", n), bytes(90)) for n in range(600)])
        tree.check_invariants()
        run = [leaf for leaf in leaves(tree) if leaf.keys[0] < b"b"]
        assert len(run) > 10
        assert min(fills(tree, run[:-1])) >= 0.70, fills(tree, run)

    def test_the_same_keys_undeclared_split_evenly(self, logged_stack):
        tree, txn = make_tree(logged_stack)
        put_all(tree, txn, [(key(b"a", n), bytes(90)) for n in range(600)])
        tree.check_invariants()
        assert max(fills(tree, leaves(tree)[:-1])) < 0.60

    def test_a_batch_append_splits_full_too(self, logged_stack):
        # ``apply_sorted`` hands the overflowing insert to ``put``.
        tree, txn = make_tree(logged_stack, DECLARED)
        for start in range(0, 600, 40):
            with txn():
                tree.apply_sorted([(key(b"a", n), lambda _old: bytes(90))
                                   for n in range(start, start + 40)])
        tree.check_invariants()
        assert min(fills(tree, leaves(tree)[:-1])) >= 0.70


class TestEvenSplits:
    def test_a_growing_replace(self, logged_stack):
        tree, txn = make_tree(logged_stack, DECLARED)
        keys = fill_root_leaf(tree, txn, [key(b"a", n) for n in range(100)], bytes(90))
        put_all(tree, txn, [(keys[-1], bytes(400))])
        assert_split_evenly(tree)

    def test_a_mid_run_insert(self, logged_stack):
        tree, txn = make_tree(logged_stack, DECLARED)
        keys = fill_root_leaf(tree, txn, [key(b"a", 2 * n) for n in range(100)], bytes(90))
        put_all(tree, txn, [(key(b"a", 2 * (len(keys) // 2) + 1), bytes(200))])
        assert_split_evenly(tree)

    def test_an_insert_whose_successor_is_in_the_same_range(self, logged_stack):
        # Keys past the left leaf's last one but below its separator, which
        # is in the run: each is the leaf's last key, none ends the run.
        tree, txn = make_tree(logged_stack, DECLARED)
        put_all(tree, txn, [(key(b"a", 100 * n), bytes(90)) for n in range(60)])
        first = leaves(tree)[0]
        last, before = struct.unpack(">I", first.keys[-1][1:])[0], len(leaves(tree))
        for step in range(1, 100):
            put_all(tree, txn, [(key(b"a", last + step), bytes(90))])
            if len(leaves(tree)) > before:
                break
        tree.check_invariants()
        split_left, split_right = leaves(tree)[:2]
        assert abs(split_left.nbytes - split_right.nbytes) <= entry_size(b"a1234", bytes(90))

    def test_an_undeclared_tree(self, logged_stack):
        tree, txn = make_tree(logged_stack)
        keys = fill_root_leaf(tree, txn, [key(b"a", n) for n in range(100)], bytes(90))
        put_all(tree, txn, [(key(b"a", len(keys)), bytes(90))])
        assert_split_evenly(tree)

    def test_a_key_outside_every_declared_range(self, logged_stack):
        tree, txn = make_tree(logged_stack, DECLARED)
        keys = fill_root_leaf(tree, txn, [key(b"c", n) for n in range(100)], bytes(90))
        put_all(tree, txn, [(key(b"c", len(keys)), bytes(90))])
        assert_split_evenly(tree)

    def test_the_run_end_splits_full(self, logged_stack):
        # The counterpart of the cases above: the same leaf, its run's next
        # key appended, keeps all but a quarter page on the left.
        tree, txn = make_tree(logged_stack, DECLARED)
        keys = fill_root_leaf(tree, txn, [key(b"a", n) for n in range(100)], bytes(90))
        put_all(tree, txn, [(key(b"a", len(keys)), bytes(90))])
        left, right = leaves(tree)
        limit = tree.node_byte_limit
        assert right.nbytes >= limit // 4 > right.nbytes - entry_size(keys[0], bytes(90))
        assert left.nbytes > 0.70 * limit


# Two declared ranges (one bounded, one open-ended) around an undeclared one.
RANGES = ((b"a", b"b"), (b"c", None))
RUNS = (b"a", b"b", b"c")

# Value sizes up to a seventh of a page: a few dozen appends split a leaf.
sizes = st.integers(0, 600)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.sampled_from(RUNS), st.integers(1, 30), sizes),
        st.tuples(st.just("insert"), st.sampled_from(RUNS), st.integers(0, 10_000), sizes),
        st.tuples(st.just("grow"), st.integers(0, 10_000), st.integers(1, 600)),
        st.tuples(st.just("delete"), st.integers(0, 10_000), st.integers(1, 10)),
        st.tuples(st.just("batch"), st.sampled_from(RUNS),
                  st.dictionaries(st.integers(0, 10_000), st.one_of(st.none(), sizes),
                                  max_size=12)),
    ),
    min_size=5, max_size=40,
)


class TestAgainstDictModel:
    @settings(max_examples=50, deadline=None)
    @given(steps)
    def test_interleavings_keep_the_invariants(self, logged_stack, script):
        tree, txn = make_tree(logged_stack, RANGES)
        model = {}
        next_number = dict.fromkeys(RUNS, 10_000)  # appends go past the rest
        for step in script:
            kind = step[0]
            with txn():
                if kind == "append":
                    _kind, run, count, size = step
                    for _ in range(count):
                        next_number[run] += 1
                        item = key(run, next_number[run]), bytes(size)
                        tree.put(*item)
                        model[item[0]] = item[1]
                elif kind == "insert":
                    _kind, run, number, size = step
                    tree.put(key(run, number), bytes(size))
                    model[key(run, number)] = bytes(size)
                elif kind == "grow" and model:
                    _kind, pick, extra = step
                    item_key = sorted(model)[pick % len(model)]
                    # Capped under a third of a page: no entry outgrows
                    # half a page, where even a repair may fail.
                    model[item_key] = bytes(min(len(model[item_key]) + extra, 1300))
                    tree.put(item_key, model[item_key])
                elif kind == "delete" and model:
                    _kind, pick, count = step
                    ordered = sorted(model)
                    for item_key in ordered[pick % len(ordered):][:count]:
                        tree.delete(item_key)
                        del model[item_key]
                elif kind == "batch":
                    _kind, run, edits = step
                    updates = []
                    for number in sorted(edits):
                        size = edits[number]
                        value = None if size is None else bytes(size)
                        updates.append((key(run, number), lambda _old, value=value: value))
                        if value is None:
                            model.pop(key(run, number), None)
                        else:
                            model[key(run, number)] = value
                    tree.apply_sorted(updates)
            tree.check_invariants()
            assert list(tree.items()) == sorted(model.items())


def test_the_engine_declares_its_runs_at_mkfs_and_at_mount():
    """300 creates, a remount, 100 more: the runs created on either side of
    the mount split full, so the mount declares what mkfs does."""
    device = BlockDevice(num_blocks=1 << 15)
    fs = HFADFileSystem(device=device)

    def create(fs, number):
        words = " ".join(f"w{number}x{i}" for i in range(12))
        fs.create(f"document {number}: {words}".encode() * 2, path=f"/d/{number}")

    for number in range(300):
        create(fs, number)
    fs.close()
    fs = HFADFileSystem.mount(device)
    before = {name: len(run_leaves(name, tree)) for name, tree in trees(fs).items()}
    for number in range(300, 400):
        create(fs, number)
    fs.checkpoint()
    report = fs.fsck()
    assert report["errors"] == [], report["errors"]
    for name, tree in trees(fs).items():
        # The leaf open at the mount and those split off since, but the
        # one still open: undeclared, they would be half full.
        since_mount = run_leaves(name, tree)[before[name] - 1:-1]
        assert len(since_mount) >= 3, name
        assert min(fills(tree, since_mount)) >= 0.70, (name, fills(tree, since_mount))
    fs.close()


def run_leaves(name, tree):
    """The leaves of ``tree`` whose last key is in its declared run."""
    return [leaf for leaf in leaves(tree) if leaf.keys and in_run(name, leaf.keys[-1])]


def trees(fs):
    return {"master": fs.objects._master, "content": fs.objects._content,
            "fulltext": fs._fulltext_tree}


def in_run(name, item_key):
    """Whether ``item_key`` lies in the tree's declared append run."""
    if name == "master":
        return item_key < b"\xff"
    if name == "fulltext":
        return item_key.startswith(b"D\x00")
    return True
