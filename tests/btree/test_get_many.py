"""``BPlusTree.get_many``: the values of sorted keys, one descent per leaf.

Held against a dict model on count-limited and byte-limited trees, and
counted: keys that share a leaf cost one descent, a key past the leaf's
upper bound one more.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree
from repro.errors import BTreeError


def key(i: int) -> bytes:
    return b"k%05d" % i


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 300), st.binary(max_size=40), max_size=200),
       st.sets(st.integers(0, 320), max_size=60), st.sampled_from([3, 4, 64, None]))
def test_matches_one_get_per_key(logged_stack, contents, wanted, max_keys):
    # max_keys None: a byte-limited tree over a logged device store.
    if max_keys is None:
        stack = logged_stack(cache_pages=16, journal_blocks=256, num_blocks=1 << 14)
        tree, txn = stack.tree(), stack.recovery.transaction
    else:
        tree, txn = BPlusTree(max_keys=max_keys), nullcontext
    with txn():
        for i, value in contents.items():
            tree.put(key(i), value)
    keys = [key(i) for i in sorted(wanted)]
    assert tree.get_many(keys) == [contents.get(i) for i in sorted(wanted)]
    assert tree.get_many(keys) == [tree.get(k) for k in keys]


def make_tree():
    tree = BPlusTree(max_keys=16)
    for i in range(0, 400, 2):
        tree.put(key(i), b"v%d" % i)
    return tree


def leaf_numbers(tree, probe):
    _page_id, leaf, _upper = tree._find_leaf(key(probe))
    return [int(k[1:]) for k in leaf.keys]


def visits(tree, keys):
    before = tree.node_visits
    tree.get_many(keys)
    return tree.node_visits - before


def test_keys_in_one_leaf_cost_one_descent():
    tree = make_tree()
    assert tree.depth() > 2
    numbers = leaf_numbers(tree, 200)
    # Present and absent keys alike, up to the last one the leaf may hold.
    keys = [key(numbers[0]), key(numbers[0] + 1), key(numbers[-1])]
    assert visits(tree, keys) == tree.depth()
    assert tree.get_many(keys) == [b"v%d" % numbers[0], None, b"v%d" % numbers[-1]]


def test_a_key_past_the_leaf_descends_again():
    tree = make_tree()
    numbers = leaf_numbers(tree, 200)
    keys = [key(numbers[0]), key(numbers[-1] + 2)]  # the next leaf's first key
    assert visits(tree, keys) == 2 * tree.depth()
    assert tree.get_many([key(0), key(398), key(399)]) == [b"v0", b"v398", None]
    assert tree.get_many([]) == []


@pytest.mark.parametrize("numbers", [[2, 1], [1, 1]])
def test_unsorted_or_duplicate_keys_raise(numbers):
    with pytest.raises(BTreeError):
        make_tree().get_many([key(i) for i in numbers])
