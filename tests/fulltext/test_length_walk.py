"""The ranking walk reads ``L`` records with one cursor, not one lookup a block.

``rank`` asks for a block's document lengths in ascending block order, so
``_block_norms`` steps a single btree cursor along the ``L`` run with it and
seeks only across a long gap (or a step back).  Whatever the order and the
gaps, its normalisers must equal those of a fresh lookup per block, and an
ascending walk must read fewer pages than those lookups.
"""

import random

from repro.fulltext.persistent_index import (
    _LENGTHS,
    _NO_LENGTHS,
    BLOCK_SPAN,
    PersistentInvertedIndex,
)

K1, B = 1.2, 0.75


def indexed(blocks, seed=5):
    """An index with a few documents in each of ``blocks``."""
    rng = random.Random(seed)
    engine = PersistentInvertedIndex()
    for block in blocks:
        for slot in rng.sample(range(BLOCK_SPAN), 3):
            engine.add_document(block * BLOCK_SPAN + slot,
                                " ".join(rng.choice("abcdef") for _ in range(rng.randint(1, 9))))
    return engine


def looked_up(engine, block, slots, average_length):
    """The normalisers from a root-to-leaf lookup of the block's ``L`` record."""
    lengths = _LENGTHS.unpack(engine.tree.get(engine._length_key(block)) or _NO_LENGTHS)
    return {slot: K1 * (1 - B + B * ((lengths[slot] - 1) or 1) / average_length)
            for slot in slots}


def test_every_order_and_gap_matches_a_lookup_per_block():
    blocks = sorted(random.Random(1).sample(range(400), 120))
    engine = indexed(blocks)
    rng = random.Random(2)
    asked = sorted(rng.sample(range(420), 90))  # missing blocks and past the end
    asked += [asked[-1], 7, 3, 399, 0]          # a repeat, steps back, a jump ahead
    norms = engine._block_norms(K1, B, 4.0)
    for block in asked:
        slots = rng.sample(range(BLOCK_SPAN), 5)
        assert norms(block, slots) == looked_up(engine, block, slots, 4.0), block


def test_an_ascending_walk_reads_fewer_pages_than_lookups():
    blocks = list(range(300))
    engine = indexed(blocks)
    store = engine.tree.store
    before = store.reads
    norms = engine._block_norms(K1, B, 4.0)
    for block in blocks:
        norms(block, [0])
    walked = store.reads - before
    before = store.reads
    for block in blocks:
        looked_up(engine, block, [0], 4.0)
    assert walked * 3 < store.reads - before
