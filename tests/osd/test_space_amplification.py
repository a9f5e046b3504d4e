"""Space-amplification gate: the device's trees are byte-filled 4 KB pages.

Beside ``tests/fulltext/test_write_amplification.py``: that one bounds what a
create *writes*, this one what the image *holds*.  A node splits when its
encoding outgrows its page and not before, so leaves sit between half full
(a fresh split) and full; a count rule tripping first (32 keys left a leaf
at 11 % of a 16 KB page), or a page of any other size, lands here, not in a
benchmark.

Measured on this corpus (seed 23): full-text leaves 59 % full, master leaves
55 %, 2.42 allocator blocks per document — one data chunk each, the rest the
three shared trees (every object's extents are master-tree keys; a tree per
object cost one more page each, 3.41).  The bounds: 45 % (the floor of a
byte-balanced split is 50 % less one entry) and 2.8 blocks (~15 % headroom).
"""

import random

from repro import HFADFileSystem
from repro.btree import PAGE_BYTES

DOCUMENTS = 200
TOKENS = 80
VOCABULARY = [f"t{i:04d}" for i in range(2000)]


def page_ids(tree):
    """``(every page id, leaf page ids)`` of ``tree``, by walking it."""
    pages, leaves, stack = [], [], [tree.root_id]
    while stack:
        page_id = stack.pop()
        node = tree.store.read(page_id)
        pages.append(page_id)
        if node.is_leaf:
            leaves.append(page_id)
        else:
            stack.extend(node.children)
    return pages, leaves


def test_trees_are_byte_filled_page_bytes_pages():
    rng = random.Random(23)
    fs = HFADFileSystem(num_blocks=1 << 16)
    allocator, device = fs.objects.allocator, fs.device
    held_by_mkfs = allocator.allocated_blocks
    for number in range(DOCUMENTS):
        # Zipf-ish: squaring a uniform draw favours the low ranks.
        words = [VOCABULARY[int(rng.random() ** 2 * len(VOCABULARY))] for _ in range(TOKENS)]
        fs.create(" ".join(words).encode(), path=f"/d/{number}")
    fs.checkpoint()  # settles the posting backlog into the full-text tree

    shared = {"fulltext": fs.fulltext_index.index.tree, "master": fs.objects._master,
              "image": fs._image_tree}
    for name, tree in shared.items():
        store = tree.store
        assert store.page_blocks * device.block_size == PAGE_BYTES, name
        for page_id in page_ids(tree)[0]:
            assert allocator.allocation_order(page_id) == allocator.order_for(store.page_blocks)
            assert len(device.read_blocks(page_id, store.page_blocks)) == PAGE_BYTES
            assert store.read(page_id).nbytes <= store.page_bytes

    for name in ("fulltext", "master"):
        tree = shared[name]
        leaves = page_ids(tree)[1]
        assert len(leaves) > 10, (name, len(leaves))
        fill = sum(tree.store.read(page_id).nbytes for page_id in leaves) / len(leaves)
        assert fill >= 0.45 * tree.store.page_bytes, (name, fill)

    blocks_per_document = (allocator.allocated_blocks - held_by_mkfs) / DOCUMENTS
    assert blocks_per_document <= 2.8, blocks_per_document
    fs.close()
