"""Mounts with a persisted index read zero object content.

The acceptance gate for ``repro.index`` persistence: re-opening a device
must re-attach the full-text and image indexes from their on-device btrees
— the only reads a mount issues are metadata reads (superblock, journal,
btree pages), never object-content byte ranges — and the answers must be
byte-identical to the pre-unmount instance.  A second test reads one object
through the same tracker to prove it actually bites.
"""

import random

from repro.core import HFADFileSystem
from repro.storage import BlockDevice

WORDS = (
    "anchor beacon copper dynamo escrow fathom gutter hammer island jumper "
    "kettle lumber marrow needle oxbow packet quiver ribbon shovel timber"
).split()

NUM_DOCS = 40


class ContentReadTracker(BlockDevice):
    """Counts byte-granularity reads — the object-content read path.

    Every object-content read goes through :meth:`read_bytes` (extent data
    is addressed by byte range within a chunk); all metadata — superblock,
    journal, btree pages — is read with whole-block requests.  So a nonzero
    ``content_reads`` during a mount means object bytes were re-read.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.content_reads = 0
        self.tracking = False

    def read_bytes(self, block, offset, length):
        if self.tracking:
            self.content_reads += 1
        return super().read_bytes(block, offset, length)


def build_corpus(fs, rng):
    oids = []
    for serial in range(NUM_DOCS):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(8, 40)))
        oid = fs.create(words.encode(), path=f"/corpus/d{serial}.txt",
                        annotations=[f"doc{serial}"])
        oids.append(oid)
        if serial % 4 == 0:
            fs.index_image(oid, [rng.random() + 0.01 for _ in range(8)])
    return oids


def snapshot_answers(fs):
    return {
        "objects": fs.list_objects(),
        "search": {word: fs.search_text(word) for word in WORDS},
        "rank": {word: fs.rank(word, limit=None) for word in WORDS[:8]},
        "pairs": fs.search_text(f"{WORDS[0]} {WORDS[1]}"),
        "image": {c: fs.query(f"IMAGE/color:{c}")
                  for c in ("red", "green", "blue", "gray")},
    }


def make_fs(device):
    return HFADFileSystem(
        device=device,
        query_cache_entries=0,
    )


def test_persistent_mount_reads_no_object_content():
    device = ContentReadTracker(num_blocks=1 << 16)
    fs = make_fs(device)
    build_corpus(fs, random.Random(5))
    expected = snapshot_answers(fs)
    fs.close()

    device.tracking = True
    mounted = HFADFileSystem.mount(device, query_cache_entries=0)
    mount_content_reads = device.content_reads
    device.tracking = False

    assert mount_content_reads == 0, (
        f"mount re-read object content {mount_content_reads} times despite "
        "the persisted index"
    )
    assert snapshot_answers(mounted) == expected
    assert mounted.fsck()["clean"]
    mounted.close()


def test_the_content_read_tracker_counts_an_object_read():
    """The zero above means something: one ``read`` of one object counts."""
    device = ContentReadTracker(num_blocks=1 << 16)
    fs = make_fs(device)
    oid = fs.create(b"anchor beacon copper", path="/ok.txt")
    fs.close()
    mounted = HFADFileSystem.mount(device, query_cache_entries=0)
    device.tracking = True
    assert mounted.read(oid) == b"anchor beacon copper"
    assert device.content_reads > 0
    mounted.close()


class ReadLog(BlockDevice):
    """Records ``(first block, blocks)`` of every whole-block read while
    ``log`` is a list (btree pages, the superblock and the journal are read
    this way)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = None

    def read_blocks(self, block, nblocks):
        if self.log is not None:
            self.log.append((block, nblocks))
        return super().read_blocks(block, nblocks)


def tree_pages(tree, leaves=True):
    """Every page id of ``tree`` (only inner ones without ``leaves``)."""
    pages, stack = set(), [tree.root_id]
    while stack:
        page_id = stack.pop()
        node = tree.store.read(page_id)
        if leaves or not node.is_leaf:
            pages.add(page_id)
        if not node.is_leaf:
            stack.extend(node.children)
    return pages


def mount_traffic(documents, repeats=1, images=False):
    """Build ``documents`` twelve-word files (each repeated ``repeats`` times
    over, each with a colour histogram when ``images``), close, and mount
    the image.

    Returns the mount's device-stats delta, its blocks read per tree —
    ``{"master", "fulltext", "image"}`` count reads of that tree's pages,
    ``"metadata_region"`` reads below the data region (superblock and
    journal), ``"elsewhere"`` every other read — and per tree
    ``(inner pages, leaf pages)`` of the mounted image."""
    device = ReadLog(num_blocks=1 << 18)
    fs = make_fs(device)
    rng = random.Random(9)
    for serial in range(documents):
        words = " ".join(rng.choice(WORDS) for _ in range(12))
        oid = fs.create((words + " ").encode() * repeats, path=f"/c/{serial}.txt")
        if images:
            fs.index_image(oid, [rng.random() + 0.01 for _ in range(8)])
    fs.close()
    before, device.log = device.stats.snapshot(), []
    mounted = HFADFileSystem.mount(device, query_cache_entries=0)
    log, device.log = device.log, None
    delta = device.stats.delta(before)
    trees = {"master": mounted.objects._master, "fulltext": mounted._fulltext_tree,
             "image": mounted._image_tree}
    owner = {page: name for name, tree in trees.items() for page in tree_pages(tree)}
    shape = {}
    for name, tree in trees.items():
        inner = len(tree_pages(tree, leaves=False))
        shape[name] = (inner, len(tree_pages(tree)) - inner)
    region_end = mounted.recovery.state["data_region_start"]
    reads = dict.fromkeys([*trees, "metadata_region", "elsewhere"], 0)
    for block, nblocks in log:
        where = "metadata_region" if block < region_end else "elsewhere"
        reads[owner.get(block, where)] += nblocks
    mounted.close()
    return delta, reads, shape


def assert_index_trees_read_by_reference(reads, shape):
    """A mount reads every inner page of an index tree and almost no leaf.

    The leaves read are the leftmost one (the descent that finds the leaf
    depth) and, in the full-text tree, the leaves holding the start of the
    (empty) backlog ranges.  The image index loads nothing: its tree costs
    its inner pages and that one probe.
    """
    inner, _leaves = shape["fulltext"]
    assert inner + 1 <= reads["fulltext"] <= inner + 3, (reads, shape)
    assert reads["image"] == shape["image"][0] + 1, (reads, shape)


def test_persistent_mount_metadata_cost_independent_of_content_size():
    """Padding content must not grow a persisted mount's metadata reads.

    Three corpora with identical term structure but up to ~32x different
    content volume (padding repeats the same words): the mount reads the
    same master-tree pages for all three — metadata, extent maps and names
    are one shared tree that does not grow with object bytes.  The padded
    full-text tree has more leaves (longer position rows), and the mount
    reads none of them beyond the leaf probes: index leaves are reserved
    from their parents' child lists.  No read lands outside the three
    trees, the superblock and the journal: a mount reads no per-object
    page, and after a clean close the journal costs one block.
    """
    (small, small_reads, small_shape), *padded_runs = (
        mount_traffic(12, repeats) for repeats in (1, 4, 32)
    )
    for traffic, reads, shape in [(small, small_reads, small_shape), *padded_runs]:
        assert reads["master"] == small_reads["master"], (small_reads, reads)
        assert_index_trees_read_by_reference(reads, shape)
        assert reads["metadata_region"] <= 2, reads
        assert reads["elsewhere"] == 0, reads
        assert traffic.blocks_read == sum(reads.values()), (traffic, reads)
    _traffic, _reads, large_shape = padded_runs[-1]
    # The gate can see growth: the padded tree is bigger than the mount's reads.
    assert large_shape["fulltext"][1] > small_shape["fulltext"][1] + 3


def test_persistent_mount_cost_per_document_does_not_grow_with_the_corpus():
    # The mount reads metadata pages and index inner pages plus a fixed
    # journal scan, so blocks read per document can only fall as the corpus
    # grows.
    (few, _, _), (many, _, _) = mount_traffic(12), mount_traffic(36)
    assert many.blocks_read / 36 <= few.blocks_read / 12, (few, many)


def test_mount_reads_grow_only_with_the_master_tree():
    """The mount's slope: from 0 to 1,000 objects only the master tree's
    share of the blocks read grows.  The superblock and the journal tail
    stay at one block each after a clean close, and each index tree costs
    its inner pages plus a probe or two, never its leaves."""
    runs = [mount_traffic(objects) for objects in (0, 300, 1000)]
    for _traffic, reads, shape in runs:
        assert reads["metadata_region"] <= 2, reads
        assert reads["elsewhere"] == 0, reads
        assert_index_trees_read_by_reference(reads, shape)
        assert reads["master"] == sum(shape["master"]), (reads, shape)
    (_, empty, _), (_, mid, _), (_, large, large_shape) = runs
    assert empty["master"] < mid["master"] < large["master"]
    # At 1,000 objects the posting tree holds over a hundred leaves, and
    # the mount reads a handful of its pages.
    assert large_shape["fulltext"][1] > 100
    assert large["fulltext"] < 10


def test_a_mount_reads_no_image_leaf_but_the_probe():
    """The image tree is the image index's only copy, read by queries: a
    mount reserves its leaves by reference like the posting tree's."""
    _traffic, reads, shape = mount_traffic(300, images=True)
    assert shape["image"][1] > 3, shape
    assert_index_trees_read_by_reference(reads, shape)
    assert reads["elsewhere"] == 0, reads
