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
        "rank": {word: fs.rank_text(word, limit=None) for word in WORDS[:8]},
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
    """Records the first block of every whole-block read while ``log`` is a
    list (btree pages, the superblock and the journal are read this way)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = None

    def read_blocks(self, block, nblocks):
        if self.log is not None:
            self.log.append(block)
        return super().read_blocks(block, nblocks)


def tree_pages(tree):
    """Every page id of ``tree``, by walking it."""
    pages, stack = set(), [tree.root_id]
    while stack:
        page_id = stack.pop()
        pages.add(page_id)
        node = tree.store.read(page_id)
        if not node.is_leaf:
            stack.extend(node.children)
    return pages


def mount_traffic(documents, repeats=1):
    """Build ``documents`` twelve-word files (each repeated ``repeats`` times
    over), close, and mount the image.  Returns the mount's device-stats
    delta and its reads per tree: ``{"master", "fulltext", "image"}`` count
    reads of that tree's pages, ``"metadata_region"`` reads below the data
    region (superblock and journal), ``"elsewhere"`` every other read."""
    device = ReadLog(num_blocks=1 << 18)
    fs = make_fs(device)
    rng = random.Random(9)
    for serial in range(documents):
        words = " ".join(rng.choice(WORDS) for _ in range(12))
        fs.create((words + " ").encode() * repeats, path=f"/c/{serial}.txt")
    fs.close()
    before, device.log = device.stats.snapshot(), []
    mounted = HFADFileSystem.mount(device, query_cache_entries=0)
    log, device.log = device.log, None
    delta = device.stats.delta(before)
    trees = {"master": mounted.objects._master, "fulltext": mounted._fulltext_tree,
             "image": mounted._image_tree}
    owner = {page: name for name, tree in trees.items() for page in tree_pages(tree)}
    region_end = mounted.recovery.state["data_region_start"]
    reads = dict.fromkeys([*trees, "metadata_region", "elsewhere"], 0)
    for block in log:
        reads[owner.get(block, "metadata_region" if block < region_end else "elsewhere")] += 1
    mounted.close()
    return delta, reads


def test_persistent_mount_metadata_cost_independent_of_content_size():
    """Padding content must not grow a persisted mount's metadata reads.

    Three corpora with identical term structure but up to ~32x different
    content volume (padding repeats the same words): the mount reads the
    same master-tree pages for all three — metadata, extent maps and names
    are one shared tree that does not grow with object bytes — and every
    extra read is a full-text page (longer position rows: stored positions,
    larger tf).  No read lands outside the three trees, the superblock and
    the journal: a mount reads no per-object page.
    """
    (small, small_reads), (padded, padded_reads), (large, large_reads) = (
        mount_traffic(12, repeats) for repeats in (1, 4, 32)
    )
    for traffic, reads in ((padded, padded_reads), (large, large_reads)):
        assert reads["master"] == small_reads["master"], (small_reads, reads)
        assert traffic.reads - small.reads == (
            reads["fulltext"] - small_reads["fulltext"]), (small_reads, reads)
        assert reads["elsewhere"] == 0, reads
    assert large_reads["fulltext"] > small_reads["fulltext"]  # the gate can see growth
    # Padding every document 4x moves the mount by a handful of blocks, never
    # by the padding.
    assert abs(padded.blocks_read - small.blocks_read) <= 8, (small, padded)


def test_persistent_mount_cost_per_document_does_not_grow_with_the_corpus():
    # The mount reads index and metadata pages plus a fixed journal scan, so
    # blocks read per document can only fall as the corpus grows.
    (few, _), (many, _) = mount_traffic(12), mount_traffic(36)
    assert many.blocks_read / 36 <= few.blocks_read / 12, (few, many)
