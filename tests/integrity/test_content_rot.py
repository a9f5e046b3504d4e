"""Rot in object content: repaired, degraded with accounting, or surfaced.

Small objects' bytes live in content-tree leaves, CRC-framed and WAL-logged
like every btree page, so they get the scrub's repair ladder (pool copy,
WAL tail, quarantine).  Larger objects' bytes are chunks written once
outside the WAL; each extent carries its chunk's CRC32, checked when a read
covers the whole chunk and on every scrub pass.  A chunk that fails it has
no second copy: it is quarantined, every later read of it raises, and the
degraded rescue skips it and flags its answers partial.  Its bytes are
never returned.
"""

import pytest

from repro.core import HFADFileSystem
from repro.errors import CorruptionError
from repro.storage import BlockDevice

DOCUMENTS = 30


def make_fs(device=None):
    return HFADFileSystem(device=device or BlockDevice(num_blocks=1 << 15),
                          query_cache_entries=0)


def rightmost_leaf(tree):
    page_id, node = tree.root_id, tree.store.read(tree.root_id)
    while not node.is_leaf:
        page_id = node.children[-1]
        node = tree.store.read(page_id)
    return page_id


def chunk_of(fs, oid):
    """The first device block of the object's one chunk."""
    (_offset, extent), = fs.objects._extent_map(oid).extents()
    assert not extent.in_tree
    return extent.block


def large(serial):
    return (b"chunked corpus words unique%d " % serial) * 60  # over the limit


def small(serial):
    return (b"inline corpus words unique%d " % serial) * 8


# ------------------------------------------------------------------ chunks

def test_a_flipped_chunk_of_a_closed_image_is_never_returned():
    device = BlockDevice(num_blocks=1 << 15)
    fs = make_fs(device)
    oids = [fs.create(large(serial), path=f"/l/{serial}") for serial in range(4)]
    victim = oids[1]
    block = chunk_of(fs, victim)
    fs.close()
    device.flip_bit(block, 700)
    fs = HFADFileSystem.mount(device)
    with pytest.raises(CorruptionError, match=f"chunk at block {block} fails its CRC"):
        fs.read(victim)
    stats = fs.stats()["integrity"]
    assert stats["chunk_crc_failures"] == 1
    assert block in fs.integrity.quarantine
    # A read of part of the chunk is refused too: the damage is known.
    with pytest.raises(CorruptionError, match="quarantined"):
        fs.read(victim, 10, 20)
    for oid in oids:
        if oid != victim:
            assert fs.read(oid) == large(oids.index(oid))
    scrub = fs.scrub()
    assert scrub.chunks_scanned == 4
    assert scrub.chunks_corrupt == 1
    assert f"object {victim}: chunk at block {block} is quarantined" in scrub.errors
    report = fs.fsck()
    assert not report["clean"] and block in report["quarantined_pages"]
    # Freeing the chunk takes its damage with it.
    fs.delete(victim)
    assert fs.fsck()["clean"]
    assert fs.scrub().chunks_corrupt == 0
    fs.close()


def test_a_scrub_finds_chunk_rot_before_any_read():
    device = BlockDevice(num_blocks=1 << 15)
    fs = make_fs(device)
    oid = fs.create(large(0), path="/l/0")
    block = chunk_of(fs, oid)
    device.flip_bit(block, 3)
    scrub = fs.scrub()
    assert scrub.complete and scrub.chunks_corrupt == 1
    assert fs.stats()["integrity"]["chunk_crc_failures"] == 1
    with pytest.raises(CorruptionError):
        fs.read(oid)
    fs.close()


def test_a_sliced_chunk_keeps_its_crc():
    fs = make_fs()
    oid = fs.create(large(0))
    fs.insert(oid, 100, b"[x]")  # the chunk is named by two extents now
    extents = [extent for _offset, extent in fs.objects._extent_map(oid).extents()]
    chunks = [extent for extent in extents if not extent.in_tree]
    assert len(chunks) == 2 and chunks[0].crc == chunks[1].crc != 0
    assert fs.scrub().chunks_scanned == 1
    assert fs.read(oid) == large(0)[:100] + b"[x]" + large(0)[100:]
    fs.close()


@pytest.mark.parametrize("where", ["chunk", "content leaf"])
def test_rotten_content_degrades_a_rescue_with_accounting(where):
    """The posting tree and one object's bytes both rotten: the rescan that
    stands in for the postings skips the object and flags its answer."""
    device = BlockDevice(num_blocks=1 << 15)
    fs = make_fs(device)
    body = large if where == "chunk" else small
    oids = [fs.create(body(serial), path=f"/d/{serial}") for serial in range(DOCUMENTS)]
    fs.checkpoint()  # journal truncated: no WAL repair source
    if where == "chunk":
        victims = {oids[-1]}
        rotten = chunk_of(fs, oids[-1])
    else:
        content = fs.objects._content
        rotten = rightmost_leaf(content)
        leaf = content.store.read(rotten)
        victims = {oid for oid in oids
                   if any(extent.block in {int.from_bytes(key, "big") for key in leaf.keys}
                          for _offset, extent in fs.objects._extent_map(oid).extents())}
        content.store._consumer.drop_all(write_back=True)  # no cached copy
        assert 0 < len(victims) < DOCUMENTS
    fs._fulltext_tree.store._consumer.drop_all(write_back=True)
    device.flip_bit(fs._fulltext_tree.root_id, 40)
    device.flip_bit(rotten, 700)
    scrub = fs.scrub()
    assert scrub.quarantined + scrub.chunks_corrupt == 2
    before = fs.stats()["integrity"]
    assert fs.search_text("corpus") == [oid for oid in oids if oid not in victims]
    after = fs.stats()["integrity"]
    assert after["degraded_queries"] == before["degraded_queries"] + 1
    assert after["partial_results"] == before["partial_results"] + 1
    for oid in victims:
        with pytest.raises(CorruptionError):
            fs.read(oid)
    fs.close()


# ------------------------------------------------------------ content leaves

def test_a_flipped_content_leaf_is_repaired_from_the_pool():
    device = BlockDevice(num_blocks=1 << 15)
    fs = make_fs(device)
    oids = [fs.create(small(serial), path=f"/s/{serial}") for serial in range(DOCUMENTS)]
    fs.checkpoint()  # home written, journal truncated; the leaf stays cached
    leaf = rightmost_leaf(fs.objects._content)
    device.flip_bit(leaf, 700)
    scrub = fs.scrub()
    assert scrub.repaired_from_cache == 1 and scrub.quarantined == 0
    assert fs.fsck()["clean"]
    fs.close()
    mounted = HFADFileSystem.mount(device)
    assert [mounted.read(oid) for oid in oids] == [small(serial) for serial in range(DOCUMENTS)]
    mounted.close()


def test_a_flipped_content_leaf_is_repaired_from_the_wal():
    device = BlockDevice(num_blocks=1 << 15)
    fs = make_fs(device)
    oids = [fs.create(small(serial), path=f"/s/{serial}") for serial in range(DOCUMENTS)]
    content = fs.objects._content
    leaf = rightmost_leaf(content)
    # Written home, but the journal still holds the leaf's full image.
    content.store._consumer.drop_all(write_back=True)
    assert fs.recovery.journal.latest_page_image(leaf) is not None
    device.flip_bit(leaf, 700)
    assert fs.scrub().repaired_from_wal == 1
    assert [fs.read(oid) for oid in oids] == [small(serial) for serial in range(DOCUMENTS)]
    fs.close()


def test_a_flipped_content_leaf_of_a_closed_image_is_surfaced():
    device = BlockDevice(num_blocks=1 << 15)
    fs = make_fs(device)
    oids = [fs.create(small(serial), path=f"/s/{serial}") for serial in range(DOCUMENTS)]
    leaf = rightmost_leaf(fs.objects._content)
    fs.close()
    device.flip_bit(leaf, 700)
    fs = HFADFileSystem.mount(device)  # the mount reads no leaf but the leftmost
    with pytest.raises(CorruptionError, match=f"page {leaf}"):
        fs.read(oids[-1])
    assert fs.read(oids[0]) == small(0)
    assert leaf in fs.integrity.quarantine
    scrub = fs.scrub()
    assert f"page {leaf}: unrepairable, quarantined" in scrub.errors
    assert not fs.fsck()["clean"]
    # Full-text answers come from the posting tree, not the rotten bytes.
    assert fs.search_text("inline") == oids
    fs.close()
