"""fsck's integrity checks: superblock, journal region, quarantine.

fsck *reports* damage — it must never raise, whatever the device holds.
"""

from repro.core import HFADFileSystem
from repro.recovery.superblock import SUPERBLOCK_BLOCK
from repro.storage import BlockDevice


def make_fs():
    device = BlockDevice(num_blocks=1 << 14)
    fs = HFADFileSystem(device=device)
    fs.create(b"fsck probe content", path="/probe.txt")
    fs.checkpoint()
    return device, fs


class TestSuperblockChecks:
    def test_clean_superblock_passes(self):
        _device, fs = make_fs()
        report = fs.fsck()
        assert report["clean"], report["errors"]
        fs.close()

    def test_flipped_superblock_bit_is_reported_not_raised(self):
        device, fs = make_fs()
        device.flip_bit(SUPERBLOCK_BLOCK, 130)  # inside the JSON payload
        report = fs.fsck()
        assert not report["clean"]
        assert any("superblock" in error for error in report["errors"])
        fs.close()

    def test_zeroed_superblock_is_reported(self):
        device, fs = make_fs()
        device.write_block(SUPERBLOCK_BLOCK, b"\x00" * device.block_size)
        report = fs.fsck()
        assert any("superblock" in error for error in report["errors"])
        fs.close()


class TestJournalRegionChecks:
    def test_clean_journal_region_matches_memory(self):
        _device, fs = make_fs()
        fs.create(b"logged but not yet checkpointed", path="/tail.txt")
        report = fs.fsck()
        assert report["clean"], report["errors"]
        assert report["journal_region"]["matches_memory"]
        fs.close()

    def test_corrupted_journal_header_is_reported(self):
        device, fs = make_fs()
        # Put fresh records in the journal, then damage the header region
        # on the device behind the journal's back.
        fs.create(b"a transaction in the journal tail", path="/t.txt")
        journal_start = fs.recovery.journal.journal_start
        device.flip_bit(journal_start, 3)
        report = fs.fsck()
        assert not report["clean"]
        assert any("journal" in error for error in report["errors"])
        assert not report["journal_region"]["matches_memory"]
        fs.close()


class TestQuarantineReporting:
    def test_quarantined_pages_listed(self):
        device, fs = make_fs()
        tree = fs._fulltext_tree
        tree.store._consumer.drop_all(write_back=True)
        device.flip_bit(tree.root_id, 40)
        fs.scrub()
        report = fs.fsck()
        assert not report["clean"]
        assert report["quarantined_pages"] == [tree.root_id]
        assert any("quarantined" in error for error in report["errors"])
        fs.close()


class TestAllocatorCrossCheck:
    """fsck rebuilds occupancy from every reachable page and chunk and
    compares it with the live allocator."""

    def test_a_healthy_filesystem_has_no_occupancy_errors(self):
        # Group commit leaves the delete's marker buffered: its chunk is
        # unreachable but still allocated, waiting on a deferred free.
        fs = HFADFileSystem(device=BlockDevice(num_blocks=1 << 14), group_commit=64)
        for serial in range(30):
            fs.create(f"occupancy probe {serial}".encode(), path=f"/o/{serial}.txt")
        fs.delete(fs.lookup_path("/o/3.txt"))
        assert fs.recovery.deferred_actions()
        report = fs.fsck()
        assert report["clean"], report["errors"]
        fs.close()

    def test_an_overwrite_and_a_truncate_leak_no_chunk(self):
        # The extent map is the only record of an object's chunks: a chunk
        # no extent names any more is freed, not held until the delete.
        _device, fs = make_fs()
        rewritten = fs.create(b"x" * 5000)
        fs.write(rewritten, 0, b"y" * 5000)
        emptied = fs.create(b"z" * 100)
        fs.truncate(emptied, 0, 100)
        report = fs.fsck()
        assert report["clean"], report["errors"]
        assert fs.read(rewritten) == b"y" * 5000 and fs.read(emptied) == b""
        fs.close()

    def test_a_freed_reachable_page_and_a_leaked_block_are_both_named(self):
        _device, fs = make_fs()
        allocator = fs.objects.allocator
        leaked = allocator.allocate(1)
        page = fs._fulltext_tree.root_id
        allocator.free(page)  # behind the tree's back: still reachable
        errors = fs.fsck()["errors"]
        assert any(f"reachable block {page} is not allocated" in e for e in errors), errors
        assert any(f"leak: block {leaked} " in e for e in errors), errors
        fs.close()


def journal_blocks_read(device, journal, call):
    """Journal-region blocks ``call()`` reads from ``device``; returns
    ``(blocks, call's result)``."""
    reads = []
    read_blocks = device.read_blocks

    def logged(block, nblocks):
        reads.append((block, nblocks))
        return read_blocks(block, nblocks)

    device.read_blocks = logged
    try:
        result = call()
    finally:
        del device.read_blocks
    start, end = journal.journal_start, journal.journal_start + journal.journal_blocks
    blocks = sum(max(0, min(block + n, end) - max(block, start)) for block, n in reads)
    return blocks, result


class TestJournalReads:
    """fsck reads the journal in proportion to what it holds, not the region."""

    def test_fsck_of_a_checkpointed_filesystem_reads_at_most_two_journal_blocks(self):
        device, fs = make_fs()
        blocks, report = journal_blocks_read(device, fs.recovery.journal, fs.fsck)
        assert report["clean"], report["errors"]
        assert 1 <= blocks <= 2
        fs.close()

    def test_fsck_reads_the_flushed_tail_not_the_region(self):
        device, fs = make_fs()
        fs.create(b"a transaction in the journal tail", path="/t.txt")
        journal = fs.recovery.journal
        used = -(-journal.bytes_used // device.block_size)
        blocks, report = journal_blocks_read(device, journal, fs.fsck)
        assert report["clean"], report["errors"]
        # The scan's growing runs read at most 2 * used + 1 blocks, the
        # comparison with the in-memory log exactly ``used``.
        assert used < blocks <= 3 * used + 1 < journal.journal_blocks
        fs.close()
