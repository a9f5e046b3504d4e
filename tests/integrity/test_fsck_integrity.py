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
