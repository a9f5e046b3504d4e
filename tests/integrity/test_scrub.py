"""The online scrubber: detect, repair (cache / WAL), quarantine, resume."""

import pytest

from repro.core import HFADFileSystem
from repro.errors import CorruptionError, RecoveryError
from repro.storage import BlockDevice


def make_fs(num_blocks=1 << 14, **kwargs):
    device = BlockDevice(num_blocks=num_blocks)
    fs = HFADFileSystem(device=device, btree_on_device=True, **kwargs)
    return device, fs


def populate(fs, count=12):
    return [
        fs.create(
            content=f"document {i} holds searchable words".encode(),
            path=f"/docs/{i}.txt",
        )
        for i in range(count)
    ]


class TestCleanScrub:
    def test_clean_device_scrubs_clean(self):
        _device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        report = fs.scrub()
        assert report.complete
        assert report.pages_scanned > 0
        assert report.pages_clean == report.pages_scanned
        assert report.repaired == 0 and report.quarantined == 0
        fs.close()

    def test_dirty_pages_are_skipped_not_repaired(self):
        # Under no-force write-back a dirty page's device bytes are stale by
        # design; the scrubber must not mistake that for rot.
        _device, fs = make_fs()
        populate(fs)
        report = fs.scrub()  # no checkpoint: most pages still dirty
        assert report.skipped_dirty > 0
        assert report.repaired == 0 and report.quarantined == 0
        fs.close()

    def test_scrub_requires_on_device_trees(self):
        fs = HFADFileSystem()  # in-memory
        with pytest.raises(RecoveryError):
            fs.scrub()
        fs.close()


class TestRepair:
    def test_repair_from_resident_cache(self):
        device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        root = fs._fulltext_tree.root_id  # resident: just written
        device.flip_bit(root, 40)  # inside the frame header: always detected
        report = fs.scrub()
        assert report.repaired_from_cache >= 1
        assert report.quarantined == 0
        # The device bytes are healthy again: a second scrub is clean.
        report = fs.scrub()
        assert report.repaired == 0 and report.pages_clean == report.pages_scanned
        fs.close()

    def test_repair_from_wal_tail(self):
        device, fs = make_fs()
        oids = populate(fs)
        # No checkpoint: the page images are still in the journal.  Evict
        # the pool copies so the cache cannot serve as the repair source.
        tree = fs._fulltext_tree
        tree.store._consumer.drop_all(write_back=True)
        device.flip_bit(tree.root_id, 40)
        report = fs.scrub()
        assert report.repaired_from_wal >= 1
        assert report.quarantined == 0
        assert fs.search_text("searchable") == oids
        fs.close()

    def test_repair_from_a_delta_chain_is_byte_exact(self):
        from repro.integrity import frame_page, verify_frame
        from repro.storage.journal import TYPE_DATA, TYPE_DELTA

        device, fs = make_fs()
        oids = populate(fs)
        store = fs._fulltext_tree.store
        leaf, node = fs._fulltext_tree.root_id, store.read(fs._fulltext_tree.root_id)
        while not node.is_leaf:
            leaf, node = node.children[0], store.read(node.children[0])
        logged = [record.rtype for _txid, records in fs.recovery.journal.scan()
                  for record in records if record.block == leaf]
        # Postings kept landing in the first leaf: one image, then splices.
        assert logged[0] == TYPE_DATA and logged.count(TYPE_DELTA) >= 2
        expected = frame_page(node.encode())
        store._consumer.drop_all(write_back=True)  # no cache source
        device.flip_bit(leaf, 40)
        report = fs.scrub()
        assert report.repaired_from_wal == 1 and report.quarantined == 0
        healed = device.read_blocks(leaf, store.page_blocks)
        assert healed[:len(expected)] == expected
        verify_frame(healed)
        assert fs.search_text("searchable") == oids
        fs.close()

    def test_unrepairable_page_is_quarantined(self):
        device, fs = make_fs()
        populate(fs)
        fs.checkpoint()  # truncates the journal: no WAL repair source
        tree = fs._fulltext_tree
        tree.store._consumer.drop_all(write_back=True)  # no cache source
        device.flip_bit(tree.root_id, 5)
        report = fs.scrub()
        assert report.quarantined == 1
        assert report.unreachable_subtrees >= 1
        assert any("quarantined" in error for error in report.errors)
        # Reads of the page now fail fast with the page identified.
        with pytest.raises(CorruptionError, match=str(tree.root_id)):
            tree.store.read(tree.root_id)
        fs.close()

    def test_scrub_releases_stale_quarantine(self):
        # A page quarantined earlier whose device bytes are (again) valid —
        # e.g. healed by replay — is released by the next scrub pass.
        _device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        root = fs._fulltext_tree.root_id
        fs.integrity.quarantine_page(root)
        report = fs.scrub()
        assert report.released >= 1
        assert not fs.integrity.is_quarantined(root)
        fs.close()


class TestInterruptibleScrub:
    def test_limit_parks_and_resumes(self):
        _device, fs = make_fs()
        populate(fs, count=20)
        fs.checkpoint()
        full = fs.scrub()
        total = full.pages_scanned
        assert total > 3
        first = fs.scrub(limit=3)
        assert first.pages_scanned == 3
        assert not first.complete
        assert fs._scrubber.in_progress
        scanned = first.pages_scanned
        while True:
            part = fs.scrub(limit=5)
            scanned += part.pages_scanned
            if part.complete:
                break
        assert scanned == total
        assert not fs._scrubber.in_progress
        fs.close()

    def test_detection_counts_as_one_run(self):
        _device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        fs.scrub(limit=2)
        fs.scrub()  # resumes, then finishes
        assert fs.stats()["integrity"]["scrub_runs"] == 1
        fs.close()


class TestLegacyDevices:
    def test_checksummed_device_remounts_checksummed(self):
        device, fs = make_fs()
        oids = populate(fs)
        fs.close()
        mounted = HFADFileSystem.mount(device)
        assert mounted.stats()["integrity"]["checksum_pages"] == 1
        assert mounted.search_text("searchable") == oids
        # The pool started cold: every page-in was a device read whose frame
        # was verified, and a healthy device fails none.
        integrity = mounted.stats()["integrity"]
        assert integrity["checksum_verifications"] == mounted.buffer_pool.stats.misses > 0
        assert integrity["checksum_failures"] == 0
        mounted.close()
