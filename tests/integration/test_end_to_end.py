"""End-to-end integration tests: full corpus life cycle and crash recovery."""

import pytest

from repro.core import HFADFileSystem
from repro.errors import DeviceError
from repro.storage import BlockDevice, FaultPlan, Journal
from repro.storage.journal import TYPE_DATA
from repro.workloads import load_into_hfad, mixed_corpus


class TestCorpusLifecycle:
    """Ingest → search → modify → delete across every index store at once."""

    @pytest.fixture(scope="class")
    def loaded(self):
        fs = HFADFileSystem(num_blocks=1 << 17)
        corpus = mixed_corpus(photos=60, mails=60, documents=30, seed=99)
        oid_by_path = load_into_hfad(fs, corpus)
        yield fs, corpus, oid_by_path
        fs.close()

    def test_every_item_reachable_by_path_and_content(self, loaded):
        fs, corpus, oid_by_path = loaded
        for item in corpus[:40]:
            oid = oid_by_path[item.path]
            assert fs.lookup_path(item.path) == oid
            assert fs.read(oid) == item.content

    def test_cross_index_queries_are_consistent(self, loaded):
        fs, corpus, oid_by_path = loaded
        # Every photo found via KIND is also found via its owner conjunction.
        photos = fs.find(("KIND", "photo"))
        assert len(photos) == sum(1 for item in corpus if dict(item.tags).get("KIND") == "photo")
        for item in corpus:
            if dict(item.tags).get("KIND") != "photo":
                continue
            oid = oid_by_path[item.path]
            assert oid in fs.find(("KIND", "photo"), ("USER", item.owner))
            break

    def test_modification_keeps_fulltext_index_current(self, loaded):
        fs, corpus, oid_by_path = loaded
        document = next(item for item in corpus if dict(item.tags).get("KIND") == "document")
        oid = oid_by_path[document.path]
        fs.write(oid, 0, b"xylophone zanzibar replacement text ")
        assert oid in fs.search_text("xylophone zanzibar")
        fs.truncate(oid, 0, len(b"xylophone "))
        assert oid not in fs.search_text("xylophone")
        assert oid in fs.search_text("zanzibar")

    def test_deleting_objects_scrubs_every_index(self, loaded):
        fs, corpus, oid_by_path = loaded
        victim = corpus[-1]
        oid = oid_by_path[victim.path]
        names_before = fs.names_for(oid)
        assert names_before
        fs.delete(oid)
        assert fs.lookup_path(victim.path) is None
        for pair in names_before:
            assert oid not in fs.find(pair)
        assert not fs.exists(oid)

    def test_namespace_statistics_add_up(self, loaded):
        fs, corpus, _ = loaded
        stats = fs.stats()
        assert stats["object_count"] == fs.object_count
        # Every object carries at least a USER name and a POSIX path.
        sample = fs.list_objects()[:20]
        for oid in sample:
            names = fs.names_for(oid)
            assert any(pair.tag == "USER" for pair in names)
            assert any(pair.tag == "POSIX" for pair in names)


class TestCrashRecoverySweep:
    """Exhaustive crash-point sweep over a journalled multi-block update.

    A "directory rename"-shaped update touches four home-location blocks.
    The device is crashed after every possible number of writes; after each
    crash the journal is recovered on a fresh instance and the update must be
    either fully present or fully absent — never torn.
    """

    HOME_BLOCKS = [100, 101, 102, 103]
    OLD = [b"old-" + bytes([65 + i]) for i in range(4)]
    NEW = [b"new-" + bytes([65 + i]) for i in range(4)]

    def _prepare(self):
        device = BlockDevice(num_blocks=256, block_size=512)
        journal = Journal(device, journal_start=0, journal_blocks=16)
        for block, payload in zip(self.HOME_BLOCKS, self.OLD):
            device.write_block(block, payload)
        return device, journal

    def _update(self, device, journal):
        """Log the four new images, commit, then write them home — the
        engine's order: WAL flush first, write-back after."""
        txid = journal.allocate_txid()
        for block, payload in zip(self.HOME_BLOCKS, self.NEW):
            journal.append(TYPE_DATA, txid, block, payload)
        journal.commit_txid(txid)
        for block, payload in zip(self.HOME_BLOCKS, self.NEW):
            device.write_block(block, payload)

    def _state(self, device):
        values = [bytes(device.read_block(block)[:5]) for block in self.HOME_BLOCKS]
        if all(value.startswith(b"new-") for value in values):
            return "new"
        if all(value.startswith(b"old-") for value in values):
            return "old"
        return "torn"

    def test_update_is_atomic_at_every_crash_point(self):
        # First, find out how many writes a full commit performs.
        device, journal = self._prepare()
        writes_before = device.stats.writes
        self._update(device, journal)
        total_writes = device.stats.writes - writes_before
        assert self._state(device) == "new"
        assert total_writes >= 5  # journal append + 4 home blocks

        outcomes = set()
        for crash_after in range(total_writes):
            device, journal = self._prepare()
            device.fault_plan = FaultPlan(fail_after_writes=device.stats.writes + crash_after)
            try:
                self._update(device, journal)
            except DeviceError:
                pass
            device.fault_plan = None
            # Remount: a fresh journal instance scans and replays.
            Journal(device, journal_start=0, journal_blocks=16).replay()
            state = self._state(device)
            assert state in ("old", "new"), f"torn update after {crash_after} writes"
            outcomes.add(state)
        # The sweep must have exercised both outcomes (early crashes lose the
        # update, late crashes preserve it) — otherwise it proved nothing.
        assert outcomes == {"old", "new"}

    def test_recovery_is_idempotent_after_crash(self):
        device, journal = self._prepare()
        device.fault_plan = FaultPlan(fail_after_writes=device.stats.writes + 2)
        with pytest.raises(DeviceError):
            self._update(device, journal)
        device.fault_plan = None
        Journal(device, journal_start=0, journal_blocks=16).replay()
        state_after_first = self._state(device)
        Journal(device, journal_start=0, journal_blocks=16).replay()
        assert self._state(device) == state_after_first


class TestDevicePersistenceIntegration:
    """Objects written through device-resident btrees survive a 'remount'."""

    def test_extent_maps_written_to_device_are_rereadable(self, extent_leaf):
        device = BlockDevice(num_blocks=1 << 15)
        fs = HFADFileSystem(device=device, btree_on_device=True)
        oid = fs.create(b"persisted payload " * 100, path="/data.bin", index_content=False)
        fs.insert(oid, 10, b"[mark]")
        expected = fs.read(oid)
        leaf_page, _oids = extent_leaf(fs, oid)
        page_blocks = fs.objects._master.store.page_blocks
        fs.close()
        # The extent map's leaf is a real device page: its raw device
        # contents must carry a valid checksum frame whose payload decodes to
        # a leaf holding the object's three extents (insert split one).
        from repro.btree.node import decode_node
        from repro.integrity import verify_frame

        raw = device.read_blocks(leaf_page, page_blocks)
        node = decode_node(verify_frame(raw))
        prefix = b"\xffE" + oid.to_bytes(8, "big")
        assert node.is_leaf
        assert sum(key.startswith(prefix) for key in node.keys) == 3
        assert expected.startswith(b"persisted [mark]payload"[:9])
