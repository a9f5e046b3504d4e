"""A page is logged once per transaction, when the transaction seals.

The page store stages every node a transaction writes (no-steal already pins
it until the transaction ends); the seal encodes, frames and logs each
staged page once, as a delta against its image from before the transaction.
These cases pin what that buys and what it must not cost: one record per
distinct page, a single delta no larger than the chain it replaces, the WAL
rule for a staged page, and crash atomicity on both sides of the seal's sync.
"""

import struct

import pytest

from repro import HFADFileSystem
from repro.btree import DevicePageStore
from repro.btree.node import LeafNode
from repro.integrity import frame_page
from repro.osd.metadata import ObjectMetadata
from repro.recovery import CrashError, CrashingBlockDevice
from repro.storage.journal import RECORD_OVERHEAD, apply_delta, encode_delta


def make_fs(device=None):
    device = device or CrashingBlockDevice(num_blocks=1 << 14, block_size=512)
    return device, HFADFileSystem(device=device, journal_blocks=127, cache_pages=64,
                                  query_cache_entries=0)


def spy_on_writes(monkeypatch):
    """Record the page id of every node write from now on."""
    touched = []
    write = DevicePageStore.write

    def spy(store, page_id, node):
        touched.append(page_id)  # a page id is its device block: unique across trees
        return write(store, page_id, node)

    monkeypatch.setattr(DevicePageStore, "write", spy)
    return touched


class TestOneRecordPerPage:
    def test_a_create_logs_each_page_it_touches_once(self, monkeypatch):
        _device, fs = make_fs()
        fs.create(b"the first object warms every tree up", path="/first")
        touched = spy_on_writes(monkeypatch)
        before = fs.recovery.stats.pages_logged
        fs.create(b"alpha bravo charlie delta echo foxtrot", path="/docs/second",
                  tags=[("PLACE", "beach"), ("USER", "margo")])
        logged = fs.recovery.stats.pages_logged - before
        assert len(touched) > len(set(touched))  # some leaf took several writes
        assert logged == len(set(touched))

    def test_the_page_carries_its_record_lsn_after_the_seal(self):
        _device, fs = make_fs()
        journal = fs.recovery.journal
        fs.recovery.begin()
        oid = fs.objects.create()
        staged = fs.recovery._txn.pages
        assert staged  # the create wrote pages, none logged yet
        provisional = {key: key[0].page_lsn(key[1]) for key in staged}
        assert all(lsn > journal.sealed_lsn for lsn in provisional.values())
        fs.recovery.commit()
        for (consumer, page_id), lsn in provisional.items():
            assert lsn <= consumer.page_lsn(page_id) <= journal.durable_lsn
        assert fs.objects.exists(oid)


def metadata_leaf(grown=()):
    """A framed master-tree leaf of object metadata records, every one alike
    but for its numbers; each oid in ``grown`` was read once more, so its
    access time took one more digit."""
    keys, values = [], []
    for oid in range(1, 29):
        meta = ObjectMetadata(size=1000 + 37 * oid, created_at=90 + oid,
                              modified_at=90 + oid, accessed_at=90 + oid)
        if oid in grown:
            meta.touch_accessed(1000 + oid)
        keys.append(b"\xffA" + struct.pack(">Q", oid))
        values.append(meta.to_bytes())
    return frame_page(LeafNode(keys=keys, values=values).encode())


class TestOneDeltaAgainstThePreTransactionImage:
    def test_two_separated_edits_cost_no_more_than_the_chain(self):
        # The run finder looks for a probe near its aligned offset first: the
        # first repeat of a probe on a page of look-alike records is the
        # previous record's, and a run anchored there copies nothing useful.
        home, middle = metadata_leaf(), metadata_leaf((5,))
        for second in range(8, 29):
            final = metadata_leaf((5, second))
            single = encode_delta(home, final)
            chain = encode_delta(home, middle), encode_delta(middle, final)
            assert apply_delta(single, home) == final
            assert len(single) <= sum(len(delta) for delta in chain), second
            assert len(single) + RECORD_OVERHEAD < len(final) // 16


class TestCrashAroundTheSeal:
    @pytest.mark.parametrize("block_size", [512, 4096])
    def test_a_crash_before_the_seal_sync_loses_the_transaction_whole(self, block_size):
        device, fs = make_fs(CrashingBlockDevice(num_blocks=1 << 12 if block_size == 4096
                                                 else 1 << 14, block_size=block_size))
        committed = fs.create(b"committed before the crash", path="/kept")
        syncs = fs.recovery.journal.syncs
        device.plan_crash(0)  # the seal's sync is the create's first device write
        with pytest.raises(CrashError):
            fs.create(b"never durable " * 40, path="/lost", tags=[("PLACE", "sea")])
        assert fs.recovery.journal.syncs == syncs
        mounted = HFADFileSystem.mount(device.surviving_image())
        assert mounted.list_objects() == [committed]
        assert mounted.read(committed) == b"committed before the crash"
        assert mounted.lookup_path("/lost") is None
        assert mounted.find(("PLACE", "sea")) == []
        assert mounted.fsck()["clean"]

    @pytest.mark.parametrize("block_size", [512, 4096])
    def test_a_crash_past_the_seal_sync_keeps_the_transaction_whole(self, block_size):
        device, fs = make_fs(CrashingBlockDevice(num_blocks=1 << 12 if block_size == 4096
                                                 else 1 << 14, block_size=block_size))
        first = fs.create(b"committed before the crash", path="/kept")
        content = b"durable once its frame synced " * 20  # inline: no chunk write
        device.plan_crash(1)  # the seal's sync lands, the next one dies
        second = fs.create(content, path="/synced", tags=[("PLACE", "sea")])
        with pytest.raises(CrashError):
            fs.create(b"after the sync")
        mounted = HFADFileSystem.mount(device.surviving_image())
        assert mounted.list_objects() == [first, second]
        assert mounted.read(second) == content
        assert mounted.lookup_path("/synced") == second
        assert mounted.find(("PLACE", "sea")) == [second]
        assert mounted.fsck()["clean"]
