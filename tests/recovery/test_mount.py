"""Mount-time recovery of a whole HFADFileSystem: clean and dirty remounts."""

import json
import struct
import zlib
from dataclasses import asdict, replace

import pytest

from repro.core import HFADFileSystem
from repro.errors import RecoveryError
from repro.recovery import Superblock
from repro.storage import BlockDevice


def make_fs(device=None, **kwargs):
    if device is None:
        device = BlockDevice(num_blocks=1 << 14, block_size=512)
    kwargs.setdefault("btree_on_device", True)
    kwargs.setdefault("journal_blocks", 127)
    kwargs.setdefault("cache_pages", 64)
    return device, HFADFileSystem(device=device, **kwargs)


def store_superblock_fields(image, fields):
    """Write a CRC-valid superblock carrying an arbitrary field set."""
    payload = json.dumps(fields, sort_keys=True).encode("utf-8")
    image.write_block(0, struct.pack(">8sII", b"HFADSB01", len(payload),
                                     zlib.crc32(payload)) + payload)


def clone(device):
    """A reboot: only the device bytes survive."""
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())
    return image


class TestCleanRemount:
    def test_everything_survives_without_any_flush(self):
        device, fs = make_fs()
        oid = fs.create(
            b"the quick brown fox", path="/doc.txt",
            owner="margo", application="editor", annotations=["draft"],
        )
        fs.tag(oid, "UDEF", "favourite")
        other = fs.create(b"unrelated words here", path="/other.txt")
        fs.delete(other)
        # No close(), no checkpoint: the dirty pages live only in the pool,
        # the journal alone carries the committed state to the new life.
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.list_objects() == [oid]
        assert mounted.read(oid) == b"the quick brown fox"
        names = {str(pair) for pair in mounted.names_for(oid)}
        assert {"USER/margo", "APP/editor", "UDEF/draft", "UDEF/favourite"} <= names
        assert mounted.lookup_path("/doc.txt") == oid
        assert mounted.lookup_path("/other.txt") is None
        assert mounted.search_text("quick fox") == [oid]
        assert mounted.fsck()["clean"]

    def test_remount_after_close_replays_nothing(self):
        device, fs = make_fs()
        oid = fs.create(b"checkpointed content", path="/c.txt")
        fs.close()  # clean unmount: checkpoint truncates the journal
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.stats()["recovery"]["replayed_transactions"] == 0
        assert mounted.read(oid) == b"checkpointed content"

    def test_edits_survive_remount(self):
        device, fs = make_fs()
        oid = fs.create(b"AAAA-BBBB-CCCC", path="/e.txt", index_content=False)
        fs.insert(oid, 5, b"XYZ-")
        fs.truncate(oid, 0, 5)
        expected = fs.read(oid)
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.read(oid) == expected

    def test_next_oid_not_reused_after_remount(self):
        device, fs = make_fs()
        first = fs.create(b"one")
        second = fs.create(b"two")
        fs.delete(second)
        mounted = HFADFileSystem.mount(clone(device))
        third = mounted.create(b"three")
        assert third > second >= first

    def test_mutations_after_remount_are_durable_too(self):
        device, fs = make_fs()
        oid = fs.create(b"generation one", path="/gen.txt")
        image = clone(device)
        mounted = HFADFileSystem.mount(image)
        mounted.write(oid, 0, b"generation TWO")
        mounted.tag(oid, "UDEF", "regenerated")
        remounted = HFADFileSystem.mount(clone(image))
        assert remounted.read(oid) == b"generation TWO"
        assert {str(p) for p in remounted.names_for(oid)} >= {"UDEF/regenerated"}

    def test_image_histograms_survive(self):
        device, fs = make_fs()
        oid = fs.create(b"photo bytes", index_content=False)
        colour = fs.index_image(oid, [0.1, 0.7, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.find(("IMAGE", f"color:{colour}")) == [oid]

    def test_hundreds_of_tags_on_one_object_survive(self):
        # Regression: names are persisted as individual master-tree entries,
        # not inside the metadata record — a heavily-tagged object must not
        # overflow any page.
        device, fs = make_fs()
        oid = fs.create(b"popular object", index_content=False)
        for i in range(300):
            fs.tag(oid, "UDEF", f"tag-{i:04d}")
        mounted = HFADFileSystem.mount(clone(device))
        names = {str(pair) for pair in mounted.names_for(oid)}
        assert {f"UDEF/tag-{i:04d}" for i in range(300)} <= names
        assert mounted.fsck()["clean"]

    def test_untag_survives_remount(self):
        device, fs = make_fs()
        oid = fs.create(b"tagged then untagged")
        fs.tag(oid, "UDEF", "temporary")
        fs.untag(oid, "UDEF", "temporary")
        mounted = HFADFileSystem.mount(clone(device))
        assert "UDEF/temporary" not in {str(p) for p in mounted.names_for(oid)}


class TestBeginGroups:
    def test_aborted_group_leaves_no_trace_after_remount(self):
        device, fs = make_fs()
        oid = fs.create(b"stable object")
        with pytest.raises(RuntimeError):
            with fs.begin():
                fs.tag(oid, "UDEF", "doomed-a")
                fs.tag(oid, "UDEF", "doomed-b")
                raise RuntimeError("changed my mind")
        mounted = HFADFileSystem.mount(clone(device))
        names = {str(pair) for pair in mounted.names_for(oid)}
        assert "UDEF/doomed-a" not in names
        assert "UDEF/doomed-b" not in names

    def test_committed_group_survives_whole(self):
        device, fs = make_fs()
        oid = fs.create(b"stable object")
        with fs.begin():
            fs.tag(oid, "UDEF", "kept-a")
            fs.tag(oid, "UDEF", "kept-b")
        mounted = HFADFileSystem.mount(clone(device))
        names = {str(pair) for pair in mounted.names_for(oid)}
        assert {"UDEF/kept-a", "UDEF/kept-b"} <= names

    def test_aborted_group_poisons_every_answer_until_remount(self):
        # Abort after logging is fail-stop: the in-memory trees, indexes and
        # pool hold the group's effects, so the engine answers nothing —
        # not a stale or half-rolled-back answer — until a remount replays
        # the committed prefix, in which the group is absent as a whole.
        device, fs = make_fs()
        oid = fs.create(b"original words", path="/p", annotations=["keep"])
        with pytest.raises(RuntimeError):
            with fs.begin():
                fs.tag(oid, "UDEF", "keep")  # re-tags a name it already has
                fs.tag(oid, "UDEF", "new")
                fs.unlink_path("/p")
                fs.write(oid, 0, b"replaced")
                raise RuntimeError("changed my mind after logging")
        assert fs.recovery.poisoned
        for answer in (lambda: fs.find(("UDEF", "new")),
                       lambda: fs.query("UDEF/keep"),
                       lambda: fs.search_text("original"),
                       lambda: fs.rank("original"),
                       lambda: fs.read(oid),
                       lambda: fs.open(oid),
                       lambda: fs.stat(oid),
                       lambda: fs.size(oid),
                       lambda: fs.exists(oid),
                       lambda: fs.list_objects(),
                       lambda: fs.names_for(oid),
                       lambda: fs.paths_for(oid),
                       lambda: fs.lookup_path("/p"),
                       lambda: fs.tag(oid, "UDEF", "more"),
                       lambda: fs.write(oid, 0, b"more")):
            with pytest.raises(RecoveryError):
                answer()
        assert fs.health()["status"] == "fail"
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.read(oid) == b"original words"
        assert mounted.lookup_path("/p") == oid
        assert mounted.find(("UDEF", "keep")) == [oid]
        assert mounted.find(("UDEF", "new")) == []
        assert mounted.search_text("original") == [oid]
        assert mounted.search_text("replaced") == []
        assert mounted.fsck()["clean"]


class TestMountErrors:
    def test_mounting_an_unformatted_device_fails_loudly(self):
        with pytest.raises(RecoveryError):
            HFADFileSystem.mount(BlockDevice(num_blocks=1 << 12, block_size=512))

    @pytest.mark.parametrize(
        "field", ["page_blocks", "checksum_pages", "fulltext_root", "image_root",
                  "fulltext_format"]
    )
    def test_refused_format_leaves_the_device_untouched(self, field):
        device, fs = make_fs()
        fs.create(b"committed only in the journal", path="/j.txt")
        image = clone(device)  # no checkpoint: replay would write home blocks
        replace(Superblock.load(image), **{field: 0}).store(image)
        before = image.dump()
        with pytest.raises(RecoveryError, match=field):
            HFADFileSystem.mount(image)
        assert image.dump() == before

    @pytest.mark.parametrize("stamp", [None, 1, 2])
    def test_refused_fulltext_format_leaves_the_device_untouched(self, stamp):
        # An image from before posting blocks (no stamp at all, or stamp 1),
        # or from before the posting backlog (stamp 2).
        device, fs = make_fs()
        fs.create(b"committed only in the journal", path="/j.txt")
        image = clone(device)
        fields = asdict(Superblock.load(image))
        if stamp is None:
            del fields["fulltext_format"]
        else:
            fields["fulltext_format"] = stamp
        store_superblock_fields(image, fields)
        before = image.dump()
        with pytest.raises(RecoveryError, match="fulltext_format"):
            HFADFileSystem.mount(image)
        assert image.dump() == before

    def test_refused_page_geometry_leaves_the_device_untouched(self):
        # An image from before byte-filled 4 KB pages: 16 KB pages split by
        # count, stamped page_blocks=4 and max_keys=32.
        device, fs = make_fs()
        fs.create(b"committed only in the journal", path="/j.txt")
        image = clone(device)
        fields = dict(asdict(Superblock.load(image)), page_blocks=4, max_keys=32)
        store_superblock_fields(image, fields)
        before = image.dump()
        with pytest.raises(RecoveryError, match="max_keys"):
            HFADFileSystem.mount(image)
        assert image.dump() == before

    def test_tiny_device_rejected_at_format_time(self):
        with pytest.raises(ValueError):
            HFADFileSystem(
                device=BlockDevice(num_blocks=64, block_size=512),
                btree_on_device=True, journal_blocks=255,
            )


class TestDurabilityModes:
    def test_volatile_mode_reported_for_in_memory_trees(self):
        fs = HFADFileSystem(btree_on_device=False)
        assert fs.stats()["recovery"] == {"mode": "volatile"}

    def test_wal_stats_present(self):
        _, fs = make_fs()
        fs.create(b"counted")
        info = fs.stats()["recovery"]
        assert info["mode"] == "wal"
        assert info["transactions_committed"] >= 1
        assert info["last_lsn"] >= 1


class TestGroupCommitReuse:
    def test_unsynced_delete_cannot_leak_its_chunks_to_a_new_object(self):
        # Reviewer repro: delete A (marker buffered under group_commit),
        # create B re-using A's chunk, crash before the sync — the
        # resurrected A must still read back its own bytes.
        device = BlockDevice(num_blocks=1 << 14, block_size=512)
        fs = HFADFileSystem(
            device=device, btree_on_device=True,
            journal_blocks=127, cache_pages=64, group_commit=8,
        )
        a = fs.create(b"A" * 4096, path="/a.bin", index_content=False)
        fs.checkpoint()
        fs.delete(a)                     # marker buffered, free deferred
        b = fs.create(b"B" * 4096, path="/b.bin", index_content=False)
        # Crash before any sync: clone the device as-is.
        mounted = HFADFileSystem.mount(clone(device))
        if a in mounted.list_objects():  # the delete vanished in the crash
            assert mounted.read(a) == b"A" * 4096
        assert mounted.fsck()["clean"]


class TestReviewRegressions:
    def test_invalid_create_inputs_do_not_poison_the_filesystem(self):
        from repro.errors import ReproError, UnknownTagError

        device, fs = make_fs()
        survivor = fs.create(b"already here")
        with pytest.raises(UnknownTagError):
            fs.create(b"x", tags=[("NOSUCHTAG", "v")])
        with pytest.raises(ReproError):
            fs.create(b"x", path="")
        assert not fs.recovery.poisoned
        # The filesystem keeps working, and nothing half-created leaks.
        after = fs.create(b"still alive")
        assert fs.read(survivor) == b"already here"
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.list_objects() == [survivor, after]

    def test_unlinked_denormalized_path_stays_dead_after_remount(self):
        device, fs = make_fs()
        oid = fs.create(b"content")
        fs.link_path("/a//b", oid)       # normalizes to /a/b
        assert fs.unlink_path("/a/b") == oid
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.lookup_path("/a/b") is None
        assert mounted.lookup_path("/a//b") is None

    def test_directory_rename_survives_remount(self):
        from repro.posix import PosixVFS

        device, fs = make_fs()
        vfs = PosixVFS(fs)
        vfs.makedirs("/dir")
        vfs.write_file("/dir/file.txt", b"contents")
        vfs.rename("/dir", "/renamed")
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.lookup_path("/renamed/file.txt") is not None
        assert mounted.lookup_path("/dir/file.txt") is None
        assert mounted.read(mounted.lookup_path("/renamed/file.txt")) == b"contents"

    def test_id_tag_and_oversized_names_rejected_before_logging(self):
        from repro.errors import ObjectStoreError, UnknownTagError

        device, fs = make_fs()
        keeper = fs.create(b"keeper")
        with pytest.raises(UnknownTagError):
            fs.create(b"x", tags=[("ID", "7")])
        with pytest.raises(ObjectStoreError):
            fs.create(b"x", path="/" + "a" * 20000)
        with pytest.raises(ObjectStoreError):
            fs.tag(keeper, "UDEF", "v" * 20000)
        assert not fs.recovery.poisoned
        fs.tag(keeper, "UDEF", "still-works")
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.list_objects() == [keeper]

    def test_rebinding_a_path_scrubs_the_displaced_objects_entry(self):
        device, fs = make_fs()
        first = fs.create(b"first owner", path="/x")
        second = fs.create(b"second owner")
        fs.link_path("/x", second)   # rebinds /x away from `first`
        assert fs.lookup_path("/x") == second
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.lookup_path("/x") == second  # `first` must not win it back

    def test_wal_without_a_pool_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="buffer pool"):
            make_fs(cache_pages=0)

    def test_a_mount_refused_for_its_pool_size_writes_nothing(self):
        # A crash image with a journal tail to replay: the refusal must come
        # before replay touches a home location.
        device, fs = make_fs()
        for number in range(5):
            fs.create(b"crash image %d" % number, path=f"/c{number}")
        image = clone(device)
        before, writes = image.dump(), image.stats.writes
        with pytest.raises(ValueError, match="cache_pages"):
            HFADFileSystem.mount(image, cache_pages=0)
        assert image.stats.writes == writes
        assert image.dump() == before
        assert HFADFileSystem.mount(image).list_objects() == fs.list_objects()

    def test_oversized_attributes_rejected_before_logging(self):
        from repro.errors import ObjectStoreError

        device, fs = make_fs()
        oid = fs.create(b"object")
        with pytest.raises(ObjectStoreError):
            fs.set_attributes(oid, note="x" * 20000)
        with pytest.raises(ObjectStoreError):
            fs.create(b"y", attributes={"note": "x" * 20000})
        assert not fs.recovery.poisoned
        fs.set_attributes(oid, note="reasonable")  # still works
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.stat(oid).attributes["note"] == "reasonable"

    def test_file_rename_is_one_durable_transaction(self):
        from repro.posix import PosixVFS

        device, fs = make_fs()
        vfs = PosixVFS(fs)
        vfs.write_file("/old.txt", b"renamed bytes")
        before = fs.recovery.stats.transactions_committed
        vfs.rename("/old.txt", "/new.txt")
        assert fs.recovery.stats.transactions_committed == before + 1
        mounted = HFADFileSystem.mount(clone(device))
        oid = mounted.lookup_path("/new.txt")
        assert oid is not None
        assert mounted.lookup_path("/old.txt") is None
        assert mounted.read(oid) == b"renamed bytes"


class TestPageDeltas:
    def test_an_unclosed_image_mounts_through_delta_replay(self):
        from repro.storage.journal import TYPE_DATA, TYPE_DELTA

        device, fs = make_fs()
        # Few enough creates that the journal never reaches its checkpoint
        # threshold: the scan below must see all of them, not a fresh tail.
        oids = [fs.create(f"note {i} on shared words".encode(), path=f"/n/{i}",
                          annotations=["kept"]) for i in range(12)]
        assert fs.recovery.stats.auto_checkpoints == 0
        kinds = [record.rtype for _txid, records in fs.recovery.journal.scan()
                 for record in records]
        # Pages touched again after their first logged image are deltas.
        assert kinds.count(TYPE_DELTA) > kinds.count(TYPE_DATA) > 0
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.recovery.stats.replayed_pages > 0
        # Replay work is the tail: one transaction per uncheckpointed create.
        assert mounted.stats()["recovery"]["replayed_transactions"] == len(oids)
        assert mounted.list_objects() == oids
        assert mounted.search_text("shared words") == oids
        assert mounted.find(("UDEF", "kept")) == oids
        assert mounted.fsck()["clean"]

    def test_access_time_flush_of_a_thousand_reads_fits_the_journal(self):
        # perfbench's "known engine issue" 1: close() logs one page per
        # distinct object read since the last checkpoint in ONE transaction;
        # as full page images that was ~2 MB against a 2 MB journal.
        fs = HFADFileSystem(num_blocks=1 << 18, btree_on_device=True)
        oids = [fs.create(b"x") for _ in range(1000)]
        fs.checkpoint()
        for oid in oids:
            fs.read(oid)
        before = fs.recovery.journal.bytes_appended
        fs.close()
        flushed = fs.recovery.journal.bytes_appended - before
        assert flushed < fs.recovery.journal.capacity_bytes // 4
        mounted = HFADFileSystem.mount(clone(fs.device))
        assert all(mounted.read(oid) == b"x" for oid in oids)
