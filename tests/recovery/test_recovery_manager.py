"""RecoveryManager unit behaviour: WAL rule, no-steal, checkpoints, replay."""

import pytest

from repro.btree import PAGE_BYTES, DevicePageStore
from repro.btree.node import LeafNode
from repro.cache import BufferPool
from repro.errors import BTreeError, RecoveryError
from repro.recovery import RecoveryManager
from repro.storage import BlockDevice, BuddyAllocator


def make_stack(cache_pages=8, journal_blocks=32, group_commit=1, **manager_kwargs):
    device = BlockDevice(num_blocks=1 << 12, block_size=512)
    manager = RecoveryManager(
        device, journal_start=1, journal_blocks=journal_blocks,
        group_commit=group_commit, **manager_kwargs,
    )
    pool = BufferPool(capacity=cache_pages)
    manager.attach_pool(pool)
    allocator = BuddyAllocator(total_blocks=1 << 12, base=0)
    allocator.reserve(0, 1 + journal_blocks)
    store = DevicePageStore(
        device, allocator, buffer_pool=pool,
        recovery=manager, name="t",
    )
    return device, manager, pool, store


def write_node(store, key=b"k"):
    page = store.allocate()
    store.write(page, LeafNode(keys=[key], values=[b"v"]))
    return page


class TestWalRule:
    def test_logged_write_back_defers_home_write(self):
        device, manager, pool, store = make_stack()
        with manager.transaction():
            page = write_node(store)
        # The page is dirty in the pool; the only device writes so far are
        # journal writes (the group-commit sync).
        assert pool.dirty_pages == 1
        assert device.read_blocks(page, store.page_blocks) == bytes(PAGE_BYTES)

    def test_page_stamped_with_record_lsn(self):
        _, manager, _, store = make_stack()
        with manager.transaction():
            page = write_node(store)
        lsn = store._consumer.page_lsn(page)
        assert lsn is not None
        assert lsn <= manager.journal.last_lsn

    def test_eviction_respects_wal_rule_with_group_commit(self):
        # group_commit > 1 leaves commit markers buffered; an eviction of a
        # dirty page must force the journal flush before the home write.
        device, manager, pool, store = make_stack(cache_pages=2, group_commit=100)
        with manager.transaction():
            page = write_node(store, b"a")
        assert manager.journal.bytes_unflushed > 0  # commit not yet synced
        lsn = store._consumer.page_lsn(page)
        pool.flush_page(store._consumer, page)
        assert manager.journal.durable_lsn >= lsn
        assert manager.stats.wal_forced_syncs >= 1

    def test_an_entry_larger_than_a_page_fails_at_write_and_logs_nothing(self):
        _, manager, pool, store = make_stack()
        page = store.allocate()
        appended = manager.journal.bytes_appended
        giant = LeafNode(keys=[b"small", b"giant-key"],
                         values=[b"v", bytes(store.page_bytes)])
        with manager.transaction():
            with pytest.raises(BTreeError) as refused:
                store.write(page, giant)
        message = str(refused.value)
        assert "b'giant-key'" in message
        assert f"of {giant.entry_size(1)} bytes" in message
        assert f"a page of {store.page_bytes} bytes" in message
        assert "max_keys" not in message
        assert manager.stats.pages_logged == 0
        assert manager.journal.bytes_appended == appended
        assert pool.dirty_pages == 0

    def test_autocommit_outside_transaction(self):
        _, manager, _, store = make_stack()
        write_node(store)
        assert manager.stats.autocommits >= 1
        assert manager.journal.bytes_unflushed == 0  # immediately durable


class TestNoSteal:
    def test_uncommitted_dirty_pages_are_pinned(self):
        _, manager, pool, store = make_stack(cache_pages=8)
        manager.begin()
        write_node(store)
        assert pool.pinned_pages == 1
        manager.commit()
        assert pool.pinned_pages == 0

    def test_page_freed_inside_transaction_is_forgotten(self):
        _, manager, pool, store = make_stack()
        with manager.transaction():
            page = write_node(store)
            store.free(page)
        assert pool.pinned_pages == 0


class TestAbortSemantics:
    def test_abort_before_logging_is_clean(self):
        _, manager, _, _store = make_stack()
        with pytest.raises(ValueError):
            with manager.transaction():
                raise ValueError("validation failed before any mutation")
        assert not manager.poisoned
        assert manager.stats.transactions_aborted == 1

    def test_abort_after_logging_poisons_the_manager(self):
        _, manager, _, store = make_stack()
        with pytest.raises(ValueError):
            with manager.transaction():
                write_node(store)
                raise ValueError("mid-mutation failure")
        assert manager.poisoned
        with pytest.raises(RecoveryError):
            write_node(store)

    def test_on_durable_actions_run_after_commit_sync(self):
        _, manager, _, _store = make_stack()
        ran = []
        with manager.transaction():
            manager.on_durable(lambda: ran.append("deferred"))
            assert ran == []
        assert ran == ["deferred"]

    def test_on_durable_actions_dropped_on_abort(self):
        _, manager, _, _store = make_stack()
        ran = []
        with pytest.raises(ValueError):
            with manager.transaction():
                manager.on_durable(lambda: ran.append("deferred"))
                raise ValueError
        assert ran == []


class TestCheckpoint:
    def test_checkpoint_flushes_truncates_and_persists(self):
        device, manager, pool, store = make_stack()
        with manager.transaction():
            page = write_node(store, b"cp")
        assert manager.journal.bytes_used > 0
        flushed = manager.checkpoint()
        assert flushed == 1
        assert pool.dirty_pages == 0
        assert manager.journal.bytes_used == 0
        assert device.read_blocks(page, store.page_blocks) != bytes(PAGE_BYTES)  # page reached home

    def test_checkpoint_refused_inside_transaction(self):
        _, manager, _, _store = make_stack()
        manager.begin()
        with pytest.raises(RecoveryError):
            manager.checkpoint()
        manager.commit()

    def test_journal_fill_triggers_auto_checkpoint(self):
        _, manager, _, store = make_stack(
            journal_blocks=8, checkpoint_threshold=0.3
        )
        for i in range(12):
            with manager.transaction():
                write_node(store, b"key-%04d" % i * 8)
        assert manager.stats.auto_checkpoints >= 1
        assert manager.journal.bytes_used < manager.journal.capacity_bytes


class TestReplay:
    def test_replay_restores_unflushed_committed_pages(self):
        device, manager, pool, store = make_stack()
        with manager.transaction():
            page = write_node(store, b"replayed")
        # Simulate losing RAM: home location never written, journal holds the
        # committed record.  A fresh manager over the same device replays it.
        assert device.read_blocks(page, store.page_blocks) == bytes(PAGE_BYTES)
        fresh = RecoveryManager(device, journal_start=1, journal_blocks=32)
        replayed = fresh.replay()
        assert replayed == 1
        assert fresh.stats.replayed_pages >= 1
        raw = device.read_blocks(page, store.page_blocks)
        assert raw != bytes(PAGE_BYTES)
        # The replayed page is a valid frame around the committed node.
        from repro.btree.node import decode_node
        from repro.integrity import verify_frame

        assert decode_node(verify_frame(raw)).keys == [b"replayed"]

    def test_replay_applies_meta_records(self):
        device, manager, _, _store = make_stack()
        with manager.transaction():
            manager.log_meta({"master_root": 4242, "next_oid": 77})
        fresh = RecoveryManager(device, journal_start=1, journal_blocks=32)
        fresh.replay()
        assert fresh.state["master_root"] == 4242
        assert fresh.state["next_oid"] == 77

    def test_uncommitted_tail_not_replayed(self):
        device, manager, _, store = make_stack()
        with manager.transaction():
            write_node(store, b"keep")
        manager.begin()
        write_node(store, b"drop")
        manager.journal.sync()  # records durable, commit marker absent
        fresh = RecoveryManager(device, journal_start=1, journal_blocks=32)
        assert fresh.replay() == 1  # only the committed transaction


class TestFailureContainment:
    """Review regressions: failed transactions must not leak onto the device."""

    def test_poisoned_abort_discards_uncommitted_frames(self):
        # An aborted-after-logging transaction's dirty frames must leave the
        # pool: later (read-only) traffic would otherwise steal the
        # uncommitted images to their home locations.
        device, manager, pool, store = make_stack(cache_pages=4)
        with pytest.raises(ValueError):
            with manager.transaction():
                page = write_node(store, b"uncommitted")
                raise ValueError("fail after logging")
        assert manager.poisoned
        assert pool.dirty_pages == 0  # the garbage frame is gone
        # Nothing can push it home anymore; the device never sees it.
        pool.flush()
        assert device.read_blocks(page, store.page_blocks) == bytes(PAGE_BYTES)

    def test_commit_marker_failure_poisons_instead_of_half_committing(self):
        from repro.errors import DeviceError
        from repro.storage import FaultPlan

        device, manager, pool, store = make_stack()
        manager.begin()
        write_node(store, b"marked?")
        device.fault_plan = FaultPlan(fail_after_writes=device.stats.writes)
        with pytest.raises(DeviceError):
            manager.commit()
        device.fault_plan = None
        assert manager.poisoned
        assert pool.pinned_pages == 0  # no leaked pins
        assert manager.stats.transactions_aborted == 1
        # The unmarked transaction is invisible to recovery.
        fresh = RecoveryManager(device, journal_start=1, journal_blocks=32)
        assert fresh.replay() == 0

    def test_transaction_larger_than_the_pool_oversubscribes(self):
        # No-steal pins every page an open transaction dirties; a transaction
        # touching more pages than the pool budget must not dead-end.
        _, manager, pool, store = make_stack(cache_pages=2, journal_blocks=64)
        with manager.transaction():
            pages = [write_node(store, b"%d" % i) for i in range(6)]
        assert pool.pin_overflows > 0
        assert not manager.poisoned
        for index, page in enumerate(pages):
            assert store.read(page).keys == [b"%d" % index]

    def test_group_commit_defers_actions_until_the_marker_is_durable(self):
        # Regression: with group commit, a committed-but-unsynced
        # transaction's deferred frees must NOT run at commit() — the
        # transaction can still vanish in a crash while the freed storage
        # gets re-used for unlogged bytes.
        _, manager, _, store = make_stack(group_commit=100)
        ran = []
        with manager.transaction():
            write_node(store, b"x")
            manager.on_durable(lambda: ran.append("freed"))
        assert ran == []  # marker only buffered
        manager.journal.sync()
        manager._run_durable_actions()
        assert ran == ["freed"]

    def test_checkpoint_syncs_and_runs_deferred_actions(self):
        _, manager, _, store = make_stack(group_commit=100)
        ran = []
        with manager.transaction():
            write_node(store, b"x")
            manager.on_durable(lambda: ran.append("freed"))
        manager.checkpoint()
        assert ran == ["freed"]
