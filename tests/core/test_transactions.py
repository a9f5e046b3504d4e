"""Namespace transactions: undo ordering, nesting, and the WAL bracket."""

import pytest

from repro.core import HFADFileSystem
from repro.core.transactions import TransactionManager
from repro.errors import TransactionError
from repro.storage import BlockDevice


class TestUndoOrdering:
    def test_abort_runs_undo_actions_lifo(self):
        # Later operations may depend on earlier ones, so their inverses
        # must run newest-first.
        manager = TransactionManager()
        order = []
        txn = manager.begin()
        txn.record_undo(lambda: order.append("first-recorded"))
        txn.record_undo(lambda: order.append("second-recorded"))
        txn.record_undo(lambda: order.append("third-recorded"))
        txn.abort()
        assert order == ["third-recorded", "second-recorded", "first-recorded"]
        assert manager.stats.undo_actions_run == 3

    def test_nested_dependent_undos_restore_initial_state(self):
        # A create→tag→retag chain only unwinds correctly in LIFO order:
        # applied eagerly, each undo assumes the later operations are gone.
        fs = HFADFileSystem()
        txn = fs.begin()
        oid = fs.create(b"payload", txn=txn)
        fs.tag(oid, "UDEF", "step-one", txn=txn)
        fs.tag(oid, "UDEF", "step-two", txn=txn)
        txn.abort()
        assert not fs.exists(oid)
        assert fs.query("UDEF/step-one") == []
        assert fs.query("UDEF/step-two") == []

    def test_commit_discards_undo_log(self):
        manager = TransactionManager()
        ran = []
        txn = manager.begin()
        txn.record_undo(lambda: ran.append("never"))
        txn.commit()
        assert ran == []
        assert txn.pending_undo_actions == 0

    def test_context_manager_aborts_on_exception(self):
        fs = HFADFileSystem()
        with pytest.raises(RuntimeError):
            with fs.begin() as txn:
                oid = fs.create(b"doomed", txn=txn)
                raise RuntimeError("abandon")
        assert not fs.exists(oid)

    def test_reuse_after_resolution_rejected(self):
        manager = TransactionManager()
        txn = manager.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.record_undo(lambda: None)
        with pytest.raises(TransactionError):
            txn.abort()


class TestWalBracket:
    """On a device, a namespace group is one WAL transaction."""

    def make_fs(self):
        device = BlockDevice(num_blocks=1 << 14, block_size=512)
        return HFADFileSystem(
            device=device, btree_on_device=True,
            journal_blocks=127, cache_pages=64,
        )

    def test_group_commits_as_one_wal_transaction(self):
        fs = self.make_fs()
        oid = fs.create(b"object")
        committed_before = fs.recovery.stats.transactions_committed
        with fs.begin() as txn:
            fs.tag(oid, "UDEF", "a", txn=txn)
            fs.tag(oid, "UDEF", "b", txn=txn)
        # Exactly one outermost WAL transaction for the whole group.
        assert fs.recovery.stats.transactions_committed == committed_before + 1

    def test_aborted_group_commits_its_net_effect(self):
        # Undo-then-commit: the rolled-back state is what becomes durable,
        # and the recovery manager is NOT poisoned by a namespace abort.
        fs = self.make_fs()
        oid = fs.create(b"object")
        txn = fs.begin()
        fs.tag(oid, "UDEF", "ephemeral", txn=txn)
        txn.abort()
        assert not fs.recovery.poisoned
        assert fs.query("UDEF/ephemeral") == []
        assert fs.recovery.stats.transactions_committed >= 2

    def test_failed_wal_commit_cannot_be_retried_into_silent_success(self):
        from repro.errors import DeviceError, RecoveryError
        from repro.storage import FaultPlan

        fs = self.make_fs()
        oid = fs.create(b"object")
        txn = fs.begin()
        fs.tag(oid, "UDEF", "never-durable", txn=txn)
        fs.device.fault_plan = FaultPlan(fail_after_writes=fs.device.stats.writes)
        with pytest.raises(DeviceError):
            txn.commit()
        fs.device.fault_plan = None
        assert txn.state == "open"  # the group did not pretend to commit
        # A retry must fail loudly, not silently "succeed" without a marker.
        with pytest.raises(RecoveryError):
            txn.commit()
        assert fs.transactions.stats.committed == 0
