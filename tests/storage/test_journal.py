"""Tests for the write-ahead journal: durability, recovery, crash injection."""

import pytest

from repro.errors import DeviceError, JournalError, JournalFullError, TransactionError
from repro.storage import BlockDevice, FaultPlan, Journal
from repro.storage.journal import TYPE_DATA


def make_journal(journal_blocks=16, num_blocks=256, block_size=512):
    device = BlockDevice(num_blocks=num_blocks, block_size=block_size)
    journal = Journal(device, journal_start=0, journal_blocks=journal_blocks)
    return device, journal


class TestTransactionLifecycle:
    def test_commit_applies_writes_to_home_locations(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"hello")
        txn.commit()
        assert device.read_block(100).startswith(b"hello")

    def test_abort_writes_nothing(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"hello")
        txn.abort()
        assert device.read_block(100) == bytes(512)

    def test_use_after_commit_rejected(self):
        _, journal = make_journal()
        txn = journal.begin()
        txn.log_write(50, b"x")
        txn.commit()
        with pytest.raises(TransactionError):
            txn.log_write(51, b"y")
        with pytest.raises(TransactionError):
            txn.commit()

    def test_use_after_abort_rejected(self):
        _, journal = make_journal()
        txn = journal.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.log_write(1, b"x")

    def test_empty_transaction_commits(self):
        _, journal = make_journal()
        txn = journal.begin()
        txn.commit()
        assert journal.commits == 1

    def test_oversized_record_rejected(self):
        _, journal = make_journal(block_size=512)
        txn = journal.begin()
        with pytest.raises(TransactionError):
            txn.log_write(10, bytes(513))

    def test_txids_are_unique_and_increasing(self):
        _, journal = make_journal()
        ids = [journal.begin().txid for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_transactional_read_sees_own_writes(self):
        device, journal = make_journal()
        device.write_block(30, b"old" + bytes(509))
        txn = journal.begin()
        assert txn.read_block(30).startswith(b"old")
        txn.log_write(30, b"new")
        assert txn.read_block(30).startswith(b"new")
        assert device.read_block(30).startswith(b"old")  # not yet committed
        txn.commit()
        assert device.read_block(30).startswith(b"new")


class TestRecovery:
    def test_recover_replays_committed_transactions(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"persist-me")
        txn.commit()
        # Simulate losing the home-location write: zero it behind the journal's back.
        device.discard(100)
        fresh_journal = Journal(device, journal_start=0, journal_blocks=16)
        replayed = fresh_journal.recover()
        assert replayed == 1
        assert device.read_block(100).startswith(b"persist-me")

    def test_uncommitted_tail_is_ignored(self):
        device, journal = make_journal()
        committed = journal.begin()
        committed.log_write(100, b"committed")
        committed.commit()
        # Forge an uncommitted record directly after the committed bytes.
        partial = journal._encode_record(1, 99, 101, b"torn")
        journal._write_log_region(journal.bytes_used, partial)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.recover() == 1
        assert device.read_block(101) == bytes(512)

    def test_recovery_is_idempotent(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(99, b"abc")
        txn.commit()
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        fresh.recover()
        fresh.recover()
        assert device.read_block(99).startswith(b"abc")

    def test_checkpoint_clears_journal(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"x")
        txn.commit()
        journal.checkpoint()
        assert journal.bytes_used == 0
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.recover() == 0
        # Home location remains intact; checkpoint only drops the log.
        assert device.read_block(100).startswith(b"x")

    def test_journal_full_raises(self):
        _, journal = make_journal(journal_blocks=2, block_size=512)
        with pytest.raises(JournalError):
            for i in range(100):
                txn = journal.begin()
                txn.log_write(200, bytes([i % 250]) * 400)
                txn.commit()

    def test_one_transaction_larger_than_the_journal_is_a_typed_error(self):
        # A checkpoint cannot help a single transaction that outgrows the
        # region: the error says so by type, on both append paths.
        device, journal = make_journal(journal_blocks=2, block_size=512)
        txn = journal.begin()
        for block in range(100, 104):
            txn.log_write(block, b"x" * 400)
        with pytest.raises(JournalFullError):
            txn.commit()
        assert device.read_block(100) == bytes(512)  # nothing reached home
        txid = journal.allocate_txid()
        with pytest.raises(JournalFullError):
            for block in range(100, 104):
                journal.append(TYPE_DATA, txid, block, bytes([block]) * 400)
        assert issubclass(JournalFullError, JournalError)

    def test_commit_order_preserved_on_replay(self):
        device, journal = make_journal()
        first = journal.begin()
        first.log_write(100, b"first")
        first.commit()
        second = journal.begin()
        second.log_write(100, b"second")
        second.commit()
        device.discard(100)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        fresh.recover()
        assert device.read_block(100).startswith(b"second")


class TestCrashInjection:
    def test_crash_during_home_write_recovers_from_journal(self):
        device, journal = make_journal()
        # Journal append is the first write of a commit; let it succeed, then
        # fail the home-location write that follows.
        txn = journal.begin()
        txn.log_write(150, b"durable")
        device.fault_plan = FaultPlan(fail_after_writes=device.stats.writes + 1)
        with pytest.raises(DeviceError):
            txn.commit()
        device.fault_plan = None
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.recover() == 1
        assert device.read_block(150).startswith(b"durable")

    def test_crash_during_journal_write_loses_transaction_cleanly(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(150, b"lost")
        device.fault_plan = FaultPlan(fail_after_writes=0)
        with pytest.raises(DeviceError):
            txn.commit()
        device.fault_plan = None
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.recover() == 0
        assert device.read_block(150) == bytes(512)


class TestTornRecords:
    """CRC-per-record: scan stops cleanly at torn or corrupt bytes."""

    def _committed_journal(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"good record")
        txn.commit()
        return device, journal

    def test_truncated_log_bytes_drop_the_tail_cleanly(self):
        device, journal = self._committed_journal()
        second = journal.begin()
        second.log_write(101, b"to be torn")
        second.commit()
        # Tear the tail: zero the journal region from mid-second-transaction.
        cut = journal.bytes_used - 10
        raw = bytearray(device.read_blocks(0, 16))
        raw[cut:] = bytes(len(raw) - cut)
        device.write_blocks(0, bytes(raw), nblocks=16)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert len(fresh.scan()) == 1  # only the first transaction survives

    def test_header_corruption_detected_not_just_payload(self):
        device, journal = self._committed_journal()
        # Flip a bit in the record *header* (the block field), leaving the
        # payload untouched: a payload-only checksum would miss this.
        raw = bytearray(device.read_blocks(0, 16))
        raw[21] ^= 0x01  # inside the packed header, before the payload
        device.write_blocks(0, bytes(raw), nblocks=16)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.scan() == []

    def test_payload_corruption_detected(self):
        device, journal = self._committed_journal()
        raw = bytearray(device.read_blocks(0, 16))
        raw[40] ^= 0x10  # inside the payload
        device.write_blocks(0, bytes(raw), nblocks=16)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.scan() == []

    def test_length_field_promising_missing_bytes_is_torn(self):
        device, journal = self._committed_journal()
        # Forge a record whose length points past the end of the region; it
        # must read as a torn tail, not crash the scanner.
        forged = journal._encode_record(1, 99, 50, b"x" * 40)
        forged = forged[:30]  # cut the payload short
        journal._write_log_region(journal.bytes_used, forged)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert len(fresh.scan()) == 1


class TestCheckpointRecoverRoundTrips:
    """checkpoint() and recover() compose in any order without data loss."""

    def test_commit_checkpoint_commit_recover(self):
        device, journal = make_journal()
        first = journal.begin()
        first.log_write(100, b"first epoch")
        first.commit()
        journal.checkpoint()
        second = journal.begin()
        second.log_write(101, b"second epoch")
        second.commit()
        device.discard(100)
        device.discard(101)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.recover() == 1  # only the post-checkpoint transaction
        assert device.read_block(100) == bytes(512)  # checkpointed: not replayed
        assert device.read_block(101).startswith(b"second epoch")

    def test_recover_then_commit_then_recover(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"gen one")
        txn.commit()
        second_life = Journal(device, journal_start=0, journal_blocks=16)
        assert second_life.recover() == 1
        follow_up = second_life.begin()
        follow_up.log_write(101, b"gen two")
        follow_up.commit()
        third_life = Journal(device, journal_start=0, journal_blocks=16)
        assert third_life.recover() == 2
        assert device.read_block(100).startswith(b"gen one")
        assert device.read_block(101).startswith(b"gen two")

    def test_recover_advances_txid_and_lsn_generators(self):
        device, journal = make_journal()
        for _ in range(3):
            txn = journal.begin()
            txn.log_write(100, b"x")
            txn.commit()
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        fresh.recover()
        assert fresh.begin().txid > 3
        assert fresh.last_lsn >= journal.last_lsn

    def test_checkpoint_is_one_device_write(self):
        device, journal = make_journal()
        txn = journal.begin()
        txn.log_write(100, b"x")
        txn.commit()
        before = device.stats.writes
        journal.checkpoint()
        assert device.stats.writes == before + 1


class TestLsnsAndGroupCommit:
    def test_lsns_are_monotonic_across_records(self):
        from repro.storage.journal import TYPE_DATA

        _, journal = make_journal()
        lsns = [journal.append(TYPE_DATA, 1, 10 + i, b"p") for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_buffered_records_become_durable_on_sync(self):
        from repro.storage.journal import TYPE_DATA

        device, journal = make_journal()
        lsn = journal.append(TYPE_DATA, 1, 10, b"payload")
        assert journal.durable_lsn < lsn
        assert journal.bytes_unflushed > 0
        journal.sync()
        assert journal.durable_lsn >= lsn
        assert journal.bytes_unflushed == 0

    def test_group_commit_one_flush_covers_many_transactions(self):
        from repro.storage.journal import TYPE_DATA

        device, journal = make_journal()
        for txid in (1, 2, 3):
            journal.append(TYPE_DATA, txid, 100 + txid, b"data")
            journal.commit_txid(txid, sync=False)
        before = device.stats.writes
        journal.sync()
        assert device.stats.writes == before + 1  # one write, three commits
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert len(fresh.scan()) == 3


class TestJournalValidation:
    def test_journal_region_must_fit_device(self):
        device = BlockDevice(num_blocks=8, block_size=512)
        with pytest.raises(ValueError):
            Journal(device, journal_start=0, journal_blocks=16)
        with pytest.raises(ValueError):
            Journal(device, journal_start=-1, journal_blocks=4)
        with pytest.raises(ValueError):
            Journal(device, journal_start=0, journal_blocks=1)

    def test_capacity_reporting(self):
        _, journal = make_journal(journal_blocks=4, block_size=512)
        assert journal.capacity_bytes == 2048
        assert journal.bytes_used == 0
