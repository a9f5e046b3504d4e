"""Tests for the write-ahead journal: durability, recovery, crash injection."""

import pytest

from repro.errors import DeviceError, JournalError, JournalFullError
from repro.storage import BlockDevice, FaultPlan, Journal
from repro.storage.journal import TYPE_DATA


def make_journal(journal_blocks=16, num_blocks=256, block_size=512):
    device = BlockDevice(num_blocks=num_blocks, block_size=block_size)
    journal = Journal(device, journal_start=0, journal_blocks=journal_blocks)
    return device, journal


def commit(journal, *writes):
    """One synced transaction of ``(block, data)`` page records — what the
    recovery manager's commit does.  Home locations are not written: in the
    engine that is the buffer pool's write-back, and after a crash replay's."""
    txid = journal.allocate_txid()
    for block, data in writes:
        journal.append(TYPE_DATA, txid, block, data)
    journal.commit_txid(txid)
    return txid


def recover(device):
    """A reboot: a fresh journal replays the region; returns (journal, count)."""
    fresh = Journal(device, journal_start=0, journal_blocks=16)
    return fresh, len(fresh.replay())


class TestTransactionLifecycle:
    def test_abort_writes_nothing(self):
        # An abort is a transaction whose commit marker never comes: durable
        # records, but no home write — not at append, sync or replay.
        device, journal = make_journal()
        journal.append(TYPE_DATA, journal.allocate_txid(), 100, b"hello")
        journal.sync()
        assert journal.commits == 0
        assert recover(device)[1] == 0
        assert device.read_block(100) == bytes(512)

    def test_empty_transaction_commits(self):
        device, journal = make_journal()
        txid = commit(journal)
        assert journal.commits == 1
        assert Journal(device, 0, 16).scan() == [(txid, [])]

    def test_oversized_record_rejected(self):
        # One record the whole region cannot hold: typed, and nothing buffered.
        _, journal = make_journal(journal_blocks=2, block_size=512)
        with pytest.raises(JournalFullError):
            journal.append(TYPE_DATA, journal.allocate_txid(), 10, bytes(1024))
        assert journal.bytes_used == 0

    def test_txids_are_unique_and_increasing(self):
        _, journal = make_journal()
        ids = [journal.allocate_txid() for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5


class TestRecovery:
    def test_recover_replays_committed_transactions(self):
        device, journal = make_journal()
        commit(journal, (100, b"persist-me"))
        # The home location was never written: the crash beat the write-back.
        assert device.read_block(100) == bytes(512)
        _, replayed = recover(device)
        assert replayed == 1
        assert device.read_block(100).startswith(b"persist-me")

    def test_uncommitted_tail_is_ignored(self):
        device, journal = make_journal()
        commit(journal, (100, b"committed"))
        # A durable record whose transaction never got its commit marker.
        journal.append(TYPE_DATA, journal.allocate_txid(), 101, b"torn")
        journal.sync()
        _, replayed = recover(device)
        assert replayed == 1
        assert device.read_block(100).startswith(b"committed")
        assert device.read_block(101) == bytes(512)

    def test_recovery_is_idempotent(self):
        device, journal = make_journal()
        commit(journal, (99, b"abc"))
        fresh, _ = recover(device)
        snapshot = device.dump()
        assert len(fresh.replay()) == 1
        assert device.dump() == snapshot
        assert device.read_block(99).startswith(b"abc")

    def test_checkpoint_clears_journal(self):
        device, journal = make_journal()
        commit(journal, (100, b"x"))
        device.write_block(100, b"x")  # the write-back a checkpoint waits for
        journal.checkpoint()
        assert journal.bytes_used == 0
        assert recover(device)[1] == 0
        # Home location remains intact; checkpoint only drops the log.
        assert device.read_block(100).startswith(b"x")

    def test_journal_full_raises(self):
        _, journal = make_journal(journal_blocks=2, block_size=512)
        with pytest.raises(JournalError):
            for i in range(100):
                commit(journal, (200, bytes([i % 250]) * 400))

    def test_one_transaction_larger_than_the_journal_is_a_typed_error(self):
        # A checkpoint cannot help a single transaction that outgrows the
        # region: the error says so by type.
        device, journal = make_journal(journal_blocks=2, block_size=512)
        txid = journal.allocate_txid()
        with pytest.raises(JournalFullError):
            for block in range(100, 104):
                journal.append(TYPE_DATA, txid, block, bytes([block]) * 400)
        assert issubclass(JournalFullError, JournalError)
        # Its records carry no commit marker, so a replay applies none of them.
        journal.sync()
        assert recover(device)[1] == 0
        assert device.read_block(100) == bytes(512)

    def test_commit_order_preserved_on_replay(self):
        device, journal = make_journal()
        commit(journal, (100, b"first"))
        commit(journal, (100, b"second"))
        recover(device)
        assert device.read_block(100).startswith(b"second")


class TestCrashInjection:
    def test_crash_during_home_write_recovers_from_journal(self):
        device, journal = make_journal()
        # The log flush is the first write of a commit; let it succeed, then
        # fail the home-location write-back that follows.
        device.fault_plan = FaultPlan(fail_after_writes=device.stats.writes + 1)
        commit(journal, (150, b"durable"))
        with pytest.raises(DeviceError):
            device.write_block(150, b"durable")
        device.fault_plan = None
        assert recover(device)[1] == 1
        assert device.read_block(150).startswith(b"durable")

    def test_crash_during_journal_write_loses_transaction_cleanly(self):
        device, journal = make_journal()
        device.fault_plan = FaultPlan(fail_after_writes=0)
        with pytest.raises(DeviceError):
            commit(journal, (150, b"lost"))
        device.fault_plan = None
        assert recover(device)[1] == 0
        assert device.read_block(150) == bytes(512)


class TestTornRecords:
    """CRC-per-record: scan stops cleanly at torn or corrupt bytes."""

    def _committed_journal(self):
        device, journal = make_journal()
        commit(journal, (100, b"good record"))
        return device, journal

    def test_truncated_log_bytes_drop_the_tail_cleanly(self):
        device, journal = self._committed_journal()
        commit(journal, (101, b"to be torn"))
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
    """checkpoint() and replay() compose in any order without data loss."""

    def test_commit_checkpoint_commit_recover(self):
        device, journal = make_journal()
        commit(journal, (100, b"first epoch"))
        journal.checkpoint()
        commit(journal, (101, b"second epoch"))
        assert recover(device)[1] == 1  # only the post-checkpoint transaction
        assert device.read_block(100) == bytes(512)  # checkpointed: not replayed
        assert device.read_block(101).startswith(b"second epoch")

    def test_recover_then_commit_then_recover(self):
        device, journal = make_journal()
        commit(journal, (100, b"gen one"))
        second_life, replayed = recover(device)
        assert replayed == 1
        commit(second_life, (101, b"gen two"))
        assert recover(device)[1] == 2
        assert device.read_block(100).startswith(b"gen one")
        assert device.read_block(101).startswith(b"gen two")

    def test_recover_advances_txid_and_lsn_generators(self):
        device, journal = make_journal()
        for _ in range(3):
            commit(journal, (100, b"x"))
        fresh, _ = recover(device)
        assert fresh.allocate_txid() > 3
        assert fresh.last_lsn >= journal.last_lsn

    def test_checkpoint_is_one_device_write(self):
        device, journal = make_journal()
        commit(journal, (100, b"x"))
        before = device.stats.writes
        journal.checkpoint()
        assert device.stats.writes == before + 1


class TestLsnsAndGroupCommit:
    def test_lsns_are_monotonic_across_records(self):
        _, journal = make_journal()
        lsns = [journal.append(TYPE_DATA, 1, 10 + i, b"p") for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_buffered_records_become_durable_on_sync(self):
        device, journal = make_journal()
        lsn = journal.append(TYPE_DATA, 1, 10, b"payload")
        assert journal.durable_lsn < lsn
        assert journal.bytes_unflushed > 0
        journal.sync()
        assert journal.durable_lsn >= lsn
        assert journal.bytes_unflushed == 0

    def test_group_commit_one_flush_covers_many_transactions(self):
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
