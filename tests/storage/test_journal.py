"""Tests for the write-ahead journal: durability, recovery, crash injection."""

import pytest

from repro.errors import DeviceError, JournalError, JournalFullError
from repro.recovery.crash import CrashError, CrashingBlockDevice
from repro.storage import BlockDevice, FaultPlan, Journal
from repro.storage.journal import RECORD_OVERHEAD, TXN_OVERHEAD, TYPE_DATA


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
        # An abort is a transaction whose frame never seals: a sync leaves
        # its stage in memory, and nothing reaches a home — not at append,
        # sync or replay.
        device, journal = make_journal()
        journal.append(TYPE_DATA, journal.allocate_txid(), 100, b"hello")
        journal.sync()
        assert journal.commits == 0
        assert recover(device)[1] == 0
        assert device.read_block(100) == bytes(512)

    def test_empty_transaction_commits(self):
        # It logged nothing, so it seals no frame.
        device, journal = make_journal()
        commit(journal)
        assert journal.commits == 1
        assert journal.bytes_used == 0
        assert Journal(device, 0, 16).scan() == []

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
    """One CRC per frame: scan stops cleanly at torn or corrupt bytes."""

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
        raw[TXN_OVERHEAD + RECORD_OVERHEAD + 3] ^= 0x10  # inside the payload
        device.write_blocks(0, bytes(raw), nblocks=16)
        fresh = Journal(device, journal_start=0, journal_blocks=16)
        assert fresh.scan() == []

    def test_length_field_promising_missing_bytes_is_torn(self):
        device, journal = self._committed_journal()
        # A frame cut short, so its length points past what was written:
        # it must read as a torn tail, not crash the scanner.
        _, other = make_journal()
        commit(other, (50, b"x" * 40))
        forged = bytes(other._log[:30])
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

    def test_recover_advances_the_lsn_generator(self):
        # Transaction ids never reach the log (the engine lock serializes
        # transactions), so only the LSNs continue past the replayed tail.
        device, journal = make_journal()
        for _ in range(3):
            commit(journal, (100, b"x"))
        fresh, _ = recover(device)
        assert fresh.last_lsn == journal.last_lsn == 3
        assert fresh.append(TYPE_DATA, fresh.allocate_txid(), 100, b"y") == 4

    def test_a_replayed_log_matches_its_device_copy(self):
        # The in-memory log after a replay is the bytes of the replayed
        # frames, so fsck's comparison holds until the next checkpoint, and
        # a commit after the replay extends it exactly.
        device, journal = make_journal()
        commit(journal, (100, bytes(range(100))))
        fresh, _ = recover(device)
        report = fresh.verify_device_region()
        assert report == {"flushed_bytes": journal.bytes_used,
                          "matches_memory": True, "first_divergence": None}
        commit(fresh, (101, b"after the replay"))
        assert fresh.verify_device_region()["matches_memory"]
        assert recover(device)[1] == 2

    def test_checkpoint_is_one_device_write(self):
        device, journal = make_journal()
        commit(journal, (100, b"x"))
        before = device.stats.writes
        journal.checkpoint()
        assert device.stats.writes == before + 1


class _TearAfterOneBlock:
    """A torn-write source for CrashingBlockDevice: one block survives."""

    def randrange(self, start, stop):
        return 1


def session(journal, first_block, transactions):
    """``transactions`` synced commits of one same-sized page record each."""
    for i in range(transactions):
        commit(journal, (first_block + i, bytes([i + 1]) * 300))


class TestHighWaterMark:
    """A checkpoint zeroes only the blocks a session wrote, and a scan reads
    only the blocks up to the end of the log."""

    def test_checkpoint_zeroes_only_the_blocks_below_the_mark(self):
        device, journal = make_journal()
        journal.checkpoint()  # the first truncation zeroes the whole region
        session(journal, 100, 2)  # 658 bytes: two 512-byte blocks
        before = device.stats.blocks_written
        journal.checkpoint()
        assert device.stats.blocks_written - before == 2
        writes = device.stats.writes
        journal.checkpoint()  # nothing written since: nothing to zero
        assert device.stats.writes == writes
        assert device.read_blocks(0, 16) == bytes(16 * 512)

    def test_scan_of_a_truncated_journal_reads_one_block(self):
        device, journal = make_journal()
        session(journal, 100, 3)
        journal.checkpoint()
        before = device.stats.blocks_read
        assert Journal(device, 0, 16).scan() == []
        assert device.stats.blocks_read - before == 1

    def test_scan_reads_growing_runs_up_to_the_end_of_the_log(self):
        device, journal = make_journal()
        session(journal, 100, 6)  # 1,974 bytes: blocks 0-3
        before = device.stats.snapshot()
        assert len(Journal(device, 0, 16).scan()) == 6
        delta = device.stats.delta(before)
        # Runs of 1, 2 and 4 blocks: the third holds the zeroed tail.
        assert (delta.reads, delta.blocks_read) == (3, 7)

    def test_long_session_then_short_session_then_crash(self):
        # Same-sized frames: the short session ends exactly where the long
        # one's second frame began, so a frame the checkpoint failed to
        # zero would parse cleanly and replay as a stale transaction.
        device, journal = make_journal()
        session(journal, 100, 12)
        for i in range(12):
            # The write-back, then newer unlogged bytes a stale replay of
            # the long session would clobber.
            device.write_block(100 + i, b"newer")
        journal.checkpoint()
        session(journal, 200, 1)
        fresh, replayed = recover(device)  # the crash: no clean close
        assert replayed == 1
        assert device.read_block(200).startswith(bytes([1]) * 300)
        assert [r.block for _txid, records in fresh.scan() for r in records] == [200]
        for i in range(12):
            assert device.read_block(100 + i).startswith(b"newer")

    def test_torn_truncation_reads_as_an_empty_log(self):
        device = CrashingBlockDevice(num_blocks=256, block_size=512)
        journal = Journal(device, journal_start=0, journal_blocks=16)
        journal.checkpoint()
        session(journal, 100, 12)  # 3,948 bytes: blocks 0-7
        for i in range(12):
            device.write_block(100 + i, bytes([i + 1]) * 300)
        device.plan_crash(after_writes=0, torn_rng=_TearAfterOneBlock())
        with pytest.raises(CrashError):
            journal.checkpoint()
        assert device.torn_blocks == 1
        image = device.surviving_image()
        assert image.read_block(0) == bytes(512)  # the torn prefix
        assert image.read_block(1) != bytes(512)  # stale records behind it
        fresh = Journal(image, journal_start=0, journal_blocks=16)
        assert fresh.replay() == []
        # The checkpointed state: every home location as written back.
        for i in range(12):
            assert image.read_block(100 + i).startswith(bytes([i + 1]) * 300)
        # Replay cannot know how far the stale bytes reach: the next
        # checkpoint zeroes the whole region.
        before = image.stats.blocks_written
        fresh.checkpoint()
        assert image.stats.blocks_written - before == 16
        assert image.read_blocks(0, 16) == bytes(16 * 512)

    def test_a_replay_forgets_the_mark(self):
        # Whatever the region held when a replay ran is unknown afterwards:
        # the next checkpoint zeroes all of it, not just what this session
        # wrote.
        device, journal = make_journal()
        journal.checkpoint()
        device.write_block(9, b"bytes a torn truncation left behind")
        journal.replay()
        journal.checkpoint()
        assert device.read_blocks(0, 16) == bytes(16 * 512)


class TestLsnsAndGroupCommit:
    def test_lsns_are_monotonic_across_records(self):
        _, journal = make_journal()
        lsns = [journal.append(TYPE_DATA, 1, 10 + i, b"p") for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_buffered_records_become_durable_on_sync(self):
        device, journal = make_journal()
        lsn = journal.append(TYPE_DATA, 1, 10, b"payload")
        journal.sync()  # a stage is never written
        assert journal.durable_lsn < lsn
        assert journal.bytes_unflushed == 0
        assert journal.commit_txid(1, sync=False) == lsn
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
