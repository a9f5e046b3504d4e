"""Page deltas in the journal: the splice codec, when a record becomes a
delta, and the one fold replay and the scrubber's repair source share."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.btree import node as btree_node
from repro.btree.node import LeafNode
from repro.errors import JournalError
from repro.integrity import FRAME_OVERHEAD, frame_page
from repro.storage import BlockDevice, Journal
from repro.storage.journal import (
    DELTA_HEAD,
    RECORD_OVERHEAD,
    TYPE_COMMIT,
    TYPE_DATA,
    TYPE_DELTA,
    TYPE_META,
    TYPE_REVOKE,
    apply_delta,
    encode_delta,
)

JOURNAL_BLOCKS = 64
BLOCK = 100  # home of the page most tests log
OTHER = 104


def make_journal():
    device = BlockDevice(num_blocks=512, block_size=512)
    return device, Journal(device, journal_start=0, journal_blocks=JOURNAL_BLOCKS)


def reopen(device):
    """A reboot: a journal object that knows only what is on the device."""
    return Journal(device, journal_start=0, journal_blocks=JOURNAL_BLOCKS)


def page(entries):
    """A framed leaf page holding ``entries`` postings — what the page store logs."""
    keys = [b"term%04d" % i for i in sorted(entries)]
    return frame_page(LeafNode(keys=keys, values=[b"v" * 12] * len(keys)).encode())


def versions(count, start=20):
    """``count`` successive images of one page: one posting inserted each time."""
    return [page(list(range(0, 2 * start, 2)) + list(range(1, 2 * n, 2)))
            for n in range(count)]


def commit(journal, *writes):
    """One transaction logging ``(block, image)`` pairs; returns its txid."""
    txid = journal.allocate_txid()
    for block, image in writes:
        journal.append(TYPE_DATA, txid, block, image)
    journal.commit_txid(txid)
    return txid


def logged_types(journal, block=BLOCK):
    return [record.rtype for _txid, records in journal.scan()
            for record in records if record.block == block]


def home(device, block, length):
    return device.read_blocks(block, -(-length // device.block_size))[:length]


# ---------------------------------------------------------------- the codec

class TestSpliceCodec:
    @settings(max_examples=300, deadline=None)
    @given(old=st.binary(max_size=200), new=st.binary(max_size=200))
    @example(old=b"", new=b"")
    @example(old=b"", new=b"grown from nothing")
    @example(old=b"shrunk to nothing", new=b"")
    @example(old=b"x" * 64, new=b"x" * 64)                       # equal
    @example(old=b"h" * 17 + b"body" * 9, new=b"H" * 17 + b"body" * 9)  # header only
    @example(old=b"h" * 17 + b"ab" * 20, new=b"h" * 17 + b"ab" * 10 + b"NEW" + b"ab" * 10)
    @example(old=b"h" * 17 + b"ab" * 20, new=b"h" * 17 + b"ab" * 12)   # shrunk
    @example(old=b"aaaa" * 10, new=b"aaaa" * 11)                 # self-similar
    def test_apply_inverts_diff(self, old, new):
        assert apply_delta(encode_delta(old, new), old) == new

    @settings(max_examples=200, deadline=None)
    @given(base=st.binary(min_size=40, max_size=300), data=st.data())
    def test_one_insertion_costs_its_own_bytes(self, base, data):
        at = data.draw(st.integers(min_value=DELTA_HEAD, max_value=len(base)))
        piece = data.draw(st.binary(min_size=1, max_size=30))
        new = base[:at] + piece + base[at:]
        delta = encode_delta(base, new)
        assert apply_delta(delta, base) == new
        # delta header (13) + carried head (17) + at most the inserted bytes
        assert len(delta) <= 13 + DELTA_HEAD + len(piece)

    def test_head_covers_the_frame_and_node_headers(self):
        # The journal cannot import the page formats (they sit above it);
        # this pins the constant to what it stands for.
        assert DELTA_HEAD == FRAME_OVERHEAD + btree_node._HEADER.size

    def test_wrong_base_is_an_error_not_a_page(self):
        _first, second, third = versions(3)
        delta = encode_delta(second, third)
        with pytest.raises(JournalError, match="checksum"):
            apply_delta(delta, bytes(reversed(second)))
        with pytest.raises(JournalError, match="does not fit"):
            apply_delta(delta, second[:40])
        with pytest.raises(JournalError, match="shorter"):
            apply_delta(delta[:5], second)


# ---------------------------------------------------------------- what gets logged

class TestRecordChoice:
    def test_first_touch_is_a_full_image_then_deltas(self):
        _device, journal = make_journal()
        images = versions(4)
        for image in images:
            commit(journal, (BLOCK, image))
        assert logged_types(journal) == [TYPE_DATA, TYPE_DELTA, TYPE_DELTA, TYPE_DELTA]

    def test_a_delta_is_much_smaller_than_the_page(self):
        _device, journal = make_journal()
        first, second = versions(2)
        commit(journal, (BLOCK, first))
        before = journal.bytes_appended
        commit(journal, (BLOCK, second))
        delta_record = journal.bytes_appended - before - RECORD_OVERHEAD  # minus commit
        assert delta_record < RECORD_OVERHEAD + 80 < len(second)

    def test_a_delta_that_would_not_be_smaller_stays_a_full_image(self):
        _device, journal = make_journal()
        commit(journal, (BLOCK, bytes(range(200))))
        commit(journal, (BLOCK, bytes(reversed(range(200)))))
        assert logged_types(journal) == [TYPE_DATA, TYPE_DATA]

    def test_checkpoint_makes_the_next_record_a_full_image(self):
        _device, journal = make_journal()
        first, second, third = versions(3)
        commit(journal, (BLOCK, first))
        commit(journal, (BLOCK, second))
        journal.checkpoint()
        commit(journal, (BLOCK, third))
        assert logged_types(journal) == [TYPE_DATA]

    def test_revoke_makes_the_next_record_a_full_image(self):
        _device, journal = make_journal()
        first, second = versions(2)
        commit(journal, (BLOCK, first))
        txid = journal.allocate_txid()
        journal.append(TYPE_REVOKE, txid, BLOCK, b"")
        journal.commit_txid(txid)
        commit(journal, (BLOCK, second))
        assert logged_types(journal) == [TYPE_DATA, TYPE_REVOKE, TYPE_DATA]

    def test_replay_makes_the_next_record_a_full_image(self):
        device, journal = make_journal()
        first, second, third = versions(3)
        commit(journal, (BLOCK, first))
        commit(journal, (BLOCK, second))
        fresh = reopen(device)
        fresh.replay()
        commit(fresh, (BLOCK, third))
        assert logged_types(fresh) == [TYPE_DATA, TYPE_DELTA, TYPE_DATA]

    def test_an_uncommitted_image_is_no_base_for_another_transaction(self):
        # If it were, a crash that drops the open transaction would leave
        # the other one's committed delta without its base.
        device, journal = make_journal()
        first, second, third = versions(3)
        commit(journal, (BLOCK, first))
        stranded = journal.allocate_txid()
        journal.append(TYPE_DATA, stranded, BLOCK, second)      # never commits
        commit(journal, (BLOCK, third))
        assert logged_types(journal) == [TYPE_DATA, TYPE_DATA]
        reopen(device).replay()
        assert home(device, BLOCK, len(third)) == third

    def test_a_transaction_deltas_against_its_own_image(self):
        _device, journal = make_journal()
        first, second = versions(2)
        commit(journal, (BLOCK, first), (BLOCK, second))
        assert logged_types(journal) == [TYPE_DATA, TYPE_DELTA]

    def test_meta_records_are_never_bases(self):
        _device, journal = make_journal()
        txid = journal.allocate_txid()
        journal.append(TYPE_META, txid, 0, b'{"next_oid": 2}')
        journal.append(TYPE_META, txid, 0, b'{"next_oid": 3}')
        journal.commit_txid(txid)
        assert logged_types(journal, block=0) == [TYPE_META, TYPE_META]

    def test_callers_cannot_append_a_delta_themselves(self):
        _device, journal = make_journal()
        with pytest.raises(JournalError):
            journal.append(TYPE_DELTA, 1, BLOCK, b"anything")

    def test_a_full_journal_leaves_the_base_untouched(self):
        device = BlockDevice(num_blocks=512, block_size=512)
        journal = Journal(device, journal_start=0, journal_blocks=2)
        first, second = versions(2)
        commit(journal, (BLOCK, first))
        with pytest.raises(JournalError, match="journal full"):
            commit(journal, (BLOCK, bytes(range(256)) * 3))
        commit(journal, (BLOCK, second))  # still a delta against ``first``
        assert logged_types(journal) == [TYPE_DATA, TYPE_DELTA]
        Journal(device, journal_start=0, journal_blocks=2).replay()
        assert home(device, BLOCK, len(second)) == second


# ---------------------------------------------------------------- replay

class TestReplayFold:
    def test_chain_across_several_transactions(self):
        device, journal = make_journal()
        images, others = versions(6), versions(3, start=8)
        for n, image in enumerate(images):
            writes = [(BLOCK, image)]
            if n < len(others):
                writes.append((OTHER, others[n]))
            commit(journal, *writes)
        fresh = reopen(device)
        assert len(fresh.replay()) == 6
        assert home(device, BLOCK, len(images[-1])) == images[-1]
        assert home(device, OTHER, len(others[-1])) == others[-1]
        assert fresh.last_replay_applied == 2  # one home write per block

    def test_chain_cut_by_an_uncommitted_tail(self):
        device, journal = make_journal()
        images = versions(4)
        for image in images[:3]:
            commit(journal, (BLOCK, image))
        tail = journal.allocate_txid()
        journal.append(TYPE_DATA, tail, BLOCK, images[3])
        journal.sync()  # durable, but no commit marker
        reopen(device).replay()
        assert home(device, BLOCK, len(images[2])) == images[2]

    def test_revoke_in_mid_chain_kills_the_chain(self):
        device, journal = make_journal()
        first, second = versions(2)
        commit(journal, (BLOCK, first))
        commit(journal, (BLOCK, second))
        txid = journal.allocate_txid()
        journal.append(TYPE_REVOKE, txid, BLOCK, b"")
        journal.commit_txid(txid)
        device.write_block(BLOCK, b"unlogged object data")
        fresh = reopen(device)
        fresh.replay()
        assert device.read_block(BLOCK).startswith(b"unlogged object data")
        assert fresh.last_replay_revoked == 2 and fresh.last_replay_applied == 0

    def test_block_reused_after_revoke_starts_a_new_chain(self):
        device, journal = make_journal()
        old_life = versions(2)
        new_life = versions(3, start=5)
        for image in old_life:
            commit(journal, (BLOCK, image))
        txid = journal.allocate_txid()
        journal.append(TYPE_REVOKE, txid, BLOCK, b"")
        journal.commit_txid(txid)
        for image in new_life:
            commit(journal, (BLOCK, image))
        assert logged_types(journal) == [
            TYPE_DATA, TYPE_DELTA, TYPE_REVOKE, TYPE_DATA, TYPE_DELTA, TYPE_DELTA]
        reopen(device).replay()
        assert home(device, BLOCK, len(new_life[-1])) == new_life[-1]

    def test_delta_without_a_base_is_surfaced_and_nothing_is_written(self):
        device, journal = make_journal()
        first, second = versions(2)
        orphan = (
            journal._encode_record(TYPE_DATA, 1, OTHER, first, lsn=1)
            + journal._encode_record(TYPE_DELTA, 1, BLOCK, encode_delta(first, second), lsn=2)
            + journal._encode_record(TYPE_COMMIT, 1, 0, b"", lsn=3)
        )
        journal._write_log_region(0, orphan)
        with pytest.raises(JournalError, match="no base image"):
            reopen(device).replay()
        assert device.read_block(BLOCK) == bytes(512)
        assert device.read_block(OTHER) == bytes(512)

    def test_torn_home_page_under_a_chain_is_restored_byte_exact(self):
        device, journal = make_journal()
        images = versions(5, start=40)  # two blocks per page
        assert len(images[-1]) > 512
        for image in images:
            commit(journal, (BLOCK, image))
        # The crash tore the write-back: the first block holds the newest
        # image, the second still holds an older one.
        device.write_blocks(BLOCK, images[1])
        device.write_block(BLOCK, images[-1][:512])
        assert home(device, BLOCK, len(images[-1])) != images[-1]
        reopen(device).replay()
        assert home(device, BLOCK, len(images[-1])) == images[-1]

    def test_replay_twice_in_a_row_is_idempotent(self):
        device, journal = make_journal()
        images = versions(4)
        for image in images:
            commit(journal, (BLOCK, image))
        fresh = reopen(device)
        first = fresh.replay()
        snapshot = device.dump()
        assert fresh.replay() == first
        assert device.dump() == snapshot
        assert len(reopen(device).replay()) == 4

    def test_commits_after_a_replay_extend_the_log(self):
        device, journal = make_journal()
        images = versions(5)
        for image in images[:3]:
            commit(journal, (BLOCK, image))
        fresh = reopen(device)
        fresh.replay()
        for image in images[3:]:
            commit(fresh, (BLOCK, image))
        assert logged_types(fresh) == [
            TYPE_DATA, TYPE_DELTA, TYPE_DELTA, TYPE_DATA, TYPE_DELTA]
        device.discard(BLOCK)
        reopen(device).replay()
        assert home(device, BLOCK, len(images[-1])) == images[-1]

    def test_a_journal_of_plain_data_records_replays_as_before(self):
        # What every journal written before deltas existed looks like.
        device, journal = make_journal()
        first, second = versions(2)
        plain = (
            journal._encode_record(TYPE_DATA, 1, BLOCK, first, lsn=1)
            + journal._encode_record(TYPE_COMMIT, 1, 0, b"", lsn=2)
            + journal._encode_record(TYPE_DATA, 2, BLOCK, second, lsn=3)
            + journal._encode_record(TYPE_DATA, 2, OTHER, first, lsn=4)
            + journal._encode_record(TYPE_COMMIT, 2, 0, b"", lsn=5)
        )
        journal._write_log_region(0, plain)
        assert len(reopen(device).replay()) == 2
        assert home(device, BLOCK, len(second)) == second
        assert home(device, OTHER, len(first)) == first


# ---------------------------------------------------------------- the repair source

class TestLatestPageImage:
    def test_image_is_rebuilt_from_the_chain(self):
        _device, journal = make_journal()
        images = versions(5)
        for image in images:
            commit(journal, (BLOCK, image), (OTHER, images[0]))
        assert journal.latest_page_image(BLOCK) == images[-1]
        assert journal.latest_page_image(OTHER) == images[0]
        assert journal.latest_page_image(BLOCK + 1) is None

    def test_only_durable_committed_records_count(self):
        _device, journal = make_journal()
        first, second, third = versions(3)
        commit(journal, (BLOCK, first))
        txid = journal.allocate_txid()
        journal.append(TYPE_DATA, txid, BLOCK, second)
        journal.commit_txid(txid, sync=False)  # group commit: still buffered
        assert journal.latest_page_image(BLOCK) == first
        journal.sync()
        assert journal.latest_page_image(BLOCK) == second
        open_txid = journal.allocate_txid()
        journal.append(TYPE_DATA, open_txid, BLOCK, third)
        journal.sync()  # durable but uncommitted
        assert journal.latest_page_image(BLOCK) == second

    def test_revoke_and_checkpoint_leave_no_image(self):
        _device, journal = make_journal()
        first, second = versions(2)
        commit(journal, (BLOCK, first))
        commit(journal, (BLOCK, second))
        commit(journal, (OTHER, first))
        txid = journal.allocate_txid()
        journal.append(TYPE_REVOKE, txid, BLOCK, b"")
        journal.commit_txid(txid)
        assert journal.latest_page_image(BLOCK) is None
        assert journal.latest_page_image(OTHER) == first
        journal.checkpoint()
        assert journal.latest_page_image(OTHER) is None
