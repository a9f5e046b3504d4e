"""Page deltas in the journal: the splice codec, when a record becomes a
delta, and the one fold replay and the scrubber's repair source share."""

import struct
import zlib

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
    TYPE_HOME_DELTA,
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


# ---------------------------------------------------------------- home deltas

PAGE = 4096  # one page is one block: the device writes it whole


def page_versions(count):
    """``count`` successive page-sized framed images of one page."""
    return versions(count, start=110)


def make_page_journal():
    device = BlockDevice(num_blocks=256)
    return device, Journal(device, journal_start=0, journal_blocks=JOURNAL_BLOCKS)


def home_delta(base, new):
    """A hand-encoded ``HOME_DELTA`` payload: ``crc32(base)`` and a splice."""
    return struct.pack(">I", zlib.crc32(base)) + encode_delta(base, new)


def write_log(journal, *transactions):
    """Hand-encode committed transactions of ``(rtype, block, payload)``."""
    raw, lsn = b"", 0
    for txid, records in enumerate(transactions, start=1):
        for rtype, block, payload in records:
            lsn += 1
            raw += journal._encode_record(rtype, txid, block, payload, lsn=lsn)
        lsn += 1
        raw += journal._encode_record(TYPE_COMMIT, txid, 0, b"", lsn=lsn)
    journal._write_log_region(0, raw)


class TestHomeDeltas:
    def test_images_are_page_sized(self):
        images = page_versions(4)
        assert all(PAGE // 2 < len(image) <= PAGE for image in images)

    def test_first_touch_is_a_delta_against_the_home(self):
        device, journal = make_page_journal()
        images = page_versions(3)
        device.write_block(BLOCK, images[0])  # a checkpoint left it home
        commit(journal, (BLOCK, images[1]))
        commit(journal, (BLOCK, images[2]))
        assert logged_types(journal) == [TYPE_HOME_DELTA, TYPE_DELTA]
        assert journal.bytes_appended < len(images[1])

    def test_a_fresh_allocation_starts_with_a_full_image(self):
        device, journal = make_page_journal()
        images = page_versions(2)
        device.write_block(BLOCK, images[0])  # a previous owner's valid page
        journal.mark_allocated(BLOCK)
        commit(journal, (BLOCK, images[1]))
        assert logged_types(journal) == [TYPE_DATA]
        journal.checkpoint()  # the mark lasts until the log truncates
        device.write_block(BLOCK, images[1])
        commit(journal, (BLOCK, images[0]))
        assert logged_types(journal) == [TYPE_HOME_DELTA]

    def test_a_revoked_then_reused_block_starts_with_a_full_image(self):
        device, journal = make_page_journal()
        images = page_versions(3)
        device.write_block(BLOCK, images[0])
        commit(journal, (BLOCK, images[1]))
        txid = journal.allocate_txid()
        journal.append(TYPE_REVOKE, txid, BLOCK, b"")
        journal.commit_txid(txid)
        commit(journal, (BLOCK, images[2]))
        assert logged_types(journal) == [TYPE_HOME_DELTA, TYPE_REVOKE, TYPE_DATA]
        device.write_block(BLOCK, b"unlogged object data")
        reopen(device).replay()
        assert home(device, BLOCK, len(images[2])) == images[2]

    def test_a_rotten_home_at_first_touch_starts_with_a_full_image(self):
        device, journal = make_page_journal()
        images = page_versions(2)
        device.write_block(BLOCK, images[0])
        device.flip_bit(BLOCK, 8 * 100)
        commit(journal, (BLOCK, images[1]))
        assert logged_types(journal) == [TYPE_DATA]

    def test_a_page_of_several_blocks_starts_with_a_full_image(self):
        # On 512-byte blocks a page write can tear between them: no home base.
        device, journal = make_journal()
        images = page_versions(2)
        device.write_blocks(BLOCK, images[0])
        read, read_blocks = [], device.read_blocks
        device.read_blocks = lambda block, n: read.append(block) or read_blocks(block, n)
        commit(journal, (BLOCK, images[1]))
        assert BLOCK not in read  # the home is not even read
        assert logged_types(journal) == [TYPE_DATA]


class TestHomeFold:
    def chain(self, journal, images):
        """A committed chain from ``images[0]`` (the home base) to the last."""
        records = [(TYPE_HOME_DELTA, BLOCK, home_delta(images[0], images[1]))]
        records += [(TYPE_DELTA, BLOCK, encode_delta(old, new))
                    for old, new in zip(images[1:], images[2:])]
        write_log(journal, *[[record] for record in records])

    def test_home_equals_the_base(self):
        device, journal = make_page_journal()
        images = page_versions(5)
        device.write_block(BLOCK, images[0])
        self.chain(journal, images)
        fresh = reopen(device)
        assert len(fresh.replay()) == 4
        assert home(device, BLOCK, len(images[-1])) == images[-1]
        assert fresh.last_replay_applied == 1 and fresh.last_replay_unresolved == []

    def test_home_equals_an_intermediate_image(self):
        # The pool wrote images[2] back before the crash: replay continues
        # after the record that built it (applying from the base would fail
        # the splice against the wrong image).
        device, journal = make_page_journal()
        images = page_versions(5)
        device.write_block(BLOCK, images[2])
        self.chain(journal, images)
        reopen(device).replay()
        assert home(device, BLOCK, len(images[-1])) == images[-1]

    def test_home_equals_the_final_image(self):
        device, journal = make_page_journal()
        images = page_versions(4)
        device.write_block(BLOCK, images[-1])
        self.chain(journal, images)
        reopen(device).replay()
        assert home(device, BLOCK, len(images[-1])) == images[-1]

    def test_a_torn_home_matches_nothing_and_is_not_written(self):
        device, journal = make_page_journal()
        images = page_versions(4)
        torn = images[3][:1000] + images[1][1000:]
        device.write_block(BLOCK, torn)
        device.write_block(OTHER, images[0])
        write_log(journal, *[[record] for record in [
            (TYPE_HOME_DELTA, BLOCK, home_delta(images[0], images[1])),
            (TYPE_DELTA, BLOCK, encode_delta(images[1], images[2])),
            (TYPE_HOME_DELTA, OTHER, home_delta(images[0], images[3])),
        ]])
        fresh = reopen(device)
        fresh.replay()
        assert fresh.last_replay_unresolved == [BLOCK]
        assert device.read_block(BLOCK) == torn.ljust(PAGE, b"\0")
        assert home(device, OTHER, len(images[3])) == images[3]  # the rest replays
        assert fresh.latest_page_image(BLOCK) is None

    def test_a_valid_home_the_chain_never_logged_is_an_error(self):
        # A lost write: the home holds a page, but not one of the chain's.
        device, journal = make_page_journal()
        images, stranger = page_versions(4), versions(1, start=90)[0]
        device.write_block(BLOCK, stranger)
        device.write_block(OTHER, images[0])
        write_log(journal, [
            (TYPE_HOME_DELTA, OTHER, home_delta(images[0], images[2])),
            (TYPE_HOME_DELTA, BLOCK, home_delta(images[0], images[1])),
        ])
        with pytest.raises(JournalError, match=f"block {BLOCK}"):
            reopen(device).replay()
        assert home(device, BLOCK, len(stranger)) == stranger  # nothing written
        assert home(device, OTHER, len(images[0])) == images[0]

    def test_a_full_image_later_in_the_chain_needs_no_home(self):
        device, journal = make_page_journal()
        images = page_versions(4)
        device.write_block(BLOCK, b"torn beyond recognition")
        write_log(journal, [
            (TYPE_HOME_DELTA, BLOCK, home_delta(images[0], images[1])),
            (TYPE_DATA, BLOCK, images[2]),
            (TYPE_DELTA, BLOCK, encode_delta(images[2], images[3])),
        ])
        fresh = reopen(device)
        fresh.replay()
        assert home(device, BLOCK, len(images[3])) == images[3]
        assert fresh.last_replay_unresolved == []

    def test_commits_after_a_replay_extend_the_chain(self):
        # Replay drops the bases, so the next touch deltas against the home
        # it just wrote; a second replay folds both home deltas in turn.
        device, journal = make_page_journal()
        images = page_versions(5)
        device.write_block(BLOCK, images[0])
        for image in images[1:3]:
            commit(journal, (BLOCK, image))
        fresh = reopen(device)
        fresh.replay()
        for image in images[3:]:
            commit(fresh, (BLOCK, image))
        assert logged_types(fresh) == [
            TYPE_HOME_DELTA, TYPE_DELTA, TYPE_HOME_DELTA, TYPE_DELTA]
        # Whichever image of the chain the crash left home, the fold ends
        # at the newest one.
        for left_home in images:
            device.write_block(BLOCK, left_home)
            reopen(device).replay()
            assert home(device, BLOCK, len(images[-1])) == images[-1]

    def test_a_home_delta_past_the_start_must_fit_the_image_so_far(self):
        device, journal = make_page_journal()
        images = page_versions(4)
        write_log(journal, [
            (TYPE_DATA, BLOCK, images[0]),
            (TYPE_HOME_DELTA, BLOCK, home_delta(images[2], images[3])),
        ])
        with pytest.raises(JournalError, match="another image"):
            reopen(device).replay()
        assert device.read_block(BLOCK) == bytes(PAGE)

    def test_the_repair_source_folds_from_the_home(self):
        device, journal = make_page_journal()
        images = page_versions(3)
        device.write_block(BLOCK, images[0])
        commit(journal, (BLOCK, images[1]))
        commit(journal, (BLOCK, images[2]))
        assert journal.latest_page_image(BLOCK) == images[2]
        device.write_block(BLOCK, images[1])  # written back: still foldable
        assert journal.latest_page_image(BLOCK) == images[2]
        device.flip_bit(BLOCK, 8 * 200)  # rot under the chain: no image at all
        assert journal.latest_page_image(BLOCK) is None
