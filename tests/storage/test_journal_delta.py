"""Page deltas in the journal: the splice codec and its run lists, when a
record becomes a delta, and the one fold replay and the scrubber's repair
source share."""

import base64
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
    _ENTRY,
    _FRAME,
    _FRAME_MAGIC,
    _RUNS_FLAG,
    DELTA_HEAD,
    RECORD_OVERHEAD,
    RUN_SEARCH_ABOVE,
    TXN_OVERHEAD,
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


def settle_versions(count, terms=24, start=0):
    """``count`` successive images of one posting leaf: each adds a row to
    every third term's block — the scattered edits one settle batch makes,
    which a single splice carries as nearly the whole leaf."""
    rows = [1 + (term * 7 + start) % 3 for term in range(terms)]
    images = []
    for version in range(count):
        keys = [b"T\x00w%02d\x00" % term + struct.pack(">Q", 0) for term in range(terms)]
        values = [b"".join(struct.pack(">QI", 1000 * term + row, row + 1)
                           for row in range(rows[term]))
                  for term in range(terms)]
        images.append(frame_page(LeafNode(keys=keys, values=values).encode()))
        for term in range((version + start) % 3, terms, 3):
            rows[term] += 1
    return images


def runs_flagged(rtype, payload):
    """Whether a ``DELTA`` / ``HOME_DELTA`` payload carries a run list."""
    head_len = payload[4 if rtype == TYPE_HOME_DELTA else 0]  # past crc32(base)
    return bool(head_len & _RUNS_FLAG)


def commit(journal, *writes):
    """One transaction logging ``(block, image)`` pairs; returns its txid."""
    txid = journal.allocate_txid()
    for block, image in writes:
        journal.append(TYPE_DATA, txid, block, image)
    journal.commit_txid(txid)
    return txid


def logged_types(journal, block=BLOCK):
    return [record.rtype for _first_lsn, records in journal.scan()
            for record in records if record.block == block]


def home(device, block, length):
    return device.read_blocks(block, -(-length // device.block_size))[:length]


def frame(first_lsn, *records):
    """Hand-encode one frame of ``(rtype, block, payload)`` records."""
    body = b"".join(_ENTRY.pack(rtype, block, len(payload)) + payload
                    for rtype, block, payload in records)
    crc = zlib.crc32(body, zlib.crc32(_FRAME.pack(_FRAME_MAGIC, first_lsn, len(body), 0)))
    return _FRAME.pack(_FRAME_MAGIC, first_lsn, len(body), crc) + body


def write_log(journal, *transactions):
    """Hand-encode committed transactions of ``(rtype, block, payload)``,
    one frame each."""
    raw, lsn = b"", 1
    for records in transactions:
        raw += frame(lsn, *records)
        lsn += len(records)
    journal._write_log_region(0, raw)


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


def edited(base, edits):
    """``base`` after ``(kind, at, piece)`` inserts, deletes and overwrites."""
    new = bytearray(base)
    for kind, at, piece in edits:
        at %= len(new) + 1
        if kind == "insert":
            new[at:at] = piece
        elif kind == "delete":
            del new[at:at + len(piece)]
        else:
            new[at:at + len(piece)] = piece
    return bytes(new)


def posting_rows(rows, step):
    """Low-entropy bytes shaped like a posting block: ``(oid, tf)`` rows."""
    return b"".join(struct.pack(">QI", 1000 + step * row, 1 + row % 2) for row in range(rows))


PAGES = st.one_of(
    st.binary(max_size=4096),
    st.builds(lambda unit, count: (unit * count)[:4096],
              st.binary(min_size=1, max_size=12), st.integers(0, 400)),
    st.builds(lambda rows, step: posting_rows(rows, step)[:4096],
              st.integers(0, 340), st.integers(1, 3)),
)
EDITS = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "overwrite")),
              st.integers(0, 4096), st.binary(min_size=1, max_size=64)),
    max_size=12,
)


class TestRunLists:
    @settings(max_examples=300, deadline=None)
    @given(old=PAGES, edits=EDITS)
    @example(old=posting_rows(300, 1), edits=[("insert", 900, b"r" * 12),
                                              ("overwrite", 2500, b"w" * 12)])
    def test_scattered_edits_round_trip(self, old, edits):
        new = edited(old, edits)
        delta = encode_delta(old, new)
        assert apply_delta(delta, old) == new
        flagged, prefix, suffix, _crc = struct.unpack_from(">BIII", delta)
        head_len = flagged & ~_RUNS_FLAG
        middle = len(new) - head_len - prefix - suffix
        if flagged & _RUNS_FLAG:
            # Only a long middle is searched, and its run list must be
            # strictly smaller than the middle carried raw.
            assert middle > RUN_SEARCH_ABOVE
            assert len(delta) - 13 - head_len < middle
        else:
            assert len(delta) == 13 + head_len + middle

    def test_scattered_row_edits_take_a_run_list(self):
        images = settle_versions(3)
        for old, new in zip(images, images[1:]):
            delta = encode_delta(old, new)
            assert runs_flagged(TYPE_DELTA, delta)
            assert len(delta) < len(new) // 3  # a splice would carry ~all of it
            assert apply_delta(delta, old) == new

    def test_a_malformed_run_list_is_an_error_not_a_page(self):
        base = bytes(range(200))
        head = base[:DELTA_HEAD]
        new = head + b"abc" + base[20:120]

        def delta(*runs):
            return (struct.pack(">BIII", DELTA_HEAD | _RUNS_FLAG, 0, 0, zlib.crc32(new))
                    + head + b"".join(runs))

        assert apply_delta(delta(struct.pack(">HHH", 3, 20, 100), b"abc"), base) == new
        for runs in (
            (struct.pack(">HHH", 3, 150, 100), b"abc"),       # a copy past the base's end
            (struct.pack(">HHH", 40, 20, 100), b"abc"),       # a literal past the payload
            (struct.pack(">HHH", 3, 20, 100), b"abc\x00\x01"),  # trailing bytes
        ):
            with pytest.raises(JournalError, match="does not fit"):
                apply_delta(delta(*runs), base)


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
        delta_record = journal.bytes_appended - before - TXN_OVERHEAD  # minus the frame
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
        # If it were, the other transaction's delta would have no base in
        # the log: the stranded stage never reaches it.  The last sealed
        # image still is one.
        device, journal = make_journal()
        first, second, third = versions(3)
        commit(journal, (BLOCK, first))
        stranded = journal.allocate_txid()
        journal.append(TYPE_DATA, stranded, BLOCK, second)      # never commits
        commit(journal, (BLOCK, third))
        assert logged_types(journal) == [TYPE_DATA, TYPE_DELTA]
        [(_first_lsn, [record])] = reopen(device).scan()[1:]
        assert apply_delta(record.data, first) == third
        reopen(device).replay()
        assert home(device, BLOCK, len(third)) == third

    def test_an_abandoned_stage_never_reaches_the_log(self):
        # Its records, its revoke and its images are forgotten whole: the
        # next transaction deltas against the last sealed image, and a
        # replay writes none of the stage's blocks.
        device, journal = make_journal()
        first, second, third = versions(3)
        commit(journal, (BLOCK, first))
        abandoned = journal.allocate_txid()
        journal.append(TYPE_DATA, abandoned, OTHER, first)
        journal.append(TYPE_DATA, abandoned, BLOCK, second)
        journal.append(TYPE_REVOKE, abandoned, BLOCK, b"")
        used = journal.bytes_used
        commit(journal, (BLOCK, third))
        assert journal.bytes_used < used  # the stage's bytes went with it
        assert logged_types(journal) == [TYPE_DATA, TYPE_DELTA]
        assert logged_types(journal, block=OTHER) == []
        assert len(reopen(device).replay()) == 2
        assert home(device, BLOCK, len(third)) == third
        assert device.read_block(OTHER) == bytes(512)

    def test_a_second_image_in_one_transaction_is_refused(self):
        _device, journal = make_journal()
        first, second = versions(2)
        with pytest.raises(JournalError, match=f"block {BLOCK} already"):
            commit(journal, (BLOCK, first), (BLOCK, second))

    def test_a_block_revoked_in_its_transaction_logs_a_full_image(self):
        _device, journal = make_journal()
        first, second = versions(2)
        commit(journal, (BLOCK, first))
        txid = journal.allocate_txid()
        journal.append(TYPE_REVOKE, txid, BLOCK, b"")
        journal.append(TYPE_DATA, txid, BLOCK, second)
        journal.commit_txid(txid)
        assert logged_types(journal) == [TYPE_DATA, TYPE_REVOKE, TYPE_DATA]

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
        write_log(journal, [(TYPE_DATA, OTHER, first),
                            (TYPE_DELTA, BLOCK, encode_delta(first, second))])
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
        # Full images only: no record needs a base.
        device, journal = make_journal()
        first, second = versions(2)
        write_log(journal, [(TYPE_DATA, BLOCK, first)],
                  [(TYPE_DATA, BLOCK, second), (TYPE_DATA, OTHER, first)])
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


# ---------------------------------------------------------------- run lists through a crash

def frame_spans(log):
    """``(start, end, entries)`` of each frame in a raw log, each entry as
    ``(start, end, rtype, payload)``."""
    frames, at = [], 0
    while at + TXN_OVERHEAD <= len(log):
        _magic, _first_lsn, length, _crc = _FRAME.unpack_from(log, at)
        end, entries, position = at + TXN_OVERHEAD + length, [], at + TXN_OVERHEAD
        while position < end:
            rtype, _block, size = _ENTRY.unpack_from(log, position)
            stop = position + RECORD_OVERHEAD + size
            entries.append((position, stop, rtype, log[position + RECORD_OVERHEAD:stop]))
            position = stop
        frames.append((at, end, entries))
        at = end
    return frames


class TestRunListCrashes:
    """A crash may cut the log at any byte: at a frame boundary, or inside
    a frame (a torn append).  Whatever the cut, replay must leave every
    page as the last transaction committed before it left it — with
    run-list ``DELTA`` and ``HOME_DELTA`` records in the chains, and from a
    home that still holds the base or already the newest such image."""

    @pytest.mark.parametrize("block_size", [512, PAGE])
    def test_every_cut_of_the_log_replays_the_committed_prefix(self, block_size):
        device = BlockDevice(num_blocks=256, block_size=block_size)
        journal = reopen(device)
        images, others = settle_versions(6), settle_versions(4, start=1)
        state = {BLOCK: images[0], OTHER: others[0]}
        for block, image in state.items():  # what the last checkpoint left home
            device.write_blocks(block, image)
        homes = device.dump()
        committed = [(0, dict(state))]  # (log bytes, the pages as they stand)
        for writes in ([(BLOCK, images[1]), (OTHER, others[1])],
                       [(BLOCK, images[2])],
                       [(BLOCK, images[3])],
                       [(OTHER, others[2])],
                       [(BLOCK, images[4]), (OTHER, others[3])],
                       [(BLOCK, images[5])]):
            commit(journal, *writes)
            state.update(writes)
            committed.append((journal.bytes_used, dict(state)))
        log = bytes(journal._log)
        frames = frame_spans(log)
        entries = [entry for _start, _end, inside in frames for entry in inside]
        kinds = {rtype for _start, _end, rtype, payload in entries
                 if rtype in (TYPE_DELTA, TYPE_HOME_DELTA) and runs_flagged(rtype, payload)}
        # A page of one block starts its chain from the home, of several from an image.
        assert kinds == ({TYPE_DELTA, TYPE_HOME_DELTA} if block_size == PAGE else {TYPE_DELTA})
        # Each frame boundary, inside each frame header, and three points
        # inside each entry.
        cuts = {0, len(log)} | {point for start, end, _inside in frames
                                for point in (start + 1, end)}
        cuts |= {point for start, end, _rtype, _payload in entries
                 for point in (start + 1, (start + end) // 2, end - 1)}
        for cut in sorted(cuts):
            expected = max((entry for entry in committed if entry[0] <= cut),
                           key=lambda entry: entry[0])[1]
            for written_back in (False, True):
                crashed = BlockDevice(num_blocks=256, block_size=block_size)
                crashed.load(homes)
                if written_back:  # the pool wrote the newest durable images home
                    for block, image in expected.items():
                        crashed.write_blocks(block, image)
                reopen(crashed)._write_log_region(0, log[:cut])
                fresh = reopen(crashed)
                fresh.replay()
                assert fresh.last_replay_unresolved == []
                for block, image in expected.items():
                    assert home(crashed, block, len(image)) == image, (cut, block)


# A journal the single-splice encoder wrote (before run lists existed), in
# the per-record format (before frames): ``TestParentJournal`` below logs
# the same transactions.  zlib + base64.  That format's record header:
# MAGIC | type | txid | lsn | block | length | crc32.
_PER_RECORD = struct.Struct(">IBQQQII")
PARENT_JOURNAL = """
eNrNmV9IFFEUxkfd9X+ZiTggYurEmpTc3VxdDSRXWcMH08WNtnqoKNuMwCQQAiPzxfIxyoyK
0oSgAk0EM+zFF8seKiHSKKynzIhKCjOI9uiO57jdblNbziysc9DvzPlkZn9+x/G5SsoipYVX
WNBxnySZPN+nemY7P9tfJvq/kex/12e/6+/a4qoq9/9wqLbrYj+oZVnCFz1NuP+9skZqZFYi
kALqiDeojpiiahtVKwuHqEeojnocUEP9BNrVzo2cOXED2Bl3h87J46gTrqA64SpV2zmuklpR
nXQKXSWdpq7yOXNS6rEz5QidU8BRp25HdaqXqh0cV+mbUZ1egq7SndRVIWdOVjZ2Zq0jc6yM
o7asQrUlkaqtHFc5s6jO+YqucuaIK6uNMyd3EjtzX9E5vOttG0G17T5V53Fc5fegOr8XXeXf
pq7snDlF57GzqIPO4V3v4hOoLm6m6gKOK6cP1c6D6MpZR105OHNcVdjpqqZzeNe7woHqikKi
tjGOq8o1qK7MQFeVmcSVjfdZd0djpzsGOn0c8gROJ/l/edPhraPJzUN7TTVwX5XCbTLQsmtG
JU+3S2qaJw8TsATqtwFncJj2fzFxGRMfxJhQWcIELIG6E10ldFFXdo6rRcaEyhImYAnUO9BV
6k7qysFxtciYUFnCBCyBejW6siQRV0sZEx/EmFBZwgQsgfoBurKNUld5HFeLjAmVJUzAEqhP
oqviFuqqgONqkTGhsoQJWAJ1Ebqq2ERcLWVMfBBj/oAlqtrGceX5gGrPR3Tl+YSuPDPgCogU
HkSkCHrGjLZuF4jMQbgykcDUe9det1ZFlnNyzPd+AVnmtPWZxxvnkaVoRJZ+UUjRiC/9YpGi
EWX6RSRFI9b0i0uKRsTpF50UjbjTL0YpGtG3LJGKi0FFCwYp+tSjmZ6lz30tjaJP5WIkos+c
ODzekAu3eJP/HT385dz1APqaBpsjz9C09luAQT1GE4guMGMaYQZ1G3WrC9iYRrBBXUrd6gI5
phFyUH+jSUYX4DGNwIO6j7rVBX5MI/ygPkTd6gJCphGEUGfR9Pi/oah28vYC7zPs9I5jp3cC
3Xqfq6kymJpRZM/tTjl7bzd8ZoAs0Zcnt42ogTHDeimN/neNS01jbKqygJTG2FplAR2NscHK
AiIaY5uVBRQ0xmYrC8hnjC1XFtBu2TdeLuHkXxGOhkSVZNG003SgPYziTt2LY0hI9NbuWTGn
PkxoNbU/nQ7g7sXEfns53Y+5DxPUgBrBfbDw95v1vwmmigC9UA/S+YYKqYoAyVA30PmGCqyK
ANVQ59CYZKjwqggQDvVrOt9QQVYRoB3qC3S+oUKtIkA+1G4631ABVxH8KYA6Vt3jg+kbi/SV
0o8drX7ov8fNcP0tN8bKbv5E3zCKefUccdRJxy224QcVvAHK
"""


def per_record_spans(log):
    """``(block, rtype, payload)`` of each record of a per-record-format log."""
    spans, at = [], 0
    while at + _PER_RECORD.size <= len(log):
        _magic, rtype, _txid, _lsn, block, length, _crc = _PER_RECORD.unpack_from(log, at)
        end = at + _PER_RECORD.size + length
        spans.append((block, rtype, log[at + _PER_RECORD.size:end]))
        at = end
    return spans


def parent_home(start):
    """The home image of the fixture's page ``start`` — ``settle_versions``'s
    first image as the fixture's format encoded it: u32 node entry lengths
    and 12-byte ``oid · tf`` rows.  The log holds only deltas against it."""
    entries = []
    for term in range(24):
        key = b"T\x00w%02d\x00" % term + struct.pack(">Q", 0)
        value = b"".join(struct.pack(">QI", 1000 * term + row, row + 1)
                         for row in range(1 + (term * 7 + start) % 3))
        entries.append(struct.pack(">I", len(key)) + key + struct.pack(">I", len(value)) + value)
    return frame_page(struct.pack(">BI", 1, len(entries)) + b"".join(entries)
                      + struct.pack(">Q", btree_node.NO_PAGE))


class TestParentJournal:
    def images(self):
        """The images the fixture's transactions logged, in order: each
        page's home, then what each of its records rebuilt from the one
        before (the last, a one-byte edit)."""
        images, others = [parent_home(0)], [parent_home(1)]
        log = zlib.decompress(base64.b64decode("".join(PARENT_JOURNAL.split())))
        for block, rtype, payload in per_record_spans(log):
            chain = images if block == BLOCK else others
            if rtype == TYPE_HOME_DELTA:
                assert struct.unpack_from(">I", payload)[0] == zlib.crc32(chain[-1])
                payload = payload[4:]  # past crc32(base)
            if rtype in (TYPE_DELTA, TYPE_HOME_DELTA):
                chain.append(apply_delta(payload, chain[-1]))
        assert (len(images), len(others)) == (6, 3)
        return images, others

    def test_a_per_record_journal_is_refused_untouched(self):
        # Its records would read as a zeroed log and be lost: the replay
        # names the format instead, before it writes a block.
        images, others = self.images()
        device = BlockDevice(num_blocks=256)
        device.write_block(BLOCK, images[0])
        device.write_block(OTHER, others[0])
        log = zlib.decompress(base64.b64decode("".join(PARENT_JOURNAL.split())))
        reopen(device)._write_log_region(0, log)
        before = device.dump()
        with pytest.raises(JournalError, match="per-record log format"):
            reopen(device).replay()
        with pytest.raises(JournalError, match="per-record log format"):
            reopen(device).scan()
        assert device.dump() == before

    def test_short_deltas_encode_as_they_always_did(self):
        # Only a long middle may take a run list: every other payload in
        # the old journal is exactly what today's encoder writes.
        images, _others = self.images()
        log = zlib.decompress(base64.b64decode("".join(PARENT_JOURNAL.split())))
        chain = [payload for block, rtype, payload in per_record_spans(log)
                 if rtype == TYPE_DELTA and block == BLOCK]
        pairs = list(zip(images[1:], images[2:]))
        assert len(chain) == len(pairs) == 4
        for payload, (old, new) in zip(chain, pairs):
            assert not runs_flagged(TYPE_DELTA, payload)
            today = encode_delta(old, new)
            if runs_flagged(TYPE_DELTA, today):
                assert len(today) < len(payload)
            else:
                assert today == payload
        assert not runs_flagged(TYPE_DELTA, encode_delta(images[-2], images[-1]))
