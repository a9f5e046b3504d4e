"""One frame per transaction, under every crash and every flipped byte.

Random transactions — page images, ``META`` and ``REVOKE`` records, commits
with and without a sync, stages abandoned before they commit — are logged,
and the log is then cut at every byte offset and, separately, has each of
its bytes flipped.  Whatever the damage, a replay must give exactly the
whole frames before it, leave every page and the ``META`` history as those
frames left them, and keep an in-memory copy of the log that matches the
device.  On 4 KB blocks the homes start out holding framed pages, so first
touches are ``HOME_DELTA`` records.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integrity import frame_page
from repro.storage import BlockDevice, Journal
from repro.storage.block_device import PAGE_BYTES
from repro.storage.journal import (
    _FRAME,
    TYPE_DATA,
    TYPE_DELTA,
    TYPE_HOME_DELTA,
    TYPE_META,
    TYPE_REVOKE,
)

BLOCKS = (40, 41, 42)
REGION_BYTES = 1 << 14

OPS = st.one_of(
    st.tuples(st.just(TYPE_DATA), st.sampled_from(BLOCKS), st.integers(0, 5)),
    st.tuples(st.just(TYPE_META), st.just(0), st.integers(1, 99)),
    st.tuples(st.just(TYPE_REVOKE), st.sampled_from(BLOCKS), st.just(0)),
)
TRANSACTIONS = st.lists(
    st.tuples(st.lists(OPS, max_size=4), st.sampled_from(["sync", "no sync", "abandon"])),
    min_size=1, max_size=6,
)


def image(block, version, framed):
    """Version ``version`` of ``block``'s page: a few bytes moved per version."""
    base = bytes((block * 7 + i) % 251 for i in range(200))
    at = 40 + 12 * version
    raw = base[:at] + bytes([version]) * (version + 1) + base[at + 4:]
    return frame_page(raw) if framed else raw


class Logged:
    """A journal driven through random transactions, and what each prefix
    of its frames must replay to."""

    def __init__(self, block_size, transactions):
        framed = block_size == PAGE_BYTES
        self.device = BlockDevice(num_blocks=48, block_size=block_size)
        self.journal_blocks = REGION_BYTES // block_size
        if framed:  # a checkpoint left a page home: first touches are home deltas
            for block in BLOCKS:
                self.device.write_block(block, image(block, 0, True))
        self.homes = self.device.dump()
        initial = {block: self.device.read_block(block) for block in BLOCKS}
        journal = self.journal()
        pages, metas = dict(initial), []
        #: (pages, metas) after each sealed frame, and before the first.
        self.states = [(dict(pages), list(metas))]
        for ops, mode in transactions:
            txid = journal.allocate_txid()
            staged_pages, staged_metas = dict(pages), list(metas)
            imaged = set()  # a block's page is logged once per transaction
            for rtype, block, arg in ops:
                if rtype == TYPE_DATA:
                    if block in imaged:
                        continue
                    imaged.add(block)
                    page = image(block, arg, framed)
                    journal.append(TYPE_DATA, txid, block, page)
                    staged_pages[block] = page.ljust(block_size, b"\0")
                elif rtype == TYPE_META:
                    payload = json.dumps({"next_oid": arg}).encode()
                    journal.append(TYPE_META, txid, 0, payload)
                    staged_metas.append(payload)
                else:
                    journal.append(TYPE_REVOKE, txid, block, b"")
                    imaged.discard(block)
                    staged_pages[block] = initial[block]  # replay leaves the home alone
            if mode == "abandon":
                continue  # the next transaction's first record drops the stage
            journal.commit_txid(txid, sync=mode == "sync")
            if ops:
                pages, metas = staged_pages, staged_metas
                self.states.append((dict(pages), list(metas)))
            if mode == "sync":
                assert journal.durable_lsn == journal.sealed_lsn
        journal.sync()
        self.frames = journal.scan()
        assert len(self.frames) == len(self.states) - 1
        self.ends, at = [], 0
        for _frame in self.frames:
            at += _FRAME.size + _FRAME.unpack_from(journal._log, at)[2]
            self.ends.append(at)
        self.log = bytes(journal._log[:at])
        assert journal.verify_device_region()["matches_memory"]

    def journal(self):
        return Journal(self.device, journal_start=0, journal_blocks=self.journal_blocks)

    def replay(self, region):
        """Replay a crash image whose journal region starts with ``region``;
        returns the fresh journal and what it replayed."""
        self.device.load(self.homes)
        self.journal()._write_log_region(0, region)
        fresh = self.journal()
        return fresh, fresh.replay()

    def check(self, region, damage_at):
        """Replay ``region`` and require exactly the frames that end at or
        before ``damage_at``."""
        whole = sum(1 for end in self.ends if end <= damage_at)
        fresh, replayed = self.replay(region)
        assert replayed == self.frames[:whole], damage_at
        pages, metas = self.states[whole]
        for block in BLOCKS:
            assert self.device.read_block(block) == pages[block], (damage_at, block)
        assert [record.data for _first_lsn, records in replayed
                for record in records if record.rtype == TYPE_META] == metas
        report = fresh.verify_device_region()
        assert report["matches_memory"], damage_at
        assert report["flushed_bytes"] == (self.ends[whole - 1] if whole else 0)


@pytest.mark.parametrize("block_size", [512, PAGE_BYTES])
@settings(max_examples=40, deadline=None)
@given(transactions=TRANSACTIONS)
def test_every_cut_replays_exactly_the_whole_frames_before_it(block_size, transactions):
    logged = Logged(block_size, transactions)
    for cut in range(len(logged.log) + 1):
        # The region is zeroed past the cut: zero bytes of the log there
        # survive it, and may complete a frame.
        survives = len(logged.log[cut:]) - len(logged.log[cut:].lstrip(b"\0"))
        logged.check(logged.log[:cut], cut + survives)


@pytest.mark.parametrize("block_size", [512, PAGE_BYTES])
@settings(max_examples=40, deadline=None)
@given(transactions=TRANSACTIONS, mask=st.integers(1, 255))
def test_every_flipped_byte_drops_its_frame_and_the_rest(block_size, transactions, mask):
    logged = Logged(block_size, transactions)
    for at in range(len(logged.log)):
        flipped = bytearray(logged.log)
        flipped[at] ^= mask
        # The frame holding the flip ends after it: it and every later one go.
        logged.check(bytes(flipped), at)


def test_home_deltas_take_part():
    # The 4 KB case logs first touches against the homes it starts with.
    logged = Logged(PAGE_BYTES, [([(TYPE_DATA, 40, 1)], "sync"), ([(TYPE_DATA, 40, 2)], "sync")])
    assert [record.rtype for _first_lsn, records in logged.frames
            for record in records] == [TYPE_HOME_DELTA, TYPE_DELTA]
    logged.check(logged.log, len(logged.log))
