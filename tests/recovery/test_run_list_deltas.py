"""Run-list page deltas under a crash, on a real engine.

A settle batch adds a row to many terms whose blocks share one leaf, so the
leaf's new image differs from its last one in scattered places: the
journal logs it as a ``DELTA`` (or, first touched after a checkpoint on a
4 KB-block device, a ``HOME_DELTA``) whose middle is a run list.  Every
journal sync of two such settles is cut at each frame boundary and inside
each entry — what a crash during that sync leaves — and the image must
mount and serve exactly the committed documents, on 512-byte and on 4 KB
blocks.
"""

import random

import pytest

from repro.core import HFADFileSystem
from repro.storage import BlockDevice
from repro.storage.block_device import PAGE_BYTES
from repro.storage.journal import (
    _ENTRY,
    _FRAME,
    _RUNS_FLAG,
    RECORD_OVERHEAD,
    TXN_OVERHEAD,
    TYPE_DELTA,
    TYPE_HOME_DELTA,
)

VOCABULARY = [f"w{i:02d}" for i in range(40)]


def ingest(fs, corpus, documents, rng):
    for _ in range(documents):
        words = rng.sample(VOCABULARY, 25)
        corpus[fs.create(" ".join(words).encode(), path=f"/d/{len(corpus)}")] = set(words)


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


def settle_syncs(fs):
    """Settle and sync, returning every journal sync that made as
    ``(image before it, journal offset, bytes written)``."""
    journal, syncs = fs.recovery.journal, []
    write = journal._write_log_region

    def recording(offset, data):
        syncs.append((fs.device.dump(), offset, data))
        write(offset, data)

    journal._write_log_region = recording
    try:
        fs.fulltext_index.index.settle()
        journal.sync()  # a settle commits without one
    finally:
        del journal._write_log_region
    return syncs


def crashed_image(fs, image, offset, data, cut):
    """The device a crash leaves when a sync of ``data`` stops at ``cut``."""
    device = fs.device
    crashed = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    crashed.load(image)
    start = fs.recovery.journal.journal_start + offset // device.block_size
    crashed.write_bytes(start, offset % device.block_size, data[:cut])
    return crashed


def assert_serves(fs, corpus):
    for word in VOCABULARY[::3]:
        expected = sorted(oid for oid, words in corpus.items() if word in words)
        assert fs.search_text(word) == expected, word
    assert fs.fulltext_index.index.document_ids() == sorted(corpus)
    assert fs.fulltext_index.index.bound_violations() == []


@pytest.mark.parametrize("block_size", [512, PAGE_BYTES])
def test_a_crash_anywhere_in_a_settle_of_run_list_deltas(block_size):
    device = BlockDevice(num_blocks=(1 << 22) // block_size, block_size=block_size)
    fs = HFADFileSystem(device=device, journal_blocks=(1 << 18) // block_size,
                        cache_pages=64, query_cache_entries=0)
    rng, corpus = random.Random(5), {}
    ingest(fs, corpus, 30, rng)
    fs.checkpoint()  # the posting leaves are home: the next touch is a first touch
    settles = []
    for _settle in range(2):
        ingest(fs, corpus, 8, rng)  # each create commits and syncs
        settles.append((dict(corpus), settle_syncs(fs)))
    flagged = set()
    for _corpus, syncs in settles:
        for _image, _offset, data in syncs:
            for _start, _end, entries in frame_spans(data):
                for _at, _stop, rtype, payload in entries:
                    if rtype in (TYPE_DELTA, TYPE_HOME_DELTA):
                        head_len = payload[4 if rtype == TYPE_HOME_DELTA else 0]
                        if head_len & _RUNS_FLAG:
                            flagged.add(rtype)
    # On 512-byte blocks a first touch logs a full image, never a home delta.
    assert flagged == ({TYPE_DELTA, TYPE_HOME_DELTA} if block_size == PAGE_BYTES
                       else {TYPE_DELTA})
    for committed, syncs in settles:
        for image, offset, data in syncs:
            frames = frame_spans(data)
            cuts = {end for _start, end, _entries in frames}
            cuts |= {point for _start, _end, entries in frames
                     for start, end, *_rest in entries
                     for point in (start + 1, (start + end) // 2, end - 1)}
            for cut in sorted(cuts):
                mounted = HFADFileSystem.mount(crashed_image(fs, image, offset, data, cut))
                assert mounted.stats()["recovery"]["unresolved_pages"] == 0
                # Settles change no answer: every cut serves what was committed.
                assert_serves(mounted, committed)
