"""The durable posting backlog on a device: crashes before, during and after a settle.

A create logs its ``D`` / ``L`` / ``S`` records and one ``P`` record; its
postings reach the full-text tree when the backlog settles.  Whatever a
crash interrupts, a mount must serve exactly the committed documents —
re-deriving the unsettled postings from the backlog records alone — and
leave no row of a document that is gone.
"""

import random
import struct
import sys

import pytest

from repro.core import HFADFileSystem
from repro.errors import JournalFullError
from repro.fulltext import persistent_index
from repro.storage import BlockDevice

VOCABULARY = [f"w{i:03d}" for i in range(300)]


def make_fs(**kwargs):
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    kwargs.setdefault("journal_blocks", 127)
    kwargs.setdefault("cache_pages", 64)
    return device, HFADFileSystem(device=device, btree_on_device=True, **kwargs)


def clone(device):
    """A reboot: only the device bytes survive."""
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())
    return image


def ingest(fs, documents, seed=3, common=()):
    """``{oid: set of words}`` for ``documents`` random creates."""
    rng = random.Random(seed)
    corpus = {}
    for number in range(documents):
        words = rng.sample(VOCABULARY, 12) + list(common)
        corpus[fs.create(" ".join(words).encode(), path=f"/d/{number}")] = set(words)
    return corpus


def assert_serves(fs, corpus):
    engine = fs.fulltext_index.index
    for word in VOCABULARY[::7]:
        expected = sorted(oid for oid, words in corpus.items() if word in words)
        assert fs.search_text(word) == expected, word
        assert engine.document_frequency(word) == len(expected), word
    assert engine.document_ids() == sorted(corpus)
    assert engine.bound_violations() == []


def tree_keys(fs, kind):
    return [key for key, _value in fs.fulltext_index.index.tree.cursor(prefix=kind)]


def rows_of(fs, oid):
    """Block keys of the full-text *tree* (not the overlay) holding a row of ``oid``."""
    found = []
    for key, raw in fs.fulltext_index.index.tree.cursor(prefix=b"T\x00"):
        if b"\x00" in key[2:]:
            rows = (len(raw) - 4) // 12
            if oid in struct.unpack_from(">" + "QI" * rows, raw)[0::2]:
                found.append(key)
    return found


def settle_recording_images(device, fs):
    """Settle, cloning the device after every one of the settle's commits."""
    images, after_commit = [], fs.recovery.after_commit

    def snapshot():
        images.append(clone(device))
        after_commit()

    fs.recovery.after_commit = snapshot
    try:
        fs.fulltext_index.index.settle()
    finally:
        fs.recovery.after_commit = after_commit
    return images


class TestCrashBeforeTheSettle:
    def test_a_mount_re_derives_the_postings_from_the_backlog(self):
        device, fs = make_fs()
        corpus = ingest(fs, 20)
        loud = fs.create(" ".join(["echo"] * 100 + ["tail"]).encode(), path="/loud")
        corpus[loud] = {"echo", "tail"}
        backlog = fs.stats()["persistent_index"]
        assert backlog["fulltext_backlog_docs"] == 21 and backlog["fulltext_settles"] == 0
        assert tree_keys(fs, b"T\x00") == []  # nothing of it is in the tree yet
        assert_serves(fs, corpus)
        mounted = HFADFileSystem.mount(clone(device))  # no close, no checkpoint
        assert_serves(mounted, corpus)
        after = mounted.stats()["persistent_index"]
        assert (after["fulltext_backlog_docs"], after["fulltext_backlog_keys"]) == (0, 0)
        assert after["fulltext_settles"] == 1
        assert tree_keys(mounted, b"P\x00") == [] == tree_keys(mounted, b"R\x00")
        # D keeps 64 positions; the hundred occurrences came through P.
        engine = mounted.fulltext_index.index
        raw = engine.tree.get(engine._posting_prefix("echo") + struct.pack(">Q", loud >> 6))
        assert struct.unpack_from(">QI", raw) == (loud, 100)
        assert mounted.rank("echo")[0].doc_id == loud
        assert mounted.fsck()["clean"]

    def test_a_cleanly_closed_image_holds_no_backlog_record(self):
        device, fs = make_fs()
        corpus = ingest(fs, 10)
        fs.close()
        assert tree_keys(fs, b"P\x00") == [] == tree_keys(fs, b"R\x00")
        mounted = HFADFileSystem.mount(clone(device))
        assert mounted.stats()["persistent_index"]["fulltext_settles"] == 0
        assert mounted.stats()["recovery"]["replayed_transactions"] == 0
        assert_serves(mounted, corpus)

    def test_an_update_of_an_applied_document_survives_a_crash(self):
        device, fs = make_fs()
        oid = fs.create(b"alpha beta beta", path="/a")
        other = fs.create(b"alpha", path="/b")
        fs.checkpoint()  # both applied: their rows are in the tree
        fs.write(oid, 0, b"gamma delta gamma")  # R for the old version, P for the new
        assert len(tree_keys(fs, b"R\x00")) == 1 == len(tree_keys(fs, b"P\x00"))
        mounted = HFADFileSystem.mount(clone(device))
        for live in (fs, mounted):
            assert live.search_text("alpha") == [other]
            assert live.search_text("beta") == []
            assert live.search_text("gamma delta") == [oid]
            assert live.fulltext_index.index.bound_violations() == []
        assert [key[2:-9] for key in rows_of(mounted, oid)] == [b"delta", b"gamma"]
        # ... and at every commit of the settle (R records retire before P).
        for image in settle_recording_images(device, fs):
            crashed = HFADFileSystem.mount(image)
            assert crashed.search_text("gamma delta") == [oid]
            assert crashed.search_text("alpha") == [other] and crashed.search_text("beta") == []
            assert crashed.fulltext_index.index.bound_violations() == []


class TestCrashDuringTheSettle:
    def test_removing_a_once_pending_document_after_a_half_settled_crash(self):
        device, fs = make_fs()
        corpus = ingest(fs, 30)
        images = settle_recording_images(device, fs)
        assert len(images) > 8  # several chunk transactions, then the retirements
        for image in (images[0], images[len(images) // 3], images[-2]):
            mounted = HFADFileSystem.mount(clone(image))
            assert_serves(mounted, corpus)  # the mount finished the settle
            assert tree_keys(mounted, b"P\x00") == [] == tree_keys(mounted, b"R\x00")
            left = dict(corpus)
            for doomed in sorted(corpus)[::4]:
                mounted.delete(doomed)
                del left[doomed]
            assert_serves(mounted, left)
            mounted.checkpoint()
            for doomed in sorted(corpus)[::4]:
                assert rows_of(mounted, doomed) == []
            assert_serves(HFADFileSystem.mount(clone(mounted.device)), left)

    def test_a_settle_is_split_only_between_terms(self):
        # Re-deriving a term one of whose blocks reached the tree without
        # its statistics would miscount its df.  Ten terms in every one of
        # 80 documents: runs of two blocks and a statistics key, which a
        # 3-key chunk would cut into if it were allowed to.
        device, fs = make_fs()
        ingest(fs, 80, common=[f"every{i}" for i in range(10)])
        for image in settle_recording_images(device, fs)[::3]:
            engine = HFADFileSystem.mount(image).fulltext_index.index
            assert engine.bound_violations() == []


class TestJournalSizing:
    def test_a_view_larger_than_the_journal_settles_on_a_64_block_journal(self, monkeypatch):
        monkeypatch.setattr(persistent_index, "SETTLE_KEYS", sys.maxsize)
        device = BlockDevice(num_blocks=1 << 15)
        fs = HFADFileSystem(device=device, btree_on_device=True, journal_blocks=64)
        rng = random.Random(5)
        corpus = {}
        for number in range(150):
            words = [f"t{int(rng.random() ** 2 * 4000):04d}" for _ in range(60)]
            corpus[fs.create(" ".join(words).encode(), path=f"/d/{number}")] = set(words)
        engine, journal = fs.fulltext_index.index, fs.recovery.journal
        unsettled = sum(len(key) + len(value or b"") for key, value in engine._view.edits.items())
        assert unsettled > journal.capacity_bytes
        checkpoints = fs.stats()["recovery"]["checkpoints"]
        fs.checkpoint()
        assert fs.stats()["recovery"]["checkpoints"] > checkpoints + 1
        assert engine.backlog == (0, 0) and not fs.recovery.poisoned
        mounted = HFADFileSystem.mount(clone(device))
        for word in ("t0000", "t0001", "t0100", "t2000"):
            expected = sorted(oid for oid, words in corpus.items() if word in words)
            assert mounted.search_text(word) == expected
        assert mounted.fulltext_index.index.bound_violations() == []

    def test_a_transaction_that_outgrows_the_journal_is_a_typed_error(self):
        device, fs = make_fs(journal_blocks=15)
        vocabulary = " ".join(f"term{i:05d}" for i in range(3000)).encode()
        with pytest.raises(JournalFullError):
            fs.create(vocabulary, path="/huge")  # its D record alone is 8 journals
        assert fs.recovery.poisoned  # logged, then failed: remount to recover
        assert HFADFileSystem.mount(clone(device)).list_objects() == []
