"""Facade read views latch only the trees a lookup routes to; a backlog
settle excludes writers at the checkpoint gate, never by a lock they queue on.
"""

import threading

import pytest

from repro.core import HFADFileSystem
from repro.fulltext import persistent_index


@pytest.fixture()
def fs():
    with HFADFileSystem(btree_on_device=True, num_blocks=1 << 15) as fs:
        yield fs


def in_thread(fn):
    """Run ``fn`` on a thread; returns ``(thread, results)``."""
    results = []
    thread = threading.Thread(target=lambda: results.append(fn()), daemon=True)
    thread.start()
    return thread, results


class TestReadViewsFollowTheTerms:
    def hold_fulltext(self, fs):
        """Another thread's full-text write transaction, open until released."""
        held, release = threading.Event(), threading.Event()

        def writer():
            with fs.recovery.transaction(trees=("fulltext",)):
                held.set()
                release.wait(10.0)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert held.wait(2.0)
        return thread, release

    def test_a_tag_only_find_does_not_queue_behind_a_fulltext_writer(self, fs):
        oid = fs.create(b"needle in the text", tags=[("UDEF", "p7")], owner="margo")
        writer, release = self.hold_fulltext(fs)
        try:
            for lookup in (lambda: fs.find("UDEF/p7"),
                           lambda: fs.find_one("UDEF/p7", "USER/margo"),
                           lambda: fs.query("UDEF/p7 AND NOT USER/keith")):
                thread, results = in_thread(lookup)
                thread.join(2.0)
                assert not thread.is_alive(), "a tag-only lookup latched the fulltext tree"
                assert results in ([[oid]], [oid])
            searches = [in_thread(lambda: fs.search_text("needle")),
                        in_thread(lambda: fs.query("UDEF/p7 AND FULLTEXT/needle"))]
            for thread, results in searches:
                thread.join(0.2)
                assert thread.is_alive() and not results, "a full-text read overlapped a writer"
        finally:
            release.set()
        writer.join(2.0)
        for thread, results in searches:
            thread.join(2.0)
            assert results == [[oid]]

    def test_an_image_term_latches_the_image_tree(self, fs):
        oid = fs.create(b"a picture", owner="margo")
        fs.index_image(oid, [0.9, 0.1, 0, 0, 0, 0, 0, 0])
        held, release = threading.Event(), threading.Event()

        def writer():
            with fs.recovery.transaction(trees=("image",)):
                held.set()
                release.wait(10.0)

        threading.Thread(target=writer, daemon=True).start()
        assert held.wait(2.0)
        try:
            assert fs.search_text("picture") == [oid]  # fulltext and master only
            thread, results = in_thread(lambda: fs.find("IMAGE/color:red"))
            thread.join(0.2)
            assert thread.is_alive() and not results
        finally:
            release.set()
        thread.join(2.0)
        assert results == [[oid]]


class TestSettleUnderWriters:
    def test_threshold_settles_with_concurrent_writers_neither_wedge_nor_lose(self, monkeypatch):
        # Small threshold, small journal: settles and their mid-settle
        # checkpoints happen constantly while four threads create.  A settle
        # waiting for the gate while holding a lock writers queue on would
        # wedge here.
        monkeypatch.setattr(persistent_index, "SETTLE_KEYS", 16)
        fs = HFADFileSystem(btree_on_device=True, num_blocks=1 << 15, journal_blocks=63)
        created, errors = {}, []

        def worker(number):
            try:
                for item in range(25):
                    word = f"w{number}x{item}"
                    oid = fs.create(f"shared {word} thread{number}".encode(),
                                    path=f"/t{number}/{item}")
                    created[oid] = word
                    if item % 5 == 0:
                        assert fs.search_text(word) == [oid]
            except Exception as error:  # noqa: BLE001 — reported by the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,), daemon=True) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive(), "a writer wedged behind a settle"
        assert errors == []
        assert fs.stats()["persistent_index"]["fulltext_settles"] > 5
        assert fs.search_text("shared") == sorted(created)
        for oid, word in created.items():
            assert fs.search_text(word) == [oid]
        fs.close()
        assert fs.fulltext_index.index.bound_violations() == []
        assert fs.stats()["persistent_index"]["fulltext_backlog_docs"] == 0
