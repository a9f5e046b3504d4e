"""Read views under concurrent writers: every public read holds one, a
checkpoint inside one is refused rather than deadlocking, and a backlog
settle excludes writers at the checkpoint gate, never by a lock they queue on.
"""

import sys
import threading
import time

from repro.core import HFADFileSystem
from repro.errors import RecoveryError
from repro.fulltext import persistent_index
from repro.posix import PosixVFS


class TestPublicReadsHoldAView:
    def test_name_and_path_reads_are_never_torn_by_writers(self):
        # A writer keeps adding names and paths to objects whose index keys
        # sort just before the target's, so the index leaves holding the
        # target's entries shift and split under an unlatched reader: it
        # would see an entry twice, or not at all.
        fs = HFADFileSystem(num_blocks=1 << 15)
        oids = [fs.create(b"", owner="u", path=f"/o/{i}", index_content=False)
                for i in range(40)]
        target = oids[-1]

        def answer():
            return (fs.names_for(target), fs.paths_for(target),
                    fs.lookup_path("/o/39"), fs.list_directory("/o"),
                    fs.exists(target), fs.size(target),
                    fs.explain_analyze("USER/u").results)

        expected = answer()
        stop = threading.Event()
        wrong, errors = [], []

        def writer():
            step = 0
            while not stop.is_set():
                oid = oids[step % 39]
                fs.tag(oid, "UDEF", f"label-{step:06d}")
                fs.link_path(f"/o/{step % 39}/{step:06d}", oid)
                step += 1

        def reader():
            while not stop.is_set():
                got = answer()
                if got != expected:
                    wrong.append(got)
                    stop.set()

        def guarded(loop):
            try:
                loop()
            except Exception as error:  # noqa: BLE001 — reported by the main thread
                errors.append(error)
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=guarded, args=(loop,), daemon=True)
                       for loop in (writer, reader)]
            for thread in threads:
                thread.start()
            stop.wait(3.0)
            stop.set()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == [], f"a read saw a torn index: {wrong[0]}"
        fs.close()


class TestReaddirUnderUnlinks:
    def test_a_listing_never_shows_an_unlinked_child_half_gone(self):
        # readdir lists the directory, then looks every child up and stats
        # it.  A writer unlinks and re-creates children meanwhile: a child
        # gone between the listing and its lookup must not come back as an
        # intermediate directory (oid -1), nor fail its stat.
        vfs = PosixVFS()
        vfs.mkdir("/d")
        names = [f"f{i:02d}" for i in range(20)]
        for name in names:
            vfs.write_file(f"/d/{name}", name.encode())
        stop = threading.Event()
        wrong, errors = [], []

        def writer():
            step = 0
            while not stop.is_set():
                path = f"/d/{names[step % len(names)]}"
                vfs.unlink(path)
                vfs.write_file(path, b"again")
                step += 1

        def reader():
            while not stop.is_set():
                entries = vfs.readdir("/d")
                if any(entry.oid == -1 or entry.is_directory for entry in entries):
                    wrong.append(entries)
                    stop.set()

        def guarded(loop):
            try:
                loop()
            except Exception as error:  # noqa: BLE001 — reported by the main thread
                errors.append(error)
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=guarded, args=(loop,), daemon=True)
                       for loop in (writer, reader)]
            for thread in threads:
                thread.start()
            stop.wait(3.0)
            stop.set()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == [], f"readdir saw a child half unlinked: {wrong[0]}"
        vfs.fs.close()


class TestCheckpointInsideAView:
    def test_a_checkpoint_inside_a_read_view_raises_instead_of_deadlocking(self):
        # The writer enters the checkpoint gate and queues on the engine
        # lock the viewer holds; a checkpoint that then waited for the
        # writer to leave the gate would wait forever.
        fs = HFADFileSystem(num_blocks=1 << 15)
        oid = fs.create(b"some text", owner="margo")
        outcome = {}

        def viewer():
            try:
                with fs.read_view():
                    time.sleep(0.3)
                    fs.checkpoint()
            except RecoveryError as error:
                outcome["viewer"] = error

        def tagger():
            time.sleep(0.1)
            fs.tag(oid, "UDEF", "late")
            outcome["tagger"] = "tagged"

        threads = [threading.Thread(target=fn, daemon=True) for fn in (viewer, tagger)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive(), "checkpoint and writer deadlocked"
        assert isinstance(outcome.get("viewer"), RecoveryError)
        assert outcome.get("tagger") == "tagged"
        assert fs.find("UDEF/late") == [oid]
        fs.checkpoint()  # outside the view it runs
        fs.close()


class TestSettleUnderWriters:
    def test_threshold_settles_with_concurrent_writers_neither_wedge_nor_lose(self, monkeypatch):
        # Small threshold, small journal: settles and their mid-settle
        # checkpoints happen constantly while four threads create.  A settle
        # waiting for the gate while holding a lock writers queue on would
        # wedge here.
        monkeypatch.setattr(persistent_index, "SETTLE_KEYS", 16)
        fs = HFADFileSystem(num_blocks=1 << 15, journal_blocks=63)
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
