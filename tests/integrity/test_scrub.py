"""The online scrubber: detect, repair (cache / WAL), quarantine, resume."""

import pytest

from repro.core import HFADFileSystem
from repro.errors import CorruptionError
from repro.storage import BlockDevice


def make_fs(num_blocks=1 << 14, **kwargs):
    device = BlockDevice(num_blocks=num_blocks)
    fs = HFADFileSystem(device=device, **kwargs)
    return device, fs


def populate(fs, count=12):
    return [
        fs.create(
            content=f"document {i} holds searchable words".encode(),
            path=f"/docs/{i}.txt",
        )
        for i in range(count)
    ]


class TestCleanScrub:
    def test_clean_device_scrubs_clean(self):
        _device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        report = fs.scrub()
        assert report.complete
        assert report.pages_scanned > 0
        assert report.pages_clean == report.pages_scanned
        assert report.repaired == 0 and report.quarantined == 0
        fs.close()

    def test_dirty_pages_are_skipped_not_repaired(self):
        # Under no-force write-back a dirty page's device bytes are stale by
        # design; the scrubber must not mistake that for rot.
        _device, fs = make_fs()
        populate(fs)
        report = fs.scrub()  # no checkpoint: most pages still dirty
        assert report.skipped_dirty > 0
        assert report.repaired == 0 and report.quarantined == 0
        fs.close()


class TestRepair:
    def test_repair_from_resident_cache(self):
        device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        root = fs._fulltext_tree.root_id  # resident: just written
        device.flip_bit(root, 40)  # inside the frame header: always detected
        report = fs.scrub()
        assert report.repaired_from_cache >= 1
        assert report.quarantined == 0
        # The device bytes are healthy again: a second scrub is clean.
        report = fs.scrub()
        assert report.repaired == 0 and report.pages_clean == report.pages_scanned
        fs.close()

    def test_repair_from_wal_tail(self):
        device, fs = make_fs()
        oids = populate(fs)
        # No checkpoint: the page images are still in the journal.  Evict
        # the pool copies so the cache cannot serve as the repair source.
        tree = fs._fulltext_tree
        tree.store._consumer.drop_all(write_back=True)
        device.flip_bit(tree.root_id, 40)
        report = fs.scrub()
        assert report.repaired_from_wal >= 1
        assert report.quarantined == 0
        assert fs.search_text("searchable") == oids
        fs.close()

    def test_repair_from_a_delta_chain_is_byte_exact(self):
        from repro.integrity import frame_page, verify_frame
        from repro.storage.journal import TYPE_DATA, TYPE_DELTA

        device, fs = make_fs()
        oids = populate(fs)
        store = fs._fulltext_tree.store
        leaf, node = fs._fulltext_tree.root_id, store.read(fs._fulltext_tree.root_id)
        while not node.is_leaf:
            leaf, node = node.children[0], store.read(node.children[0])
        logged = [record.rtype for _txid, records in fs.recovery.journal.scan()
                  for record in records if record.block == leaf]
        # Postings kept landing in the first leaf: one image, then splices.
        assert logged[0] == TYPE_DATA and logged.count(TYPE_DELTA) >= 2
        expected = frame_page(node.encode())
        store._consumer.drop_all(write_back=True)  # no cache source
        device.flip_bit(leaf, 40)
        report = fs.scrub()
        assert report.repaired_from_wal == 1 and report.quarantined == 0
        healed = device.read_blocks(leaf, store.page_blocks)
        assert healed[:len(expected)] == expected
        verify_frame(healed)
        assert fs.search_text("searchable") == oids
        fs.close()

    def test_repair_from_a_chain_with_a_run_list_delta(self):
        from repro.integrity import frame_page
        from repro.storage.journal import _RUNS_FLAG, TYPE_DATA, TYPE_DELTA

        device, fs = make_fs()
        words = [f"w{i:02d}" for i in range(40)]
        oids = []
        for settle in range(2):
            # Every document holds every term: a settle adds a row to each
            # term's block, edits scattered over the leaves they share.
            for i in range(6):
                oids.append(fs.create(" ".join(words[i % 3:] + words[:i % 3]).encode(),
                                      path=f"/s{settle}/{i}.txt"))
            fs.fulltext_index.index.settle()
        fs.recovery.journal.sync()
        chains = {}
        for _txid, records in fs.recovery.journal.scan():
            for record in records:
                chains.setdefault(record.block, []).append(record)
        store = fs._fulltext_tree.store
        pages, walk = set(), [fs._fulltext_tree.root_id]
        while walk:
            pages.add(walk[-1])
            node = store.read(walk.pop())
            walk += [] if node.is_leaf else node.children
        leaf = next(block for block in sorted(pages & chains.keys())
                    if chains[block][0].rtype == TYPE_DATA and any(
                        record.rtype == TYPE_DELTA and record.data[0] & _RUNS_FLAG
                        for record in chains[block]))
        expected = frame_page(store.read(leaf).encode())
        store._consumer.drop_all(write_back=True)  # no cache source
        device.flip_bit(leaf, 40)
        report = fs.scrub()
        assert report.repaired_from_wal == 1 and report.quarantined == 0
        assert device.read_blocks(leaf, store.page_blocks)[:len(expected)] == expected
        assert fs.search_text("w07") == oids
        fs.close()

    def test_unrepairable_page_is_quarantined(self):
        device, fs = make_fs()
        populate(fs)
        fs.checkpoint()  # truncates the journal: no WAL repair source
        tree = fs._fulltext_tree
        tree.store._consumer.drop_all(write_back=True)  # no cache source
        device.flip_bit(tree.root_id, 5)
        report = fs.scrub()
        assert report.quarantined == 1
        assert report.unreachable_subtrees >= 1
        assert any("quarantined" in error for error in report.errors)
        # Reads of the page now fail fast with the page identified.
        with pytest.raises(CorruptionError, match=str(tree.root_id)):
            tree.store.read(tree.root_id)
        fs.close()

    @pytest.mark.parametrize("resident", [True, False], ids=["pool", "no-pool"])
    def test_rot_under_a_home_delta(self, resident):
        # The WAL holds no image of a page first touched after a checkpoint,
        # only a delta against its home: once that home rots, the log cannot
        # rebuild it, and the scrub repairs from the pool or surfaces the page.
        import random

        from repro.integrity import verify_frame
        from repro.storage.journal import TYPE_HOME_DELTA

        rng = random.Random(1)
        vocabulary = ("ember quartz falcon meadow cipher lantern orbit prism "
                      "tundra velvet willow zephyr basalt cobalt drift echo").split()
        device, fs = make_fs()
        oids = [fs.create(" ".join(rng.sample(vocabulary, rng.randint(3, 9))).encode(),
                          path=f"/obj/{i}.txt", annotations=[f"note{i % 5}"])
                for i in range(22)]
        fs.tag(oids[0], "FULLTEXT", "handpicked")
        fs.checkpoint()
        probes = ("ember", "quartz", "falcon", "meadow", "nosuchword", "handpicked")
        expected = {word: fs.search_text(word) for word in probes}
        members = {hit.doc_id for hit in fs.rank("ember", limit=None)}
        assert expected["handpicked"] == [oids[0]] and members == set(expected["ember"])
        fs.close()
        fs = HFADFileSystem.mount(device, query_cache_entries=0)
        fs.integrity.sleep = lambda _s: None
        fs.append(oids[3], b" zzfiller")
        fs.buffer_pool.flush()  # the chain's last image is home, and clean
        pages = {}
        for store, root in fs.objects.scrub_sources():
            walk = [root]
            while walk:
                node = store.read(walk[-1])
                pages[walk.pop()] = store
                walk += [] if node.is_leaf else node.children
        pid = next(record.block for _txid, records in fs.recovery.journal.scan()
                   for record in records
                   if record.rtype == TYPE_HOME_DELTA and record.block in pages)
        if not resident:
            for store, _root in fs.objects.scrub_sources():
                store.drop_cache()
        image = fs.recovery.journal.latest_page_image(pid)
        assert image is not None and verify_frame(image)
        device.flip_bit(pid, len(image) // 2 * 8)  # inside the frame
        assert fs.recovery.journal.latest_page_image(pid) is None
        scrub = fs.scrub()
        assert scrub.repaired_from_wal == 0
        if resident:
            assert scrub.repaired_from_cache == 1 and scrub.quarantined == 0
            assert device.read_blocks(pid, 1)[:len(image)] == image
        else:
            assert scrub.quarantined == 1 and pid in fs.integrity.quarantine
        # Every answer is the right one (after a repair, exactly), a flagged
        # partial subset, or surfaced as damage.
        asks = [(word, lambda word=word: fs.search_text(word), expected[word]) for word in probes]
        asks.append(("rank ember", lambda: {hit.doc_id for hit in fs.rank("ember", limit=None)}, members))
        for what, call, want in asks:
            partial = fs.integrity.stats.partial_results
            try:
                got = call()
            except CorruptionError:
                assert not resident, what
                continue
            flagged = fs.integrity.stats.partial_results > partial
            assert got == want or (flagged and not resident and set(got) <= set(want)), (what, got, want)

    def test_scrub_releases_stale_quarantine(self):
        # A page quarantined earlier whose device bytes are (again) valid —
        # e.g. healed by replay — is released by the next scrub pass.
        _device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        root = fs._fulltext_tree.root_id
        fs.integrity.quarantine_page(root)
        report = fs.scrub()
        assert report.released >= 1
        assert not fs.integrity.is_quarantined(root)
        fs.close()


class TestInterruptibleScrub:
    def test_limit_parks_and_resumes(self):
        _device, fs = make_fs()
        populate(fs, count=20)
        fs.checkpoint()
        full = fs.scrub()
        total = full.pages_scanned
        assert total > 3
        first = fs.scrub(limit=3)
        assert first.pages_scanned == 3
        assert not first.complete
        assert fs._scrubber.in_progress
        scanned = first.pages_scanned
        while True:
            part = fs.scrub(limit=5)
            scanned += part.pages_scanned
            if part.complete:
                break
        assert scanned == total
        assert not fs._scrubber.in_progress
        fs.close()

    def test_detection_counts_as_one_run(self):
        _device, fs = make_fs()
        populate(fs)
        fs.checkpoint()
        fs.scrub(limit=2)
        fs.scrub()  # resumes, then finishes
        assert fs.stats()["integrity"]["scrub_runs"] == 1
        fs.close()


class TestLegacyDevices:
    def test_checksummed_device_remounts_checksummed(self):
        device, fs = make_fs()
        oids = populate(fs)
        fs.close()
        mounted = HFADFileSystem.mount(device)
        assert mounted.stats()["integrity"]["checksum_pages"] == 1
        assert mounted.search_text("searchable") == oids
        # The pool started cold: every page-in was a device read whose frame
        # was verified, and a healthy device fails none.
        integrity = mounted.stats()["integrity"]
        assert integrity["checksum_verifications"] == mounted.buffer_pool.stats.misses > 0
        assert integrity["checksum_failures"] == 0
        mounted.close()
