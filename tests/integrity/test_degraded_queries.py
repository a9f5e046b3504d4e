"""Graceful degradation: queries over quarantined index pages still answer.

The contract: a query that hits a quarantined (or freshly detected corrupt)
full-text page falls back to an object-content rescan instead of raising
mid-cursor.  Results are correct-if-complete; when some object's own bytes
are unreadable the query is accounted as partial in ``stats()["integrity"]``.
Damage the rescan cannot route around surfaces as ``CorruptionError``.
"""

import pytest

from repro.core import HFADFileSystem
from repro.errors import CorruptionError
from repro.storage import BlockDevice


def quarantined_fulltext_fs(count=15):
    """A filesystem whose full-text tree root is quarantined beyond repair."""
    device = BlockDevice(num_blocks=1 << 14)
    fs = HFADFileSystem(device=device, btree_on_device=True)
    oids = [
        fs.create(
            content=f"shared corpus words plus unique{i} token".encode(),
            path=f"/docs/{i}.txt",
            owner="margo",
        )
        for i in range(count)
    ]
    fs.checkpoint()  # journal truncated: no WAL repair source
    fs._fulltext_tree.store._consumer.drop_all(write_back=True)  # no cache
    device.flip_bit(fs._fulltext_tree.root_id, 40)
    report = fs.scrub()
    assert report.quarantined == 1
    return device, fs, oids


class TestDegradedSearch:
    def test_search_text_falls_back_to_rescan(self):
        _device, fs, oids = quarantined_fulltext_fs()
        before = fs.stats()["integrity"]["degraded_queries"]
        assert fs.search_text("corpus") == oids
        assert fs.search_text("unique3") == [oids[3]]
        stats = fs.stats()["integrity"]
        assert stats["degraded_queries"] == before + 2  # every one accounted
        assert stats["partial_results"] == 0  # object bytes all readable
        fs.close()

    def test_boolean_query_falls_back(self):
        _device, fs, oids = quarantined_fulltext_fs()
        result = fs.query("FULLTEXT/corpus AND USER/margo")
        assert result == oids
        assert fs.stats()["integrity"]["degraded_queries"] >= 1
        fs.close()

    def test_rank_falls_back(self):
        _device, fs, oids = quarantined_fulltext_fs()
        hits = fs.rank("unique5 corpus", limit=5)
        assert hits and hits[0].doc_id == oids[5]
        assert fs.stats()["integrity"]["degraded_queries"] >= 1
        fs.close()

    def test_rescue_stack_runs_the_same_engine(self):
        _device, fs, _oids = quarantined_fulltext_fs()
        rescue = fs._rescue_naming()[0].registry.store_for("FULLTEXT")
        assert type(rescue.index) is type(fs.fulltext_index.index)
        assert rescue.index.tree is not fs._fulltext_tree  # off the damaged device
        fs.close()

    def test_manual_fulltext_keywords_survive_degradation(self):
        device, fs, oids = quarantined_fulltext_fs()
        # Manual FULLTEXT names are persisted in the master tree, not the
        # posting tree — the rescue index folds them back in.
        # (They were added before the tree was quarantined in a real
        # scenario; here the master-tree entry is what matters.)
        fs.close()

        device2 = BlockDevice(num_blocks=1 << 14)
        fs2 = HFADFileSystem(device=device2, btree_on_device=True)
        oid = fs2.create(b"plain content", path="/kw.txt")
        fs2.tag(oid, "FULLTEXT", "handpicked")
        fs2.checkpoint()
        fs2._fulltext_tree.store._consumer.drop_all(write_back=True)
        device2.flip_bit(fs2._fulltext_tree.root_id, 40)
        fs2.scrub()
        assert fs2.search_text("handpicked") == [oid]
        assert fs2.stats()["integrity"]["degraded_queries"] >= 1
        fs2.close()

    def test_non_fulltext_queries_unaffected(self):
        _device, fs, oids = quarantined_fulltext_fs()
        # Paths, users and key/value names serve from in-memory mirrors:
        # no degradation, no corruption exposure.
        before = fs.stats()["integrity"]["degraded_queries"]
        assert fs.lookup_path("/docs/0.txt") == oids[0]
        assert set(fs.query("USER/margo")) == set(oids)
        assert fs.stats()["integrity"]["degraded_queries"] == before
        fs.close()


def quarantined_extent_leaf_fs(extent_leaf, count=150):
    """A filesystem with its full-text root and the master-tree leaf holding
    a mid-corpus object's extents both quarantined beyond repair; returns
    ``(fs, oids, victims)``, victims being every oid with extents there."""
    device = BlockDevice(num_blocks=1 << 15)
    fs = HFADFileSystem(device=device, btree_on_device=True)
    oids = [
        fs.create(content=f"partial corpus item {i}".encode(), path=f"/p/{i}.txt")
        for i in range(count)
    ]
    fs.checkpoint()  # journal truncated: no WAL repair source
    leaf, victims = extent_leaf(fs, oids[count // 2])
    # Tens of objects' extents share one 4 KB leaf: the corpus spans several.
    assert 0 < len(victims) < count // 2
    for tree in (fs._fulltext_tree, fs.objects._master):
        tree.store._consumer.drop_all(write_back=True)  # no cached copy
    device.flip_bit(fs._fulltext_tree.root_id, 40)
    device.flip_bit(leaf, 40)
    assert fs.scrub().quarantined == 2
    return fs, oids, victims


class TestPartialResults:
    def test_unreadable_object_content_flags_partial(self, extent_leaf):
        fs, oids, victims = quarantined_extent_leaf_fs(extent_leaf)
        result = fs.search_text("corpus")
        # Correct-if-complete: exactly the objects whose extents shared the
        # leaf are missing — a neighbouring run never reads into it.
        assert result == [oid for oid in oids if oid not in victims]
        stats = fs.stats()["integrity"]
        assert stats["degraded_queries"] >= 1
        assert stats["partial_results"] >= 1
        fs.close()

    def test_a_rotten_extent_leaf_leaves_the_object_listing_whole(self, extent_leaf):
        # The listing scans the metadata run only, so the degraded rescue
        # (and fsck) still enumerate every object past a rotten extent leaf.
        fs, oids, victims = quarantined_extent_leaf_fs(extent_leaf)
        assert fs.list_objects() == oids
        for oid in victims:
            with pytest.raises(CorruptionError):
                fs.read(oid)
        before = fs.stats()["integrity"]
        assert fs.search_text("item") == [oid for oid in oids if oid not in victims]
        after = fs.stats()["integrity"]
        assert after["degraded_queries"] == before["degraded_queries"] + 1
        assert after["partial_results"] == before["partial_results"] + 1
        fs.close()


class TestSurfacedCorruption:
    def test_master_tree_damage_is_never_silent(self):
        device = BlockDevice(num_blocks=1 << 14)
        fs = HFADFileSystem(device=device, btree_on_device=True)
        oids = [
            fs.create(content=f"master damage probe {i}".encode(),
                      path=f"/m/{i}.txt")
            for i in range(10)
        ]
        fs.checkpoint()
        # Damage both the posting tree (forcing degradation) and the master
        # tree (starving the rescue rescan of object bytes).
        for tree in (fs._fulltext_tree, fs.objects._master):
            tree.store._consumer.drop_all(write_back=True)
            device.flip_bit(tree.root_id, 40)
        fs.scrub()
        # Direct object access surfaces the corruption loudly...
        with pytest.raises(CorruptionError):
            fs.read(oids[0])
        # ...and the degraded query can only shrink, never invent: whatever
        # it returns is a subset of the truth and is flagged partial.
        result = fs.search_text("probe")
        assert set(result) <= set(oids)
        stats = fs.stats()["integrity"]
        assert stats["degraded_queries"] >= 1
        assert stats["partial_results"] >= 1

    def test_writes_through_quarantined_subtree_fail_loudly(self):
        _device, fs, _oids = quarantined_fulltext_fs()
        with pytest.raises(CorruptionError, match="page"):
            fs.create(b"new content must index through the dead root",
                      path="/new.txt")
