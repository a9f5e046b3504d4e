"""Integration-level tests for the HFADFileSystem facade."""

import pytest

import repro.fulltext
from repro.core import HFADFileSystem
from repro.errors import NoSuchObjectError
from repro.index import TAG_FULLTEXT, TAG_UDEF, TAG_USER, TagValue
from repro.query import bm25_idf, bm25_scorer
from repro.storage import BlockDevice


@pytest.fixture
def fs():
    filesystem = HFADFileSystem()
    yield filesystem
    filesystem.close()


class TestObjectLifecycle:
    def test_create_with_content_and_names(self, fs):
        oid = fs.create(
            b"Trip report: grand canyon hike with margo",
            path="/docs/trip.txt",
            owner="nick",
            application="textedit",
            annotations=["vacation"],
        )
        assert fs.exists(oid)
        assert fs.read(oid).startswith(b"Trip report")
        assert fs.lookup_path("/docs/trip.txt") == oid
        names = fs.names_for(oid)
        assert TagValue(TAG_USER, "nick") in names
        assert TagValue("APP", "textedit") in names
        assert TagValue(TAG_UDEF, "vacation") in names
        assert TagValue(TAG_FULLTEXT, "canyon") in names

    def test_delete_scrubs_names(self, fs):
        oid = fs.create(b"short lived", path="/tmp/x", annotations=["temp"])
        fs.delete(oid)
        assert not fs.exists(oid)
        assert fs.lookup_path("/tmp/x") is None
        assert fs.find(("UDEF", "temp")) == []
        with pytest.raises(NoSuchObjectError):
            fs.delete(oid)

    def test_create_without_content_indexing(self, fs):
        oid = fs.create(b"secret words here", index_content=False)
        assert fs.search_text("secret") == []
        fs.enable_content_indexing(oid)
        assert fs.search_text("secret") == [oid]
        fs.disable_content_indexing(oid)
        assert fs.search_text("secret") == []

    def test_object_count_and_listing(self, fs):
        oids = [fs.create(b"x") for _ in range(3)]
        assert fs.object_count == 3
        assert fs.list_objects() == oids


class TestAccessThroughFacade:
    def test_write_insert_truncate_and_reindex(self, fs):
        oid = fs.create(b"the quick brown fox")
        assert fs.search_text("fox") == [oid]
        fs.write(oid, 4, b"timid")
        assert fs.read(oid) == b"the timid brown fox"
        fs.insert(oid, 0, b"see ")
        assert fs.read(oid).startswith(b"see the")
        fs.truncate(oid, 0, 4)
        assert fs.read(oid) == b"the timid brown fox"
        # Reindexing tracked the edits: "quick" is gone, "timid" is findable.
        assert fs.search_text("quick") == []
        assert fs.search_text("timid") == [oid]

    def test_append_and_open_handle(self, fs):
        oid = fs.create(b"line one\n")
        fs.append(oid, b"line two\n")
        with fs.open(oid) as handle:
            assert handle.read() == b"line one\nline two\n"
        assert fs.size(oid) == 18

    def test_stat_and_attributes(self, fs):
        oid = fs.create(b"x", owner="margo", attributes={"type": "note"})
        fs.set_attributes(oid, project="hfad")
        metadata = fs.stat(oid)
        assert metadata.owner == "margo"
        assert metadata.attributes == {"type": "note", "project": "hfad"}

    def test_engine_attributes_are_reserved(self, fs):
        # ``hfad.ci`` decides what a mount re-tracks: callers may neither
        # see it nor set it, and a refusal logs nothing.
        oid = fs.create(b"x")
        journal = fs.recovery.journal
        for attempt in (lambda: fs.set_attributes(oid, **{"hfad.ci": "1"}),
                        lambda: fs.create(b"y", attributes={"hfad.ci": "0"})):
            logged = journal.bytes_appended
            with pytest.raises(ValueError, match="reserved"):
                attempt()
            assert journal.bytes_appended == logged
        assert not fs.recovery.poisoned
        assert fs.list_objects() == [oid]
        assert fs.stat(oid).attributes == {}
        assert fs.objects.stat(oid).attributes == {"hfad.ci": "1"}


class TestNamingThroughFacade:
    def test_find_conjunction(self, fs):
        photo1 = fs.create(b"beach sunset", owner="margo", annotations=["vacation", "beach"])
        photo2 = fs.create(b"beach volleyball", owner="nick", annotations=["vacation", "beach"])
        fs.create(b"tax forms", owner="margo")
        assert fs.find(("UDEF", "beach")) == [photo1, photo2]
        assert fs.find(("UDEF", "beach"), ("USER", "margo")) == [photo1]
        assert fs.find_one(("UDEF", "beach"), ("USER", "nick")) == photo2

    def test_boolean_query(self, fs):
        a = fs.create(b"", owner="margo", annotations=["work"])
        b = fs.create(b"", owner="margo", annotations=["play"])
        fs.create(b"", owner="nick", annotations=["play"])
        assert fs.query("USER/margo AND NOT UDEF/play") == [a]
        assert fs.query("UDEF/work OR UDEF/play") == [a, b, 3]

    def test_tag_untag(self, fs):
        oid = fs.create(b"")
        fs.tag(oid, "UDEF", "starred")
        assert fs.find(("UDEF", "starred")) == [oid]
        assert fs.untag(oid, "UDEF", "starred")
        assert not fs.untag(oid, "UDEF", "starred")
        with pytest.raises(NoSuchObjectError):
            fs.tag(999, "UDEF", "x")

    def test_multiple_posix_names(self, fs):
        oid = fs.create(b"family photo", path="/photos/2009/beach.jpg")
        fs.link_path("/albums/summer/beach.jpg", oid)
        assert set(fs.paths_for(oid)) == {
            "/photos/2009/beach.jpg",
            "/albums/summer/beach.jpg",
        }
        assert fs.unlink_path("/albums/summer/beach.jpg") == oid
        assert fs.lookup_path("/albums/summer/beach.jpg") is None
        assert fs.lookup_path("/photos/2009/beach.jpg") == oid
        with pytest.raises(NoSuchObjectError):
            fs.link_path("/x", 999)

    def test_full_text_and_ranked_search(self, fs):
        a = fs.create(b"budget spreadsheet for the grand project")
        b = fs.create(b"grand canyon photos from the vacation")
        assert fs.search_text("grand") == [a, b]
        assert fs.search_text("grand canyon") == [b]
        assert fs.search_text("") == []
        hits = fs.rank("grand canyon")
        assert hits[0].doc_id == b

    def test_phrase_search_consults_the_first_64_positions(self, fs):
        # MAX_STORED_POSITIONS applies off a device too: term frequency (and
        # with it BM25) stays exact, a phrase anchored past the 64th
        # occurrence is not matched.
        oid = fs.create(b"echo early " + b"echo " * 98 + b"echo late")
        assert fs.search_text("echo") == [oid]
        lone_document = bm25_scorer(bm25_idf(1, 1), 1.5, 0.75, 102.0, lambda _oid: 102)
        assert fs.rank("echo")[0].score == lone_document(oid, 100)
        engine = fs.fulltext_index.index
        assert engine.search_phrase("echo early") == [oid]
        assert engine.search_phrase("echo late") == []

    def test_image_indexing(self, fs):
        oid = fs.create(b"\x89PNG fake image bytes", index_content=False)
        color = fs.index_image(oid, [10, 0, 0, 0, 0, 0, 0, 0])
        assert color == "red"
        assert fs.find(("IMAGE", "color:red")) == [oid]
        with pytest.raises(NoSuchObjectError):
            fs.index_image(999, [1] * 8)

    def test_cross_index_conjunction(self, fs):
        photo = fs.create(
            b"sunset over the pacific ocean",
            owner="margo",
            annotations=["vacation"],
            path="/photos/sunset.jpg",
        )
        fs.index_image(photo, [8, 2, 0, 0, 0, 0, 0, 0])
        other = fs.create(b"sunset poem draft", owner="margo")
        results = fs.find(
            ("FULLTEXT", "sunset"), ("USER", "margo"), ("IMAGE", "color:red")
        )
        assert results == [photo]
        assert other not in results


class TestTransactionsThroughFacade:
    def test_commit_keeps_everything(self):
        with HFADFileSystem(num_blocks=1 << 14) as fs:
            with fs.begin():
                oid = fs.create(b"durable", path="/d")
                fs.tag(oid, "UDEF", "kept")
            assert fs.exists(oid)
            assert fs.find(("UDEF", "kept")) == [oid]
            assert fs.lookup_path("/d") == oid


class TestStats:
    def test_stats_snapshot(self, fs):
        oid = fs.create(b"some words", path="/a")
        fs.read(oid)
        fs.find(("USER", "root"))
        stats = fs.stats()
        assert stats["object_count"] == 1
        assert stats["objects"].bytes_read > 0
        assert stats["naming"].naming_operations == 1
        assert stats["device"].writes >= 1

    def test_stats_keys_are_the_same_whatever_the_telemetry_switch(self):
        layers = ["device", "objects", "naming", "registry", "planner",
                  "keyvalue_entries_scanned", "fulltext_term_lookups",
                  "fulltext_postings_scanned", "ranked", "object_count",
                  "buffer_pool", "query_cache", "ranked_cache", "content_cache",
                  "persistent_index", "recovery", "integrity"]
        with HFADFileSystem(telemetry=False) as off:
            assert list(off.stats()) == layers
        with HFADFileSystem() as on:
            assert list(on.stats()) == layers + ["telemetry"]

    def test_empty_result_caches_still_report_snapshots(self, fs):
        # An empty cache is falsy (it has a length); "is it configured" must
        # not be answered by its truth value.
        stats = fs.stats()
        assert isinstance(stats["query_cache"], dict)
        assert isinstance(stats["ranked_cache"], dict)
        assert stats["query_cache"] == fs.query_cache.snapshot()
        assert stats["ranked_cache"] == fs.ranked_cache.snapshot()
        assert stats["content_cache"] == fs.content_cache.snapshot()


def test_one_fulltext_engine(fs):
    """Volatility is a property of the page store, not of the index class:
    the standalone index over in-memory pages is the engine's own class."""
    assert type(fs.fulltext_index.index) is repro.fulltext.PersistentInvertedIndex
    assert not {"InvertedIndex", "PostingList", "Posting"} & set(dir(repro.fulltext))


def test_constructor_surface():
    """One engine: the mode-selecting knobs are gone."""
    import inspect

    parameters = inspect.signature(HFADFileSystem.__init__).parameters
    for name, value in (("durability", "wal"), ("persistent_index", True),
                        ("checksum_pages", True)):
        assert name not in parameters
        with pytest.raises(TypeError):
            HFADFileSystem(**{name: value})
    # The one legacy keyword only ever names the WAL engine.
    with pytest.raises(ValueError, match="volatile"):
        HFADFileSystem(btree_on_device=False)
    with HFADFileSystem(btree_on_device=True) as fs:
        assert fs.stats()["recovery"]["mode"] == "wal"


def test_one_index_apply_path_surface():
    """No knob selects when content reaches the index: it is always inside
    the operation, and the engine's backlog does the deferring."""
    import inspect

    def public(function):
        return [name for name in inspect.signature(function).parameters
                if name != "self" and not name.startswith("_")]

    constructor = public(HFADFileSystem.__init__)
    assert len(constructor) == 10
    assert len(public(HFADFileSystem.mount)) == 6
    assert set(public(HFADFileSystem.mount)) - {"device"} <= set(constructor)
    # ... nor the buffer pool's eviction policy (LRU), the page geometry,
    # the planner and slow-log switches nothing ever set, or the checkpoint
    # fill fraction (a recovery-manager constant).
    for retired in ({"lazy_indexing": True}, {"cache_policy": "lru"},
                    {"page_blocks": 1}, {"max_keys": 32},
                    {"enable_planner": False}, {"slow_query_ms": 5.0},
                    {"checkpoint_threshold": 0.5}):
        with pytest.raises(TypeError):
            HFADFileSystem(**retired)
    with pytest.raises(TypeError):
        HFADFileSystem.mount(BlockDevice(num_blocks=1 << 12), checkpoint_threshold=0.5)
    # One transaction owner: a group is ``with fs.begin():``, and no
    # operation takes a transaction object.
    with HFADFileSystem() as fs:
        for operation, args in ((fs.create, (b"x",)),
                                (fs.tag, (1, "UDEF", "v")),
                                (fs.untag, (1, "UDEF", "v"))):
            with pytest.raises(TypeError):
                operation(*args, txn=None)


@pytest.mark.parametrize("remounted", [False, True])
def test_content_indexing_toggles_refuse_an_unknown_object(remounted):
    fs = HFADFileSystem(num_blocks=1 << 14)
    if remounted:
        fs.create(b"tracked before the remount")
        fs.close()
        fs = HFADFileSystem.mount(fs.device)
    with fs:
        for toggle in (fs.enable_content_indexing, fs.disable_content_indexing):
            with pytest.raises(NoSuchObjectError):
                toggle(999)
        assert not fs.exists(999)
        # Refused before the durable bracket: the filesystem stays usable.
        oid = fs.create(b"still works")
        assert fs.search_text("works") == [oid]
