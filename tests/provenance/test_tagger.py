"""Tests for automatic APP/USER tagging and the derivation graph."""

import pytest

from repro.core import HFADFileSystem
from repro.errors import NamingError
from repro.index import TAG_APP, TAG_USER, TagValue
from repro.provenance import ProvenanceTagger
from repro.storage import BlockDevice


@pytest.fixture
def fs():
    filesystem = HFADFileSystem()
    yield filesystem
    filesystem.close()


class TestApplicationContext:
    def test_created_objects_carry_app_and_user_names(self, fs):
        tagger = ProvenanceTagger(fs)
        with tagger.application("iphoto", user="margo") as app:
            oid = app.create(b"a photo", annotations=["vacation"])
        names = fs.names_for(oid)
        assert TagValue(TAG_APP, "iphoto") in names
        assert TagValue(TAG_USER, "margo") in names
        assert fs.find(("APP", "iphoto"), ("USER", "margo")) == [oid]
        assert app.created == [oid]

    def test_table1_application_row_roundtrip(self, fs):
        # Table 1: Applications -> APP/application name + USER/logname.
        tagger = ProvenanceTagger(fs)
        with tagger.application("quicken", user="nick") as app:
            oid = app.create(b"ledger")
        record = tagger.provenance_of(oid)
        assert record.application == "quicken"
        assert record.user == "nick"
        assert tagger.objects_by_application("quicken") == [oid]

    def test_tag_existing(self, fs):
        oid = fs.create(b"made elsewhere")
        tagger = ProvenanceTagger(fs)
        with tagger.application("importer", user="margo") as app:
            app.tag_existing(oid)
        assert fs.find(("APP", "importer")) == [oid]
        assert tagger.provenance_of(oid).application == "importer"

    def test_invalid_context_rejected(self, fs):
        tagger = ProvenanceTagger(fs)
        with pytest.raises(NamingError):
            tagger.application("", user="margo")
        with pytest.raises(NamingError):
            tagger.application("iphoto", user="")

    def test_provenance_of_unknown_object(self, fs):
        assert ProvenanceTagger(fs).provenance_of(123) is None


class TestDerivationGraph:
    def test_derive_records_lineage(self, fs):
        tagger = ProvenanceTagger(fs)
        with tagger.application("iphoto", user="margo") as app:
            raw = app.create(b"RAW image data")
            jpeg = app.derive(b"JPEG render", sources=[raw])
            thumb = app.derive(b"thumbnail", sources=[jpeg])
        assert tagger.ancestors(thumb) == [raw, jpeg]
        assert tagger.ancestors(jpeg) == [raw]
        assert tagger.ancestors(raw) == []
        assert tagger.descendants(raw) == [jpeg, thumb]
        assert tagger.descendants(thumb) == []
        assert tagger.provenance_of(jpeg).sources == [raw]

    def test_multiple_sources(self, fs):
        tagger = ProvenanceTagger(fs)
        with tagger.application("pandoc", user="nick") as app:
            chapter1 = app.create(b"chapter one")
            chapter2 = app.create(b"chapter two")
            book = app.derive(b"the whole book", sources=[chapter1, chapter2])
        assert tagger.ancestors(book) == sorted([chapter1, chapter2])
        assert tagger.descendants(chapter1) == [book]

    def test_self_derivation_rejected(self, fs):
        tagger = ProvenanceTagger(fs)
        with tagger.application("app", user="u") as app:
            oid = app.create(b"x")
        with pytest.raises(NamingError):
            tagger.add_derivation(oid, [oid])

    def test_derivation_graph_queryable_without_context(self, fs):
        tagger = ProvenanceTagger(fs)
        a = fs.create(b"a")
        b = fs.create(b"b")
        tagger.add_derivation(b, [a])
        assert tagger.ancestors(b) == [a]


class TestDurableLineage:
    def test_lineage_survives_remount(self):
        device = BlockDevice(num_blocks=1 << 14)
        fs = HFADFileSystem(device=device)
        tagger = ProvenanceTagger(fs)
        with tagger.application("iphoto", user="margo") as app:
            raw = app.create(b"RAW image data")
            jpeg = app.derive(b"JPEG render", sources=[raw])
            other = app.create(b"another RAW")
            album = app.derive(b"album page", sources=[jpeg, other])
        fs.close()

        mounted = HFADFileSystem.mount(device)
        try:
            fresh = ProvenanceTagger(mounted)
            assert fresh.ancestors(album) == sorted([raw, jpeg, other])
            assert fresh.descendants(raw) == [jpeg, album]
            record = fresh.provenance_of(album)
            assert (record.application, record.user, record.sources) == \
                ("iphoto", "margo", sorted([jpeg, other]))
        finally:
            mounted.close()

    def test_lineage_is_a_source_name_on_the_derived_object(self, fs):
        tagger = ProvenanceTagger(fs)
        a = fs.create(b"a")
        b = fs.create(b"b")
        tagger.add_derivation(b, [a])
        assert TagValue("SOURCE", str(a)) in fs.names_for(b)
        assert fs.find(("SOURCE", str(a))) == [b]
        # Deleting the derived object takes its edges with it.
        fs.delete(b)
        assert tagger.descendants(a) == []
