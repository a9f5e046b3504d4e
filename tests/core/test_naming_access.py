"""Tests for the naming and access interfaces."""

import pytest

from repro.core import HFADFileSystem, NamingInterface
from repro.core.naming import as_pair
from repro.core.query import TagTerm
from repro.errors import (
    InvalidRangeError,
    NamingError,
    NoMatchError,
    ObjectStoreError,
)
from repro.index import (
    TAG_POSIX,
    FullTextIndexStore,
    IndexStoreRegistry,
    KeyValueIndexStore,
    TagValue,
)


def make_naming():
    registry = IndexStoreRegistry()
    # The facade's routing: the key/value store serves POSIX paths too.
    registry.register(KeyValueIndexStore(tags=(*KeyValueIndexStore.DEFAULT_TAGS, TAG_POSIX)))
    registry.register(FullTextIndexStore())
    return NamingInterface(registry)


class TestAsPair:
    def test_accepts_many_spellings(self):
        assert as_pair(TagValue("USER", "margo")) == TagValue("USER", "margo")
        assert as_pair(TagTerm("USER", "margo")) == TagValue("USER", "margo")
        assert as_pair(("USER", "margo")) == TagValue("USER", "margo")
        assert as_pair("USER/margo") == TagValue("USER", "margo")

    def test_rejects_garbage(self):
        with pytest.raises(NamingError):
            as_pair(42)
        with pytest.raises(NamingError):
            as_pair(("only-one",))


class TestNamingInterface:
    def test_add_and_resolve(self):
        naming = make_naming()
        naming.add_name(1, "USER/margo")
        naming.add_name(2, ("USER", "margo"))
        naming.add_names(2, ["UDEF/vacation", "APP/iphoto"])
        assert naming.resolve("USER/margo") == [1, 2]
        assert naming.resolve(["USER/margo", "UDEF/vacation"]) == [2]

    def test_resolve_one(self):
        naming = make_naming()
        naming.add_name(5, "UDEF/unique")
        assert naming.resolve_one("UDEF/unique") == 5
        with pytest.raises(NoMatchError):
            naming.resolve_one("UDEF/nothing")

    def test_resolve_empty_vector_rejected(self):
        naming = make_naming()
        with pytest.raises(NamingError):
            naming.resolve([])

    def test_remove_name(self):
        naming = make_naming()
        naming.add_name(1, "UDEF/tmp")
        assert naming.remove_name(1, "UDEF/tmp")
        assert not naming.remove_name(1, "UDEF/tmp")
        assert naming.resolve("UDEF/tmp") == []

    def test_remove_all_names(self):
        naming = make_naming()
        naming.add_names(1, ["USER/margo", "UDEF/a", "POSIX//files/one"])
        assert naming.remove_all_names(1) == 3
        assert naming.names_for(1) == []

    def test_names_for(self):
        naming = make_naming()
        naming.add_names(9, ["USER/nick", "UDEF/thesis"])
        names = naming.names_for(9)
        assert TagValue("USER", "nick") in names
        assert TagValue("UDEF", "thesis") in names

    def test_query_string_and_object(self):
        naming = make_naming()
        naming.add_names(1, ["USER/margo", "UDEF/vacation"])
        naming.add_name(2, "USER/margo")
        assert naming.query("USER/margo AND UDEF/vacation") == [1]
        assert naming.query(TagTerm("USER", "margo")) == [1, 2]

    def test_stats(self):
        naming = make_naming()
        naming.add_name(1, "USER/margo")
        naming.resolve("USER/margo")
        naming.query("USER/margo")
        naming.remove_name(1, "USER/margo")
        assert naming.stats.names_added == 1
        assert naming.stats.naming_operations == 1
        assert naming.stats.queries == 1
        assert naming.stats.names_removed == 1


class TestAccessInterface:
    """The access interfaces are the facade's offset-addressed calls."""

    def make_access(self):
        return HFADFileSystem(num_blocks=1 << 12, journal_blocks=63,
                              cache_pages=16)

    def test_posix_compatible_calls(self):
        access = self.make_access()
        oid = access.create()
        access.write(oid, 0, b"hello world")
        assert access.read(oid) == b"hello world"
        assert access.read(oid, 6, 5) == b"world"
        assert access.size(oid) == 11
        assert access.stat(oid).size == 11

    def test_hfad_extensions(self):
        access = self.make_access()
        oid = access.create()
        access.write(oid, 0, b"hello world")
        access.insert(oid, 5, b" there")
        assert access.read(oid) == b"hello there world"
        access.truncate(oid, 5, 6)
        assert access.read(oid) == b"hello world"

    def test_append(self):
        access = self.make_access()
        oid = access.create()
        assert access.append(oid, b"one") == 0
        assert access.append(oid, b"-two") == 3

    def test_open_missing_object(self):
        access = self.make_access()
        with pytest.raises(ObjectStoreError):
            access.open(12345)


class TestObjectHandle:
    def make_handle(self, content=b""):
        fs = HFADFileSystem(num_blocks=1 << 12, journal_blocks=63,
                            cache_pages=16)
        return fs.open(fs.create(content))

    def test_sequential_read_write(self):
        handle = self.make_handle()
        handle.write(b"hello ")
        handle.write(b"world")
        handle.seek(0)
        assert handle.read() == b"hello world"
        assert handle.tell() == 11

    def test_partial_reads_advance_position(self):
        handle = self.make_handle(b"abcdefgh")
        assert handle.read(3) == b"abc"
        assert handle.read(3) == b"def"
        assert handle.tell() == 6

    def test_seek_whence(self):
        handle = self.make_handle(b"0123456789")
        assert handle.seek(4) == 4
        assert handle.seek(2, 1) == 6
        assert handle.seek(-1, 2) == 9
        assert handle.read() == b"9"
        with pytest.raises(InvalidRangeError):
            handle.seek(-100)
        with pytest.raises(InvalidRangeError):
            handle.seek(0, 9)

    def test_insert_and_truncate_range(self):
        handle = self.make_handle(b"hello world")
        handle.seek(5)
        handle.insert(b" there")
        assert handle.tell() == 11
        handle.seek(5)
        handle.truncate_range(6)
        handle.seek(0)
        assert handle.read() == b"hello world"

    def test_size_and_close(self):
        handle = self.make_handle(b"abc")
        assert handle.size() == 3
        handle.close()
        with pytest.raises(ObjectStoreError):
            handle.read()
        with pytest.raises(ObjectStoreError):
            handle.write(b"x")

    def test_handle_writes_are_reindexed(self):
        handle = self.make_handle(b"alpha bravo")
        fs = handle._fs
        handle.seek(0, 2)
        handle.write(b" zebra")
        assert fs.search_text("zebra") == [handle.oid]
        handle.seek(0)
        handle.truncate_range(6)
        assert fs.search_text("alpha") == []

    def test_context_manager(self):
        handle = self.make_handle(b"abc")
        with handle as h:
            assert h.read(1) == b"a"
        assert handle.closed
