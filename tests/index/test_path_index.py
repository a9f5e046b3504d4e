"""Tests for POSIX paths: the path helpers, and paths as POSIX values of
the facade's one key/value index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HFADFileSystem
from repro.errors import IndexStoreError
from repro.index import TAG_POSIX, TagValue
from repro.index.path_index import basename_of, normalize_path, parent_of


def make_fs():
    return HFADFileSystem(num_blocks=1 << 12, journal_blocks=127, cache_pages=32)


class TestPathHelpers:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/", "/"),
            ("/home/margo", "/home/margo"),
            ("home/margo", "/home/margo"),
            ("/home//margo/", "/home/margo"),
            ("/home/./margo", "/home/margo"),
            ("/home/nick/../margo", "/home/margo"),
            ("/../..", "/"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_empty_path_rejected(self):
        with pytest.raises(IndexStoreError):
            normalize_path("")

    def test_parent_and_basename(self):
        assert parent_of("/home/margo/mail") == "/home/margo"
        assert parent_of("/home") == "/"
        assert parent_of("/") == "/"
        assert basename_of("/home/margo/mail") == "mail"
        assert basename_of("/") == ""


class TestPathIndex:
    def test_link_resolve_unlink(self):
        fs = make_fs()
        oid = fs.create(b"")
        fs.link_path("/home/margo/report.doc", oid)
        assert fs.lookup_path("/home/margo/report.doc") == oid
        assert fs.lookup_path("home//margo/./report.doc") == oid
        assert fs.unlink_path("/home/margo/report.doc") == oid
        assert fs.lookup_path("/home/margo/report.doc") is None
        assert fs.unlink_path("/home/margo/report.doc") is None
        assert fs.objects.names(oid) == ["USER/root"]

    def test_multiple_names_for_one_object(self):
        fs = make_fs()
        oid = fs.create(b"")
        fs.link_path("/photos/2009/beach.jpg", oid)
        fs.link_path("/albums/summer/beach.jpg", oid)
        assert fs.paths_for(oid) == [
            "/albums/summer/beach.jpg",
            "/photos/2009/beach.jpg",
        ]
        assert [pair for pair in fs.names_for(oid) if pair.tag == TAG_POSIX] == [
            TagValue(TAG_POSIX, "/albums/summer/beach.jpg"),
            TagValue(TAG_POSIX, "/photos/2009/beach.jpg"),
        ]

    def test_rebinding_a_path_replaces_owner(self):
        fs = make_fs()
        first, second = fs.create(b""), fs.create(b"")
        fs.link_path("/tmp/file", first)
        fs.link_path("/tmp/file", second)
        assert fs.lookup_path("/tmp/file") == second
        assert fs.paths_for(first) == []
        # The displaced holder's durable entry went with its index entry.
        assert "POSIX//tmp/file" not in fs.objects.names(first)
        assert fs.find((TAG_POSIX, "/tmp/file")) == [second]

    def test_index_store_interface(self):
        fs = make_fs()
        oid = fs.create(b"")
        fs.tag(oid, TAG_POSIX, "/a/b")
        assert fs.registry.store_for(TAG_POSIX) is fs.keyvalue_index
        assert fs.keyvalue_index.lookup(TAG_POSIX, "/a/b") == [oid]
        assert fs.find((TAG_POSIX, "/a/b")) == [oid]
        assert fs.find((TAG_POSIX, "a//b/")) == [oid]
        assert fs.find((TAG_POSIX, "/missing")) == []
        assert fs.untag(oid, TAG_POSIX, "/a/b")
        assert not fs.untag(oid, TAG_POSIX, "/a/b")

    def test_remove_object(self):
        fs = make_fs()
        first, second = fs.create(b""), fs.create(b"")
        fs.link_path("/one", first)
        fs.link_path("/two", first)
        fs.link_path("/other", second)
        fs.delete(first)
        assert fs.list_subtree("/") == [("/other", second)]

    def test_list_directory(self):
        fs = make_fs()
        oids = [fs.create(b"") for _ in range(4)]
        fs.link_path("/home/margo/mail/inbox", oids[0])
        fs.link_path("/home/margo/mail/sent", oids[1])
        fs.link_path("/home/margo/report.doc", oids[2])
        fs.link_path("/home/nick/thesis.tex", oids[3])
        assert fs.list_directory("/home/margo") == ["mail", "report.doc"]
        assert fs.list_directory("/home") == ["margo", "nick"]
        assert fs.list_directory("/") == ["home"]
        assert fs.list_directory("/empty") == []

    def test_list_subtree(self):
        fs = make_fs()
        oids = [fs.create(b"") for _ in range(5)]
        fs.link_path("/", oids[0])
        fs.link_path("/a", oids[1])
        fs.link_path("/a/b", oids[2])
        fs.link_path("/a/b/c", oids[3])
        fs.link_path("/ax", oids[4])
        assert fs.list_subtree("/a") == [
            ("/a", oids[1]), ("/a/b", oids[2]), ("/a/b/c", oids[3])]
        # The root is listed once, as itself.
        assert [path for path, _oid in fs.list_subtree("/")] == [
            "/", "/a", "/a/b", "/a/b/c", "/ax"]

    def test_rename_subtree(self):
        fs = make_fs()
        oids = [fs.create(b"") for _ in range(3)]
        fs.link_path("/projects/hfad/paper.tex", oids[0])
        fs.link_path("/projects/hfad/figures/arch.pdf", oids[1])
        fs.link_path("/projects/other/notes.txt", oids[2])
        moved = fs.rename_path_subtree("/projects/hfad", "/archive/hfad-2009")
        assert moved == 2
        assert fs.lookup_path("/archive/hfad-2009/paper.tex") == oids[0]
        assert fs.lookup_path("/archive/hfad-2009/figures/arch.pdf") == oids[1]
        assert fs.lookup_path("/projects/hfad/paper.tex") is None
        assert fs.lookup_path("/projects/other/notes.txt") == oids[2]
        assert fs.paths_for(oids[0]) == ["/archive/hfad-2009/paper.tex"]

    def test_rename_into_self_rejected(self):
        fs = make_fs()
        oid = fs.create(b"")
        fs.link_path("/a/b", oid)
        with pytest.raises(IndexStoreError):
            fs.rename_path_subtree("/a", "/a/b/c")
        with pytest.raises(IndexStoreError):
            fs.rename_path_subtree("/", "/x")
        assert not fs.recovery.poisoned
        assert fs.rename_path_subtree("/a", "/a") == 0
        assert fs.lookup_path("/a/b") == oid

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=4).map(
                lambda parts: "/" + "/".join(parts)
            ),
            st.integers(1, 50),
            min_size=1,
            max_size=30,
        )
    )
    def test_matches_dict_model(self, bindings):
        fs = make_fs()
        oids = {}
        for path, name in bindings.items():
            if name not in oids:
                oids[name] = fs.create(b"")
            fs.link_path(path, oids[name])
        normalized = {normalize_path(p): oids[name] for p, name in bindings.items()}
        for path, oid in normalized.items():
            assert fs.lookup_path(path) == oid
        assert fs.list_subtree("/") == sorted(normalized.items())
        for oid in oids.values():
            assert fs.paths_for(oid) == sorted(
                path for path, holder in normalized.items() if holder == oid)
