"""Cursor-protocol conformance, shared by every index store.

Whatever a store's internals — B+-tree prefix range, posting lists, colour
sets, the registry's ID fast path, or the materialized-fallback adapter —
its ``open_cursor`` stream must behave identically: ascending unique ids
matching ``lookup``, clamped-forward ``seek``, sticky exhaustion, and an
``estimate`` that never undercounts.
"""

import pytest

from repro.index.fulltext_index import FullTextIndexStore
from repro.index.image_index import ImageIndexStore
from repro.index.keyvalue_index import KeyValueIndexStore
from repro.index.store import IndexStoreRegistry

OIDS = [2, 3, 5, 8, 13, 21, 34, 55]


def make_keyvalue():
    store = KeyValueIndexStore(tags=["UDEF"])
    for oid in OIDS:
        store.insert("UDEF", "beach", oid)
        store.insert("UDEF", "noise", oid + 1000)  # other values must not leak
    return store, "UDEF", "beach", OIDS


def make_fulltext():
    store = FullTextIndexStore()
    for oid in OIDS:
        store.index_content(oid, "sunny beach vacation")
    store.index_content(999, "completely unrelated text")
    return store, "FULLTEXT", "beach", OIDS


def make_fulltext_multi_term():
    store = FullTextIndexStore()
    for oid in OIDS:
        store.index_content(oid, "sunny beach vacation")
    store.index_content(999, "beach without the other word")
    return store, "FULLTEXT", "beach vacation", OIDS


def make_image():
    store = ImageIndexStore()
    for oid in OIDS:
        store.insert("IMAGE", "color:red", oid)
    store.insert("IMAGE", "color:blue", 999)
    return store, "IMAGE", "color:red", OIDS


def make_path():
    # Paths are POSIX values of the key/value store.
    store = KeyValueIndexStore(tags=["POSIX"])
    store.insert("POSIX", "/photos/beach.jpg", 7)
    store.insert("POSIX", "/photos/beach.jpg/below", 8)  # a longer path must not leak
    store.insert("POSIX", "/photos/other.jpg", 9)
    return store, "POSIX", "/photos/beach.jpg", [7]


FACTORIES = [make_keyvalue, make_fulltext, make_fulltext_multi_term, make_image, make_path]


@pytest.fixture(params=FACTORIES, ids=lambda factory: factory.__name__[5:])
def store_case(request):
    return request.param()


class TestStoreCursorConformance:
    def test_stream_matches_lookup(self, store_case):
        store, tag, value, expected = store_case
        assert list(store.open_cursor(tag, value)) == list(store.lookup(tag, value)) == expected

    def test_sorted_and_unique(self, store_case):
        store, tag, value, _ = store_case
        ids = list(store.open_cursor(tag, value))
        assert ids == sorted(set(ids))

    def test_exhaustion_is_sticky(self, store_case):
        store, tag, value, _ = store_case
        cursor = store.open_cursor(tag, value)
        for _ in iter(cursor.next, None):
            pass
        assert cursor.next() is None
        assert cursor.seek(0) is None

    def test_seek_to_present_id(self, store_case):
        store, tag, value, expected = store_case
        for target in expected:
            assert store.open_cursor(tag, value).seek(target) == target

    def test_seek_to_absent_id_lands_on_successor(self, store_case):
        store, tag, value, expected = store_case
        present = set(expected)
        for target in range(min(expected), max(expected) + 1):
            if target in present:
                continue
            successor = min(oid for oid in expected if oid >= target)
            assert store.open_cursor(tag, value).seek(target) == successor

    def test_seek_past_end(self, store_case):
        store, tag, value, expected = store_case
        assert store.open_cursor(tag, value).seek(max(expected) + 1) is None

    def test_seek_is_clamped_forward(self, store_case):
        store, tag, value, expected = store_case
        cursor = store.open_cursor(tag, value)
        first = cursor.next()
        assert first == expected[0]
        # Seeking backward may not replay an already-consumed id.
        follow = cursor.seek(0)
        if len(expected) > 1:
            assert follow == expected[1]
        else:
            assert follow is None

    def test_seek_then_iterate_tail(self, store_case):
        store, tag, value, expected = store_case
        middle = expected[len(expected) // 2]
        cursor = store.open_cursor(tag, value)
        assert cursor.seek(middle) == middle
        assert list(cursor) == [oid for oid in expected if oid > middle]

    def test_estimate_never_undercounts(self, store_case):
        store, tag, value, expected = store_case
        assert store.open_cursor(tag, value).estimate() >= len(expected)

    def test_empty_value_streams_nothing(self, store_case):
        store, tag, value, _ = store_case
        if tag == "IMAGE":
            missing = "color:gray"
        elif tag == "POSIX":
            missing = "/nowhere"
        else:
            missing = "zzz-absent"
        cursor = store.open_cursor(tag, missing)
        assert cursor.next() is None


class TestRegistryCursor:
    def test_routes_to_store(self):
        registry = IndexStoreRegistry()
        store, tag, value, expected = make_keyvalue()
        registry.register(store)
        assert list(registry.open_cursor(tag, value)) == expected
        assert registry.stats.lookups == 1

    def test_id_fastpath(self):
        registry = IndexStoreRegistry()
        cursor = registry.open_cursor("ID", "17")
        assert list(cursor) == [17]
        assert registry.stats.fastpath_lookups == 1

    def test_id_fastpath_rejects_garbage(self):
        from repro.errors import IndexStoreError

        registry = IndexStoreRegistry()
        with pytest.raises(IndexStoreError):
            registry.open_cursor("ID", "not-a-number")
