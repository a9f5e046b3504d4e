"""Tests for the key/value attribute index store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BTreeError, IndexStoreError
from repro.index import TAG_APP, TAG_UDEF, TAG_USER, KeyValueIndexStore, TagValue


class TestKeyValueIndex:
    def test_insert_and_lookup(self):
        store = KeyValueIndexStore()
        store.insert(TAG_USER, "margo", 1)
        store.insert(TAG_USER, "margo", 7)
        store.insert(TAG_USER, "nick", 2)
        assert store.lookup(TAG_USER, "margo") == [1, 7]
        assert store.lookup(TAG_USER, "nick") == [2]
        assert store.lookup(TAG_USER, "nobody") == []

    def test_same_value_under_different_tags_is_distinct(self):
        store = KeyValueIndexStore()
        store.insert(TAG_USER, "margo", 1)
        store.insert(TAG_UDEF, "margo", 2)
        assert store.lookup(TAG_USER, "margo") == [1]
        assert store.lookup(TAG_UDEF, "margo") == [2]

    def test_duplicate_insert_is_idempotent(self):
        store = KeyValueIndexStore()
        store.insert(TAG_APP, "quicken", 9)
        store.insert(TAG_APP, "quicken", 9)
        assert store.lookup(TAG_APP, "quicken") == [9]
        assert store.entry_count == 1

    def test_remove(self):
        store = KeyValueIndexStore()
        store.insert(TAG_UDEF, "taxes", 4)
        assert store.remove(TAG_UDEF, "taxes", 4)
        assert not store.remove(TAG_UDEF, "taxes", 4)
        assert store.lookup(TAG_UDEF, "taxes") == []

    def test_remove_object_scrubs_all_entries(self):
        store = KeyValueIndexStore()
        store.insert(TAG_USER, "margo", 3)
        store.insert(TAG_UDEF, "vacation", 3)
        store.insert(TAG_UDEF, "2009", 3)
        store.insert(TAG_USER, "margo", 4)
        assert store.remove_object(3) == 3
        assert store.lookup(TAG_UDEF, "vacation") == []
        assert store.lookup(TAG_USER, "margo") == [4]
        assert store.remove_object(3) == 0

    def test_values_for(self):
        store = KeyValueIndexStore()
        store.insert(TAG_USER, "margo", 3)
        store.insert(TAG_UDEF, "vacation", 3)
        values = store.values_for(3)
        assert TagValue(TAG_USER, "margo") in values
        assert TagValue(TAG_UDEF, "vacation") in values
        assert store.values_for(404) == []

    def test_enumerate_values_and_cardinality(self):
        store = KeyValueIndexStore()
        for oid, value in enumerate(["alice", "bob", "alice", "carol"], start=1):
            store.insert(TAG_USER, value, oid)
        assert store.enumerate_values(TAG_USER) == ["alice", "bob", "carol"]
        assert store.cardinality(TAG_USER, "alice") == 2
        assert store.cardinality(TAG_USER, "zoe") == 0

    def test_unicode_values(self):
        store = KeyValueIndexStore()
        store.insert(TAG_UDEF, "休暇の写真", 11)
        assert store.lookup(TAG_UDEF, "休暇の写真") == [11]

    def test_nul_bytes_rejected(self):
        store = KeyValueIndexStore()
        with pytest.raises(IndexStoreError):
            store.insert(TAG_UDEF, "bad\x00value", 1)

    def test_custom_tag_set(self):
        store = KeyValueIndexStore(tags=["CAMERA", "LENS"])
        assert set(store.tags()) == {"CAMERA", "LENS"}
        store.insert("CAMERA", "nikon-d90", 1)
        assert store.lookup("CAMERA", "nikon-d90") == [1]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["USER", "UDEF", "APP"]),
                st.text(alphabet="abcde", min_size=1, max_size=4),
                st.integers(1, 30),
            ),
            max_size=60,
        )
    )
    def test_matches_dict_model(self, entries):
        store = KeyValueIndexStore()
        model = {}
        for tag, value, oid in entries:
            store.insert(tag, value, oid)
            model.setdefault((tag, value), set()).add(oid)
        for (tag, value), oids in model.items():
            assert store.lookup(tag, value) == sorted(oids)


class TestLoad:
    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.tuples(st.sampled_from(["USER", "PL", "PL-", "PLACE"]),
                             st.text(alphabet="ab/é", max_size=3),
                             st.integers(0, 1 << 40)), max_size=80))
    def test_load_holds_what_inserts_give(self, entries):
        inserted, loaded = KeyValueIndexStore(), KeyValueIndexStore()
        grouped = {}
        for tag, value, oid in entries:
            inserted.insert(tag, value, oid)
            grouped.setdefault(tag.encode(), []).append((value.encode(), oid))
        assert loaded.load(grouped) == len(entries)
        assert list(loaded._tree.items()) == list(inserted._tree.items())
        loaded._tree.check_invariants()

    def test_load_refuses_nul_bytes_and_a_non_empty_store(self):
        with pytest.raises(IndexStoreError):
            KeyValueIndexStore().load({b"UDEF": [(b"bad\x00value", 1)]})
        store = KeyValueIndexStore()
        store.insert(TAG_UDEF, "x", 1)
        with pytest.raises(BTreeError):
            store.load({b"UDEF": [(b"y", 2)]})
        assert store.values_for(1) == [TagValue(TAG_UDEF, "x")]
