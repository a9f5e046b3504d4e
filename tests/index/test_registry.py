"""Tests for the index-store registry (the plug-in model)."""

import pytest

from repro.errors import DuplicateIndexError, IndexStoreError, UnknownTagError
from repro.index import (
    TAG_APP,
    TAG_FULLTEXT,
    TAG_ID,
    TAG_POSIX,
    TAG_UDEF,
    TAG_USER,
    FullTextIndexStore,
    IndexStore,
    IndexStoreRegistry,
    KeyValueIndexStore,
    TagValue,
)


def make_registry():
    registry = IndexStoreRegistry()
    # The facade's routing: the key/value store serves POSIX paths too.
    registry.register(KeyValueIndexStore(tags=(*KeyValueIndexStore.DEFAULT_TAGS, TAG_POSIX)))
    registry.register(FullTextIndexStore())
    return registry


class TestRegistration:
    def test_register_and_route(self):
        registry = make_registry()
        assert registry.store_for(TAG_USER).name == "keyvalue"
        assert registry.store_for(TAG_POSIX) is registry.store_for(TAG_USER)
        assert registry.store_for(TAG_FULLTEXT).name == "fulltext"

    def test_unknown_tag_raises(self):
        # Without a fallback store an unclaimed tag has nowhere to go.
        registry = make_registry()
        with pytest.raises(UnknownTagError):
            registry.store_for("SOUND")
        with pytest.raises(UnknownTagError):
            registry.lookup("SOUND", "whale song")

    def test_unclaimed_tag_goes_to_the_fallback(self):
        kv = KeyValueIndexStore()
        registry = IndexStoreRegistry(fallback=kv)
        registry.register(kv)
        assert registry.store_for("SOUND") is kv
        assert registry.supports("SOUND")
        before = registry.generation("SOUND")
        registry.insert("SOUND", "whale song", 7)
        assert registry.generation("SOUND") == before + 1
        assert registry.lookup("SOUND", "whale song") == [7]
        assert TagValue("SOUND", "whale song") in registry.names_for(7)
        # Deleting the object bumps the unclaimed tag's generation too.
        registry.remove_object(7)
        assert registry.generation("SOUND") == before + 2
        assert registry.lookup("SOUND", "whale song") == []
        # The fallback never takes the registry's own ID tag.
        with pytest.raises(UnknownTagError):
            registry.store_for(TAG_ID)

    def test_claiming_a_tag_the_fallback_holds_names_for_is_refused(self):
        kv = KeyValueIndexStore()
        registry = IndexStoreRegistry(fallback=kv)
        registry.register(kv)
        registry.register(KeyValueIndexStore(tags=["EMPTY"]))  # holds nothing
        registry.insert("SOUND", "whale song", 7)
        with pytest.raises(DuplicateIndexError):
            registry.register(KeyValueIndexStore(tags=["SOUND"]))
        assert registry.store_for("SOUND") is kv

    def test_duplicate_tag_rejected(self):
        registry = make_registry()
        with pytest.raises(DuplicateIndexError):
            registry.register(KeyValueIndexStore(tags=[TAG_USER]))

    def test_id_tag_cannot_be_claimed(self):
        registry = IndexStoreRegistry()
        with pytest.raises(IndexStoreError):
            registry.register(KeyValueIndexStore(tags=[TAG_ID]))

    def test_register_with_no_tags_rejected(self):
        registry = IndexStoreRegistry()
        with pytest.raises(IndexStoreError):
            registry.register(KeyValueIndexStore(tags=[]))

    def test_unregister(self):
        registry = make_registry()
        store = registry.store_for(TAG_USER)
        registry.unregister(store)
        assert not registry.supports(TAG_USER)
        assert store not in registry.stores

    def test_supports_and_registered_tags(self):
        registry = make_registry()
        assert registry.supports(TAG_ID)  # always, via the fast path
        assert registry.supports("posix")
        assert TAG_ID in registry.registered_tags

    def test_plugin_model_accepts_third_party_store(self):
        class SoundIndex(IndexStore):
            name = "sound"

            def __init__(self):
                self.entries = {}

            def tags(self):
                return ("SOUND",)

            def insert(self, tag, value, oid):
                self.entries.setdefault(value, set()).add(oid)

            def remove(self, tag, value, oid):
                return oid in self.entries.get(value, set()) and (
                    self.entries[value].discard(oid) or True
                )

            def lookup(self, tag, value):
                return sorted(self.entries.get(value, set()))

            def remove_object(self, oid):
                removed = 0
                for members in self.entries.values():
                    if oid in members:
                        members.discard(oid)
                        removed += 1
                return removed

            def values_for(self, oid):
                return [
                    TagValue(tag="SOUND", value=value)
                    for value, members in self.entries.items()
                    if oid in members
                ]

        registry = make_registry()
        registry.register(SoundIndex())
        registry.insert("SOUND", "whale", 7)
        assert registry.lookup("SOUND", "whale") == [7]
        assert TagValue(tag="SOUND", value="whale") in registry.names_for(7)


class TestNamingOperations:
    def test_insert_and_lookup(self):
        registry = make_registry()
        registry.insert(TAG_USER, "margo", 1)
        registry.insert(TAG_USER, "margo", 2)
        registry.insert(TAG_USER, "nick", 3)
        assert registry.lookup(TAG_USER, "margo") == [1, 2]
        assert registry.lookup(TAG_USER, "nick") == [3]

    def test_id_fastpath(self):
        registry = make_registry()
        assert registry.lookup(TAG_ID, "42") == [42]
        assert registry.stats.fastpath_lookups == 1
        with pytest.raises(IndexStoreError):
            registry.lookup(TAG_ID, "not-a-number")

    def test_conjunction_semantics(self):
        registry = make_registry()
        registry.insert(TAG_USER, "margo", 1)
        registry.insert(TAG_USER, "margo", 2)
        registry.insert(TAG_APP, "quicken", 2)
        registry.insert(TAG_APP, "quicken", 3)
        pairs = [TagValue(TAG_USER, "margo"), TagValue(TAG_APP, "quicken")]
        assert registry.lookup_all(pairs) == [2]

    def test_conjunction_with_no_matches_short_circuits(self):
        registry = make_registry()
        registry.insert(TAG_USER, "margo", 1)
        pairs = [TagValue(TAG_USER, "nobody"), TagValue(TAG_USER, "margo")]
        assert registry.lookup_all(pairs) == []

    def test_empty_conjunction(self):
        registry = make_registry()
        assert registry.lookup_all([]) == []

    def test_remove_and_remove_object(self):
        registry = make_registry()
        registry.insert(TAG_USER, "margo", 1)
        registry.insert(TAG_UDEF, "vacation", 1)
        registry.insert(TAG_POSIX, "/photos/1.jpg", 1)
        assert registry.remove(TAG_USER, "margo", 1)
        assert not registry.remove(TAG_USER, "margo", 1)
        removed = registry.remove_object(1)
        assert removed == 2
        assert registry.lookup(TAG_UDEF, "vacation") == []
        assert registry.lookup(TAG_POSIX, "/photos/1.jpg") == []

    def test_names_for_collects_across_stores(self):
        registry = make_registry()
        registry.insert(TAG_USER, "margo", 5)
        registry.insert(TAG_POSIX, "/home/margo/report.doc", 5)
        names = registry.names_for(5)
        assert TagValue(TAG_USER, "margo") in names
        assert TagValue(TAG_POSIX, "/home/margo/report.doc") in names

    def test_stats_counters(self):
        registry = make_registry()
        registry.insert(TAG_USER, "margo", 1)
        registry.lookup(TAG_USER, "margo")
        registry.remove(TAG_USER, "margo", 1)
        assert registry.stats.inserts == 1
        assert registry.stats.lookups == 1
        assert registry.stats.removals == 1
