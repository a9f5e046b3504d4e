"""Tests for the FULLTEXT and IMAGE index stores."""

import pytest

from repro.errors import IndexStoreError
from repro.index import (
    TAG_FULLTEXT,
    TAG_IMAGE,
    FullTextIndexStore,
    ImageIndexStore,
    TagValue,
)
from repro.index.image_index import cosine_similarity


class TestFullTextIndexStore:
    def test_content_indexing_and_lookup(self):
        store = FullTextIndexStore()
        store.index_content(1, "grand canyon vacation photos")
        store.index_content(2, "tax forms for 2008")
        assert store.lookup(TAG_FULLTEXT, "vacation") == [1]
        assert store.lookup(TAG_FULLTEXT, "tax") == [2]
        assert store.lookup(TAG_FULLTEXT, "nothing") == []

    def test_manual_keyword_insert(self):
        store = FullTextIndexStore()
        store.index_content(1, "some document text")
        store.insert(TAG_FULLTEXT, "projectx", 1)
        assert store.lookup(TAG_FULLTEXT, "projectx") == [1]
        assert store.lookup(TAG_FULLTEXT, "document") == [1]

    def test_remove_single_term(self):
        store = FullTextIndexStore()
        store.insert(TAG_FULLTEXT, "alpha", 1)
        store.insert(TAG_FULLTEXT, "beta", 1)
        assert store.remove(TAG_FULLTEXT, "alpha", 1)
        assert store.lookup(TAG_FULLTEXT, "alpha") == []
        assert store.lookup(TAG_FULLTEXT, "beta") == [1]
        assert not store.remove(TAG_FULLTEXT, "gamma", 1)

    def test_a_manual_keyword_keeps_the_stored_stems(self):
        # Analyzing a stored stem again can change it (building -> build):
        # only the keyword added or removed is analyzed, the stored terms stay.
        store = FullTextIndexStore()
        store.index_content(1, "the buildings near ceilings")
        store.insert(TAG_FULLTEXT, "extra", 1)
        assert store.index.terms_for(1) == ["building", "near", "ceiling", "extra"]
        assert store.lookup(TAG_FULLTEXT, "buildings") == [1]
        assert store.lookup(TAG_FULLTEXT, "ceilings") == [1]
        assert store.remove(TAG_FULLTEXT, "near", 1)
        assert store.index.terms_for(1) == ["building", "ceiling", "extra"]
        assert store.lookup(TAG_FULLTEXT, "buildings") == [1]
        assert store.index.search_phrase("buildings near") == []

    def test_remove_last_term_drops_document(self):
        store = FullTextIndexStore()
        store.insert(TAG_FULLTEXT, "solo", 9)
        assert store.remove(TAG_FULLTEXT, "solo", 9)
        assert store.remove_object(9) == 0

    def test_remove_object_and_values_for(self):
        store = FullTextIndexStore()
        store.index_content(3, "quarterly budget spreadsheet")
        values = store.values_for(3)
        assert TagValue(TAG_FULLTEXT, "budget") in values
        assert store.remove_object(3) == 1
        assert store.values_for(3) == []

    def test_drop_content(self):
        store = FullTextIndexStore()
        store.index_content(4, "temporary notes")
        store.drop_content(4)
        assert store.lookup(TAG_FULLTEXT, "notes") == []

    def test_cardinality_and_rank(self):
        store = FullTextIndexStore()
        store.index_content(1, "photo photo photo")
        store.index_content(2, "a single photo in a longer description of things")
        assert store.cardinality(TAG_FULLTEXT, "photo") == 2
        assert store.rank("photo")[0].doc_id == 1


class TestImageIndexStore:
    @pytest.fixture
    def make_store(self, logged_stack):
        """An image store over a tree of a logged device store, as the
        filesystem builds it."""
        def make(**kwargs):
            stack = logged_stack(journal_blocks=64)
            return ImageIndexStore(stack.tree(), stack.recovery, **kwargs)
        return make

    def red_histogram(self):
        return [10, 0, 0, 0, 0, 0, 0, 1]

    def blue_histogram(self):
        return [0, 0, 0, 0, 1, 10, 0, 0]

    def test_index_histogram_and_color_lookup(self, make_store):
        store = make_store()
        assert store.index_histogram(1, self.red_histogram()) == "red"
        store.index_histogram(2, self.blue_histogram())
        assert store.lookup(TAG_IMAGE, "color:red") == [1]
        assert store.lookup(TAG_IMAGE, "color:blue") == [2]
        assert store.lookup(TAG_IMAGE, "color:green") == []
        assert store.dominant_color(1) == "red"
        assert store.dominant_color(99) is None

    def test_similarity_query(self, make_store):
        store = make_store(similarity_threshold=0.9)
        store.index_histogram(1, [10, 1, 0, 0, 0, 0, 0, 0])
        store.index_histogram(2, [9, 1, 0, 0, 0, 0, 0, 0])     # near-duplicate of 1
        store.index_histogram(3, [0, 0, 0, 10, 0, 0, 0, 0])    # unrelated
        assert store.lookup(TAG_IMAGE, "similar:1") == [2]
        ranked = store.similar_to(1)
        assert ranked[0][0] == 2
        assert store.similar_to(404) == []

    def test_reindexing_replaces_features(self, make_store):
        store = make_store()
        store.index_histogram(1, self.red_histogram())
        store.index_histogram(1, self.blue_histogram())
        assert store.lookup(TAG_IMAGE, "color:red") == []
        assert store.lookup(TAG_IMAGE, "color:blue") == [1]
        assert store.indexed_count == 1

    def test_insert_remove_interface(self, make_store):
        store = make_store()
        store.insert(TAG_IMAGE, "color:green", 5)
        assert store.lookup(TAG_IMAGE, "color:green") == [5]
        assert store.values_for(5) == [TagValue(TAG_IMAGE, "color:green")]
        assert store.remove(TAG_IMAGE, "color:green", 5)
        assert not store.remove(TAG_IMAGE, "color:green", 5)
        assert not store.remove(TAG_IMAGE, "nonsense", 5)

    def test_remove_object(self, make_store):
        store = make_store()
        store.index_histogram(7, self.red_histogram())
        assert store.remove_object(7) == 1
        assert store.remove_object(7) == 0
        assert store.lookup(TAG_IMAGE, "color:red") == []

    def test_validation_errors(self, make_store):
        store = make_store()
        with pytest.raises(IndexStoreError):
            store.index_histogram(1, [1, 2, 3])  # wrong bucket count
        with pytest.raises(IndexStoreError):
            store.index_histogram(1, [0] * 8)  # all zero
        with pytest.raises(IndexStoreError):
            store.index_histogram(1, [-1] + [1] * 7)
        with pytest.raises(IndexStoreError):
            store.insert(TAG_IMAGE, "color:maroon", 1)
        with pytest.raises(IndexStoreError):
            store.lookup(TAG_IMAGE, "color:maroon")
        with pytest.raises(IndexStoreError):
            store.lookup(TAG_IMAGE, "similar:abc")
        with pytest.raises(IndexStoreError):
            store.lookup(TAG_IMAGE, "weird-query")
        with pytest.raises(IndexStoreError):
            make_store(similarity_threshold=0.0)

    def test_cardinality(self, make_store):
        store = make_store()
        store.index_histogram(1, self.red_histogram())
        store.index_histogram(2, self.red_histogram())
        assert store.cardinality(TAG_IMAGE, "color:red") == 2
        assert store.cardinality(TAG_IMAGE, "similar:1") == 2

    def test_cosine_similarity_basics(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity([0, 0], [1, 1]) == 0.0
