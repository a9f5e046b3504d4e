"""Tests for the inverted index (over its default in-memory page store)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fulltext import PersistentInvertedIndex


class TestInvertedIndex:
    def make_index(self):
        index = PersistentInvertedIndex()
        index.add_document(1, "grand canyon vacation photos with margo")
        index.add_document(2, "vacation in paris, photos of the eiffel tower")
        index.add_document(3, "quarterly budget spreadsheet for the grand project")
        return index

    def test_single_term_search(self):
        index = self.make_index()
        assert index.search("vacation") == [1, 2]

    def test_conjunction_semantics(self):
        index = self.make_index()
        assert index.search("grand vacation") == [1]
        assert index.search("vacation photos paris") == [2]

    def test_missing_term_empties_conjunction(self):
        index = self.make_index()
        assert index.search("vacation zanzibar") == []

    def test_disjunction(self):
        index = self.make_index()
        assert index.search_any("eiffel budget") == [2, 3]

    def test_search_all_terms_list(self):
        index = self.make_index()
        assert index.search_all(["grand", "canyon"]) == [1]

    def test_empty_query(self):
        index = self.make_index()
        assert index.search("") == []
        assert index.search("the and of") == []

    def test_stemming_bridges_plural_queries(self):
        index = self.make_index()
        assert index.search("photo") == [1, 2]

    def test_remove_document(self):
        index = self.make_index()
        assert index.remove_document(1)
        assert index.search("canyon") == []
        assert index.search("vacation") == [2]
        assert not index.remove_document(1)
        assert index.document_count == 2

    def test_update_document_replaces(self):
        index = self.make_index()
        index.update_document(1, "tax return 2008")
        assert index.search("canyon") == []
        assert index.search("tax") == [1]
        assert index.document_count == 3

    def test_phrase_search(self):
        index = PersistentInvertedIndex()
        index.add_document(1, "grand canyon trip")
        index.add_document(2, "canyon grand trip")
        assert index.search_phrase("grand canyon") == [1]
        assert index.search_phrase("canyon") == [1, 2]
        assert index.search_phrase("") == []

    def test_document_frequency(self):
        index = self.make_index()
        assert index.document_frequency("vacation") == 2
        assert index.document_frequency("zanzibar") == 0
        assert index.document_frequency("") == 0

    def test_contains_and_terms_for(self):
        index = self.make_index()
        assert 1 in index
        assert 99 not in index
        assert "canyon" in index.terms_for(1)
        assert index.terms_for(99) == []

    def test_vocabulary_sorted(self):
        index = self.make_index()
        vocabulary = index.vocabulary()
        assert vocabulary == sorted(vocabulary)
        assert index.term_count == len(vocabulary)

    def test_ranking_prefers_better_match(self):
        index = PersistentInvertedIndex()
        index.add_document(1, "photo photo photo of the canyon")
        index.add_document(2, "one photo among many other words about hiking trips and gear")
        hits = index.rank("photo")
        assert hits[0].doc_id == 1
        assert hits[0].score > hits[1].score

    def test_ranking_limit_and_empty(self):
        index = self.make_index()
        assert index.rank("vacation", limit=1)[0].doc_id in (1, 2)
        assert len(index.rank("vacation", limit=1)) == 1
        assert index.rank("zanzibar") == []
        assert PersistentInvertedIndex().rank("anything") == []

    def test_work_counters(self):
        index = self.make_index()
        index.reset_counters()
        index.search("grand vacation")
        assert index.term_lookups >= 2
        assert index.postings_scanned >= 2


class TestInvertedIndexProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 50),
            st.lists(st.sampled_from("alpha beta gamma delta epsilon zeta".split()), min_size=1, max_size=8),
            min_size=1,
            max_size=25,
        )
    )
    def test_search_matches_naive_scan(self, corpus):
        index = PersistentInvertedIndex()
        for doc_id, words in corpus.items():
            index.add_document(doc_id, " ".join(words))
        for term in ["alpha", "gamma", "zeta"]:
            expected = sorted(doc_id for doc_id, words in corpus.items() if term in words)
            assert index.search(term) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 100), min_size=1, max_size=30))
    def test_remove_all_documents_empties_index(self, doc_ids):
        index = PersistentInvertedIndex()
        for doc_id in doc_ids:
            index.add_document(doc_id, f"common term document{doc_id}")
        for doc_id in doc_ids:
            index.remove_document(doc_id)
        assert index.document_count == 0
        assert index.term_count == 0
        assert index.search("common") == []
