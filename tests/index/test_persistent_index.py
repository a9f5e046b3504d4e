"""Unit tests: the tree-backed index engines give the right answers.

The inverted index runs over a plain in-memory tree (no device, no WAL) with
a tiny fan-out, so a few dozen documents already split and merge pages; its
answers are held against :class:`BruteForceIndex`, which scans every live
document — bit for bit for BM25, since both score through the same helpers.
"""

import random
import struct
import sys

import pytest

from repro.btree import BPlusTree
from repro.fulltext import Analyzer, PersistentInvertedIndex, SearchHit, persistent_index
from repro.fulltext.persistent_index import BLOCK_SPAN, DOC_CHUNK_BYTES, MAX_STORED_POSITIONS
from repro.index.image_index import COLOR_NAMES, ImageIndexStore, cosine_similarity
from repro.query import IntersectCursor, bm25_idf, bm25_scorer

WORDS = (
    "search namespace index posting btree mount journal replay object tag "
    "query rank score device block extent metadata crash commit marker"
).split()


class BruteForceIndex:
    """What an inverted index must answer, computed by scanning every document.

    Texts here are drawn from WORDS (no stop words, nothing too short), so a
    term's position is its index in the document's analyzed stream.
    """

    def __init__(self):
        self.analyzer = Analyzer()
        self.docs = {}  # doc id -> analyzed term stream

    def add(self, doc_id, text):
        self.docs[doc_id] = self.analyzer.analyze(text)
        return len(self.terms_for(doc_id))

    def append(self, doc_id, text):
        self.docs[doc_id] = self.docs[doc_id] + self.analyzer.analyze(text)
        return len(self.terms_for(doc_id))

    def terms_for(self, doc_id):
        return list(dict.fromkeys(self.docs.get(doc_id, [])))

    def frequencies(self, term):
        return {doc_id: stream.count(term) for doc_id, stream in self.docs.items() if term in stream}

    def search(self, query, combine=set.intersection):
        matches = [set(self.frequencies(term)) for term in self.analyzer.analyze_query(query)]
        return sorted(combine(*matches)) if matches else []

    def search_phrase(self, phrase):
        terms = self.analyzer.analyze_query(phrase)
        return sorted(
            doc_id for doc_id, stream in self.docs.items()
            if terms and any(stream[at:at + len(terms)] == terms for at in range(len(stream)))
        )

    def rank(self, query, k1=1.5, b=0.75):
        average_length = sum(map(len, self.docs.values())) / max(1, len(self.docs))
        scores = {}
        for term in self.analyzer.analyze_query(query):
            frequencies = self.frequencies(term)
            idf = bm25_idf(len(self.docs), len(frequencies))
            score = bm25_scorer(idf, k1, b, average_length, lambda doc_id: len(self.docs[doc_id]))
            for doc_id, tf in sorted(frequencies.items()):
                scores[doc_id] = scores.get(doc_id, 0.0) + score(doc_id, tf)
        hits = [SearchHit(doc_id=doc_id, score=score) for doc_id, score in scores.items()]
        return sorted(hits, key=lambda hit: (-hit.score, hit.doc_id))


def make_engine():
    return PersistentInvertedIndex(BPlusTree(max_keys=8))


def random_text(rng, low, high):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(low, high)))


def churn(rng, model, engine, steps):
    """Randomized add / replace / remove / append_terms, applied to both."""
    for _ in range(steps):
        roll = rng.random()
        if not model.docs or roll < 0.5:  # add, or replace when the id is live
            doc_id, text = rng.randint(1, 40), random_text(rng, 1, 12)
            assert engine.add_document(doc_id, text) == model.add(doc_id, text)
        elif roll < 0.75:
            doc_id = rng.choice(sorted(model.docs))
            del model.docs[doc_id]
            assert engine.remove_document(doc_id) is True
        else:  # append_terms extends a document's stream with the word's
            doc_id, word = rng.choice(sorted(model.docs)), rng.choice(WORDS)
            assert engine.append_terms(doc_id, word) == model.append(doc_id, word)


def assert_answers_match(rng, model, engine, where):
    for probe in (random_text(rng, 1, 1), random_text(rng, 2, 3)):
        assert engine.search(probe) == model.search(probe), (where, probe)
        assert engine.search_any(probe) == model.search(probe, set.union), (where, probe)
        assert engine.search_phrase(probe) == model.search_phrase(probe), (where, probe)
        everything = model.rank(probe)
        assert engine.rank(probe, limit=None) == everything, (where, probe)
        for limit in (1, 3):
            assert engine.rank(probe, limit=limit) == everything[:limit], (where, probe, limit)
    for word in WORDS:
        assert engine.document_frequency(word) == len(model.search(word)), (where, word)


class TestDifferentialEquivalence:
    def test_randomized_mutations_and_queries(self):
        # 200 short histories, not one long one: bookkeeping slips (a df that
        # drifts, a posting left behind) show within a few dozen operations.
        for seed in range(200):
            rng = random.Random(seed)
            model, engine = BruteForceIndex(), make_engine()
            for step in range(3):
                churn(rng, model, engine, steps=10)
                assert_answers_match(rng, model, engine, (seed, step))
            assert engine.document_ids() == sorted(model.docs)
            assert engine.document_count == len(model.docs)
            assert engine.term_count == len(engine.vocabulary())
            assert engine.vocabulary() == sorted(set().union(*model.docs.values()))
            for doc_id in range(1, 41):
                assert engine.terms_for(doc_id) == model.terms_for(doc_id)
                assert (doc_id in engine) == (doc_id in model.docs)
            assert engine.bound_violations() == []

    def test_replacement_updates_postings(self):
        engine = make_engine()
        engine.add_document(1, "alpha beta gamma")
        engine.update_document(1, "beta delta")
        assert engine.search("alpha") == []
        assert engine.search("beta delta") == [1]
        assert engine.terms_for(1) == ["beta", "delta"]

    def test_phrase_search_matches(self):
        engine = make_engine()
        engine.add_document(1, "the quick brown fox jumps")
        engine.add_document(2, "brown quick the fox sleeps")
        assert engine.search_phrase("quick brown fox") == [1]

    def test_streaming_cursor_is_sorted_and_seekable(self):
        persistent = make_engine()
        for doc_id in range(1, 30):
            persistent.add_document(doc_id, "common" + (" rare" if doc_id % 7 == 0 else ""))
        cursor = persistent.cursor("common rare")
        assert cursor.next() == 7
        assert cursor.seek(20) == 21
        assert cursor.next() == 28
        assert cursor.next() is None

    def test_empty_document_is_tracked(self):
        engine = make_engine()
        engine.add_document(5, "the a of")  # all stop words / too short
        assert (5 in engine) is True
        assert engine.remove_document(5) is True
        assert (5 in engine) is False

    def test_custom_analyzer_is_respected(self):
        analyzer = Analyzer(stem=False)
        persistent = PersistentInvertedIndex(BPlusTree(max_keys=8), analyzer=analyzer)
        persistent.add_document(1, "photos")
        assert persistent.search("photos") == [1]
        assert persistent.search("photo") == []


def remounted(engine):
    """What a crash leaves and a mount finds: the tree alone — a fresh engine
    re-derives the unsettled overlay from the tree's ``P`` / ``R`` records."""
    return PersistentInvertedIndex(engine.tree)


def backlog_keys(engine):
    return [key for kind in (b"P\x00", b"R\x00")
            for key, _value in engine.tree.cursor(prefix=kind)]


def block_oids(key, raw):
    """The oids of a ``T`` block's rows, decoded by the module's codec."""
    return persistent_index._decode_block(raw, persistent_index._block_base(key))[0]


def rows_of(engine, doc_id):
    """Every ``T`` block key in the *tree* holding a row of ``doc_id``."""
    found = []
    for key, raw in engine.tree.cursor(prefix=b"T\x00"):
        if b"\x00" in key[2:]:  # a block, not a term's statistics
            if doc_id in block_oids(key, raw):
                found.append(key)
    return found


class TestPostingBacklog:
    """Postings reach the tree late; no answer may depend on when."""

    def assert_model_equal(self, seed, model, engine, where):
        assert_answers_match(random.Random(seed), model, engine, where)
        assert engine.document_ids() == sorted(model.docs), where
        assert engine.document_count == len(model.docs), where
        assert engine.vocabulary() == sorted(set().union(*model.docs.values())), where
        for doc_id in range(1, 41):
            assert engine.terms_for(doc_id) == model.terms_for(doc_id), where
        assert engine.bound_violations() == [], where

    @pytest.mark.parametrize("threshold", [1, persistent_index.SETTLE_KEYS, sys.maxsize])
    def test_differential_holds_whenever_the_backlog_settles(self, monkeypatch, threshold):
        # Settle after every mutation, at the shipped threshold, and only
        # where the dice say — then again over what a crash would leave.
        monkeypatch.setattr(persistent_index, "SETTLE_KEYS", threshold)
        for seed in range(200):
            rng, dice = random.Random(seed), random.Random(~seed)
            model, engine = BruteForceIndex(), make_engine()
            for step in range(6):
                churn(rng, model, engine, steps=5)
                if threshold == sys.maxsize and dice.random() < 0.4:
                    engine.settle()
                if threshold == 1:
                    assert engine.backlog == (0, 0) and backlog_keys(engine) == []
            self.assert_model_equal(seed, model, engine, (seed, "live"))
            engine = remounted(engine)
            self.assert_model_equal(seed, model, engine, (seed, "remounted"))
            engine.settle()
            assert backlog_keys(engine) == [] and engine.backlog == (0, 0)
            self.assert_model_equal(seed, model, remounted(engine), (seed, "settled"))

    def test_a_create_writes_its_records_and_no_posting(self):
        engine = make_engine()
        engine.add_document(7, "alpha beta alpha")
        kinds = sorted({key[:1] for key, _value in engine.tree.items()})
        assert kinds == [b"D", b"L", b"P", b"S"]
        pending = engine.tree.get(engine._doc_key(7, 0, b"P\x00"))
        assert len(pending) == 4  # a 3-token document's tfs are u16
        assert persistent_index._decode_tfs(3, pending) == (2, 1)
        assert engine.backlog == (1, 4)  # two terms: a block and its statistics each
        assert engine.search("alpha") == [7] and engine.document_frequency("beta") == 1

    def test_removing_a_pending_document_writes_no_removal_record(self):
        engine = make_engine()
        engine.add_document(1, "alpha beta")
        assert engine.remove_document(1) is True
        assert backlog_keys(engine) == [] and engine.search("alpha") == []
        engine.settle()
        assert [key for key, _value in engine.tree.items()] == [b"S"]

    def test_removing_an_applied_document_records_what_to_scrub(self):
        engine = make_engine()
        engine.add_document(1, "alpha beta")
        engine.add_document(2, "alpha")
        engine.settle()
        chunks = [value for _key, value in engine.tree.cursor(prefix=engine._doc_prefix(1))]
        engine.remove_document(1)
        assert backlog_keys(engine) == [engine._doc_key(1, 0, b"R\x00")]
        assert engine.tree.get(engine._doc_key(1, 0, b"R\x00")) == chunks[0]
        assert rows_of(engine, 1) != [] and engine.search("alpha") == [2]
        crashed = remounted(engine)
        assert crashed.search("alpha") == [2] and crashed.search("beta") == []
        crashed.settle()
        assert rows_of(crashed, 1) == [] and backlog_keys(crashed) == []
        assert crashed.bound_violations() == []

    def test_replacing_an_applied_document_across_a_crash(self):
        engine = make_engine()
        engine.add_document(1, "alpha beta beta")
        engine.settle()
        engine.update_document(1, "beta gamma")  # R (old version) + P (new one)
        assert {key[:1] for key in backlog_keys(engine)} == {b"P", b"R"}
        crashed = remounted(engine)
        for index in (engine, crashed):
            assert index.search("alpha") == [] and index.search("beta gamma") == [1]
            assert index.rank("beta") == index.rank_exhaustive("beta")
            assert index.bound_violations() == []
        crashed.settle()
        assert rows_of(crashed, 1) == [crashed._posting_prefix(term) + struct.pack(">Q", 0)
                                       for term in ("beta", "gamma")]

    def test_a_hundred_occurrences_keep_their_tf_across_a_crash(self):
        # D stores 64 positions; the exact frequency rides the P record.
        engine = make_engine()
        engine.add_document(7, " ".join(["echo"] * 100 + ["tail"]))
        crashed = remounted(engine)
        assert crashed.rank("echo") == engine.rank("echo")
        crashed.settle()
        raw = crashed.tree.get(crashed._posting_prefix("echo") + struct.pack(">Q", 0))
        assert persistent_index._decode_block(raw, 0) == ((7,), (100,))

    def test_a_backlog_record_that_survives_a_settle_is_a_violation(self):
        engine = make_engine()
        engine.add_document(1, "alpha")
        engine.settle()
        assert engine.bound_violations() == []
        engine.tree.put(engine._doc_key(1, 0, b"P\x00"), struct.pack(">I", 1))
        assert any("survives a settle" in violation for violation in engine.bound_violations())

    def test_settle_reports_what_it_wrote_and_counts(self):
        engine = make_engine()
        assert engine.settle() == 0 and engine.settles == 0
        engine.add_document(1, "alpha beta")
        assert engine.settle() == 4 and engine.settles == 1
        assert engine.settle() == 0 and engine.settles == 1


class TestPostingBlockLayout:
    """The on-tree shape: aligned blocks of rows, ``L`` lengths, chunked ``D``."""

    EDGE = [BLOCK_SPAN - 1, BLOCK_SPAN, BLOCK_SPAN + 1]

    def keys(self, engine, prefix):
        return [key for key, _value in engine.tree.cursor(prefix=prefix)]

    def block_rows(self, engine, term, block):
        """A block's rows, flat ``oid, tf, ...``, and its trailer bytes."""
        raw = engine.tree.get(engine._posting_prefix(term) + struct.pack(">Q", block))
        oids, tfs = persistent_index._decode_block(raw, block * BLOCK_SPAN)
        assert len(raw) == 5 * len(oids) + 4
        return [number for row in zip(oids, tfs) for number in row], raw[-4:]

    def test_oids_straddling_a_block_boundary(self):
        engine = make_engine()
        for doc_id in self.EDGE + [3 * BLOCK_SPAN]:
            engine.add_document(doc_id, "edge" + (" far" if doc_id >= BLOCK_SPAN else ""))
        engine.settle()
        assert len(self.keys(engine, engine._posting_prefix("edge"))) == 3
        assert engine.search("edge") == self.EDGE + [3 * BLOCK_SPAN]
        for target, landed in [(0, BLOCK_SPAN - 1), (BLOCK_SPAN - 1, BLOCK_SPAN - 1),
                               (BLOCK_SPAN, BLOCK_SPAN), (BLOCK_SPAN + 1, BLOCK_SPAN + 1),
                               (BLOCK_SPAN + 2, 3 * BLOCK_SPAN), (3 * BLOCK_SPAN + 1, None)]:
            assert engine.cursor("edge").seek(target) == landed, target
        stepping = engine.cursor("edge")
        assert [stepping.seek(BLOCK_SPAN), stepping.next(), stepping.seek(0), stepping.next()] == [
            BLOCK_SPAN, BLOCK_SPAN + 1, 3 * BLOCK_SPAN, None]
        both = engine.cursor("edge far")
        assert isinstance(both, IntersectCursor)
        assert list(both) == [BLOCK_SPAN, BLOCK_SPAN + 1, 3 * BLOCK_SPAN]
        ranked = engine.rank("edge far", limit=2)
        assert ranked == engine.rank_exhaustive("edge far", limit=2)
        assert {hit.doc_id for hit in engine.rank("edge", limit=10)} == set(engine.search("edge"))
        assert engine.bound_violations() == []

    def test_removals_scrub_emptied_records(self):
        engine = make_engine()
        engine.add_document(1, "common solo")
        engine.add_document(BLOCK_SPAN + 1, "common")
        length_keys = self.keys(engine, b"L\x00")
        assert len(length_keys) == 2
        engine.remove_document(BLOCK_SPAN + 1)
        engine.settle()
        # The block's last row, and the block's last document: both records go.
        assert len(self.keys(engine, engine._posting_prefix("common"))) == 1
        assert self.keys(engine, b"L\x00") == length_keys[:1]
        assert engine.document_frequency("common") == 1
        engine.remove_document(1)
        engine.settle()
        # The terms' last postings: their statistics go; only ``S`` is left.
        assert engine.tree.get(engine._term_stats_key("common")) is None
        assert [key for key, _value in engine.tree.items()] == [b"S"]
        assert engine.document_count == 0

    def test_out_of_order_insertion_keeps_rows_sorted(self):
        engine = make_engine()
        for doc_id, count in [(9, 1), (2, 3), (30, 2), (5, 1)]:
            engine.add_document(doc_id, " ".join(["word"] * count))
        engine.settle()
        rows, trailer = self.block_rows(engine, "word", 0)
        assert rows == [2, 3, 5, 1, 9, 1, 30, 2]
        assert trailer == struct.pack(">I", 3)
        engine.remove_document(2)  # the block's maximum leaves: the trailer follows
        engine.settle()
        assert self.block_rows(engine, "word", 0) == ([5, 1, 9, 1, 30, 2], struct.pack(">I", 2))
        assert engine.bound_violations() == []

    def test_a_hundred_occurrences_keep_their_tf_and_64_positions(self):
        engine = make_engine()
        engine.add_document(7, " ".join(["echo"] * 100 + ["tail"]))
        engine.settle()
        assert self.block_rows(engine, "echo", 0)[0] == [7, 100]
        assert engine._read_doc(7)[1]["echo"] == tuple(range(MAX_STORED_POSITIONS))
        assert engine.search_phrase("echo echo") == [7]
        assert engine.search_phrase("echo tail") == []  # position 99 is past the cap
        assert engine.rank("echo") == engine.rank_exhaustive("echo")

    def test_a_large_document_round_trips_through_several_chunks(self):
        engine = make_engine()
        words = [f"token{i:03d}" for i in range(120)]
        text = " ".join(words + words[:40])
        assert engine.add_document(3, text) == 120
        chunks = self.keys(engine, engine._doc_prefix(3))
        assert len(chunks) > 2
        assert all(len(engine.tree.get(key)) <= DOC_CHUNK_BYTES for key in chunks)
        length, positions, chunk_count = engine._read_doc(3)
        assert (length, chunk_count) == (160, len(chunks))
        assert list(positions) == words == engine.terms_for(3)
        assert positions["token005"] == (5, 125)
        assert engine.search_phrase("token119 token000 token001") == [3]
        assert engine.remove_document(3) is True
        assert self.keys(engine, engine._doc_prefix(3)) == []

    def test_an_empty_document_is_indexed_with_length_zero(self):
        engine = make_engine()
        engine.add_document(5, "the a of")
        assert 5 in engine and engine.document_ids() == [5]
        assert engine._read_doc(5) == (0, {}, 1)
        assert engine._length_memo()(5) == 0 == engine._length_memo()(6)
        assert engine.tree.get(engine._length_key(0))[20:24] == struct.pack(">I", 1)  # length + 1
        assert engine.document_count == 1
        assert engine.remove_document(5) is True
        assert 5 not in engine and engine.document_ids() == []
        assert self.keys(engine, b"L\x00") == []  # an all-zero record is not kept


class TestPersistentImageStore:
    """The tree is the image index's only copy: a second store over the same
    tree (the mount path) answers what the first one does, loading nothing.
    The tree is a logged device tree, as the filesystem's image tree is."""

    @pytest.fixture
    def stack(self, logged_stack):
        return logged_stack(journal_blocks=64)

    def test_roundtrip_through_tree(self, stack):
        tree = stack.tree()
        store = ImageIndexStore(tree, stack.recovery)
        assert store.index_histogram(1, [0.9, 0.1, 0, 0, 0, 0, 0, 0]) == "red"
        assert store.index_histogram(2, [0, 0, 0, 0.8, 0, 0, 0, 0.2]) == "green"
        store.insert("IMAGE", "color:blue", 3)
        reloaded = ImageIndexStore(tree, stack.recovery)
        assert reloaded.lookup("IMAGE", "color:red") == [1]
        assert reloaded.lookup("IMAGE", "color:green") == [2]
        assert reloaded.lookup("IMAGE", "color:blue") == [3]
        assert reloaded.dominant_color(1) == "red"
        assert reloaded.similar_to(1) == store.similar_to(1)
        assert reloaded.indexed_count == 3

    def test_mutations_scrub_tree_records(self, stack):
        tree = stack.tree()
        store = ImageIndexStore(tree, stack.recovery)
        store.index_histogram(1, [0.9, 0.1, 0, 0, 0, 0, 0, 0])
        store.index_histogram(1, [0, 0.9, 0.1, 0, 0, 0, 0, 0])  # re-index moves colour
        assert store.lookup("IMAGE", "color:red") == []
        assert store.lookup("IMAGE", "color:orange") == [1]
        assert store.remove_object(1) == 1
        assert len(tree) == 0

    def test_behaviour_matches_a_dict_model(self, stack):
        rng = random.Random(11)
        store = ImageIndexStore(stack.tree(), stack.recovery)
        model = {}  # oid -> normalized histogram
        for oid in range(1, 25):
            histogram = [rng.random() for _ in range(8)]
            total = sum(histogram)
            model[oid] = tuple(value / total for value in histogram)
            dominant = COLOR_NAMES[max(range(8), key=model[oid].__getitem__)]
            assert store.index_histogram(oid, histogram) == dominant
        for oid in (3, 9, 17, 404):
            assert store.drop_features(oid) == (model.pop(oid, None) is not None)
        for color in COLOR_NAMES:
            assert store.lookup("IMAGE", f"color:{color}") == sorted(
                oid for oid, histogram in model.items()
                if COLOR_NAMES[max(range(8), key=histogram.__getitem__)] == color)
        scores = sorted(((oid, cosine_similarity(model[1], histogram))
                         for oid, histogram in model.items() if oid != 1),
                        key=lambda pair: (-pair[1], pair[0]))
        assert store.similar_to(1) == scores
        assert store.indexed_count == len(model)
