"""A new document's rows are pending inserts: queued without a key read.

A document with no ``D`` record has no row anywhere, so ``add_document``
queues its rows and statistics in the overlay (``_TermView.insert``) and
readers fold them into what they return.  The property below holds that
blind path to the presence-aware ``_set_rows`` it replaces for new
documents: after every call the two overlays read the same, key by key and
through a cursor, and after a settle the two trees' ``T`` ranges are equal.
The engine-level tests check what a query needs with pending inserts in the
view (ranks equal to the exhaustive reference, exact bounds), that the
one-pass replace keeps a document's stored terms, and that a mount re-derives
the same answers from the backlog while pending inserts are outstanding.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HFADFileSystem
from repro.fulltext import PersistentInvertedIndex
from repro.fulltext.persistent_index import _TERM_PREFIX, BLOCK_SHIFT, BLOCK_SPAN
from repro.storage import BlockDevice

U32_MAX = (1 << 32) - 1

#: analyzer-shaped terms, some prefixes of others ("a" < "a0" < "a_b" < "ab").
TERMS = st.sampled_from(["a", "a0", "a_b", "ab", "abc", "b", "zz", "x" * 64])
TFS = st.one_of(st.integers(1, 5), st.sampled_from([0xFFFF, 0x10000, U32_MAX]),
                st.integers(1, U32_MAX))
LENGTHS = st.integers(1, U32_MAX - 1)
#: blocks 0 and 1, and one whose base is past 2 ** 32.
BLOCKS = st.sampled_from([0, 1, ((1 << 32) >> BLOCK_SHIFT) + 1])
DOCS = st.builds(lambda block, slot: (block << BLOCK_SHIFT) + slot, BLOCKS,
                 st.integers(0, BLOCK_SPAN - 1))
#: ("add", doc, rows, length): a new document's rows, or an edit of a
#: present one's (tf 0 drops a row); ("drop", doc): every row of it goes.
STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), DOCS, st.dictionaries(TERMS, st.one_of(st.just(0), TFS),
                                                    max_size=5), LENGTHS),
    st.tuples(st.just("drop"), DOCS),
    st.just(("settle",)),
), min_size=1, max_size=25)


def term_range(index):
    return list(index.tree.cursor(prefix=_TERM_PREFIX))


def assert_reads_equal(blind, aware):
    """The overlays read alike through a cursor, ``get`` and ``get_many``."""
    folded = list(blind._view.cursor(_TERM_PREFIX))
    assert folded == list(aware._view.cursor(_TERM_PREFIX))
    keys = sorted(set(blind._view.keys()) | set(aware._view.keys()))
    assert blind._view.get_many(keys) == aware._view.get_many(keys)
    assert [blind._view.get(key) for key in keys] == [aware._view.get(key) for key in keys]


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
def test_pending_inserts_read_as_the_presence_aware_edit_left(steps):
    blind, aware = PersistentInvertedIndex(), PersistentInvertedIndex()
    rows_of = {}  # doc -> {term: tf} of its rows
    for step in steps:
        if step[0] == "settle":
            blind.settle()
            aware.settle()
            assert term_range(blind) == term_range(aware)
            continue
        doc_id = step[1]
        held = rows_of.get(doc_id, {})
        if step[0] == "drop":
            rows = {term: 0 for term in held}
        else:
            rows, length = step[2], step[3]
        if step[0] == "add" and not held:
            # No row anywhere: the blind path, with the rows it would add.
            added = [(term, tf) for term, tf in rows.items() if tf]
            blind._view.insert(doc_id, added, length)
        else:
            blind._set_rows(doc_id, rows.items(), step[3] if step[0] == "add" else 0)
        aware._set_rows(doc_id, rows.items(), step[3] if step[0] == "add" else 0)
        held = {**held, **rows}
        rows_of[doc_id] = {term: tf for term, tf in held.items() if tf}
        assert len(blind._view) == len(aware._view)  # the settle threshold counts alike
        assert_reads_equal(blind, aware)
    blind.settle()
    aware.settle()
    assert term_range(blind) == term_range(aware)
    assert not (blind._view.rows or blind._view.added or blind._view.edits)


def test_a_new_document_reads_no_key(monkeypatch):
    index = PersistentInvertedIndex()
    index.add_document(0, "alpha beta")
    index.settle()
    reads = []
    for name in ("get", "get_many", "cursor"):
        original = getattr(index.tree, name)
        monkeypatch.setattr(index.tree, name, lambda *args, _o=original, _n=name, **kwargs:
                            reads.append((_n, args, kwargs)) or _o(*args, **kwargs))
    monkeypatch.setattr(index._view, "fold_many", lambda keys: reads.append(keys))
    index.add_document(1, "alpha gamma gamma")
    # Only the document's own records: its D probe, nothing under T.
    assert reads and not any("T\\x00" in str(read) for read in reads), reads
    assert index._view.rows and index._view.added


def pending_engine():
    """Documents added out of oid order, into settled blocks and new ones,
    some removed and some replaced: pending inserts of every fold shape."""
    index = PersistentInvertedIndex()
    for doc_id in range(0, 3 * BLOCK_SPAN, 4):
        index.add_document(doc_id, f"common {'rare ' * (doc_id % 5 + 1)}w{doc_id % 3}")
    index.settle()
    for doc_id in list(range(2, 3 * BLOCK_SPAN, 4))[::-1]:  # descending: mid-block inserts
        index.add_document(doc_id, f"common {'rare ' * (doc_id % 7 + 1)}w{doc_id % 4}")
    for doc_id in range(1, 3 * BLOCK_SPAN, 8):  # below settled and pending rows
        index.add_document(doc_id, f"w{doc_id % 5} {'common ' * (doc_id % 3 + 1)}")
    index.remove_document(6)  # a pending document: its keys fold, then edit
    index.add_document(10, "common w9 w9 w9")  # a pending document replaced
    index.add_document(8, "rare w2")  # a settled document replaced
    return index


QUERIES = ("common", "rare", "common rare w1", "w0 w3", "w9", "w2 rare")


def test_ranks_and_bounds_hold_with_pending_inserts_in_the_view():
    index = pending_engine()
    assert index._view.rows and index._view.added, "the view must hold pending inserts"
    for query in QUERIES:
        assert index.rank(query, limit=None) == index.rank_exhaustive(query)
        assert index.rank(query, limit=3) == index.rank_exhaustive(query, limit=3)
    assert index.bound_violations() == []
    before = {query: (index.search(query), index.rank(query, limit=None)) for query in QUERIES}
    index.settle()
    assert {query: (index.search(query), index.rank(query, limit=None))
            for query in QUERIES} == before
    assert index.bound_violations() == []


def test_a_reader_never_writes_the_view():
    index = pending_engine()
    view = index._view

    def state():
        return [dict(table) for table in (view.edits, view.rows, view.tops, view.added,
                                          view.max_tfs, view.min_lens)] + [len(view)]

    shape = state()
    for query in QUERIES:
        index.search(query)
        index.search_any(query)
        index.search_phrase(query)
        index.rank(query, limit=2)
        index.rank_exhaustive(query)
        index.document_frequency(query)
    index.vocabulary()
    index.bound_violations()
    assert state() == shape


def test_append_and_remove_terms_keep_the_stored_stems_positions_and_tfs():
    index = PersistentInvertedIndex()
    index.add_document(1, "the glasses near bosses near")
    index.append_terms(1, "extra glasses")
    assert index.terms_for(1) == ["glass", "near", "boss", "extra"]
    assert index.search("glasses") == [1] and index.search("bosses") == [1]
    assert index._read_doc(1)[:2] == (6, {"glass": (1, 6), "near": (2, 4), "boss": (3,),
                                          "extra": (5,)})
    assert index._stored_tfs(1, ["glass", "near", "boss", "extra"]) == {
        "glass": 2, "near": 2, "boss": 1, "extra": 1}
    assert index.search_phrase("near bosses near extra") == [1]
    assert index.remove_terms(1, "near") is True
    assert index.remove_terms(1, "missing") is False
    assert index._read_doc(1)[:2] == (4, {"glass": (1, 6), "boss": (3,), "extra": (5,)})
    assert index.search("glasses") == [1] and index.search("near") == []
    index.settle()
    assert index._stored_tfs(1, ["glass", "boss", "extra"]) == {"glass": 2, "boss": 1, "extra": 1}
    assert index.rank("glasses extra", limit=None) == index.rank_exhaustive("glasses extra")
    assert index.bound_violations() == []
    assert index.remove_terms(1, "glasses bosses extra") is True
    assert 1 not in index and index.document_count == 0


def test_a_rederive_with_pending_inserts_outstanding_answers_as_before_the_crash():
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    fs = HFADFileSystem(device=device, journal_blocks=127, cache_pages=64)
    words = [f"w{i:02d}" for i in range(40)]
    oids = [fs.create(" ".join(words[n % 40:n % 40 + 5] * (1 + n % 3)).encode())
            for n in range(40)]
    fs.checkpoint()  # these rows reach the tree
    oids += [fs.create(" ".join(words[n % 37:n % 37 + 6]).encode()) for n in range(50)]
    for n, oid in enumerate(oids[::6]):
        fs.append(oid, f" w{n % 40:02d} extra".encode())  # settled and pending replaced
    fs.delete(oids[3])
    fs.delete(oids[60])
    oids += [fs.create(f"late{n} w{n:02d}".encode()) for n in range(5)]  # new terms
    view = fs.fulltext_index.index._view
    assert view.rows and view.added, "the crash must find pending inserts"
    queries = ["w01", "w05 w06", "extra", "w39 w00 w01", "w20", "late3 w03", "missing"]
    expected = ({query: fs.search_text(query) for query in queries},
                {query: fs.rank(query, limit=None) for query in queries})
    image = BlockDevice(num_blocks=device.num_blocks, block_size=device.block_size)
    image.load(device.dump())  # a crash: only the device bytes survive
    mounted = HFADFileSystem.mount(image)
    assert ({query: mounted.search_text(query) for query in queries},
            {query: mounted.rank(query, limit=None) for query in queries}) == expected
    engine = mounted.fulltext_index.index
    for query in queries:
        assert engine.rank(query, limit=None) == engine.rank_exhaustive(query)
    assert engine.bound_violations() == []
    mounted.close()


def test_reads_between_a_settles_transactions_count_no_row_twice():
    # A small journal cuts the settle into several transactions; between
    # two of them the tree holds some keys' folded values, so those keys'
    # pending inserts must have moved into the edits with them.
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    fs = HFADFileSystem(device=device, journal_blocks=127, cache_pages=64)
    words = [f"w{i:02d}" for i in range(30)]
    for n in range(120):
        fs.create(" ".join(words[n % 30:n % 30 + 8] * (1 + n % 3)).encode())
    engine = fs.fulltext_index.index
    assert engine._view.rows and engine._view.added
    queries = ["w01", "w05 w06", "w29 w00", "w17"]

    def answers():
        return ([engine.search(query) for query in queries],
                [engine.rank(query, limit=None) for query in queries],
                [engine.document_frequency(query) for query in queries],
                engine.bound_violations())

    expected, seen = answers(), []
    after_commit = fs.recovery.after_commit
    fs.recovery.after_commit = lambda: seen.append(answers()) or after_commit()
    engine.settle()
    assert len(seen) > 2 and all(answer == expected for answer in seen)
    assert answers() == expected
