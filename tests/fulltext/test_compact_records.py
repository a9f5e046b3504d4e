"""The full-text tree's compact records round-trip, at the edges of every width.

A ``T`` row is ``slot(1) · tf(4)``: the block key carries the rest of the
oid, so a decode rebuilds oids from the block's base — slots 0 and 63,
bases past 2 ** 32.  A term's statistics are ``df(8) · max_tf(4) ·
min_len(4)``.  A term's ``D`` positions (hence ``R``) are u16 unless one
passes 0xFFFF, flagged in its position count: stop words advance positions
without counting toward the length, so a short document can hold a position
past 2 ** 16.  A document's ``P`` tfs are u16 below 2 ** 16 tokens and u32
from there, read off the ``D`` header's length — so documents of 65,535,
65,536 and 65,537 tokens sit on either side of that switch.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fulltext import PersistentInvertedIndex
from repro.fulltext.persistent_index import (
    _DF_RECORD,
    BLOCK_SHIFT,
    BLOCK_SPAN,
    MAX_STORED_POSITIONS,
    _chunked,
    _decode_block,
    _decode_tfs,
    _edit_block,
    _encode_doc,
    _encode_tfs,
    _parse_doc,
)

U32_MAX = (1 << 32) - 1
#: block numbers whose base oid is small, just below and past 2 ** 32, huge.
BLOCKS = st.one_of(
    st.integers(0, 4),
    st.integers(((1 << 32) >> BLOCK_SHIFT) - 2, ((1 << 32) >> BLOCK_SHIFT) + 2),
    st.integers(0, ((1 << 64) >> BLOCK_SHIFT) - 1),
)
SLOTS = st.one_of(st.sampled_from([0, BLOCK_SPAN - 1]), st.integers(0, BLOCK_SPAN - 1))
TFS = st.one_of(st.sampled_from([1, 0xFFFF, 0x10000, U32_MAX]), st.integers(1, U32_MAX))
#: document lengths around the u16 / u32 switch, and the extremes.
LENGTHS = st.one_of(st.sampled_from([1, 0xFFFF, 0x10000, 0x10001, U32_MAX - 1]),
                    st.integers(1, U32_MAX - 1))
#: a term's last position: around the u16 / u32 switch, and the extremes.
LAST_POSITIONS = st.one_of(
    st.sampled_from([0, 0xFFFF, 0x10000, 0xFFFF + MAX_STORED_POSITIONS, U32_MAX]),
    st.integers(0, U32_MAX))


@settings(max_examples=200, deadline=None)
@given(block=BLOCKS, rows=st.dictionaries(SLOTS, TFS, max_size=BLOCK_SPAN),
       drops=st.lists(SLOTS, max_size=8), order=st.randoms(use_true_random=False))
def test_a_block_round_trips_its_rows_on_its_base(block, rows, drops, order):
    base = block << BLOCK_SHIFT
    edits = [(slot, tf) for slot, tf in rows.items()] + [(slot, 0) for slot in drops]
    order.shuffle(edits)
    raw, expected = None, {}
    for slot, tf in edits:
        raw, present = _edit_block(raw, base + slot, tf)
        assert present == (slot in expected)
        if tf:
            expected[slot] = tf
        else:
            expected.pop(slot, None)
    if not expected:
        assert raw is None
        return
    oids, tfs = _decode_block(raw, base)
    assert oids == tuple(base + slot for slot in sorted(expected))
    assert tfs == tuple(expected[slot] for slot in sorted(expected))
    assert len(raw) == 5 * len(expected) + 4
    assert int.from_bytes(raw[-4:], "big") == max(expected.values())  # the trailer


@settings(max_examples=200, deadline=None)
@given(df=st.integers(1, (1 << 64) - 1), max_tf=TFS, min_len=LENGTHS)
def test_term_statistics_round_trip(df, max_tf, min_len):
    raw = _DF_RECORD.pack(df, max_tf, min_len)
    assert len(raw) == 16
    assert _DF_RECORD.unpack(raw) == (df, max_tf, min_len)


@st.composite
def documents(draw):
    """``(length, {term: positions}, tfs)`` of a document of ``length``
    tokens.  Positions are not bounded by the length: the stop words before
    them advance them but are not counted."""
    length = draw(LENGTHS)
    terms = draw(st.lists(st.text("abcdefghij_0123456789", min_size=2, max_size=12),
                          min_size=0, max_size=6, unique=True))
    occurrences = {}
    for term in terms:
        count = draw(st.integers(1, min(length, 3 * MAX_STORED_POSITIONS)))
        last = max(draw(LAST_POSITIONS), count - 1)
        occurrences[term] = [last - count + 1 + n for n in range(count)]
    tfs = [draw(st.integers(1, length)) for _ in terms]
    return length, occurrences, tfs


@settings(max_examples=300, deadline=None)
@given(documents())
def test_a_documents_own_records_round_trip_in_their_widths(document):
    length, occurrences, tfs = document
    payload = _encode_doc(length, occurrences)
    stored = {term: tuple(positions[:MAX_STORED_POSITIONS])
              for term, positions in occurrences.items()}
    # Each term's stored positions are u16 unless the last one needs u32.
    assert len(payload) == 4 + sum(2 + len(term) + 1 + (4 if kept[-1] > 0xFFFF else 2) * len(kept)
                                   for term, kept in stored.items())
    # ``D`` chunks, and ``R`` — the same chunks, verbatim — parse alike.
    assert _parse_doc(_chunked(payload)) == (length, stored)
    pending = _encode_tfs(length, tfs)
    assert len(pending) == (2 if length < 1 << 16 else 4) * len(tfs)
    assert _decode_tfs(length, b"".join(_chunked(pending))) == tuple(tfs)


@st.composite
def corpora(draw):
    """Documents keyed by oids on slots 0 and 63 of blocks below and past 2 ** 32."""
    blocks = draw(st.lists(BLOCKS, min_size=1, max_size=4, unique=True))
    oids = draw(st.lists(st.builds(lambda block, slot: (block << BLOCK_SHIFT) + slot,
                                   st.sampled_from(blocks), SLOTS),
                         min_size=1, max_size=12, unique=True))
    words = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "echo"]),
                     min_size=1, max_size=9)
    return {oid: " ".join(draw(words)) for oid in oids}


def assert_serves(engine, corpus, where):
    analyzer = engine.analyzer
    terms = {oid: analyzer.analyze(text) for oid, text in corpus.items()}
    for word in ("alpha", "beta", "gamma", "delta", "echo"):
        assert engine.search(word) == sorted(
            oid for oid, stream in terms.items() if word in stream), where
        for query in (word, word + " alpha echo"):
            for limit in (1, 3, len(corpus), len(corpus) + 1, None):
                assert engine.rank(query, limit=limit) == engine.rank_exhaustive(
                    query, limit=limit), (where, query, limit)
    assert engine.document_ids() == sorted(corpus), where
    assert engine.bound_violations() == [], where


@settings(max_examples=40, deadline=None)
@given(corpus=corpora(), settle=st.booleans(), removed=st.integers(0, 3))
def test_oids_past_two_to_the_32_serve_across_a_remount(corpus, settle, removed):
    engine = PersistentInvertedIndex()
    for oid, text in corpus.items():
        engine.add_document(oid, text)
    if settle:
        engine.settle()  # a later removal then writes an ``R`` record
    for oid in sorted(corpus)[:removed]:
        engine.remove_document(oid)
        del corpus[oid]
    assert_serves(engine, corpus, "live")
    # What a crash leaves: the tree alone, the overlay re-derived from P / R.
    mounted = PersistentInvertedIndex(engine.tree)
    assert_serves(mounted, corpus, "remounted")
    mounted.settle()
    assert_serves(PersistentInvertedIndex(mounted.tree), corpus, "settled")


def test_documents_on_either_side_of_the_u16_switch():
    # 65,535 tokens: u16.  65,536 tokens of one term: its tf is 65,536, one
    # past u16 — so that length is the first u32 one.  65,537: u32.
    rng = random.Random(7)
    words = ["alpha", "beta", "gamma"]
    texts = {
        (1 << 32) + 0: " ".join(rng.choice(words) for _ in range(0xFFFF)),
        (1 << 32) + BLOCK_SPAN - 1: " ".join(["echo"] * 0x10000),
        (1 << 32) + BLOCK_SPAN: " ".join(rng.choice(words) for _ in range(0x10001)),
        5: "alpha echo",
    }
    engine = PersistentInvertedIndex()
    for oid, text in texts.items():
        engine.add_document(oid, text)
    lengths = {oid: engine._read_doc(oid)[0] for oid in texts}
    assert lengths == {oid: len(text.split()) for oid, text in texts.items()}
    echo = engine._read_doc((1 << 32) + BLOCK_SPAN - 1)[1]["echo"]
    assert echo == tuple(range(MAX_STORED_POSITIONS))

    def check(index, where):
        assert index.search("echo") == [5, (1 << 32) + BLOCK_SPAN - 1], where
        assert index.search_phrase("echo echo") == [(1 << 32) + BLOCK_SPAN - 1], where
        for query in ("echo", "alpha", "beta gamma", "alpha echo"):
            assert index.rank(query, limit=2) == index.rank_exhaustive(query, limit=2), where
        assert index.bound_violations() == [], where

    check(engine, "live")
    crashed = PersistentInvertedIndex(engine.tree)  # P records re-derive the tfs
    check(crashed, "from P")
    crashed.settle()
    block = ((1 << 32) >> BLOCK_SHIFT).to_bytes(8, "big")
    raw = crashed.tree.get(crashed._posting_prefix("echo") + block)
    assert _decode_block(raw, 1 << 32) == (((1 << 32) + BLOCK_SPAN - 1,), (0x10000,))
    for oid in texts:
        if oid != 5:
            crashed.remove_document(oid)  # settled: each writes an R record
    after = PersistentInvertedIndex(crashed.tree)  # R records re-derive the drops
    assert after.search("echo") == [5] and after.search("gamma") == []
    assert after.rank("echo alpha") == after.rank_exhaustive("echo alpha", limit=10)
    assert after.bound_violations() == []
    after.settle()
    assert [key for key, _value in after.tree.cursor(prefix=b"R\x00")] == []
    assert after.document_ids() == [5]


def test_positions_past_the_length_are_stored_wide():
    # Stop words and one-letter tokens advance positions but not the length:
    # after 70,000 "the" an "echo" is a one-token document at position
    # 70,000; "of a" runs push the second document's tail past 2 ** 16.
    near, far = (1 << 32) + 3, (1 << 32) + BLOCK_SPAN + 4
    texts = {
        near: "the " * 70000 + "echo",
        far: "alpha " + "of a " * 40000 + "echo alpha echo",
        7: "echo alpha",
    }
    engine = PersistentInvertedIndex()
    for oid, text in texts.items():
        engine.add_document(oid, text)
    assert engine._read_doc(near)[:2] == (1, {"echo": (70000,)})
    assert engine._read_doc(far)[:2] == (
        4, {"alpha": (0, 80002), "echo": (80001, 80003)})

    def check(index, where, served):
        assert index.search("echo") == sorted(served), where
        assert index.search_phrase("alpha echo") == [oid for oid in [far] if oid in served], where
        assert index.search_phrase("echo alpha") == sorted({7, far} & set(served)), where
        for query in ("echo", "alpha", "alpha echo"):
            assert index.rank(query, limit=3) == index.rank_exhaustive(query, limit=3), where
        assert index.bound_violations() == [], where

    check(engine, "live", texts)
    crashed = PersistentInvertedIndex(engine.tree)  # P records re-derive the rows
    check(crashed, "from P", texts)
    crashed.settle()
    check(PersistentInvertedIndex(crashed.tree), "settled", texts)
    crashed.remove_document(far)  # settled: writes an R record of wide positions
    after = PersistentInvertedIndex(crashed.tree)  # R records re-derive the drops
    check(after, "from R", [near, 7])
    after.settle()
    assert [key for key, _value in after.tree.cursor(prefix=b"R\x00")] == []
    assert after.document_ids() == [7, near]
