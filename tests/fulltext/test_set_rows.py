"""A document's posting rows are edited in one sorted pass (``_set_rows``).

``_set_rows`` reads every block and statistics key a document touches with
one ``get_many`` and appends a row past a block's last one without decoding
the block.  The property below holds it to the per-term edit it replaced,
kept here as the reference: after every call the two overlays are equal,
and after a settle the two trees' ``T`` ranges are.  The engine-level tests
check what the fast path must keep: ranks equal to the exhaustive reference,
exact block trailers, and a re-derive from the backlog that answers as the
engine did before the crash.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HFADFileSystem
from repro.fulltext import PersistentInvertedIndex, persistent_index
from repro.fulltext.persistent_index import (
    _DF_RECORD,
    _OID,
    _SEP,
    _TERM_PREFIX,
    _TERM_STATS_END,
    BLOCK_SHIFT,
    BLOCK_SPAN,
    _edit_block,
)
from repro.storage import BlockDevice

U32_MAX = (1 << 32) - 1


def reference_set_row(index, term, doc_id, tf, length=0):
    """The per-term edit ``_set_rows`` replaced: two reads and its own
    block decode for every term."""
    view, prefix = index._view, _TERM_PREFIX + term.encode() + _SEP
    key = prefix + _OID.pack(doc_id >> BLOCK_SHIFT)
    stats_key = prefix[:-1] + _TERM_STATS_END
    raw, raw_stats = view.get_many([key, stats_key])
    block, present = _edit_block(raw, doc_id, tf)
    if block != raw:
        view.put(key, block, prefix)
    df, max_tf, min_len = _DF_RECORD.unpack(raw_stats) if raw_stats else (0, 0, 0)
    df += (tf > 0) - present
    if tf:
        max_tf = max(max_tf, tf)
        min_len = length if min_len == 0 else min(min_len, length)
    stats = _DF_RECORD.pack(df, max_tf, min_len) if df else None
    if stats != raw_stats:
        view.put(stats_key, stats)


def overlay(index):
    view = index._view
    return dict(view.edits), {prefix: sorted(keys) for prefix, keys in view._blocks.items()}


def term_range(index):
    return list(index.tree.cursor(prefix=_TERM_PREFIX))


#: analyzer-shaped terms, some prefixes of others ("a" < "a0" < "a_b" < "ab").
TERMS = st.sampled_from(["a", "a0", "a_b", "ab", "abc", "b", "zz", "x" * 64])
TFS = st.one_of(st.just(0), st.integers(1, 5), st.sampled_from([0xFFFF, 0x10000, U32_MAX]),
                st.integers(1, U32_MAX))
LENGTHS = st.integers(1, U32_MAX - 1)
#: blocks 0 and 1, and one whose base is past 2 ** 32.
BLOCKS = st.sampled_from([0, 1, ((1 << 32) >> BLOCK_SHIFT) + 1])
DOCS = st.builds(lambda block, slot: (block << BLOCK_SHIFT) + slot, BLOCKS,
                 st.integers(0, BLOCK_SPAN - 1))
#: one call: a document, its rows (tf 0 drops a row) and its length.
CALLS = st.tuples(DOCS, st.dictionaries(TERMS, TFS, max_size=6), LENGTHS)
#: a whole block's slots in one direction, every call with the same rows.
FILLS = st.builds(
    lambda block, ascending, rows, length: [
        ((block << BLOCK_SHIFT) + slot, rows, length)
        for slot in (range(BLOCK_SPAN) if ascending else reversed(range(BLOCK_SPAN)))],
    BLOCKS, st.booleans(), st.dictionaries(TERMS, TFS, min_size=1, max_size=3), LENGTHS)
STEPS = st.lists(st.one_of(CALLS.map(lambda call: [call]), FILLS, st.just("settle")),
                 min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(steps=STEPS)
def test_set_rows_leaves_the_overlay_the_per_term_edit_left(steps):
    batched, reference = PersistentInvertedIndex(), PersistentInvertedIndex()
    for step in steps:
        if step == "settle":
            batched.settle()
            reference.settle()
            assert term_range(batched) == term_range(reference)
            continue
        for doc_id, rows, length in step:
            batched._set_rows(doc_id, rows.items(), length)
            for term, tf in rows.items():
                reference_set_row(reference, term, doc_id, tf, length)
            assert overlay(batched) == overlay(reference)
    batched.settle()
    reference.settle()
    assert term_range(batched) == term_range(reference)


def test_rows_appended_in_oid_order_skip_the_block_decode(monkeypatch):
    index = PersistentInvertedIndex()
    decoded = []
    monkeypatch.setattr(persistent_index, "_edit_block",
                        lambda raw, *args: decoded.append(raw) or _edit_block(raw, *args))
    for doc_id in range(3 * BLOCK_SPAN):
        index.add_document(doc_id, "alpha beta " + "gamma " * (doc_id % 5 + 1))
    # Every row lands past its block's last one (or starts the block).
    assert decoded == []
    for query in ("alpha", "gamma", "alpha gamma beta", "missing gamma"):
        assert index.rank(query, limit=None) == index.rank_exhaustive(query)
        assert index.rank(query, limit=5) == index.rank_exhaustive(query, limit=5)
    assert index.bound_violations() == []


def test_fast_path_appends_keep_ranks_and_bounds_through_removes_and_settles():
    index = PersistentInvertedIndex()
    for doc_id in range(0, 2 * BLOCK_SPAN, 3):
        index.add_document(doc_id, f"common {'rare ' * (doc_id % 7 + 1)}w{doc_id % 4}")
    index.settle()  # later appends read their blocks from the tree
    for doc_id in range(1, 2 * BLOCK_SPAN, 3):
        index.add_document(doc_id, f"common {'rare ' * (doc_id % 11 + 1)}")
    # The block's largest tf goes: the trailer must fall with it.
    index.remove_document(max(range(1, 2 * BLOCK_SPAN, 3), key=lambda d: d % 11))
    index.add_document(BLOCK_SPAN - 2, "common rare")  # below the block's last row
    for query in ("common", "rare", "common rare w1", "w0 w3"):
        assert index.rank(query, limit=None) == index.rank_exhaustive(query)
        assert index.rank(query, limit=3) == index.rank_exhaustive(query, limit=3)
    assert index.bound_violations() == []


def test_a_rederive_from_the_backlog_answers_as_before_the_crash():
    device = BlockDevice(num_blocks=1 << 14, block_size=512)
    fs = HFADFileSystem(device=device, journal_blocks=127, cache_pages=64)
    words = [f"w{i:02d}" for i in range(40)]
    oids = [fs.create(" ".join(words[n % 40:n % 40 + 6] * (1 + n % 3)).encode())
            for n in range(90)]
    fs.checkpoint()  # the first documents' rows reach the tree
    for n, oid in enumerate(oids[::4]):
        fs.append(oid, f" w{n % 40:02d} extra".encode())
    fs.delete(oids[7])
    oids.append(fs.create(b"w01 w02 extra extra"))
    assert fs.fulltext_index.index.backlog[0] > 0, "the crash must find a backlog"
    queries = ["w01", "w05 w06", "extra", "w39 w00 w01", "missing"]
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
