"""The inverted index: term → postings in one B+-tree, with BM25 ranking.

This is the FULLTEXT index store's engine.  Documents are identified by an
integer id (hFAD object ids); their text is analyzed and each resulting term
gets a posting.  Queries support conjunctive search (``search`` /
``search_all`` — the semantics the paper specifies for a vector of FULLTEXT
tag/value pairs, "the conjunction of the results of an index lookup for each
element"), disjunctive search (``search_any``), phrase search
(``search_phrase``) over stored positions, and BM25-ranked retrieval
(``rank``).  Work counters (postings scanned, terms looked up) feed
experiment E1's comparison with desktop search over a hierarchical FS.

All state lives in one B+-tree; whether the index is volatile is a property
of that tree's page store.  By default the tree sits on an
:class:`~repro.btree.pages.InMemoryPageStore`.  When it is device-backed
(the :class:`~repro.btree.pages.DevicePageStore` the OSD hands out for index
trees), every page write flows through the shared buffer pool and is
WAL-logged by the recovery manager — so the full-text namespace gets the
same crash-atomicity as every other btree, and a re-mount re-attaches the
index from its persisted root instead of re-reading and re-analyzing every
object's bytes.

Key layout (one tree, seven record kinds; ``block`` is ``oid >> BLOCK_SHIFT``,
``slot`` is ``oid & (BLOCK_SPAN - 1)``; ``w`` is 2 or 4, see below)::

    D \x00 oid(8) \x00 seq(4)   -> chunk of: doc_length(4) | { term_len(2) term npos(1) position(w) * npos } ...
    L \x00 block(8)            -> (doc_length + 1)(4) * BLOCK_SPAN, by slot; 0 = not indexed
    P \x00 oid(8) \x00 seq(4)   -> chunk of: tf(w) per term, in the ``D`` record's term order
    R \x00 oid(8) \x00 seq(4)   -> the removed version's ``D`` chunks, verbatim
    S                          -> doc_count(8) | total_token_count(8)
    T \x00 term \x00 block(8)   -> { slot(1) tf(4) } * n, slots ascending | max_tf(4), exact
    T \x00 term \x01            -> document_frequency(8) | max_tf(4) | min_len(4)

* A row names its document by slot: the key's ``block`` is the rest of the
  oid, so a reader rebuilds the oids from the block's base,
  ``block << BLOCK_SHIFT``.  Rows and trailer stay fixed-width, so a block's
  row count is its length over five and a seek bisects decoded slots.
* A term's stored positions in ``D`` (and ``R``) are u16 unless the last
  exceeds 0xFFFF; then they are u32 and ``npos`` has its top bit
  (:data:`_WIDE`) set — ``npos`` is at most 64, so the flag costs no byte.
  The document's length does not bound its positions: stop words and
  one-letter tokens advance the position but are not counted.
* A document's tfs in ``P`` are u16 when its length (the ``D`` header) is
  below 2 ** 16, u32 otherwise: a tf counts tokens the length counts, so
  none exceeds it.  (Not "up to 2 ** 16": a 65,536-token document of one
  term has a tf of 65,536.)
* ``max_tf`` and ``min_len`` are u32 like the lengths ``L`` stores.

* A mutation writes through only the document's own records — ``D``, its
  ``L`` slot, ``S`` and one *backlog* record — as one sorted
  :meth:`~repro.btree.BPlusTree.apply_sorted` batch in the caller's WAL
  transaction.  Its ``T`` edits go to an in-memory overlay every reader
  sees through (:class:`_TermView`); a *settle* writes the overlay into the
  tree in key order — one page write per touched leaf per batch of
  documents, not per document — in transactions bounded by the pages they
  stage, so a leaf is logged once per settle when the journal has room.
* The overlay holds *final values* and *pending inserts*.  A document with
  no ``D`` record has no row anywhere, so adding one reads no ``T`` key: per
  block key its packed rows and their max tf, per statistics key the
  documents added, their max tf and min length, are queued as inserts known
  to be absent.  Readers (under the shared engine lock, beside each other) fold
  them into what they return and never write the overlay; only an exclusive
  holder folds them into final values — a writer that reads the key (a
  remove, a replace, the mount's re-derivation) or the settle, in the
  transaction that writes the key.  Replacing a present document is one
  pass: its records in one batch, one presence-aware edit of its old and
  new terms' rows.
* The backlog makes the overlay durable.  ``P``: this document's postings
  are not in the tree yet (``D`` keeps only the first
  :data:`MAX_STORED_POSITIONS` positions, hence the frequencies).  ``R``:
  rows of this document for these terms are still in the tree — written
  when a settled document is removed; removing a pending one just deletes
  its ``P`` and ``D``.  A mount re-derives the overlay from the ``R`` range,
  then the ``P`` range, and settles it; a settle retires the records, so a
  cleanly closed image holds neither.
* In a ``T`` block rows are interleaved (an append is one insertion at the
  block's tail, not one per column) and a term's statistics sort directly
  *after* its last block (analyzer tokens are ``[a-z0-9_]``): the journal
  logs a page as a single splice, so an edit's bytes stay together.
* ``T`` blocks stream a term's postings in ascending oid order — the cursor
  protocol's contract.  A seek bisects inside the current block or
  re-descends to the target's block; the trailer is the ranked block bound,
  readable without decoding a row.  The statistics' ``max_tf`` / ``min_len``
  are the term-wide bound inputs: adds tighten them, removes leave them (a
  stale bound costs pruning, never correctness).
* ``L`` holds what BM25 needs per scored document, one record per block, so
  lengths stay out of the posting rows (and out of the WAL).  It doubles as
  the list of indexed documents — hence ``+ 1``: an empty document counts.
* ``D`` is the document's own record, in first-occurrence term order: the
  terms to scrub on remove, the positions phrase search reads for its
  candidates.  Chunked, so one entry can never outgrow a page.
* The ``D`` run is the tree's one declared append range
  (:data:`APPEND_RANGES`): documents are created in oid order and their
  records written once, so a leaf overflowing at the run's end splits full.
  ``T`` runs are not: a settle appends to every open block of a term, and
  leaves split full there would split again on the next settle.

Positions are capped at :data:`MAX_STORED_POSITIONS` per posting: term
frequency stays exact (BM25 is unaffected) but phrase queries only consult
the stored prefix of a pathologically long document's occurrence list.

Mutations bracket themselves in a recovery-manager transaction, so an
``add_document`` inside an enclosing filesystem operation *joins* that
operation's WAL transaction (create = allocate + write + name + index is one
journal frame): the document's records and the master-tree write they
belong to commit together or not at all.  A settle is several transactions
of its own, with every other writer held at the manager's checkpoint gate.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.btree import BPlusTree
from repro.fulltext.analyzer import Analyzer
from repro.query.cursors import DocIdCursor, EmptyCursor, IntersectCursor, ScanCounter, UnionCursor
from repro.query.scored import (
    RankStats,
    ScoredCursor,
    WandCursor,
    bm25_idf,
    bm25_scorer,
    bm25_upper_bound,
)
from repro.recovery.manager import CHECKPOINT_THRESHOLD
from repro.storage.journal import RECORD_OVERHEAD, TXN_OVERHEAD

_OID = struct.Struct(">Q")
_SEP = b"\x00"
_STATS_KEY = b"S"
_DOC_PREFIX = b"D\x00"
#: the tree's :class:`~repro.btree.BPlusTree` ``append_ranges``: the ``D`` run.
APPEND_RANGES = ((_DOC_PREFIX, b"D\x01"),)
_LENGTH_PREFIX = b"L\x00"
_PENDING_PREFIX = b"P\x00"
_REMOVED_PREFIX = b"R\x00"
_TERM_PREFIX = b"T\x00"
#: ends a term's statistics key: sorts after every ``term \x00 block`` key of
#: the term and before any longer term's keys (no token byte is below 0x02).
_TERM_STATS_END = b"\x01"
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_STATS = struct.Struct(">QQ")
#: a ``T`` row: the oid's slot in its block, and the term's frequency there.
_ROW = struct.Struct(">BI")
#: a block's last row's slot byte, counted from the block's end.
_LAST_SLOT = _ROW.size + _U32.size
#: a term's statistics: df + the ranking bound inputs (max tf, min document length).
_DF_RECORD = struct.Struct(">QII")

#: positions stored per posting; term frequency stays exact beyond the cap.
MAX_STORED_POSITIONS = 64
#: set in a ``D`` term's position count: its positions are u32, not u16.
_WIDE = 0x80
assert MAX_STORED_POSITIONS < _WIDE
#: bytes per ``D`` chunk — small enough that a chunk entry always fits even
#: the smallest configured btree page.
DOC_CHUNK_BYTES = 768
#: block id is ``oid >> BLOCK_SHIFT``: a ``T`` block holds at most BLOCK_SPAN
#: rows, an ``L`` record that many lengths.  Re-measured on 5-byte rows
#: (perfbench ``ingest``, seed 1, WAL / stored bytes per user byte): 6 reads
#: 10.41 / 7.89, 7 reads 10.35 / 7.97 and 8 reads 8.84 / 7.82 — but 8 makes
#: every block-max bound four times coarser, a trade for ranked queries'
#: pruning (E13) to measure first.
BLOCK_SHIFT = 6
BLOCK_SPAN = 1 << BLOCK_SHIFT
assert BLOCK_SPAN <= 0x100, "a row's slot is one byte"
_LENGTHS = struct.Struct(f">{BLOCK_SPAN}I")
_NO_LENGTHS = bytes(_LENGTHS.size)
#: ``L`` records the ranking walk steps over before it seeks instead.
_LENGTH_STEPS = 8
#: edited ``T`` keys at which a commit settles the overlay: ~100 perfbench
#: documents, ~250 KB of values.  Measured on ``ingest``, not a parameter:
#: half logs 10 % more WAL, at twice only the harness's checkpoints settle.
SETTLE_KEYS = 4096
#: pages one settle key may newly stage: its leaf's first touch, and a
#: split's new sibling and parent.
_PAGES_PER_KEY = 3
#: a scored cursor's ``seek`` at most this many block ids ahead steps the
#: tree cursor instead of re-descending from the root: on E13's corpus a
#: step to the next block cost 0.5-0.8 us and a re-descent 5.5 us.
_STEP_BLOCKS = 8


@dataclass(frozen=True)
class SearchHit:
    """A ranked search result."""

    doc_id: int
    score: float


def _encode_term(term: str) -> bytes:
    # Analyzer tokens are lower-cased ``[a-z0-9_]`` runs, so neither the NUL
    # separator nor the 0x01 statistics marker can appear inside one.
    return term.encode("utf-8")


@lru_cache(maxsize=None)
def _rows(count: int) -> struct.Struct:
    """Codec for the ``count`` interleaved ``(slot, tf)`` rows of one block."""
    return struct.Struct(">" + "BI" * count)


def _block_base(key: bytes) -> int:
    """The first oid a ``T`` block key's rows can name."""
    return _OID.unpack_from(key, len(key) - _OID.size)[0] << BLOCK_SHIFT


def _flat_rows(raw: bytes) -> Tuple[int, ...]:
    """A block's rows as ``slot, tf, slot, tf, ...`` (the trailer is skipped:
    ``len(raw) // 5`` rows, as the 4-byte trailer is shorter than one)."""
    return _rows(len(raw) // _ROW.size).unpack_from(raw)


def _block_rows(raw: bytes) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A block's ``(slots, tfs)``."""
    flat = _flat_rows(raw)
    return flat[0::2], flat[1::2]


def _decode_block(raw: bytes, base: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """A block's ``(oids, tfs)``: its slots rebuilt on ``base``, the first
    oid its key names (:func:`_block_base`)."""
    slots, tfs = _block_rows(raw)
    return tuple([base + slot for slot in slots]), tfs


def _edit_block(raw: Optional[bytes], oid: int, tf: int) -> Tuple[Optional[bytes], bool]:
    """The block with ``oid``'s row set to ``tf`` (0 drops it; None once
    empty), and whether the row was there before.

    The trailer is recomputed from the rows, so it is always the exact
    maximum — a block bound can only tighten.
    """
    slot = oid & (BLOCK_SPAN - 1)
    flat = _flat_rows(raw) if raw else ()
    at = 2 * bisect_left(flat[0::2], slot)
    present = at < len(flat) and flat[at] == slot
    flat = flat[:at] + ((slot, tf) if tf else ()) + flat[at + 2 * present:]
    if not flat:
        return None, present
    return _rows(len(flat) // 2).pack(*flat) + _U32.pack(max(flat[1::2])), present


def _chunked(payload: bytes) -> List[bytes]:
    """``payload`` in :data:`DOC_CHUNK_BYTES` pieces (one empty piece for none)."""
    return [payload[at:at + DOC_CHUNK_BYTES]
            for at in range(0, len(payload), DOC_CHUNK_BYTES)] or [b""]


def _encode_doc(length: int, occurrences: Dict[str, List[int]]) -> bytes:
    """A ``D`` payload: the length, then each term with its first
    :data:`MAX_STORED_POSITIONS` positions, u16 unless one needs u32."""
    parts = [_U32.pack(length)]
    for term, positions in occurrences.items():
        encoded, kept = _encode_term(term), positions[:MAX_STORED_POSITIONS]
        wide = kept[-1] > 0xFFFF  # positions ascend
        parts.append(_U16.pack(len(encoded)) + encoded)
        parts.append(struct.pack(f">B{len(kept)}{'I' if wide else 'H'}",
                                 len(kept) | (_WIDE if wide else 0), *kept))
    return b"".join(parts)


def _parse_doc(chunks: List[bytes]) -> Tuple[int, Dict[str, Tuple[int, ...]]]:
    """``(doc_length, {term: stored positions})`` of a ``D`` (or ``R``) record."""
    payload = b"".join(chunks)
    length = _U32.unpack_from(payload, 0)[0]
    positions: Dict[str, Tuple[int, ...]] = {}
    at = _U32.size
    while at < len(payload):
        end = at + _U16.size + _U16.unpack_from(payload, at)[0]
        term = payload[at + _U16.size:end].decode("utf-8")
        count, code = payload[end] & ~_WIDE, "I" if payload[end] & _WIDE else "H"
        positions[term] = struct.unpack_from(f">{count}{code}", payload, end + 1)
        at = end + 1 + struct.calcsize(code) * count
    return length, positions


def _tf_width(length: int) -> str:
    """The struct code of a ``length``-token document's ``P`` tfs: no tf
    exceeds the length, so u16 holds them all below 2 ** 16."""
    return "H" if length <= 0xFFFF else "I"


def _encode_tfs(length: int, tfs: List[int]) -> bytes:
    """A ``P`` payload: the tfs of a ``length``-token document, term by term."""
    return struct.pack(f">{len(tfs)}{_tf_width(length)}", *tfs)


def _decode_tfs(length: int, payload: bytes) -> Tuple[int, ...]:
    """The tfs of a ``length``-token document's ``P`` payload."""
    width = _tf_width(length)
    return struct.unpack(f">{len(payload) // struct.calcsize(width)}{width}", payload)


def _settle_group(key: bytes) -> bytes:
    """What a settle keeps in one transaction: a term's blocks and statistics
    (re-deriving a half-written term would miscount its df), a document's
    backlog chunks (half a record does not parse)."""
    if not key.startswith(_TERM_PREFIX):
        return key[:len(_TERM_PREFIX) + _OID.size]
    separator = key.find(_SEP, len(_TERM_PREFIX))
    return key[:separator] if separator > 0 else key[:-1]


def _fold_rows(raw: Optional[bytes], rows: bytes, top: int) -> bytes:
    """Block ``raw`` (None: absent) with ``rows`` inserted — rows known absent
    from it, packed and ascending, whose largest tf is ``top``.  Past the
    block's last row they are appended undecoded; the trailer stays the
    exact maximum either way."""
    if raw is None:
        return rows + _U32.pack(top)
    trailer = _U32.unpack_from(raw, len(raw) - _U32.size)[0]
    if raw[-_LAST_SLOT] < rows[0]:
        return raw[:-_U32.size] + rows + _U32.pack(max(trailer, top))
    flat = _flat_rows(raw) + _flat_rows(rows)
    merged = sorted(zip(flat[0::2], flat[1::2]))
    return _rows(len(merged)).pack(*[value for row in merged for value in row]) + _U32.pack(
        max(trailer, top))


def _fold_stats(raw: Optional[bytes], added: int, top: int, shortest: int) -> bytes:
    """Statistics ``raw`` (None: absent) with ``added`` documents added, whose
    largest tf is ``top`` and shortest length ``shortest``: ``df`` grows by
    ``added``, the bounds tighten as one add at a time would."""
    df, max_tf, min_len = _DF_RECORD.unpack(raw) if raw else (0, 0, 0)
    return _DF_RECORD.pack(df + added, max(max_tf, top),
                           shortest if min_len == 0 else min(min_len, shortest))


def _delete(_old: Optional[bytes]) -> None:
    """An ``apply_sorted`` edit that drops its key."""
    return None


class _ViewCursor:
    """A tree prefix cursor merged with the overlay's keys of that prefix
    (``keys``, sorted): the overlay's value of such a key — its edit or the
    tree's pair, with its pending inserts folded in — replaces the tree's
    pair, or, when None, hides it.  Speaks what the posting readers use of
    the btree cursor protocol: ``next_item``, ``seek`` and (fresh-pass)
    iteration.
    """

    def __init__(self, cursor, view: "_TermView", keys: List[bytes]) -> None:
        self._cursor, self._view, self._keys = cursor, view, keys
        self._position: Optional[Iterator[Tuple[bytes, bytes]]] = None

    def _merge_from(self, key: bytes) -> Iterator[Tuple[bytes, bytes]]:
        keys, at = self._keys, bisect_left(self._keys, key)
        edits, folded = self._view.edits, self._view.folded
        item = self._cursor.seek(key)  # clamped to the prefix by the tree cursor
        while at < len(keys) or item is not None:
            if at < len(keys) and (item is None or keys[at] <= item[0]):
                key, raw = keys[at], None
                if item is not None and item[0] == key:
                    raw, item = item[1], self._cursor.next_item()
                value = folded(key, edits[key] if key in edits else raw)
                if value is not None:
                    yield key, value
                at += 1
            else:
                yield item
                item = self._cursor.next_item()

    def next_item(self) -> Optional[Tuple[bytes, bytes]]:
        if self._position is None:
            self._position = self._merge_from(b"")
        return next(self._position, None)

    def seek(self, key: bytes) -> Optional[Tuple[bytes, bytes]]:
        self._position = self._merge_from(key)
        return next(self._position, None)

    def __iter__(self) -> Iterator[Tuple[bytes, bytes]]:
        return self._merge_from(b"")


class _TermView:
    """The ``T`` records as every reader must see them: the overlay over the tree.

    ``edits`` maps a block or statistics key to its *final* value (None =
    deleted) — what writing the mutation through would have left in the
    tree, so answers, scores and scan counts do not depend on what has
    settled.  The other maps hold *pending inserts*: rows known absent from
    a key's value (its edit, else the tree's), queued by :meth:`insert`
    without reading the key.  A key's value is its edit or the tree's with
    its pending inserts folded in.  They are bytes and ints in flat maps,
    not a container per key, so they add nothing for the garbage collector
    to trace.

    Readers fold into what they return and never write the view (they run
    beside each other under the shared engine lock); only an exclusive
    holder moves pending inserts into ``edits`` — :meth:`fold_many` for a
    writer that reads keys, :meth:`settle_value` for the settle.  With an
    empty overlay a read costs one ``if`` more than the tree's.
    """

    def __init__(self, tree: BPlusTree) -> None:
        self.tree = tree
        self.edits: Dict[bytes, Optional[bytes]] = {}
        #: block key -> its pending rows, packed and ascending, and their max tf.
        self.rows: Dict[bytes, bytes] = {}
        self.tops: Dict[bytes, int] = {}
        #: statistics key -> the documents its pending rows add, their max
        #: tf and their min length.
        self.added: Dict[bytes, int] = {}
        self.max_tfs: Dict[bytes, int] = {}
        self.min_lens: Dict[bytes, int] = {}
        #: posting prefix -> its overlay block keys: all a term's cursor merges.
        self._blocks: Dict[bytes, List[bytes]] = {}
        #: distinct keys in the overlay (edited, pending or both).
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def folded(self, key: bytes, value: Optional[bytes]) -> Optional[bytes]:
        """``value``, ``key``'s edit or tree value, with its pending inserts."""
        rows = self.rows.get(key)
        if rows is not None:
            return _fold_rows(value, rows, self.tops[key])
        added = self.added.get(key)
        if added is None:
            return value
        return _fold_stats(value, added, self.max_tfs[key], self.min_lens[key])

    def _take(self, key: bytes, value: Optional[bytes]) -> Optional[bytes]:
        """:meth:`folded`, dropping ``key``'s pending inserts."""
        rows = self.rows.pop(key, None)
        if rows is not None:
            return _fold_rows(value, rows, self.tops.pop(key))
        added = self.added.pop(key, None)
        if added is None:
            return value
        return _fold_stats(value, added, self.max_tfs.pop(key), self.min_lens.pop(key))

    def get(self, key: bytes) -> Optional[bytes]:
        value = self.edits[key] if key in self.edits else self.tree.get(key)
        return self.folded(key, value) if self.rows or self.added else value

    def get_many(self, keys: List[bytes]) -> List[Optional[bytes]]:
        """``get`` of each of ``keys`` (increasing): those the edits miss in
        one :meth:`BPlusTree.get_many`."""
        edits = self.edits
        try:
            values = [edits[key] for key in keys]  # all edited: no tree read
        except KeyError:
            found = iter(self.tree.get_many([key for key in keys if key not in edits]))
            values = [edits[key] if key in edits else next(found) for key in keys]
        if self.rows or self.added:
            return [self.folded(key, value) for key, value in zip(keys, values)]
        return values

    def fold_many(self, keys: List[bytes]) -> List[Optional[bytes]]:
        """:meth:`get_many` for an exclusive holder about to edit ``keys``:
        their pending inserts move into ``edits`` first."""
        rows, added, edits = self.rows, self.added, self.edits
        if rows or added:
            pending = [key for key in keys if key in rows or key in added]
            if pending:
                found = iter(self.tree.get_many([key for key in pending if key not in edits]))
                for key in pending:
                    edits[key] = self._take(key, edits[key] if key in edits else next(found))
        return self.get_many(keys)

    def settle_value(self, key: bytes, old: Optional[bytes]) -> Optional[bytes]:
        """The value a settle writes for ``key`` over the tree's ``old`` (an
        ``apply_sorted`` edit).  Its pending inserts move into ``edits`` in
        the same transaction, so a reader between two of the settle's
        transactions does not fold them into the tree's new value again."""
        value = self.edits[key] if key in self.edits else old
        if key in self.rows or key in self.added:
            value = self.edits[key] = self._take(key, value)
        return value

    def put(self, key: bytes, value: Optional[bytes], prefix: Optional[bytes] = None) -> None:
        """Record ``key``'s final value (an exclusive holder that has folded
        the key); ``prefix`` files a block key under its term."""
        if key not in self.edits and key not in self.rows and key not in self.added:
            self._size += 1
            if prefix is not None:
                self._blocks.setdefault(prefix, []).append(key)
        self.edits[key] = value

    def insert(self, doc_id: int, rows: Iterable[Tuple[str, int]], length: int) -> None:
        """Queue ``doc_id``'s ``(term, tf)`` rows (tf > 0) as pending inserts,
        reading no key: the document has no row anywhere, in the tree or the
        overlay, so each row is an insert known to be absent and each term's
        ``df`` grows by one."""
        edits, pending_rows, tops = self.edits, self.rows, self.tops
        added, max_tfs, min_lens = self.added, self.max_tfs, self.min_lens
        slot = doc_id & (BLOCK_SPAN - 1)
        block_id = _SEP + _OID.pack(doc_id >> BLOCK_SHIFT)
        for term, tf in rows:
            term = _TERM_PREFIX + _encode_term(term)
            key, row = term + block_id, _ROW.pack(slot, tf)
            pending = pending_rows.get(key)
            if pending is None:
                pending_rows[key], tops[key] = row, tf
                if key not in edits:
                    self._size += 1
                    self._blocks.setdefault(term + _SEP, []).append(key)
            else:
                if slot > pending[-_ROW.size]:  # past the last pending row: appended
                    pending_rows[key] = pending + row
                else:
                    flat = _flat_rows(pending)
                    at = 2 * bisect_left(flat[0::2], slot)
                    pending_rows[key] = _rows(len(flat) // 2 + 1).pack(
                        *flat[:at], slot, tf, *flat[at:])
                if tf > tops[key]:
                    tops[key] = tf
            key = term + _TERM_STATS_END
            count = added.get(key)
            if count is None:
                added[key], max_tfs[key], min_lens[key] = 1, tf, length
                if key not in edits:
                    self._size += 1
            else:
                added[key] = count + 1
                if tf > max_tfs[key]:
                    max_tfs[key] = tf
                if length < min_lens[key]:
                    min_lens[key] = length

    def keys(self) -> List[bytes]:
        """Every key in the overlay, sorted."""
        return sorted(self.edits.keys() | self.rows.keys() | self.added.keys())

    def unsettled_bytes(self) -> int:
        """Key and value bytes a settle would write: each edit, and each
        pending insert as its rows or statistics (before folding)."""
        return (sum(len(key) + len(value or b"") for key, value in self.edits.items())
                + sum(len(key) + len(rows) + _U32.size for key, rows in self.rows.items())
                + sum(len(key) + _DF_RECORD.size for key in self.added))

    def cursor(self, prefix: bytes):
        cursor = self.tree.cursor(prefix=prefix)
        if not self._size:
            return cursor
        keys = self.keys() if prefix == _TERM_PREFIX else sorted(self._blocks.get(prefix, ()))
        return _ViewCursor(cursor, self, keys) if keys else cursor


class _BlockCursor(DocIdCursor):
    """One term's postings in oid order, decoded a block at a time.

    ``next`` steps inside the decoded block; ``seek`` bisects its slots, or
    re-descends the tree to the target's block in O(log n).  Every posting
    the cursor lands on is counted as scanned; rows merely decoded are not.
    A row's oid is the block's base plus its slot, added only for the row
    the cursor lands on.
    """

    def __init__(self, tree: _TermView, prefix: bytes, counter: ScanCounter,
                 estimate: int = 0) -> None:
        self._blocks = tree.cursor(prefix=prefix)
        self._prefix = prefix
        self._counter = counter
        self._estimate = estimate
        #: the current block: its first oid, its rows' slots, our row
        self._base, self._slots, self._at = 0, (), -1
        self._doc: Optional[int] = -1  # nothing returned yet; None = exhausted

    def _settle(self, at: int) -> int:
        self._at = at
        self._doc = self._base + self._slots[at]
        self._counter.scanned += 1
        return self._doc

    def _land(self, item, target: int = 0) -> Optional[int]:
        """Settle on the first posting ``>= target`` in block ``item`` or after."""
        while item is not None:
            base = _block_base(item[0])
            slots = _block_rows(item[1])[0]
            at = bisect_left(slots, target - base)
            if at < len(slots):
                self._base, self._slots = base, slots
                return self._settle(at)
            item = self._blocks.next_item()
        self._doc = None
        return None

    def _advance(self, target: int) -> Optional[int]:
        """Move to the first posting ``>= target`` (``target`` > current doc)."""
        slots, slot = self._slots, target - self._base
        if not slots or slot >= BLOCK_SPAN:
            return self._land(self._blocks.seek(self._prefix + _OID.pack(target >> BLOCK_SHIFT)),
                              target)
        if slot > slots[-1]:  # past this block's rows: the tree cursor is there
            return self._land(self._blocks.next_item())
        return self._settle(bisect_left(slots, slot, self._at + 1))

    def next(self) -> Optional[int]:
        if self._doc is None:
            return None
        if self._at + 1 < len(self._slots):
            return self._settle(self._at + 1)
        return self._land(self._blocks.next_item())

    def seek(self, target: int) -> Optional[int]:
        if self._doc is None:
            return None
        self._counter.seeks += 1
        return self._advance(max(target, self._doc + 1))

    def estimate(self) -> int:
        return self._estimate


class _PostingScoredCursor(ScoredCursor):
    """One term's posting blocks for the block scorer
    (:class:`~repro.query.scored.WandCursor`).

    Stands on a block, not a row: ``next`` and ``seek`` move the tree
    cursor a block at a time and read only the key and the trailer, which
    ``block_max`` turns into a bound score (memoised per ``max_tf``).  The
    rows are decoded only for a block the driver scores, once per term.
    """

    def __init__(self, view: _TermView, prefix: bytes, counter: ScanCounter,
                 idf: float, k1: float, upper: float,
                 bound_for: Callable[[int], float]) -> None:
        self._blocks = view.cursor(prefix)
        self._prefix = prefix
        self._counter = counter
        self._idf, self._k1p1 = idf, k1 + 1
        self.upper = upper
        self._bound_for = bound_for
        self._bounds: Dict[int, float] = {}
        self._land(self._blocks.next_item())

    def _land(self, item: Optional[Tuple[bytes, bytes]]) -> Optional[int]:
        if item is None:
            self.block, self._raw = None, b""
        else:
            key, self._raw = item
            self.block = _OID.unpack_from(key, len(key) - _OID.size)[0]
        return self.block

    def next(self) -> Optional[int]:
        return self._land(self._blocks.next_item())

    def seek(self, target: int) -> Optional[int]:
        block = self.block
        if block is None or target <= block:
            return block
        self._counter.seeks += 1
        if target - block > _STEP_BLOCKS:
            return self._land(self._blocks.seek(self._prefix + _OID.pack(target)))
        while block is not None and block < target:
            block = self._land(self._blocks.next_item())
        return block

    def block_max(self) -> float:
        raw = self._raw
        max_tf = _U32.unpack_from(raw, len(raw) - _U32.size)[0]
        bound = self._bounds.get(max_tf)
        if bound is None:
            bound = self._bounds[max_tf] = self._bound_for(max_tf)
        return bound

    def slots(self) -> bytes:
        """The block's slots, ascending: every fifth byte of its rows."""
        raw = self._raw
        return raw[:len(raw) - _U32.size:_ROW.size]

    def score(self, norms: Dict[int, float],
              restrict: bool = False) -> Tuple[Sequence[int], List[float]]:
        slots, tfs = _block_rows(self._raw)
        if restrict:
            tf_at = dict(zip(slots, tfs))
            slots = [slot for slot in norms if slot in tf_at]
            tfs = [tf_at[slot] for slot in slots]
        self._counter.scanned += len(slots)  # the postings scored, as a row cursor counts
        idf, k1p1 = self._idf, self._k1p1
        return slots, [idf * (tf * k1p1) / (tf + norms[slot]) for slot, tf in zip(slots, tfs)]


class PersistentInvertedIndex:
    """An inverted index stored in a B+-tree (optionally WAL-protected).

    :param tree: the backing :class:`~repro.btree.BPlusTree` — device-backed
        (shared pool, WAL logging) when the filesystem persists its indexes;
        a fresh tree over an in-memory page store if omitted.
    :param recovery: optional recovery manager; mutations bracket themselves
        in one of its transactions (joining any enclosing one).
    :param analyzer: analysis pipeline (must match whatever indexed the
        existing tree contents).
    """

    def __init__(
        self,
        tree: Optional[BPlusTree] = None,
        recovery=None,
        analyzer: Optional[Analyzer] = None,
    ) -> None:
        self.analyzer = analyzer or Analyzer()
        self._tree = tree if tree is not None else BPlusTree()
        self._recovery = recovery
        self.term_lookups = 0
        self._scan = ScanCounter()
        #: ranked-retrieval work counters (``fs.stats()["ranked"]``).
        self.ranked = RankStats()
        #: unsettled ``T`` edits, and the ``P`` / ``R`` keys that make them
        #: durable (a document is *pending* while its first ``P`` chunk is in).
        self._view = _TermView(self._tree)
        self._backlog: Set[bytes] = set()
        self._settling = False
        self.settles = 0
        self._load_backlog()

    @property
    def tree(self) -> BPlusTree:
        """The backing tree (the facade persists/checks its root)."""
        return self._tree

    @property
    def postings_scanned(self) -> int:
        return self._scan.scanned

    @postings_scanned.setter
    def postings_scanned(self, value: int) -> None:
        self._scan.scanned = value

    @contextmanager
    def _txn(self):
        if self._recovery is None:
            yield
            self._settle_if_due()  # no commit to hook: the threshold is checked here
            return
        with self._recovery.transaction():
            yield

    # ---------------------------------------------------------------- keys

    def _doc_prefix(self, doc_id: int, kind: bytes = _DOC_PREFIX) -> bytes:
        return kind + _OID.pack(doc_id) + _SEP

    def _doc_key(self, doc_id: int, seq: int, kind: bytes = _DOC_PREFIX) -> bytes:
        return kind + _OID.pack(doc_id) + _SEP + _U32.pack(seq)

    def _length_key(self, block: int) -> bytes:
        return _LENGTH_PREFIX + _OID.pack(block)

    def _posting_prefix(self, term: str) -> bytes:
        return _TERM_PREFIX + _encode_term(term) + _SEP

    def _term_stats_key(self, term: str) -> bytes:
        return _TERM_PREFIX + _encode_term(term) + _TERM_STATS_END

    # ------------------------------------------------------------- records

    def _read_stats(self) -> Tuple[int, int]:
        raw = self._tree.get(_STATS_KEY)
        return _STATS.unpack(raw) if raw is not None else (0, 0)

    def _df_record(self, term: str) -> Tuple[int, int, int]:
        """``(document_frequency, max_tf, min_len)``; zeros for an unknown term."""
        raw = self._view.get(self._term_stats_key(term))
        return _DF_RECORD.unpack(raw) if raw is not None else (0, 0, 0)

    def _term_df(self, term: str) -> int:
        return self._df_record(term)[0]

    def _doc_chunks(self, doc_id: int) -> List[bytes]:
        return [value for _key, value in self._tree.cursor(prefix=self._doc_prefix(doc_id))]

    def _read_doc(self, doc_id: int) -> Optional[Tuple[int, Dict[str, Tuple[int, ...]], int]]:
        """``(doc_length, {term: stored positions}, chunk count)`` from ``D``."""
        chunks = self._doc_chunks(doc_id)
        return (*_parse_doc(chunks), len(chunks)) if chunks else None

    def _blocks(self, term: str) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
        """``(oids, tfs, trailer max_tf)`` of each of ``term``'s blocks, in order."""
        for key, raw in self._view.cursor(self._posting_prefix(term)):
            yield (*_decode_block(raw, _block_base(key)),
                   _U32.unpack_from(raw, len(raw) - _U32.size)[0])

    # ------------------------------------------------------------- mutation

    def _write_through(self, doc_id: int, records: Dict[bytes, Optional[bytes]],
                       length: Optional[int] = None, old_length: Optional[int] = None) -> None:
        """A document's ``records`` (its ``D`` and backlog chunks; None
        deletes), its ``L`` slot and ``S`` — everything but its rows — as one
        sorted batch, so each leaf is written once.  ``length`` is the
        document's new length (None: it goes), ``old_length`` the one it had
        (None: it was not indexed).
        """
        slot = (doc_id & (BLOCK_SPAN - 1)) * _U32.size
        stored = _U32.pack(length + 1 if length is not None else 0)
        count = (length is not None) - (old_length is not None)
        tokens = (length or 0) - (old_length or 0)

        def lengths(raw: Optional[bytes]) -> Optional[bytes]:
            raw = raw or _NO_LENGTHS
            raw = raw[:slot] + stored + raw[slot + _U32.size:]
            return raw if raw != _NO_LENGTHS else None

        def corpus(raw: Optional[bytes]) -> bytes:
            documents, total = _STATS.unpack(raw) if raw else (0, 0)
            return _STATS.pack(documents + count, total + tokens)

        updates = [(key, lambda _old, value=value: value) for key, value in records.items()]
        updates += [(self._length_key(doc_id >> BLOCK_SHIFT), lengths), (_STATS_KEY, corpus)]
        updates.sort(key=itemgetter(0))
        self._tree.apply_sorted(updates)
        for key, value in records.items():
            if not key.startswith(_DOC_PREFIX):
                (self._backlog.discard if value is None else self._backlog.add)(key)

    def _set_rows(self, doc_id: int, rows: Iterable[Tuple[str, int]], length: int = 0) -> None:
        """Set (``tf`` > 0) or drop (``tf`` = 0) the document's row of each
        ``(term, tf)`` of ``rows``, and each term's statistics with it, in the
        overlay: one sorted read of every key the document touches (folding
        their pending inserts into the edits), then one edit pass.

        Presence-aware: ``df`` moves only when the row appears or disappears
        (``max_tf`` / ``min_len`` only tighten on add and stay on remove — a
        stale bound costs pruning, never correctness), so re-deriving an
        edit the tree already holds changes nothing.  That is what makes a
        crash between two settle transactions, and the mount's re-derivation
        from the backlog, safe.
        """
        view, slot = self._view, doc_id & (BLOCK_SPAN - 1)
        block_id = _OID.pack(doc_id >> BLOCK_SHIFT)
        # Sorted by term, a term's block key sorts right before its
        # statistics key and both before the next term's (see
        # _TERM_STATS_END): the keys increase, and one get_many reads them.
        terms = sorted((_TERM_PREFIX + _encode_term(term), tf) for term, tf in rows)
        keys = [key for term, _tf in terms for key in (term + _SEP + block_id, term + _TERM_STATS_END)]
        found = iter(zip(keys, view.fold_many(keys)))
        for _term, tf in terms:
            (key, raw), (stats_key, raw_stats) = next(found), next(found)
            if tf and (raw is None or raw[-_LAST_SLOT] < slot):
                # The block's first row, or past its last: appended undecoded.
                block, present = _fold_rows(raw, _ROW.pack(slot, tf), tf), False
            else:
                block, present = _edit_block(raw, doc_id, tf)
            if block != raw:
                view.put(key, block, key[:-_OID.size])
            df, max_tf, min_len = _DF_RECORD.unpack(raw_stats) if raw_stats else (0, 0, 0)
            df += (tf > 0) - present
            if tf:
                max_tf = max(max_tf, tf)
                min_len = length if min_len == 0 else min(min_len, length)
            # The bounds stay (conservative) until the last posting goes.
            stats = _DF_RECORD.pack(df, max_tf, min_len) if df else None
            if stats != raw_stats:
                view.put(stats_key, stats)

    def _stored_tfs(self, doc_id: int, terms: Iterable[str]) -> Dict[str, int]:
        """The document's tf of each of ``terms`` (all of them its own), read
        off its rows with one sorted :meth:`_TermView.fold_many`."""
        block_id, slot = _OID.pack(doc_id >> BLOCK_SHIFT), doc_id & (BLOCK_SPAN - 1)
        terms = sorted(terms)  # in key order, as _set_rows argues
        tfs = {}
        for term, raw in zip(terms, self._view.fold_many(
                [self._posting_prefix(term) + block_id for term in terms])):
            slots, freqs = _block_rows(raw)
            tfs[term] = freqs[bisect_left(slots, slot)]
        return tfs

    def _load_backlog(self) -> None:
        """Re-derive the overlay a crash lost: the ``R`` range, then the ``P``
        range — O(backlog), no object content read."""
        for kind in (_REMOVED_PREFIX, _PENDING_PREFIX):
            records: Dict[int, List[bytes]] = {}
            for key, value in self._tree.cursor(prefix=kind):
                self._backlog.add(key)
                records.setdefault(_OID.unpack_from(key, len(kind))[0], []).append(value)
            for doc_id, chunks in records.items():
                if kind == _REMOVED_PREFIX:
                    self._set_rows(doc_id, [(term, 0) for term in _parse_doc(chunks)[1]])
                    continue
                length, positions = _parse_doc(self._doc_chunks(doc_id))
                self._set_rows(doc_id, zip(positions, _decode_tfs(length, b"".join(chunks))), length)

    def _pending_keys(self, doc_id: int) -> List[bytes]:
        """The document's ``P`` chunk keys (none once its rows have settled)."""
        keys, key = [], self._doc_key(doc_id, 0, _PENDING_PREFIX)
        while key in self._backlog:
            keys.append(key)
            key = self._doc_key(doc_id, len(keys), _PENDING_PREFIX)
        return keys

    def _put_document(self, doc_id: int, length: int, occurrences: Dict[str, Sequence[int]],
                      tfs: List[int]) -> None:
        """Store the document — ``occurrences`` maps each term to its
        positions, ``tfs`` are their frequencies in the same order — in
        place of whatever ``doc_id`` held, in one pass.

        A new document (no ``D`` record) has no row anywhere, so its rows go
        to the overlay as pending inserts without a key read.  A present one
        is replaced: its ``D``, backlog, ``L`` and ``S`` records in one sorted
        batch, and one :meth:`_set_rows` over its old and new terms.  Its
        backlog is what removing and re-adding it would have left: a pending
        document's ``P`` is rewritten; a settled one's rows are in the tree,
        so its old ``D`` chunks become its ``R`` record beside the new ``P``.
        """
        records: Dict[bytes, Optional[bytes]] = {}
        for kind, payload in ((_DOC_PREFIX, _encode_doc(length, occurrences)),
                              (_PENDING_PREFIX, _encode_tfs(length, tfs))):
            for seq, chunk in enumerate(_chunked(payload)):
                records[self._doc_key(doc_id, seq, kind)] = chunk
        chunks = self._doc_chunks(doc_id)
        if not chunks:
            self._write_through(doc_id, records, length)
            self._view.insert(doc_id, zip(occurrences, tfs), length)
            return
        old_length, old_positions = _parse_doc(chunks)
        for seq in range(len(chunks)):
            records.setdefault(self._doc_key(doc_id, seq), None)
        pending = self._pending_keys(doc_id)
        for key in pending:
            records.setdefault(key, None)
        if not pending:
            for seq, chunk in enumerate(chunks):
                records[self._doc_key(doc_id, seq, _REMOVED_PREFIX)] = chunk
        self._write_through(doc_id, records, length, old_length)
        rows = dict.fromkeys(old_positions, 0)
        rows.update(zip(occurrences, tfs))
        self._set_rows(doc_id, rows.items(), length)

    def add_document(self, doc_id: int, text) -> int:
        """Index ``text`` under ``doc_id``; returns the number of terms stored.

        Re-adding an existing document replaces its previous contents.  The
        whole replace is one WAL transaction (or joins an enclosing one).
        """
        with self._txn():
            analyzed = self.analyzer.analyze_with_positions(text)
            occurrences: Dict[str, List[int]] = {}
            for term, position in analyzed:
                occurrences.setdefault(term, []).append(position)
            self._put_document(doc_id, len(analyzed), occurrences,
                               [len(positions) for positions in occurrences.values()])
            return len(occurrences)

    def remove_document(self, doc_id: int) -> bool:
        """Remove every posting of ``doc_id``; returns True if it was indexed.

        The existence probe runs *inside* the transaction: the recovery
        manager's transaction lock then serializes check-and-delete, so two
        racing removals (two server threads deleting one object) cannot both
        pass the probe and double-decrement the corpus stats.
        """
        with self._txn():
            chunks = self._doc_chunks(doc_id)
            if not chunks:
                return False
            length, positions = _parse_doc(chunks)
            records: Dict[bytes, Optional[bytes]] = {
                self._doc_key(doc_id, seq): None for seq in range(len(chunks))}
            pending = self._pending_keys(doc_id)
            # A pending document has no row in the tree, so its backlog
            # record just goes; a settled one's rows stay until a settle.
            records.update(dict.fromkeys(pending))
            if not pending:
                for seq, chunk in enumerate(chunks):
                    records[self._doc_key(doc_id, seq, _REMOVED_PREFIX)] = chunk
            self._write_through(doc_id, records, old_length=length)
            self._set_rows(doc_id, [(term, 0) for term in positions])
            return True

    # --------------------------------------------------------------- settle

    @property
    def backlog(self) -> Tuple[int, int]:
        """``(documents with a backlog record, unsettled T keys)``."""
        documents = {key[:len(_PENDING_PREFIX) + _OID.size] for key in tuple(self._backlog)}
        return len(documents), len(self._view)

    @property
    def settle_due(self) -> bool:
        # Not while one runs: its own chunk commits fire the hook too.
        return not self._settling and len(self._view) >= SETTLE_KEYS

    def _settle_if_due(self) -> None:
        """The threshold trigger, called here only by a standalone index (no
        recovery manager): with a WAL the facade runs the same test from the
        recovery manager's ``after_commit`` hook — after the commit that
        crossed the line, never inside its transaction."""
        if self.settle_due:
            self.settle()

    def _apply_chunked(self, keys: List[bytes], edit: Callable[[bytes], Callable]) -> None:
        """Apply ``edit(key)``, an ``apply_sorted`` edit, to each of the
        sorted ``keys`` in WAL transactions the journal has room for, bounded
        by the pages each has staged.  The edits are made a batch at a time,
        so a settle holds a batch of them at once, not one per overlay key.

        Past the checkpoint threshold the next transaction checkpoints
        first, so each may count on the journal's other part: its budget is
        that many whole page records.  A transaction takes the next run of
        keys while each key could still stage :data:`_PAGES_PER_KEY` more
        pages, so a touched leaf is logged once however many keys it takes.
        A cut never splits a :func:`_settle_group`.
        """
        recovery = self._recovery
        if recovery is None:
            self._tree.apply_sorted([(key, edit(key)) for key in keys])
            return
        room = recovery.journal.capacity_bytes * (1 - CHECKPOINT_THRESHOLD) - TXN_OVERHEAD
        # Less one page: room for the root moves and revokes it may log too.
        budget = int(room) // (self._tree.node_byte_limit + RECORD_OVERHEAD) - 1
        start = 0
        while start < len(keys):
            # Nobody waits on a settle: its frames ride the next
            # sync, and a crash before it re-derives the lost part.
            with recovery.transaction(sync=False):
                while start < len(keys):
                    room = (budget - recovery.staged_pages) // _PAGES_PER_KEY
                    if room < 1 and recovery.staged_pages:
                        break
                    end = min(start + max(room, 1), len(keys))
                    while end < len(keys) and (_settle_group(keys[end])
                                               == _settle_group(keys[end - 1])):
                        end += 1
                    self._tree.apply_sorted([(key, edit(key)) for key in keys[start:end]])
                    start = end

    def settle(self) -> int:
        """Write the overlay into the tree — one page write per touched leaf —
        and retire the backlog; returns the number of ``T`` keys written.

        Runs between transactions (a commit crossing :data:`SETTLE_KEYS`,
        checkpoint, close, mount), never inside one, with other writers held
        at the recovery manager's gate so none sees it half done; readers
        keep the overlay until the tree holds all of it.  Pending inserts
        fold in as each key is written (:meth:`_TermView.settle_value`), in
        the transaction that writes it.  ``R`` records go before ``P``: a
        crash then leaves at worst a ``P`` whose re-derivation is a no-op,
        never an ``R`` alone dropping rows its document's ``P`` would have
        put back.
        """
        if not (len(self._view) or self._backlog):
            return 0
        gate = self._recovery.quiesced() if self._recovery is not None else nullcontext()
        with gate:
            view = self._view
            if not (len(view) or self._backlog):
                return 0  # the settle this thread waited out at the gate did it
            self._settling = True
            try:
                keys = view.keys()
                self._apply_chunked(keys, lambda key: partial(view.settle_value, key))
                retired = sorted(self._backlog)
                for kind in (_REMOVED_PREFIX, _PENDING_PREFIX):
                    self._apply_chunked([key for key in retired if key.startswith(kind)],
                                        lambda _key: _delete)
            finally:
                self._settling = False
            self._view, self._backlog = _TermView(self._tree), set()
            self.settles += 1
            return len(keys)

    def update_document(self, doc_id: int, text) -> int:
        """Alias for :meth:`add_document` (which already replaces)."""
        return self.add_document(doc_id, text)

    def append_terms(self, doc_id: int, text) -> int:
        """Extend the document with ``text``'s terms (manual FULLTEXT tags);
        returns the number of terms stored.

        Only ``text`` is analyzed: the stored terms keep their positions and
        frequencies, and ``text``'s positions follow the last stored one, as
        if it were appended to the document.  The read and the one-pass
        replace are one WAL transaction, so the read cannot race another
        thread's structural tree mutation.
        """
        with self._txn():
            doc = self._read_doc(doc_id)
            if doc is None:
                return self.add_document(doc_id, text)
            length, stored, _chunks = doc
            tfs = self._stored_tfs(doc_id, stored)
            occurrences = {term: list(positions) for term, positions in stored.items()}
            start = 1 + max((positions[-1] for positions in stored.values()), default=-1)
            analyzed = self.analyzer.analyze_with_positions(text)
            for term, position in analyzed:
                occurrences.setdefault(term, []).append(start + position)
                tfs[term] = tfs.get(term, 0) + 1
            self._put_document(doc_id, length + len(analyzed), occurrences,
                               [tfs[term] for term in occurrences])
            return len(occurrences)

    def remove_terms(self, doc_id: int, text) -> bool:
        """Drop ``text``'s (query-analyzed) terms from the document; returns
        True if it held any.  The other terms keep their positions and
        frequencies, and the length loses the dropped terms' frequencies; a
        document left with no term leaves the index."""
        with self._txn():
            doc = self._read_doc(doc_id)
            dropped = set(self.analyzer.analyze_query(text))
            if doc is None or dropped.isdisjoint(doc[1]):
                return False
            length, stored, _chunks = doc
            kept = {term: positions for term, positions in stored.items() if term not in dropped}
            if not kept:
                return self.remove_document(doc_id)
            tfs = self._stored_tfs(doc_id, stored)
            self._put_document(doc_id, length - sum(tfs[term] for term in stored if term in dropped),
                               kept, [tfs[term] for term in kept])
            return True

    # -------------------------------------------------------------- queries

    @property
    def document_count(self) -> int:
        return self._read_stats()[0]

    @property
    def term_count(self) -> int:
        return len(self.vocabulary())

    def __contains__(self, doc_id: int) -> bool:
        return self._tree.get(self._doc_key(doc_id, 0)) is not None

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term`` (after analysis)."""
        analyzed = self.analyzer.analyze_query(term)
        if not analyzed:
            return 0
        return self._term_df(analyzed[0])

    def _term_cursor(self, term: str, df: int,
                     counter: Optional[ScanCounter] = None) -> DocIdCursor:
        return _BlockCursor(self._view, self._posting_prefix(term),
                            counter if counter is not None else self._scan, estimate=df)

    def _query_dfs(self, terms: List[str]) -> Optional[List[Tuple[int, str]]]:
        """``(df, term)`` per query term, ``None`` if any term is absent.

        One term lookup is charged per term until the first missing one
        empties the conjunction.
        """
        infos: List[Tuple[int, str]] = []
        for term in terms:
            self.term_lookups += 1
            df = self._term_df(term)
            if df == 0:
                return None
            infos.append((df, term))
        return infos

    def cursor(self, query, counter: Optional[ScanCounter] = None) -> DocIdCursor:
        """A streaming cursor over the conjunctive matches of ``query``.

        Multi-term values become a rarest-first leapfrog intersection of
        posting-block cursors; a seek leaves its block by re-descending the
        tree in O(log n), so huge common terms are probed, never scanned.
        """
        return self._conjunction(self.analyzer.analyze_query(query), counter)

    def _conjunction(self, terms: List[str],
                     counter: Optional[ScanCounter] = None) -> DocIdCursor:
        """The streaming intersection of already-analyzed ``terms``."""
        if not terms:
            return EmptyCursor()
        infos = self._query_dfs(terms)
        if infos is None:
            return EmptyCursor()
        infos.sort(key=lambda info: info[0])  # stable: ties keep query order
        cursors = [self._term_cursor(term, df, counter=counter) for df, term in infos]
        if len(cursors) == 1:
            return cursors[0]
        return IntersectCursor(cursors)

    def search(self, query) -> List[int]:
        """Conjunctive search: doc ids containing *all* query terms."""
        return list(self.cursor(query))

    def search_all(self, terms: Iterable[str]) -> List[int]:
        """Conjunctive search over already-analyzed terms, taken as given:
        analyzing a stem again can change it (``building`` -> ``build``)."""
        return list(self._conjunction(list(terms)))

    def search_any(self, query) -> List[int]:
        """Disjunctive search: doc ids containing *any* query term."""
        terms = self.analyzer.analyze_query(query)
        cursors = []
        for term in terms:
            self.term_lookups += 1
            df = self._term_df(term)
            if df:
                cursors.append(self._term_cursor(term, df))
        if not cursors:
            return []
        if len(cursors) == 1:
            return list(cursors[0])
        return list(UnionCursor(cursors))

    def search_phrase(self, phrase) -> List[int]:
        """Documents containing the exact (analyzed) phrase, in order.

        Only the stored position prefix (:data:`MAX_STORED_POSITIONS`) of
        each posting is consulted, read from the candidates' ``D`` records.
        """
        analyzed = self.analyzer.analyze_with_positions(phrase)
        terms = [term for term, _pos in analyzed]
        if not terms:
            return []
        candidates = self.search_all(terms)
        if len(terms) == 1:
            return candidates
        results: List[int] = []
        for doc_id in candidates:
            stored = self._read_doc(doc_id)[1]
            positions = [set(stored.get(term, ())) for term in terms]
            if any(
                all((start + offset) in positions[offset] for offset in range(1, len(terms)))
                for start in positions[0]
            ):
                results.append(doc_id)
        return results

    # -------------------------------------------------------------- ranking

    def _length_memo(self) -> Callable[[int], int]:
        """A doc-length resolver: one ``L`` read per block of scored documents."""
        blocks: Dict[int, Tuple[int, ...]] = {}

        def length_for(doc_id: int) -> int:
            block = doc_id >> BLOCK_SHIFT
            lengths = blocks.get(block)
            if lengths is None:
                raw = self._tree.get(self._length_key(block)) or _NO_LENGTHS
                lengths = blocks[block] = _LENGTHS.unpack(raw)
            return max(lengths[doc_id & (BLOCK_SPAN - 1)] - 1, 0)  # stored + 1

        return length_for

    def _block_norms(self, k1: float, b: float,
                     average_length: float) -> Callable[[int, Sequence[int]], Dict[int, float]]:
        """``norms(block, slots)``: each slot's BM25 length normaliser
        ``k1 * (1 - b + b * dl / avg)``, from the block's ``L`` record.

        The ranking walk asks for blocks in ascending order, so one cursor
        steps along the ``L`` run with it instead of a root-to-leaf read per
        block; a gap of more than :data:`_LENGTH_STEPS` records, or a step
        back, is crossed by a seek.
        """
        omb, cursor = 1 - b, self._tree.cursor(prefix=_LENGTH_PREFIX)
        last, item = None, None  # the last key asked for; the cursor's pair

        def norms(block: int, slots: Sequence[int]) -> Dict[int, float]:
            nonlocal last, item
            key = self._length_key(block)
            if last is None or key < last:
                item = cursor.seek(key)
            else:
                steps = 0
                while item is not None and item[0] < key:
                    if steps == _LENGTH_STEPS:
                        item = cursor.seek(key)
                        break
                    item, steps = cursor.next_item(), steps + 1
            last = key
            raw = item[1] if item is not None and item[0] == key else _NO_LENGTHS
            lengths = _LENGTHS.unpack(raw)
            # stored = length + 1, and an empty document scores as length 1
            return {slot: k1 * (omb + b * ((lengths[slot] - 1) or 1) / average_length)
                    for slot in slots}

        return norms

    def rank(self, query, limit: Optional[int] = 10, k1: float = 1.5, b: float = 0.75,
             span=None) -> List[SearchHit]:
        """BM25-ranked disjunctive retrieval, a posting block at a time.

        The query terms' blocks are walked in ascending order by the
        block-max driver (:class:`~repro.query.scored.WandCursor`): a block
        whose terms' stored maxima cannot beat the current k-th best score
        is skipped undecoded, terms whose summed bounds cannot are only
        sought to the blocks the others reach, and a scored block decodes
        each term's rows once.  The result is identical — same floating-point
        scores, same order — to :meth:`rank_exhaustive`; only the work
        differs.  ``limit=None`` keeps every matching document.
        """
        terms = self.analyzer.analyze_query(query)
        total_docs, total_tokens = self._read_stats()
        if not terms or not total_docs or (limit is not None and limit <= 0):
            return []
        self.ranked.queries += 1
        average_length = total_tokens / total_docs
        cursors = []
        for term in terms:
            df, max_tf, min_len = self._df_record(term)
            if df == 0:
                continue
            self.term_lookups += 1
            idf = bm25_idf(total_docs, df)
            # A block stores frequencies only, so the term's minimum length
            # feeds the length term of its bound (looser, never unsafe).
            bound = (lambda max_tf, idf=idf, min_len=min_len: bm25_upper_bound(
                idf, k1, b, max_tf, min_len, average_length))
            cursors.append(_PostingScoredCursor(
                self._view, self._posting_prefix(term), self._scan, idf, k1,
                bound(max_tf), bound))
        top = WandCursor(cursors, limit, self._block_norms(k1, b, average_length),
                         BLOCK_SHIFT, stats=self.ranked, span=span).top_k()
        return [SearchHit(doc_id=doc_id, score=score) for doc_id, score in top]

    def rank_exhaustive(
        self, query, limit: Optional[int] = None, k1: float = 1.5, b: float = 0.75
    ) -> List[SearchHit]:
        """BM25 ranking that scores every matching document (no pruning).

        The reference the differential harness holds :meth:`rank` against:
        term at a time into a dict, through :func:`bm25_scorer`, sharing no
        scoring code with the block scorer.
        """
        terms = self.analyzer.analyze_query(query)
        total_docs, total_tokens = self._read_stats()
        if not terms or not total_docs:
            return []
        self.ranked.exhaustive_queries += 1
        average_length = total_tokens / total_docs
        length_for = self._length_memo()
        scores: Dict[int, float] = {}
        for term in terms:
            df = self._term_df(term)
            if df == 0:
                continue
            self.term_lookups += 1
            idf = bm25_idf(total_docs, df)
            score = bm25_scorer(idf, k1, b, average_length, length_for)
            for oids, tfs, _max_tf in self._blocks(term):
                self.postings_scanned += len(oids)
                for doc_id, tf in zip(oids, tfs):
                    scores[doc_id] = scores.get(doc_id, 0.0) + score(doc_id, tf)
        self.ranked.documents_scored += len(scores)
        hits = [SearchHit(doc_id=doc_id, score=score) for doc_id, score in scores.items()]
        hits.sort(key=lambda hit: (-hit.score, hit.doc_id))
        if limit is not None:
            hits = hits[:limit]
        return hits

    def bound_violations(self, k1: float = 1.5, b: float = 0.75) -> List[str]:
        """Postings that escape the stored bounds or disagree with their records.

        The persisted-index safety invariant — checked by the property test
        and the crash-torture audit after every recovery:

        * a term's statistics count exactly the rows in its blocks, and its
          max tf dominates every row's term frequency;
        * every block trailer *is* the largest frequency among its rows;
        * every row's document has a ``D`` record, whose length header is
          the ``L`` slot BM25 scores it with;
        * the derived upper-bound *score* dominates every row's actual
          contribution under the current corpus statistics;
        * every ``P`` / ``R`` record in the tree is one the engine still owes
          a settle (none survives one).

        Rows and statistics are read as every reader sees them, through the
        unsettled overlay.  Returns human-readable violations; empty means
        the invariant holds.
        """
        violations = [
            f"backlog record {key!r} survives a settle"
            for kind in (_PENDING_PREFIX, _REMOVED_PREFIX)
            for key, _value in self._tree.cursor(prefix=kind) if key not in self._backlog
        ]
        total_docs, total_tokens = self._read_stats()
        if not total_docs:
            return violations
        average_length = total_tokens / total_docs
        length_for = self._length_memo()
        headers: Dict[int, Optional[int]] = {}
        for term in self.vocabulary():
            df, term_max, term_min_len = self._df_record(term)
            idf = bm25_idf(total_docs, df)
            term_bound = bm25_upper_bound(idf, k1, b, term_max, term_min_len, average_length)
            score = bm25_scorer(idf, k1, b, average_length, length_for)
            rows = 0
            for oids, tfs, block_max in self._blocks(term):
                rows += len(oids)
                if block_max != max(tfs):
                    violations.append(
                        f"term {term!r} block {oids[0] >> BLOCK_SHIFT}: trailer "
                        f"{block_max} is not the block's max tf {max(tfs)}"
                    )
                for doc_id, tf in zip(oids, tfs):
                    if tf > term_max:
                        violations.append(
                            f"term {term!r} doc {doc_id}: stored max tf {term_max} < tf {tf}"
                        )
                    if doc_id not in headers:
                        head = self._tree.get(self._doc_key(doc_id, 0))
                        headers[doc_id] = _U32.unpack_from(head, 0)[0] if head else None
                    if headers[doc_id] != length_for(doc_id):
                        violations.append(
                            f"term {term!r} doc {doc_id}: D length {headers[doc_id]} "
                            f"but L length {length_for(doc_id)}"
                        )
                    actual = score(doc_id, tf)
                    if actual > term_bound:
                        violations.append(
                            f"term {term!r} doc {doc_id}: contribution {actual} "
                            f"exceeds bound {term_bound}"
                        )
            if rows != df:
                violations.append(f"term {term!r}: df {df} but {rows} rows in its blocks")
        return violations

    # ------------------------------------------------------------ inspection

    def terms_for(self, doc_id: int) -> List[str]:
        """The analyzed terms stored for ``doc_id`` (empty if not indexed)."""
        doc = self._read_doc(doc_id)
        return list(doc[1]) if doc is not None else []

    def document_ids(self) -> List[int]:
        """Every indexed document id, ascending (read off the ``L`` records).

        For audits: the crash-torture remount check and the differential
        tests compare it with the live objects.
        """
        ids: List[int] = []
        for key, raw in self._tree.cursor(prefix=_LENGTH_PREFIX):
            first = _OID.unpack_from(key, len(_LENGTH_PREFIX))[0] << BLOCK_SHIFT
            ids.extend(first + slot for slot, stored in enumerate(_LENGTHS.unpack(raw)) if stored)
        return ids

    def vocabulary(self) -> List[str]:
        """All indexed terms, sorted (statistics keys are in term order)."""
        return [
            key[len(_TERM_PREFIX):-1].decode("utf-8")
            for key, _value in self._view.cursor(_TERM_PREFIX)
            if _SEP not in key[len(_TERM_PREFIX):]  # a block key has one
        ]

    def reset_counters(self) -> None:
        self.term_lookups = 0
        self._scan.reset()
        self.ranked.reset()
