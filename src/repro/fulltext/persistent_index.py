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

Key layout (one tree, seven record kinds; ``block`` is ``oid >> BLOCK_SHIFT``)::

    D \x00 oid(8) \x00 seq(4)   -> chunk of: doc_length(4) | { term_len(2) term npos(1) position(4) * npos } ...
    L \x00 block(8)            -> (doc_length + 1)(4) * BLOCK_SPAN, slot ``oid & (BLOCK_SPAN - 1)``; 0 = not indexed
    P \x00 oid(8) \x00 seq(4)   -> chunk of: tf(4) per term, in the ``D`` record's term order
    R \x00 oid(8) \x00 seq(4)   -> the removed version's ``D`` chunks, verbatim
    S                          -> doc_count(8) | total_token_count(8)
    T \x00 term \x00 block(8)   -> { oid(8) tf(4) } * n, oids ascending | max_tf(4), exact
    T \x00 term \x01            -> document_frequency(8) | max_tf(8) | min_len(8)

* A mutation writes through only the document's own records — ``D``, its
  ``L`` slot, ``S`` and one *backlog* record — as one sorted
  :meth:`~repro.btree.BPlusTree.apply_sorted` batch in the caller's WAL
  transaction.  Its ``T`` edits go, as final values, to an in-memory overlay
  every reader sees through (:class:`_TermView`); a *settle* writes the
  overlay into the tree in key order — one page write per touched leaf per
  batch of documents, not per document.
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
  re-descends to the target's block; the trailer is the block-max WAND bound,
  readable without decoding a row.  The statistics' ``max_tf`` / ``min_len``
  are the term-wide bound inputs: adds tighten them, removes leave them (a
  stale bound costs pruning, never correctness).
* ``L`` holds what BM25 needs per scored document, one record per block, so
  lengths stay out of the posting rows (and out of the WAL).  It doubles as
  the list of indexed documents — hence ``+ 1``: an empty document counts.
* ``D`` is the document's own record, in first-occurrence term order: the
  terms to scrub on remove, the positions phrase search reads for its
  candidates.  Chunked, so one entry can never outgrow a page.

Positions are capped at :data:`MAX_STORED_POSITIONS` per posting: term
frequency stays exact (BM25 is unaffected) but phrase queries only consult
the stored prefix of a pathologically long document's occurrence list.

Mutations bracket themselves in a recovery-manager transaction, so an
``add_document`` inside an enclosing filesystem operation *joins* that
operation's WAL transaction (create = allocate + write + name + index is one
commit marker): the document's records and the master-tree write they
belong to commit together or not at all.  A settle is several transactions
of its own, with every other writer held at the manager's checkpoint gate.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

_OID = struct.Struct(">Q")
_SEP = b"\x00"
_STATS_KEY = b"S"
_DOC_PREFIX = b"D\x00"
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
_ROW = struct.Struct(">QI")
#: a term's statistics: df + the WAND bound inputs (max tf, min document length).
_DF_RECORD = struct.Struct(">QQQ")

#: positions stored per posting; term frequency stays exact beyond the cap.
MAX_STORED_POSITIONS = 64
#: bytes per ``D`` chunk — small enough that a chunk entry always fits even
#: the smallest configured btree page.
DOC_CHUNK_BYTES = 768
#: block id is ``oid >> BLOCK_SHIFT``: a ``T`` block holds at most BLOCK_SPAN
#: rows, an ``L`` record that many lengths.  6, not 7: shorter WAL splices
#: (perfbench ingest, 72 against 81 WAL bytes per user byte) for 5 % more writes.
BLOCK_SHIFT = 6
BLOCK_SPAN = 1 << BLOCK_SHIFT
_LENGTHS = struct.Struct(f">{BLOCK_SPAN}I")
_NO_LENGTHS = bytes(_LENGTHS.size)
#: edited ``T`` keys at which a commit settles the overlay: ~100 perfbench
#: documents, ~250 KB of values.  Measured on ``ingest``, not a parameter:
#: half logs 10 % more WAL, at twice only the harness's checkpoints settle.
SETTLE_KEYS = 4096


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
    """Codec for the ``count`` interleaved ``(oid, tf)`` rows of one block."""
    return struct.Struct(">" + "QI" * count)


def _decode_block(raw: bytes) -> Tuple[int, ...]:
    """A block's rows, flat: ``oid, tf, oid, tf, ...`` (the trailer is skipped)."""
    return _rows(len(raw) // _ROW.size).unpack_from(raw)


def _edit_block(raw: Optional[bytes], oid: int, tf: int) -> Tuple[Optional[bytes], bool]:
    """The block with ``oid``'s row set to ``tf`` (0 drops it; None once
    empty), and whether the row was there before.

    The trailer is recomputed from the rows, so it is always the exact
    maximum — a block bound can only tighten.
    """
    flat = _decode_block(raw) if raw else ()
    at = 2 * bisect_left(flat[0::2], oid)
    present = at < len(flat) and flat[at] == oid
    flat = flat[:at] + ((oid, tf) if tf else ()) + flat[at + 2 * present:]
    if not flat:
        return None, present
    return _rows(len(flat) // 2).pack(*flat) + _U32.pack(max(flat[1::2])), present


def _chunked(payload: bytes) -> List[bytes]:
    """``payload`` in :data:`DOC_CHUNK_BYTES` pieces (one empty piece for none)."""
    return [payload[at:at + DOC_CHUNK_BYTES]
            for at in range(0, len(payload), DOC_CHUNK_BYTES)] or [b""]


def _parse_doc(chunks: List[bytes]) -> Tuple[int, Dict[str, Tuple[int, ...]]]:
    """``(doc_length, {term: stored positions})`` of a ``D`` (or ``R``) record."""
    payload = b"".join(chunks)
    positions: Dict[str, Tuple[int, ...]] = {}
    at = _U32.size
    while at < len(payload):
        end = at + _U16.size + _U16.unpack_from(payload, at)[0]
        term = payload[at + _U16.size:end].decode("utf-8")
        positions[term] = struct.unpack_from(f">{payload[end]}I", payload, end + 1)
        at = end + 1 + _U32.size * payload[end]
    return _U32.unpack_from(payload, 0)[0], positions


def _settle_group(key: bytes) -> bytes:
    """What a settle keeps in one transaction: a term's blocks and statistics
    (re-deriving a half-written term would miscount its df), a document's
    backlog chunks (half a record does not parse)."""
    if not key.startswith(_TERM_PREFIX):
        return key[:len(_TERM_PREFIX) + _OID.size]
    separator = key.find(_SEP, len(_TERM_PREFIX))
    return key[:separator] if separator > 0 else key[:-1]


class _ViewCursor:
    """A tree prefix cursor merged with the overlay's edits of that prefix:
    an edit (``keys``, sorted) replaces — or, when None, hides — the tree's
    pair of the same key.  Speaks what the posting readers use of the btree
    cursor protocol: ``next_item``, ``seek`` and (fresh-pass) iteration.
    """

    def __init__(self, cursor, edits: Dict[bytes, Optional[bytes]], keys: List[bytes]) -> None:
        self._cursor, self._edits, self._keys = cursor, edits, keys
        self._position: Optional[Iterator[Tuple[bytes, bytes]]] = None

    def _merge_from(self, key: bytes) -> Iterator[Tuple[bytes, bytes]]:
        keys, edits, at = self._keys, self._edits, bisect_left(self._keys, key)
        item = self._cursor.seek(key)  # clamped to the prefix by the tree cursor
        while at < len(keys) or item is not None:
            if at < len(keys) and (item is None or keys[at] <= item[0]):
                if item is not None and item[0] == keys[at]:
                    item = self._cursor.next_item()
                if edits[keys[at]] is not None:
                    yield keys[at], edits[keys[at]]
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
    """The ``T`` records as every reader must see them: edits over the tree.

    ``edits`` maps a block or statistics key to its *final* value (None =
    deleted) — what writing the mutation through would have left in the
    tree, so answers, scores and scan counts do not depend on what has
    settled.  With no edits a read costs one ``if`` more than the tree's.
    """

    def __init__(self, tree: BPlusTree) -> None:
        self.tree = tree
        self.edits: Dict[bytes, Optional[bytes]] = {}
        #: posting prefix -> its edited block keys: all a term's cursor merges.
        self._blocks: Dict[bytes, List[bytes]] = {}

    def get(self, key: bytes) -> Optional[bytes]:
        return self.edits[key] if key in self.edits else self.tree.get(key)

    def put(self, key: bytes, value: Optional[bytes], prefix: Optional[bytes] = None) -> None:
        """Record ``key``'s final value; ``prefix`` files a block key under its term."""
        if prefix is not None and key not in self.edits:
            self._blocks.setdefault(prefix, []).append(key)
        self.edits[key] = value

    def cursor(self, prefix: bytes):
        cursor = self.tree.cursor(prefix=prefix)
        if not self.edits:
            return cursor
        keys = self.edits if prefix == _TERM_PREFIX else self._blocks.get(prefix)
        return _ViewCursor(cursor, self.edits, sorted(keys)) if keys else cursor


class _BlockCursor(DocIdCursor):
    """One term's postings in oid order, decoded a block at a time.

    ``next`` steps inside the decoded block; ``seek`` bisects inside it, or
    re-descends the tree to the target's block in O(log n).  Every posting
    the cursor lands on is counted as scanned; rows merely decoded are not.
    """

    def __init__(self, tree: BPlusTree, prefix: bytes, counter: ScanCounter,
                 estimate: int = 0) -> None:
        self._tree = tree
        self._blocks = tree.cursor(prefix=prefix)
        self._prefix = prefix
        self._counter = counter
        self._estimate = estimate
        #: the current block: its value, its rows (flat), their oids, our row
        self._raw, self._flat, self._oids, self._at = b"", (), (), -1
        self._doc: Optional[int] = -1  # nothing returned yet; None = exhausted

    def _settle(self, at: int) -> int:
        self._at = at
        self._doc = self._oids[at]
        self._counter.scanned += 1
        return self._doc

    def _land(self, item, target: int = 0) -> Optional[int]:
        """Settle on the first posting ``>= target`` in block ``item`` or after."""
        while item is not None:
            flat = _decode_block(item[1])
            oids = flat[0::2]
            at = bisect_left(oids, target)
            if at < len(oids):
                self._raw, self._flat, self._oids = item[1], flat, oids
                return self._settle(at)
            item = self._blocks.next_item()
        self._doc = None
        return None

    def _advance(self, target: int) -> Optional[int]:
        """Move to the first posting ``>= target`` (``target`` > current doc)."""
        oids = self._oids
        block = target >> BLOCK_SHIFT
        if not oids or block != oids[-1] >> BLOCK_SHIFT:
            return self._land(self._blocks.seek(self._prefix + _OID.pack(block)), target)
        if target > oids[-1]:  # past this block's rows: the tree cursor is there
            return self._land(self._blocks.next_item())
        return self._settle(bisect_left(oids, target, self._at + 1))

    def next(self) -> Optional[int]:
        if self._doc is None:
            return None
        if self._at + 1 < len(self._oids):
            return self._settle(self._at + 1)
        return self._land(self._blocks.next_item())

    def seek(self, target: int) -> Optional[int]:
        if self._doc is None:
            return None
        self._counter.seeks += 1
        return self._advance(max(target, self._doc + 1))

    def estimate(self) -> int:
        return self._estimate


class _PostingScoredCursor(_BlockCursor, ScoredCursor):
    """Scored cursor over one term's posting blocks.

    Holds a position (``seek`` at or before it is a no-op, per the
    scored-cursor contract) and scores it with the row's tf.  ``block_max``
    turns a block's trailer into a bound score: the current block's is at
    hand, any other costs one ``tree.get`` and no row decode.
    """

    def __init__(self, tree: BPlusTree, prefix: bytes, counter: ScanCounter,
                 scorer: Callable[[int, int], float], upper: float,
                 bound_for: Callable[[int], float]) -> None:
        super().__init__(tree, prefix, counter)
        self._scorer = scorer
        self._upper = upper
        self._bound_for = bound_for
        self._bounds: Dict[int, float] = {}
        _BlockCursor.next(self)

    def doc(self) -> Optional[int]:
        return self._doc

    def score(self) -> float:
        return self._scorer(self._doc, self._flat[2 * self._at + 1])

    next = _BlockCursor.next  # named here: the scored protocol's ``next`` too

    def seek(self, target: int) -> Optional[int]:
        if self._doc is None or target <= self._doc:
            return self._doc
        self._counter.seeks += 1
        return self._advance(target)

    def max_score(self) -> float:
        return self._upper

    def block_max(self, doc: int) -> float:
        block = doc >> BLOCK_SHIFT
        bound = self._bounds.get(block)
        if bound is None:
            if self._oids and self._oids[0] >> BLOCK_SHIFT == block:
                raw = self._raw
            else:
                raw = self._tree.get(self._prefix + _OID.pack(block))
            # No block, no postings: nothing in it can score.
            max_tf = _U32.unpack_from(raw, len(raw) - _U32.size)[0] if raw else 0
            bound = self._bounds[block] = self._bound_for(max_tf)
        return bound

    def block_end(self, doc: int) -> int:
        return (((doc >> BLOCK_SHIFT) + 1) << BLOCK_SHIFT) - 1


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
        # Declares the fulltext tree scope: a settle's transaction queues
        # only against other fulltext writers and readers.  A filesystem
        # operation indexing content *escalates* its open master
        # transaction with the fulltext lock here (master < fulltext is
        # the sanctioned order).
        with self._recovery.transaction(trees=("fulltext",)):
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
        for _key, raw in self._view.cursor(self._posting_prefix(term)):
            flat = _decode_block(raw)
            yield flat[0::2], flat[1::2], _U32.unpack_from(raw, len(raw) - _U32.size)[0]

    # ------------------------------------------------------------- mutation

    def _write_through(self, doc_id: int, length: int, sign: int,
                       records: Dict[bytes, Optional[bytes]]) -> None:
        """Add (``sign`` 1) or drop (-1) a document: everything but its rows.

        One sorted batch: ``records`` (its ``D`` and backlog chunks; None
        deletes), its ``L`` slot and ``S`` — each leaf is written once.
        """
        slot = (doc_id & (BLOCK_SPAN - 1)) * _U32.size
        stored = _U32.pack(length + 1 if sign > 0 else 0)

        def lengths(raw: Optional[bytes]) -> Optional[bytes]:
            raw = raw or _NO_LENGTHS
            raw = raw[:slot] + stored + raw[slot + _U32.size:]
            return raw if raw != _NO_LENGTHS else None

        def corpus(raw: Optional[bytes]) -> bytes:
            count, total = _STATS.unpack(raw) if raw else (0, 0)
            return _STATS.pack(count + sign, total + sign * length)

        updates = [(key, lambda _old, value=value: value) for key, value in records.items()]
        updates += [(self._length_key(doc_id >> BLOCK_SHIFT), lengths), (_STATS_KEY, corpus)]
        updates.sort(key=itemgetter(0))
        self._tree.apply_sorted(updates)
        for key, value in records.items():
            if not key.startswith(_DOC_PREFIX):
                (self._backlog.discard if value is None else self._backlog.add)(key)

    def _set_row(self, term: str, doc_id: int, tf: int, length: int = 0) -> None:
        """Set (``tf`` > 0) or drop (``tf`` = 0) the document's row of ``term``,
        and the term's statistics with it, in the overlay.

        Presence-aware: ``df`` moves only when the row appears or disappears
        (``max_tf`` / ``min_len`` only tighten on add and stay on remove — a
        stale bound costs pruning, never correctness), so re-deriving an
        edit the tree already holds changes nothing.  That is what makes a
        crash between two settle transactions, and the mount's re-derivation
        from the backlog, safe.
        """
        view, prefix = self._view, self._posting_prefix(term)
        key = prefix + _OID.pack(doc_id >> BLOCK_SHIFT)
        raw = view.get(key)
        block, present = _edit_block(raw, doc_id, tf)
        if block != raw:
            view.put(key, block, prefix)
        key = prefix[:-1] + _TERM_STATS_END
        raw = view.get(key)
        df, max_tf, min_len = _DF_RECORD.unpack(raw) if raw else (0, 0, 0)
        df += (tf > 0) - present
        if tf:
            max_tf = max(max_tf, tf)
            min_len = length if min_len == 0 else min(min_len, length)
        # The bounds stay (conservative) until the last posting goes.
        stats = _DF_RECORD.pack(df, max_tf, min_len) if df else None
        if stats != raw:
            view.put(key, stats)

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
                    for term in _parse_doc(chunks)[1]:
                        self._set_row(term, doc_id, 0)
                    continue
                length, positions = _parse_doc(self._doc_chunks(doc_id))
                tfs = struct.unpack(f">{len(positions)}I", b"".join(chunks))
                for term, tf in zip(positions, tfs):
                    self._set_row(term, doc_id, tf, length)

    def add_document(self, doc_id: int, text) -> int:
        """Index ``text`` under ``doc_id``; returns the number of terms stored.

        Re-adding an existing document replaces its previous contents.  The
        whole replace is one WAL transaction (or joins an enclosing one).
        """
        with self._txn():
            self.remove_document(doc_id)
            analyzed = self.analyzer.analyze_with_positions(text)
            occurrences: Dict[str, List[int]] = {}
            for term, position in analyzed:
                occurrences.setdefault(term, []).append(position)
            parts = [_U32.pack(len(analyzed))]
            for term, positions in occurrences.items():
                encoded, kept = _encode_term(term), positions[:MAX_STORED_POSITIONS]
                parts.append(_U16.pack(len(encoded)) + encoded)
                parts.append(struct.pack(f">B{len(kept)}I", len(kept), *kept))
            tfs = [len(positions) for positions in occurrences.values()]
            records: Dict[bytes, Optional[bytes]] = {}
            for kind, payload in ((_DOC_PREFIX, b"".join(parts)),
                                  (_PENDING_PREFIX, struct.pack(f">{len(tfs)}I", *tfs))):
                for seq, chunk in enumerate(_chunked(payload)):
                    records[self._doc_key(doc_id, seq, kind)] = chunk
            self._write_through(doc_id, len(analyzed), 1, records)
            for term, tf in zip(occurrences, tfs):
                self._set_row(term, doc_id, tf, len(analyzed))
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
            seq, key = 0, self._doc_key(doc_id, 0, _PENDING_PREFIX)
            while key in self._backlog:  # pending: no row of it is in the tree,
                records[key] = None      # so its backlog record just goes
                seq, key = seq + 1, self._doc_key(doc_id, seq + 1, _PENDING_PREFIX)
            if not seq:  # its rows are in the tree until a settle has dropped them
                for seq, chunk in enumerate(chunks):
                    records[self._doc_key(doc_id, seq, _REMOVED_PREFIX)] = chunk
            self._write_through(doc_id, length, -1, records)
            for term in positions:
                self._set_row(term, doc_id, 0)
            return True

    # --------------------------------------------------------------- settle

    @property
    def backlog(self) -> Tuple[int, int]:
        """``(documents with a backlog record, unsettled T keys)``."""
        documents = {key[:len(_PENDING_PREFIX) + _OID.size] for key in tuple(self._backlog)}
        return len(documents), len(self._view.edits)

    @property
    def settle_due(self) -> bool:
        # Not while one runs: its own chunk commits fire the hook too.
        return not self._settling and len(self._view.edits) >= SETTLE_KEYS

    def _settle_if_due(self) -> None:
        """The threshold trigger, called here only by a volatile engine: with
        a WAL the facade runs the same test from the recovery manager's
        ``after_commit`` hook — after the commit that crossed the line, never
        inside its transaction."""
        if self.settle_due:
            self.settle()

    def _apply_chunked(self, pairs: List[Tuple[bytes, Optional[bytes]]]) -> None:
        """Write sorted ``(key, value)`` pairs (None deletes) into the tree, in
        WAL transactions the journal has room for: past the checkpoint
        threshold the next transaction checkpoints first, so each may count
        on the journal's other part, and a key costs at most a first-touch
        page image plus a split's.  A cut never splits a :func:`_settle_group`.
        """
        limit = sys.maxsize
        if self._recovery is not None:
            journal, threshold = self._recovery.journal, self._recovery.checkpoint_threshold
            limit = max(1, int(journal.capacity_bytes * (1 - threshold))
                        // (2 * self._tree.node_byte_limit))
        start = 0
        while start < len(pairs):
            end = min(start + limit, len(pairs))
            while end < len(pairs) and (_settle_group(pairs[end][0])
                                        == _settle_group(pairs[end - 1][0])):
                end += 1
            with self._txn():
                self._tree.apply_sorted([(key, lambda _old, value=value: value)
                                         for key, value in pairs[start:end]])
            start = end

    def settle(self) -> int:
        """Write the overlay into the tree — one page write per touched leaf —
        and retire the backlog; returns the number of ``T`` keys written.

        Runs between transactions (a commit crossing :data:`SETTLE_KEYS`,
        checkpoint, close, mount), never inside one, with other writers held
        at the recovery manager's gate so none sees it half done; readers
        keep the overlay until the tree holds all of it.  ``R`` records go
        before ``P``: a crash then leaves at worst a ``P`` whose
        re-derivation is a no-op, never an ``R`` alone dropping rows its
        document's ``P`` would have put back.
        """
        if not (self._view.edits or self._backlog):
            return 0
        gate = self._recovery.quiesced() if self._recovery is not None else nullcontext()
        with gate:
            edits = self._view.edits
            if not (edits or self._backlog):
                return 0  # the settle this thread waited out at the gate did it
            self._settling = True
            try:
                self._apply_chunked(sorted(edits.items()))
                retired = sorted(self._backlog)
                for kind in (_REMOVED_PREFIX, _PENDING_PREFIX):
                    self._apply_chunked([(key, None) for key in retired if key.startswith(kind)])
            finally:
                self._settling = False
            self._view, self._backlog = _TermView(self._tree), set()
            self.settles += 1
            return len(edits)

    def update_document(self, doc_id: int, text) -> int:
        """Alias for :meth:`add_document` (which already replaces)."""
        return self.add_document(doc_id, text)

    def append_terms(self, doc_id: int, text) -> int:
        """Extend the document with ``text``'s terms (manual FULLTEXT tags).

        The read (current terms) and the replace are one WAL transaction,
        so the read cannot race another thread's structural tree mutation —
        the transaction lock serializes both.
        """
        with self._txn():
            existing = " ".join(self.terms_for(doc_id))
            return self.add_document(doc_id, (existing + " " + str(text)).strip())

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
        terms = self.analyzer.analyze_query(query)
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
        """Conjunctive search over pre-split terms."""
        return self.search(" ".join(terms))

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

    def rank(self, query, limit: Optional[int] = 10, k1: float = 1.5, b: float = 0.75,
             span=None) -> List[SearchHit]:
        """BM25-ranked disjunctive retrieval.

        With a ``limit`` the query streams through a WAND top-k merge
        (:class:`~repro.query.scored.WandCursor`), refined by the blocks'
        exact maxima: documents whose summed term upper bounds cannot beat the
        current k-th best score are skipped without being scored.  The
        result is identical — same floating-point scores, same order — to
        :meth:`rank_exhaustive`; only the work differs.  ``limit=None``
        ranks exhaustively (every matching document is wanted anyway).
        """
        if limit is None:
            return self.rank_exhaustive(query, limit=None, k1=k1, b=b)
        terms = self.analyzer.analyze_query(query)
        total_docs, total_tokens = self._read_stats()
        if not terms or not total_docs or limit <= 0:
            return []
        self.ranked.queries += 1
        average_length = total_tokens / total_docs
        length_for = self._length_memo()
        cursors = []
        for term in terms:
            df, max_tf, min_len = self._df_record(term)
            if df == 0:
                continue
            self.term_lookups += 1
            idf = bm25_idf(total_docs, df)
            upper = bm25_upper_bound(idf, k1, b, max_tf, min_len, average_length)
            # A block stores frequencies only, so the term's minimum length
            # feeds the length term of its bound (looser, never unsafe).
            cursors.append(_PostingScoredCursor(
                self._view, self._posting_prefix(term), self._scan,
                bm25_scorer(idf, k1, b, average_length, length_for), upper,
                lambda max_tf, idf=idf, min_len=min_len: bm25_upper_bound(
                    idf, k1, b, max_tf, min_len, average_length),
            ))
        top = WandCursor(cursors, limit, stats=self.ranked, span=span).top_k()
        return [SearchHit(doc_id=doc_id, score=score) for doc_id, score in top]

    def rank_exhaustive(
        self, query, limit: Optional[int] = None, k1: float = 1.5, b: float = 0.75
    ) -> List[SearchHit]:
        """BM25 ranking that scores every matching document (no pruning).

        The reference the differential harness holds :meth:`rank` against,
        and the ``limit=None`` execution path.
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
