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

Key layout (one tree, five record kinds)::

    S                          -> doc_count(8) | total_token_count(8)
    F \x00 term                -> document_frequency(8) | max_tf(8) | min_len(8)
    D \x00 oid(8) \x00 seq(4)  -> chunk of: doc_length(4) | term \x00 term ...
    T \x00 term \x00 oid(8)    -> tf(4) | npos(4) | position(4) * min(npos, 64)
    B \x00 term \x00 block(8)  -> max_tf(8) for oids in [block << 7, ...)

* ``T`` keys end in the big-endian oid, so a term's prefix range streams in
  ascending object-id order — the exact contract of the PR-2 cursor
  protocol.  Queries reuse the same B+-tree prefix-range cursor the
  key/value index streams with; nothing is materialized.
* ``F`` records make document-frequency (planner cardinality, rarest-first
  ordering, BM25 idf) an O(log n) point lookup instead of a range count.
  The trailing ``max_tf``/``min_len`` fields are the term's WAND
  upper-bound inputs: the largest term frequency and the smallest document
  length ever stored for the term (the shortest document maximizes the
  length-normalized contribution).  Both are maintained *monotonically*
  (adds tighten them, removes leave them) so they can only ever be
  conservative — a stale bound costs pruning power, never correctness —
  and they ride the same WAL transactions as the postings, so bounds
  survive crashes and remounts.
* ``B`` records are the block-max refinement: per-term maximum frequency
  over fixed aligned doc-id blocks of :data:`BLOCK_SPAN` oids, also
  maintained monotonically.  A WAND pivot that survives the global bound
  test is re-tested against the (much tighter) block bounds, and a whole
  block whose summed bounds cannot beat the heap is leapt over in one seek.
* ``D`` records hold the per-document stats BM25 needs (token count) plus
  the term list used to scrub postings on remove/update.  They are chunked
  so a document with a huge vocabulary can never produce a single btree
  entry larger than a page (single oversized entries cannot be split).
* ``S`` is the corpus aggregate (document count, total token count) so the
  BM25 average document length never needs a scan.

Positions are capped at :data:`MAX_STORED_POSITIONS` per posting: term
frequency stays exact (BM25 is unaffected) but phrase queries only consult
the stored prefix of a pathologically long document's occurrence list.

Mutations bracket themselves in a recovery-manager transaction, so an
``add_document`` inside an enclosing filesystem operation *joins* that
operation's WAL transaction (create = allocate + write + name + index is one
commit marker), while a background (lazy-indexing) worker's application
forms its own transaction — serialized against foreground transactions by
the recovery manager's transaction lock.
"""

from __future__ import annotations

import struct
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.btree import BPlusTree
from repro.errors import KeyNotFoundError
from repro.fulltext.analyzer import Analyzer
from repro.index.keyvalue_index import PrefixOidCursor
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
_DF_PREFIX = b"F\x00"
_DOC_PREFIX = b"D\x00"
_TERM_PREFIX = b"T\x00"
_BLOCK_PREFIX = b"B\x00"
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_STATS = struct.Struct(">QQ")
_POSTING_HEADER = struct.Struct(">II")
#: the modern ``F`` record: document frequency + the WAND bound inputs
#: (max term frequency, min document length).
_DF_RECORD = struct.Struct(">QQQ")

#: positions stored per posting; term frequency stays exact beyond the cap.
MAX_STORED_POSITIONS = 64
#: bytes per ``D`` chunk — small enough that a chunk entry always fits even
#: the smallest configured btree page.
DOC_CHUNK_BYTES = 768
#: aligned doc-id block geometry for the ``B`` block-max records: block id
#: is ``oid >> BLOCK_SHIFT``, so every block spans BLOCK_SPAN object ids.
BLOCK_SHIFT = 7
BLOCK_SPAN = 1 << BLOCK_SHIFT


@dataclass(frozen=True)
class SearchHit:
    """A ranked search result."""

    doc_id: int
    score: float


def _encode_term(term: str) -> bytes:
    # Analyzer tokens are lower-cased ``[a-z0-9_]`` runs, so the NUL
    # separator can never appear inside an encoded term.
    return term.encode("utf-8")


class _PostingScoredCursor(ScoredCursor):
    """Scored cursor over one term's persisted ``T`` prefix range.

    Streams ``(oid, tf)`` straight off the posting records; ``seek``
    re-descends the tree in O(log n) (clamped at the current position, per
    the scored-cursor contract).  ``block_max``/``block_end`` expose the
    persisted ``B`` block-max records through the engine-supplied resolver.
    """

    def __init__(
        self,
        tree_cursor,
        prefix: bytes,
        scorer: Callable[[int, int], float],
        upper: float,
        block_upper: Callable[[int], float],
        counter: Optional[ScanCounter] = None,
    ) -> None:
        self._cursor = tree_cursor
        self._prefix = prefix
        self._scorer = scorer
        self._upper = upper
        self._block_upper = block_upper
        self._counter = counter
        self._doc: Optional[int] = None
        self._tf = 0
        self._accept(self._cursor.next_item())

    def _accept(self, item) -> Optional[int]:
        if item is None:
            self._doc = None
            return None
        key, raw = item
        self._doc = _OID.unpack(key[len(self._prefix):])[0]
        self._tf = _POSTING_HEADER.unpack_from(raw, 0)[0]
        if self._counter is not None:
            self._counter.scanned += 1
        return self._doc

    def doc(self) -> Optional[int]:
        return self._doc

    def score(self) -> float:
        return self._scorer(self._doc, self._tf)

    def next(self) -> Optional[int]:
        if self._doc is None:
            return None
        return self._accept(self._cursor.next_item())

    def seek(self, target: int) -> Optional[int]:
        if self._doc is None or target <= self._doc:
            return self._doc
        if self._counter is not None:
            self._counter.seeks += 1
        return self._accept(self._cursor.seek(self._prefix + _OID.pack(target)))

    def max_score(self) -> float:
        return self._upper

    def block_max(self, doc: int) -> float:
        return self._block_upper(doc)

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

    def _txn(self):
        if self._recovery is None:
            return nullcontext()
        # Declares the fulltext tree scope: a background indexing
        # transaction queues only against other fulltext writers, so it
        # overlaps foreground master-tree transactions.  A foreground
        # operation indexing synchronously *escalates* its open master
        # transaction with the fulltext lock here (master < fulltext is
        # the sanctioned order).
        return self._recovery.transaction(trees=("fulltext",))

    # ---------------------------------------------------------------- keys

    def _df_key(self, term: str) -> bytes:
        return _DF_PREFIX + _encode_term(term)

    def _doc_prefix(self, doc_id: int) -> bytes:
        return _DOC_PREFIX + _OID.pack(doc_id) + _SEP

    def _doc_key(self, doc_id: int, seq: int) -> bytes:
        return self._doc_prefix(doc_id) + _U32.pack(seq)

    def _posting_prefix(self, term: str) -> bytes:
        return _TERM_PREFIX + _encode_term(term) + _SEP

    def _posting_key(self, term: str, doc_id: int) -> bytes:
        return self._posting_prefix(term) + _OID.pack(doc_id)

    def _block_prefix(self, term: str) -> bytes:
        return _BLOCK_PREFIX + _encode_term(term) + _SEP

    def _block_key(self, term: str, block: int) -> bytes:
        return self._block_prefix(term) + _U64.pack(block)

    # ------------------------------------------------------------- records

    def _read_stats(self) -> Tuple[int, int]:
        raw = self._tree.get(_STATS_KEY)
        return _STATS.unpack(raw) if raw is not None else (0, 0)

    def _bump_stats(self, docs: int, tokens: int) -> None:
        count, total = self._read_stats()
        self._tree.put(_STATS_KEY, _STATS.pack(count + docs, total + tokens))

    def _df_record(self, term: str) -> Tuple[int, int, int]:
        """``(document_frequency, max_tf, min_len)``; zeros for an unknown term."""
        raw = self._tree.get(self._df_key(term))
        return _DF_RECORD.unpack(raw) if raw is not None else (0, 0, 0)

    def _term_df(self, term: str) -> int:
        return self._df_record(term)[0]

    def _record_term_added(self, term: str, doc_id: int, tf: int, doc_len: int) -> None:
        """Account one new posting: df + 1, term and block bounds tightened."""
        df, max_tf, min_len = self._df_record(term)
        self._tree.put(
            self._df_key(term),
            _DF_RECORD.pack(
                df + 1,
                max(max_tf, tf),
                doc_len if min_len == 0 else min(min_len, doc_len),
            ),
        )
        block_key = self._block_key(term, doc_id >> BLOCK_SHIFT)
        raw = self._tree.get(block_key)
        if raw is None or _U64.unpack(raw)[0] < tf:
            self._tree.put(block_key, _U64.pack(tf))

    def _record_term_removed(self, term: str) -> None:
        """Account one dropped posting: df - 1; bounds stay (conservative).

        A removed document can strand a too-loose bound — harmless (pruning
        only gets less aggressive).  When the term's last posting goes, the
        frequency record and every block record are scrubbed with it.
        """
        df, max_tf, min_len = self._df_record(term)
        if df <= 1:
            if df == 1:
                self._tree.delete(self._df_key(term))
            doomed = [key for key, _value in self._tree.cursor(prefix=self._block_prefix(term))]
            for key in doomed:
                self._tree.delete(key)
            return
        self._tree.put(self._df_key(term), _DF_RECORD.pack(df - 1, max_tf, min_len))

    def _read_doc(self, doc_id: int) -> Optional[Tuple[int, List[str]]]:
        """``(doc_length, terms)`` from the chunked ``D`` records."""
        payload = b"".join(
            value for _key, value in self._tree.cursor(prefix=self._doc_prefix(doc_id))
        )
        if not payload:
            return None
        length = _U32.unpack_from(payload, 0)[0]
        body = payload[_U32.size:]
        terms = [t.decode("utf-8") for t in body.split(_SEP)] if body else []
        return length, terms

    def _write_doc(self, doc_id: int, length: int, terms: List[str]) -> None:
        payload = _U32.pack(length) + _SEP.join(_encode_term(t) for t in terms)
        for seq in range(0, max(1, -(-len(payload) // DOC_CHUNK_BYTES))):
            chunk = payload[seq * DOC_CHUNK_BYTES:(seq + 1) * DOC_CHUNK_BYTES]
            self._tree.put(self._doc_key(doc_id, seq), chunk)

    def _delete_doc_chunks(self, doc_id: int) -> None:
        keys = [key for key, _value in self._tree.cursor(prefix=self._doc_prefix(doc_id))]
        for key in keys:
            self._tree.delete(key)

    def _decode_posting(self, raw: bytes) -> Tuple[int, Tuple[int, ...]]:
        tf, npos = _POSTING_HEADER.unpack_from(raw, 0)
        positions = struct.unpack_from(f">{npos}I", raw, _POSTING_HEADER.size)
        return tf, positions

    # ------------------------------------------------------------- mutation

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
            for term, positions in occurrences.items():
                stored = positions[:MAX_STORED_POSITIONS]
                value = _POSTING_HEADER.pack(len(positions), len(stored))
                value += struct.pack(f">{len(stored)}I", *stored)
                self._tree.put(self._posting_key(term, doc_id), value)
                self._record_term_added(term, doc_id, len(positions), len(analyzed))
            self._write_doc(doc_id, len(analyzed), list(occurrences))
            self._bump_stats(docs=+1, tokens=len(analyzed))
            return len(occurrences)

    def remove_document(self, doc_id: int) -> bool:
        """Remove every posting of ``doc_id``; returns True if it was indexed.

        The existence probe runs *inside* the transaction: the recovery
        manager's transaction lock then serializes check-and-delete, so two
        racing removals (a lazy worker vs a foreground delete) cannot both
        pass the probe and double-decrement the corpus stats.
        """
        with self._txn():
            doc = self._read_doc(doc_id)
            if doc is None:
                return False
            length, terms = doc
            for term in terms:
                try:
                    self._tree.delete(self._posting_key(term, doc_id))
                except KeyNotFoundError:
                    continue
                self._record_term_removed(term)
            self._delete_doc_chunks(doc_id)
            self._bump_stats(docs=-1, tokens=-length)
            return True

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
        return sum(1 for _ in self._tree.cursor(prefix=_DF_PREFIX))

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
        return PrefixOidCursor(
            self._tree,
            self._posting_prefix(term),
            cardinality=lambda: df,
            counter=counter if counter is not None else self._scan,
        )

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
        B+-tree prefix-range cursors; seeks re-descend the tree in O(log n),
        so huge common terms are probed, never scanned end to end.
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
        each posting is consulted.
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
            positions: List[set] = []
            for term in terms:
                raw = self._tree.get(self._posting_key(term, doc_id))
                positions.append(set(self._decode_posting(raw)[1] if raw else ()))
            first_positions = positions[0]
            if any(
                all((start + offset) in positions[offset] for offset in range(1, len(terms)))
                for start in first_positions
            ):
                results.append(doc_id)
        return results

    # -------------------------------------------------------------- ranking

    def _length_memo(self) -> Callable[[int], int]:
        """A memoized doc-length resolver (chunk-0 header reads only)."""
        lengths: Dict[int, int] = {}

        def length_for(doc_id: int) -> int:
            if doc_id not in lengths:
                # Only the length header is needed — chunk 0 carries it,
                # so skip decoding the (possibly multi-chunk) term list.
                head = self._tree.get(self._doc_key(doc_id, 0))
                lengths[doc_id] = _U32.unpack_from(head, 0)[0] if head else 0
            return lengths[doc_id]

        return length_for

    def _block_bound_factory(
        self,
        term: str,
        idf: float,
        k1: float,
        b: float,
        term_upper: float,
        min_len: int,
        average_length: float,
    ) -> Callable[[int], float]:
        """Per-block upper-bound scores for ``term`` (memoized per query).

        Block records store frequencies only, so the term-level minimum
        length feeds the length term (a block's shortest doc can only be
        longer — looser, never unsafe).  Blocks without a ``B`` record
        fall back to the term-level bound entirely.
        """
        cache: Dict[int, float] = {}

        def block_upper(doc_id: int) -> float:
            block = doc_id >> BLOCK_SHIFT
            if block not in cache:
                raw = self._tree.get(self._block_key(term, block))
                if raw is None:
                    cache[block] = term_upper
                else:
                    cache[block] = bm25_upper_bound(
                        idf, k1, b, _U64.unpack(raw)[0], min_len, average_length
                    )
            return cache[block]

        return block_upper

    def rank(self, query, limit: Optional[int] = 10, k1: float = 1.5, b: float = 0.75,
             span=None) -> List[SearchHit]:
        """BM25-ranked disjunctive retrieval.

        With a ``limit`` the query streams through a WAND top-k merge
        (:class:`~repro.query.scored.WandCursor`), refined by the block-max
        records: documents whose summed term upper bounds cannot beat the
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
            cursors.append(
                _PostingScoredCursor(
                    self._tree.cursor(prefix=self._posting_prefix(term)),
                    self._posting_prefix(term),
                    bm25_scorer(idf, k1, b, average_length, length_for),
                    upper,
                    self._block_bound_factory(
                        term, idf, k1, b, upper, min_len, average_length
                    ),
                    counter=self._scan,
                )
            )
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
            for key, raw in self._tree.cursor(prefix=self._posting_prefix(term)):
                self.postings_scanned += 1
                doc_id = _OID.unpack(key[-_OID.size:])[0]
                tf = _POSTING_HEADER.unpack_from(raw, 0)[0]
                scores[doc_id] = scores.get(doc_id, 0.0) + score(doc_id, tf)
        self.ranked.documents_scored += len(scores)
        hits = [SearchHit(doc_id=doc_id, score=score) for doc_id, score in scores.items()]
        hits.sort(key=lambda hit: (-hit.score, hit.doc_id))
        if limit is not None:
            hits = hits[:limit]
        return hits

    def bound_violations(self, k1: float = 1.5, b: float = 0.75) -> List[str]:
        """Postings whose actual BM25 contribution escapes the stored bounds.

        The persisted-bound safety invariant — checked by the property test
        and the crash-torture audit after every recovery:

        * the ``F`` record's max tf (when present) dominates every live
          posting's term frequency;
        * every ``B`` block record dominates the frequencies of the live
          postings in its block (the query path trusts a block record
          whenever one exists);
        * the derived upper-bound *score* dominates every live posting's
          actual contribution under the current corpus statistics.

        Returns human-readable violations; empty means the invariant holds.
        """
        violations: List[str] = []
        total_docs, total_tokens = self._read_stats()
        if not total_docs:
            return violations
        average_length = total_tokens / total_docs
        length_for = self._length_memo()
        for term in self.vocabulary():
            df, term_max, term_min_len = self._df_record(term)
            idf = bm25_idf(total_docs, df)
            term_bound = bm25_upper_bound(idf, k1, b, term_max, term_min_len, average_length)
            score = bm25_scorer(idf, k1, b, average_length, length_for)
            prefix = self._posting_prefix(term)
            for key, raw in self._tree.cursor(prefix=prefix):
                doc_id = _OID.unpack(key[len(prefix):])[0]
                tf = _POSTING_HEADER.unpack_from(raw, 0)[0]
                if tf > term_max:
                    violations.append(
                        f"term {term!r} doc {doc_id}: stored max tf {term_max} < tf {tf}"
                    )
                block_raw = self._tree.get(self._block_key(term, doc_id >> BLOCK_SHIFT))
                if block_raw is not None and _U64.unpack(block_raw)[0] < tf:
                    violations.append(
                        f"term {term!r} doc {doc_id}: block bound "
                        f"{_U64.unpack(block_raw)[0]} < tf {tf}"
                    )
                actual = score(doc_id, tf)
                if actual > term_bound:
                    violations.append(
                        f"term {term!r} doc {doc_id}: contribution {actual} "
                        f"exceeds bound {term_bound}"
                    )
        return violations

    # ------------------------------------------------------------ inspection

    def terms_for(self, doc_id: int) -> List[str]:
        """The analyzed terms stored for ``doc_id`` (empty if not indexed)."""
        doc = self._read_doc(doc_id)
        return doc[1] if doc is not None else []

    def document_ids(self) -> List[int]:
        """Every indexed document id, ascending (one ``D``-prefix walk).

        The mount path uses this to scrub orphans: documents whose object
        was deleted while their (lazy) index application was still queued.
        """
        ids: List[int] = []
        for key, _value in self._tree.cursor(prefix=_DOC_PREFIX):
            doc_id = _OID.unpack_from(key, len(_DOC_PREFIX))[0]
            if not ids or ids[-1] != doc_id:  # chunks of one doc are adjacent
                ids.append(doc_id)
        return ids

    def vocabulary(self) -> List[str]:
        """All indexed terms, sorted (``F`` keys are already in term order)."""
        return [
            key[len(_DF_PREFIX):].decode("utf-8")
            for key, _value in self._tree.cursor(prefix=_DF_PREFIX)
        ]

    def reset_counters(self) -> None:
        self.term_lookups = 0
        self._scan.reset()
        self.ranked.reset()
