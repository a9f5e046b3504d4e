"""FULLTEXT index store: the inverted index behind the FULLTEXT tag.

"A full text search on search terms S1, S2, ... Sn translates into a naming
operation on the vector of tag/value pairs of the form FULLTEXT/S1,
FULLTEXT/S2, etc." (Section 3.1.1).  Each individual pair lookup returns the
objects containing that term; the conjunction is taken by the registry /
query planner above, exactly as the paper specifies.

Content enters the index either synchronously or through the lazy background
indexer (Section 3.4); the file-system facade decides which, and experiment
E6 measures the difference.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.fulltext import Analyzer, LazyIndexer, PersistentInvertedIndex
from repro.index.store import IndexStore
from repro.index.tags import TAG_FULLTEXT, TagValue
from repro.query.cursors import ListCursor


class FullTextIndexStore(IndexStore):
    """Serves the FULLTEXT tag by delegating to the inverted index."""

    name = "fulltext"

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        lazy: bool = False,
        workers: int = 1,
        index: Optional[PersistentInvertedIndex] = None,
        max_queue: int = 1024,
    ) -> None:
        #: the engine: over an in-memory tree by default; the filesystem
        #: passes one over an on-device, WAL-logged tree when it persists
        #: postings.
        self.index = index if index is not None else PersistentInvertedIndex(analyzer=analyzer)
        self.lazy = lazy
        #: a WAL-bracketed engine serializes its own mutations under the
        #: recovery manager's transaction lock; an engine without a WAL has
        #: only the worker lock to hide behind.
        self._engine_wal_serialized = self.index._recovery is not None
        if self._engine_wal_serialized:
            # A bounded queue's blocking enqueue could deadlock against the
            # transaction lock: the submitter (inside a WAL transaction)
            # holds the lock the worker needs in order to drain.
            max_queue = 0
        #: optional callable invoked whenever the inverted index actually
        #: changes (content indexed or dropped, possibly on a worker thread);
        #: the file-system facade points this at the registry's generation
        #: bump for FULLTEXT so query caches invalidate precisely.
        self.on_mutation = None
        self.indexer = LazyIndexer(
            index=self.index,
            workers=workers,
            synchronous=not lazy,
            on_apply=self._notify_mutation,
            max_queue=max_queue,
        )

    def _notify_mutation(self) -> None:
        if self.on_mutation is not None:
            self.on_mutation()

    def _foreground_mutation_guard(self):
        """Serialize a foreground index mutation against lazy workers.

        With a WAL-bracketed engine the mutation's own transaction already
        excludes the workers (taking the worker lock here would invert the
        worker's lock → transaction-lock order and deadlock).  An engine
        without a WAL has no such serialization, so the worker lock is taken.
        """
        if self.lazy and not self._engine_wal_serialized:
            return self.indexer.mutation_lock()
        return nullcontext()

    def tags(self) -> Sequence[str]:
        return (TAG_FULLTEXT,)

    # ------------------------------------------------------ content intake

    def index_content(self, oid: int, content) -> None:
        """Submit an object's content for (possibly lazy) indexing."""
        self.indexer.submit(oid, content)

    def drop_content(self, oid: int) -> None:
        """Remove an object's content from the index."""
        self.indexer.submit_removal(oid)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait for background indexing to catch up (no-op when synchronous)."""
        return self.indexer.flush(timeout=timeout)

    def close(self) -> None:
        self.indexer.close()

    # ---------------------------------------------------------- interface

    def insert(self, tag: str, value: str, oid: int) -> None:
        # Naming an object with FULLTEXT/term directly (rather than via
        # content indexing) adds just that term — useful for manual keywords.
        # In lazy mode the mutation rides the worker queue so it stays FIFO
        # with any in-flight content add for the same object (applying it
        # inline would read — and then clobber or be clobbered by — index
        # state the queued content has not reached yet).  append_terms makes
        # the read-modify-write atomic inside the engine.
        if self.lazy:
            self.indexer.submit_apply(lambda: self.index.append_terms(oid, value))
            return
        self.index.append_terms(oid, value)

    def remove(self, tag: str, value: str, oid: int) -> bool:
        # Removals stay foreground-synchronous: the boolean result feeds the
        # naming layer's bookkeeping, so they jump the worker queue (the
        # documented visibility-lag semantics of lazy mode).
        with self._foreground_mutation_guard():
            terms = self.index.analyzer.analyze_query(value)
            existing = self.index.terms_for(oid)
            if not existing or not any(term in existing for term in terms):
                return False
            remaining = [term for term in existing if term not in terms]
            if remaining:
                self.index.add_document(oid, " ".join(remaining))
            else:
                self.index.remove_document(oid)
            return True

    def lookup(self, tag: str, value: str) -> List[int]:
        if self.lazy:
            return self.indexer.search(value)
        return self.index.search(value)

    def open_cursor(self, tag: str, value: str):
        """Stream matches from the posting lists instead of materializing.

        A multi-term value becomes a rarest-first leapfrog intersection of
        posting cursors inside the inverted index; "postings scanned" then
        counts only the postings the merge actually touches.

        In lazy mode the result is materialized under the worker lock
        instead: a live cursor would read the index (a multi-page btree
        traversal) concurrently with a worker thread structurally mutating
        it.
        """
        if self.lazy:
            return ListCursor(self.indexer.search(value))
        return self.index.cursor(value)

    def remove_object(self, oid: int) -> int:
        with self._foreground_mutation_guard():
            had_terms = len(self.index.terms_for(oid))
            self.index.remove_document(oid)
            return 1 if had_terms else 0

    def values_for(self, oid: int) -> List[TagValue]:
        # Callers hold no transaction lock here, so in lazy mode the read
        # goes through the worker lock.
        terms = self.indexer.terms_for(oid) if self.lazy else self.index.terms_for(oid)
        return [TagValue(tag=TAG_FULLTEXT, value=term) for term in sorted(terms)]

    @property
    def document_count(self) -> int:
        """Indexed documents (worker-lock-safe in lazy mode; for stats)."""
        if self.lazy:
            return self.indexer.document_count
        return self.index.document_count

    # -------------------------------------------------------------- extras

    def cardinality(self, tag: str, value: str) -> int:
        """Document frequency of the (analyzed) term — used by the planner."""
        if self.lazy:
            return self.indexer.document_frequency(value)
        return self.index.document_frequency(value)

    def rank(self, query: str, limit: Optional[int] = 10, span=None):
        """BM25-ranked hits (WAND top-k pruning when ``limit`` is set).

        ``span`` is an optional telemetry span the WAND merge stamps with
        its work counters (duck-typed; the engine never imports telemetry).
        """
        if self.lazy:
            return self.indexer.rank(query, limit=limit, span=span)
        return self.index.rank(query, limit=limit, span=span)

    def rank_exhaustive(self, query: str, limit: Optional[int] = None):
        """BM25 ranking with no pruning — the differential-test reference."""
        if self.lazy:
            return self.indexer.rank_exhaustive(query, limit=limit)
        return self.index.rank_exhaustive(query, limit=limit)

    @property
    def ranked_stats(self):
        """The engine's :class:`~repro.query.scored.RankStats` counters."""
        return self.index.ranked
