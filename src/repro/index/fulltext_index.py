"""FULLTEXT index store: the inverted index behind the FULLTEXT tag.

"A full text search on search terms S1, S2, ... Sn translates into a naming
operation on the vector of tag/value pairs of the form FULLTEXT/S1,
FULLTEXT/S2, etc." (Section 3.1.1).  Each individual pair lookup returns the
objects containing that term; the conjunction is taken by the registry /
query planner above, exactly as the paper specifies.

Content enters the index through :meth:`FullTextIndexStore.index_content`,
inside the calling operation's WAL transaction; the engine defers the posting
writes themselves (its durable backlog — the paper's Section 3.4 lazy
indexing), never the document's visibility.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.fulltext import Analyzer, PersistentInvertedIndex
from repro.index.store import IndexStore
from repro.index.tags import TAG_FULLTEXT, TagValue


class FullTextIndexStore(IndexStore):
    """Serves the FULLTEXT tag by delegating to the inverted index."""

    name = "fulltext"

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        index: Optional[PersistentInvertedIndex] = None,
    ) -> None:
        #: the engine: over an in-memory tree by default; the filesystem
        #: passes one over an on-device, WAL-logged tree when it persists
        #: postings.
        self.index = index if index is not None else PersistentInvertedIndex(analyzer=analyzer)
        #: optional callable invoked after each content apply (indexed or
        #: dropped); the file-system facade points this at the registry's
        #: generation bump for FULLTEXT so query caches invalidate precisely.
        self.on_mutation = None

    def _notify_mutation(self) -> None:
        if self.on_mutation is not None:
            self.on_mutation()

    def tags(self) -> Sequence[str]:
        return (TAG_FULLTEXT,)

    # ------------------------------------------------------ content intake

    def index_content(self, oid: int, content) -> None:
        """Index an object's content (replacing what it had)."""
        self.index.add_document(oid, content)
        self._notify_mutation()

    def drop_content(self, oid: int) -> None:
        """Remove an object's content from the index."""
        self.index.remove_document(oid)
        self._notify_mutation()

    # ---------------------------------------------------------- interface

    def insert(self, tag: str, value: str, oid: int) -> None:
        # Naming an object with FULLTEXT/term directly (rather than via
        # content indexing) adds just that term — useful for manual keywords.
        # append_terms makes the read-modify-write atomic inside the engine
        # and analyzes only ``value``: the stored stems stay as they are.
        self.index.append_terms(oid, value)

    def remove(self, tag: str, value: str, oid: int) -> bool:
        return self.index.remove_terms(oid, value)

    def lookup(self, tag: str, value: str) -> List[int]:
        return self.index.search(value)

    def open_cursor(self, tag: str, value: str):
        """Stream matches from the posting lists instead of materializing.

        A multi-term value becomes a rarest-first leapfrog intersection of
        posting cursors inside the inverted index; "postings scanned" then
        counts only the postings the merge actually touches.
        """
        return self.index.cursor(value)

    def remove_object(self, oid: int) -> int:
        had_terms = len(self.index.terms_for(oid))
        self.index.remove_document(oid)
        return 1 if had_terms else 0

    def values_for(self, oid: int) -> List[TagValue]:
        terms = self.index.terms_for(oid)
        return [TagValue(tag=TAG_FULLTEXT, value=term) for term in sorted(terms)]

    @property
    def document_count(self) -> int:
        """Indexed documents (for stats)."""
        return self.index.document_count

    # -------------------------------------------------------------- extras

    def cardinality(self, tag: str, value: str) -> int:
        """Document frequency of the (analyzed) term — used by the planner."""
        return self.index.document_frequency(value)

    def rank(self, query: str, limit: Optional[int] = 10, span=None):
        """BM25-ranked hits, scored a posting block at a time with block-max
        pruning (``limit=None`` keeps every match).

        ``span`` is an optional telemetry span the block scorer stamps with
        its work counters (duck-typed; the engine never imports telemetry).
        """
        return self.index.rank(query, limit=limit, span=span)

    def rank_exhaustive(self, query: str, limit: Optional[int] = None):
        """BM25 ranking with no pruning — the differential-test reference."""
        return self.index.rank_exhaustive(query, limit=limit)

    @property
    def ranked_stats(self):
        """The engine's :class:`~repro.query.scored.RankStats` counters."""
        return self.index.ranked
