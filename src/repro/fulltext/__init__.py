"""Full-text search engine (Lucene substitute).

hFAD's FULLTEXT index store is, in the paper, "Lucene ported to sit atop the
raw device and the storage allocator", with "background threads to perform
lazy full-text indexing" (Section 3.4).  This package reproduces the
behaviourally relevant parts:

* :mod:`repro.fulltext.analyzer` — tokenization, stop-word removal and a
  light suffix-stripping stemmer.
* :mod:`repro.fulltext.persistent_index` — the inverted index, stored in
  one B+-tree (in memory or on the device): document add/remove/update,
  conjunctive (AND) and disjunctive (OR) term queries, phrase queries, and
  BM25 ranking.
* :mod:`repro.fulltext.lazy_indexer` — the background indexing pipeline:
  documents are queued and indexed by worker threads, so ingest latency and
  query visibility lag can be traded off (experiment E6).
"""

from repro.fulltext.analyzer import Analyzer
from repro.fulltext.lazy_indexer import LazyIndexer
from repro.fulltext.persistent_index import PersistentInvertedIndex, SearchHit

__all__ = [
    "Analyzer",
    "PersistentInvertedIndex",
    "SearchHit",
    "LazyIndexer",
]
