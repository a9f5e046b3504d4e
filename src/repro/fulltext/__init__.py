"""Full-text search engine (Lucene substitute).

hFAD's FULLTEXT index store is, in the paper, "Lucene ported to sit atop the
raw device and the storage allocator", with "background threads to perform
lazy full-text indexing" (Section 3.4).  This package reproduces the
behaviourally relevant parts; the lazy part is the engine's durable posting
backlog — a document is searchable when its create returns, its postings
reach the tree later in sorted batches (experiment E6):

* :mod:`repro.fulltext.analyzer` — tokenization, stop-word removal and a
  light suffix-stripping stemmer.
* :mod:`repro.fulltext.persistent_index` — the inverted index, stored in
  one B+-tree (in memory or on the device): document add/remove/update,
  conjunctive (AND) and disjunctive (OR) term queries, phrase queries, and
  BM25 ranking.
"""

from repro.fulltext.analyzer import Analyzer
from repro.fulltext.persistent_index import PersistentInvertedIndex, SearchHit

__all__ = [
    "Analyzer",
    "PersistentInvertedIndex",
    "SearchHit",
]
