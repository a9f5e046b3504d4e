"""repro.query — the streaming query-execution layer.

Sits below the query algebra (:mod:`repro.core.query`) and above the index
stores: stores open :class:`DocIdCursor` streams over their postings, the
algebra composes them with leapfrog intersection, k-way union merge and
streamed difference, and :func:`materialize` drains the pipeline with
optional top-k early exit.  Depends only on the standard library so every
layer of the system may import it.
"""

from repro.query.cursors import (
    UNKNOWN_ESTIMATE,
    DifferenceCursor,
    DocIdCursor,
    EmptyCursor,
    IntersectCursor,
    ListCursor,
    ScanCounter,
    UnionCursor,
    materialize,
)
from repro.query.scored import (
    RankStats,
    ScoredCursor,
    WandCursor,
    bm25_idf,
    bm25_scorer,
    bm25_upper_bound,
)

__all__ = [
    "UNKNOWN_ESTIMATE",
    "DifferenceCursor",
    "DocIdCursor",
    "EmptyCursor",
    "IntersectCursor",
    "ListCursor",
    "RankStats",
    "ScanCounter",
    "ScoredCursor",
    "UnionCursor",
    "WandCursor",
    "bm25_idf",
    "bm25_scorer",
    "bm25_upper_bound",
    "materialize",
]
