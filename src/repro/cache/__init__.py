"""The unified caching subsystem: buffer pool + query-result cache.

The paper's viability argument (Section 3) is that index lookups can match
hierarchical path traversal *given database-style buffer management*.  This
package supplies that memory hierarchy between the btrees and the simulated
block device:

* :class:`~repro.cache.buffer_pool.BufferPool` — a shared, fixed-budget page
  cache with LRU eviction, pin/unpin semantics, dirty-page write-back and
  per-consumer statistics.
  ``DevicePageStore`` (btree layer) and ``ObjectStore`` (OSD layer) are its
  main consumers.
* :class:`~repro.cache.query_cache.QueryResultCache` — memoised boolean-query
  results keyed by canonicalized query text, invalidated precisely through
  per-tag generation counters maintained by the
  :class:`~repro.index.store.IndexStoreRegistry`.

Knobs (also exposed on :class:`~repro.core.filesystem.HFADFileSystem`):
``cache_pages`` — the pool's global page budget, at least 1 for an on-device
engine; ``query_cache_entries=0`` disables result caching so benchmarks (E1,
E7) can measure the index path itself.
"""

from repro.cache.buffer_pool import BufferPool, CacheStats, PoolConsumer
from repro.cache.query_cache import (
    QueryCacheStats,
    QueryResultCache,
    RankedResultCache,
    canonical_key,
    query_tags,
)

__all__ = [
    "BufferPool",
    "CacheStats",
    "PoolConsumer",
    "QueryResultCache",
    "RankedResultCache",
    "QueryCacheStats",
    "canonical_key",
    "query_tags",
]
