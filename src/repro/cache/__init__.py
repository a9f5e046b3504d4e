"""The unified caching subsystem: buffer pool + query-result cache.

The paper's viability argument (Section 3) is that index lookups can match
hierarchical path traversal *given database-style buffer management*.  This
package supplies that memory hierarchy between the btrees and the simulated
block device:

* :class:`~repro.cache.buffer_pool.BufferPool` — a shared, fixed-budget page
  cache with LRU eviction (:mod:`repro.cache.policies`), pin/unpin
  semantics, dirty-page write-back and per-consumer statistics.
  ``DevicePageStore`` (btree layer) and ``ObjectStore`` (OSD layer) are its
  main consumers.
* :class:`~repro.cache.query_cache.QueryResultCache` — memoised boolean-query
  results keyed by canonicalized query text, invalidated precisely through
  per-tag generation counters maintained by the
  :class:`~repro.index.store.IndexStoreRegistry`.

Knobs (also exposed on :class:`~repro.core.filesystem.HFADFileSystem`):
``capacity`` — global page budget; ``cache_pages=0`` /
``query_cache_entries=0`` disable a layer entirely so ablation benchmarks
(E1, E7, E9) can measure the uncached path.
"""

from repro.cache.buffer_pool import BufferPool, CacheStats, PoolConsumer
from repro.cache.policies import EvictionPolicy, LRUPolicy
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
    "EvictionPolicy",
    "LRUPolicy",
    "QueryResultCache",
    "RankedResultCache",
    "QueryCacheStats",
    "canonical_key",
    "query_tags",
]
