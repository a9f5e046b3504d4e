"""The hFAD naming interfaces.

"The naming interfaces map tagged search-terms to objects. ... An object is
named by one or more tag/value pairs. ... the result of such an operation is
the conjunction of the results of an index lookup for each element in the
vector.  Naming operations can return multiple items (which will be returned
in an unspecified order).  Moreover, no query need uniquely define a data
item.  Only the identifier for the data in the OSD layer must be unique."
(Section 3.1.1)

:class:`NamingInterface` implements exactly that contract over an
:class:`~repro.index.store.IndexStoreRegistry`, adds the boolean-query entry
point, and keeps the traversal counters experiment E1 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Union

from repro.errors import NamingError, NoMatchError, QueryError
from repro.index.store import IndexStoreRegistry
from repro.index.tags import TAG_FULLTEXT, TagValue
from repro.core.query import And, Query, QueryPlanner, TagTerm, parse_query
from repro.query.cursors import materialize
from repro.telemetry.registry import NULL_HISTOGRAM
from repro.telemetry.tracing import Span

#: things accepted wherever a tag/value pair is expected.
PairLike = Union[TagValue, "TagTerm", tuple, str]


def as_pair(value: PairLike) -> TagValue:
    """Coerce a pair-like value (TagValue, TagTerm, tuple, "TAG/value") to TagValue."""
    if isinstance(value, TagValue):
        return value
    if isinstance(value, TagTerm):
        return value.as_pair()
    if isinstance(value, tuple) and len(value) == 2:
        return TagValue(tag=value[0], value=value[1])
    if isinstance(value, str):
        return TagValue.parse(value)
    raise NamingError(f"cannot interpret {value!r} as a tag/value pair")


@dataclass
class NamingStats:
    """Counters surfaced by the naming layer."""

    naming_operations: int = 0
    queries: int = 0
    #: queries/resolves answered with top-k early exit (``limit=`` given).
    limited_queries: int = 0
    #: BM25-ranked retrievals routed through :meth:`NamingInterface.rank`.
    ranked_queries: int = 0
    names_added: int = 0
    names_removed: int = 0
    cached_results: int = 0


class NamingInterface:
    """Maps vectors of tag/value pairs to sets of object ids.

    When a :class:`~repro.cache.query_cache.QueryResultCache` is supplied,
    both naming operations and boolean queries are answered from it on
    repeats; per-tag generation counters on the registry keep the cache
    precise across mutations.
    """

    def __init__(
        self,
        registry: IndexStoreRegistry,
        planner: Optional[QueryPlanner] = None,
        query_cache=None,
        ranked_cache=None,
        telemetry=None,
    ) -> None:
        self.registry = registry
        self.planner = planner if planner is not None else QueryPlanner()
        self.query_cache = query_cache
        #: optional RankedResultCache: memoises rank() answers against the
        #: FULLTEXT generation (boolean results use query_cache instead).
        self.ranked_cache = ranked_cache
        self.stats = NamingStats()
        # ``telemetry`` is a repro.telemetry.Telemetry bundle (or None).  The
        # tracer doubles as the enabled/disabled switch for the timed paths:
        # with it None each entry point costs one extra ``is not None`` check.
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None:
            metrics = telemetry.metrics
            self._naming_latency = metrics.histogram(
                "naming.latency_us", "resolve() wall time (microseconds)")
            self._query_latency = metrics.histogram(
                "query.latency_us", "boolean query wall time (microseconds)")
            self._rank_latency = metrics.histogram(
                "rank.latency_us", "ranked retrieval wall time (microseconds)")
        else:
            self._naming_latency = NULL_HISTOGRAM
            self._query_latency = NULL_HISTOGRAM
            self._rank_latency = NULL_HISTOGRAM

    def _evaluate(self, query: Query, limit: Optional[int] = None) -> List[int]:
        """Evaluate through the query cache when one is configured.

        On a cache hit no evaluation runs, so ``planner.last_plan`` keeps
        whatever the last *evaluated* query planned.

        ``limit`` streams the cursor pipeline with top-k early exit.  The
        cache stays correct around it by caching only fully-consumed
        streams: a full (unlimited or exhausted-before-limit) result is
        stored under the query's canonical key and can serve any later
        limit as a prefix; a truncated result is stored under a
        limit-qualified key and only ever serves that exact limit.
        """
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise QueryError(f"limit must be non-negative, got {limit}")
            self.stats.limited_queries += 1
            if limit == 0:
                return []
        if self.query_cache is None:
            results, _exhausted = materialize(
                query.cursor(self.registry, self.planner), limit=limit
            )
            return results
        key = self.query_cache.canonical_key(query)
        cached = self.query_cache.lookup(query, key=key)
        if cached is not None:
            self.stats.cached_results += 1
            return cached if limit is None else cached[:limit]
        limited_key = None
        if limit is not None:
            limited_key = f"{key} LIMIT {limit}"
            cached = self.query_cache.lookup(query, key=limited_key)
            if cached is not None:
                self.stats.cached_results += 1
                return cached
        # Snapshot generations before evaluating: a concurrent mutation (e.g.
        # another thread's create) then prevents the stale result from being
        # cached under the post-mutation generation.
        snapshot = self.query_cache.generations_for(query)
        results, exhausted = materialize(
            query.cursor(self.registry, self.planner), limit=limit, probe_exhaustion=True
        )
        # An exhausted stream is the complete answer even when a limit was
        # set, so it may serve unlimited repeats too.
        store_key = key if exhausted else limited_key
        self.query_cache.store(query, results, snapshot=snapshot, key=store_key,
                               limited=not exhausted)
        return results

    # ------------------------------------------------------------- naming

    def add_name(self, oid: int, pair: PairLike) -> None:
        """Name ``oid`` with one tag/value pair."""
        pair = as_pair(pair)
        self.registry.insert(pair.tag, pair.value, oid)
        self.stats.names_added += 1

    def add_names(self, oid: int, pairs: Iterable[PairLike]) -> None:
        """Name ``oid`` with several pairs at once."""
        for pair in pairs:
            self.add_name(oid, pair)

    def remove_name(self, oid: int, pair: PairLike) -> bool:
        """Remove one name from ``oid``; returns True if it existed."""
        pair = as_pair(pair)
        removed = self.registry.remove(pair.tag, pair.value, oid)
        if removed:
            self.stats.names_removed += 1
        return removed

    def remove_all_names(self, oid: int) -> int:
        """Strip every name from ``oid`` (object deletion path)."""
        removed = self.registry.remove_object(oid)
        self.stats.names_removed += removed
        return removed

    def names_for(self, oid: int) -> List[TagValue]:
        """Every tag/value pair currently naming ``oid``."""
        return self.registry.names_for(oid)

    # ------------------------------------------------------------ resolving

    def resolve(
        self,
        pairs: Union[PairLike, Sequence[PairLike]],
        limit: Optional[int] = None,
    ) -> List[int]:
        """The paper's naming operation: conjunction of each pair's matches.

        ``limit`` returns only the first ``limit`` matching ids (ascending),
        stopping the index merge as soon as they are found.
        """
        if isinstance(pairs, (TagValue, TagTerm, str, tuple)):
            pairs = [pairs]
        coerced = [as_pair(pair) for pair in pairs]
        if not coerced:
            raise NamingError("a naming operation needs at least one tag/value pair")
        self.stats.naming_operations += 1
        # Always evaluate through And so the planner runs (and refreshes
        # last_plan) even for a single pair; the query cache normalizes
        # single-child conjunctions, so And([t]) and a bare t share a key.
        query = And([TagTerm.from_pair(pair) for pair in coerced])
        if self._tracer is None:
            return self._evaluate(query, limit=limit)
        started = perf_counter()
        results = self._evaluate(query, limit=limit)
        elapsed = perf_counter() - started
        self._naming_latency.observe(elapsed * 1e6)
        self._tracer.record("naming", query, elapsed, len(results))
        return results

    def resolve_one(self, pairs: Union[PairLike, Sequence[PairLike]]) -> int:
        """Resolve and insist on at least one match (returning the first).

        "No query need uniquely define a data item" — so this helper picks the
        lowest object id when several match; callers needing all matches use
        :meth:`resolve`.  Streams with ``limit=1``: the index merge stops at
        the first match instead of materializing every one.
        """
        matches = self.resolve(pairs, limit=1)
        if not matches:
            raise NoMatchError(f"no object named by {pairs!r}")
        return matches[0]

    def query(self, query: Union[str, Query], limit: Optional[int] = None) -> List[int]:
        """Evaluate a boolean query (textual or programmatic).

        ``limit=N`` streams the first ``N`` matching ids (ascending) and
        stops — large operands are never fully scanned for a top-k ask.
        """
        if isinstance(query, str):
            query = parse_query(query)
        self.stats.queries += 1
        if self._tracer is None:
            return self._evaluate(query, limit=limit)
        started = perf_counter()
        results = self._evaluate(query, limit=limit)
        elapsed = perf_counter() - started
        self._query_latency.observe(elapsed * 1e6)
        self._tracer.record("boolean", query, elapsed, len(results))
        return results

    def rank(self, text: str, limit: Optional[int] = 10):
        """BM25-ranked full-text retrieval over the FULLTEXT store.

        Ranked results are *ordered* (best first), unlike the unordered
        naming operations above, and with a ``limit`` they stream through
        the WAND scored-cursor merge — documents that provably cannot reach
        the top k are skipped without being scored.  Results bypass the
        *boolean* query cache (scores depend on corpus-wide statistics, so
        per-tag oid sets cannot serve them), but a configured
        :class:`~repro.cache.query_cache.RankedResultCache` memoises whole
        answers against the FULLTEXT generation — every mutation of the
        full-text store bumps it, so a cached answer is valid exactly until
        the corpus statistics it priced in change.
        """
        store = self.registry.store_for(TAG_FULLTEXT)
        self.stats.ranked_queries += 1
        cache = self.ranked_cache
        generation = None
        if cache is not None:
            cached = cache.lookup(text, limit)
            if cached is not None:
                self.stats.cached_results += 1
                return cached
            generation = cache.generation()
        if self._tracer is None:
            results = store.rank(text, limit=limit)
            if cache is not None:
                cache.store(text, limit, results, generation)
            return results
        span = Span("wand", detail=text)
        started = perf_counter()
        results = store.rank(text, limit=limit, span=span)
        elapsed = perf_counter() - started
        self._rank_latency.observe(elapsed * 1e6)
        self._tracer.record("ranked", text, elapsed, len(results), span=span)
        if cache is not None:
            cache.store(text, limit, results, generation)
        return results
