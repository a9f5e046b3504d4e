"""QueryResultCache: canonical keys, precise generation invalidation, and
end-to-end behaviour through the registry and the file-system facade."""

import pytest

from repro.cache import QueryResultCache, canonical_key, query_tags
from repro.core.query import And, Or, TagTerm, parse_query
from repro.errors import CacheError
from repro.index import IndexStoreRegistry, KeyValueIndexStore


@pytest.fixture
def registry():
    reg = IndexStoreRegistry()
    reg.register(KeyValueIndexStore(tags=["USER", "APP", "UDEF"]))
    reg.insert("USER", "margo", 1)
    reg.insert("USER", "margo", 2)
    reg.insert("USER", "keith", 3)
    reg.insert("APP", "quicken", 2)
    return reg


class TestCanonicalKey:
    def test_term(self):
        assert canonical_key(TagTerm("user", "margo")) == "'USER'/'margo'"

    def test_and_children_sorted(self):
        a = parse_query("USER/margo AND APP/quicken")
        b = parse_query("APP/quicken AND USER/margo")
        assert canonical_key(a) == canonical_key(b)

    def test_or_children_sorted(self):
        a = parse_query("USER/margo OR APP/quicken")
        b = parse_query("APP/quicken OR USER/margo")
        assert canonical_key(a) == canonical_key(b)

    def test_not_and_nesting(self):
        query = parse_query("USER/margo AND NOT APP/quicken")
        assert canonical_key(query) == "('USER'/'margo' AND NOT 'APP'/'quicken')"

    def test_accepts_text(self):
        assert canonical_key("user/margo") == "'USER'/'margo'"

    def test_operator_lookalike_values_do_not_collide(self):
        # A value containing " OR UDEF/c" must not canonicalize to the same
        # key as the genuinely three-way disjunction.
        sneaky = Or([TagTerm("UDEF", "a"), TagTerm("UDEF", "b OR UDEF/c")])
        honest = Or([TagTerm("UDEF", "a"), TagTerm("UDEF", "b"), TagTerm("UDEF", "c")])
        assert canonical_key(sneaky) != canonical_key(honest)

    def test_single_child_groups_normalize_to_the_child(self):
        term = TagTerm("USER", "margo")
        assert canonical_key(And([term])) == canonical_key(term)
        assert canonical_key(Or([term])) == canonical_key(term)

    def test_and_or_distinguished(self):
        assert canonical_key(parse_query("A/1 AND B/2")) != canonical_key(
            parse_query("A/1 OR B/2")
        )

    def test_rejects_non_query(self):
        with pytest.raises(CacheError):
            canonical_key(42)


class TestQueryTags:
    def test_collects_all_tags(self):
        query = parse_query("USER/margo AND (FULLTEXT/beach OR UDEF/vacation) AND NOT APP/quicken")
        assert query_tags(query) == {"USER", "FULLTEXT", "UDEF", "APP"}


class TestGenerations:
    def test_start_at_zero(self, registry):
        assert registry.generation("FOO") == 0

    def test_insert_bumps_only_that_tag(self, registry):
        before_user = registry.generation("USER")
        before_app = registry.generation("APP")
        registry.insert("USER", "margo", 9)
        assert registry.generation("USER") == before_user + 1
        assert registry.generation("APP") == before_app

    def test_failed_remove_does_not_bump(self, registry):
        before = registry.generation("USER")
        assert not registry.remove("USER", "nobody", 42)
        assert registry.generation("USER") == before

    def test_remove_object_bumps_tags_of_affected_stores(self, registry):
        before = registry.generation("USER")
        registry.remove_object(1)
        assert registry.generation("USER") > before


class TestQueryResultCache:
    def test_miss_store_hit(self, registry):
        cache = QueryResultCache(registry)
        query = parse_query("USER/margo")
        assert cache.lookup(query) is None
        cache.store(query, [1, 2])
        assert cache.lookup(query) == [1, 2]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_result_is_copied_out(self, registry):
        cache = QueryResultCache(registry)
        query = parse_query("USER/margo")
        cache.store(query, [1, 2])
        result = cache.lookup(query)
        result.append(99)
        assert cache.lookup(query) == [1, 2]

    def test_mutation_invalidates_precisely(self, registry):
        cache = QueryResultCache(registry)
        user_q = parse_query("USER/margo")
        app_q = parse_query("APP/quicken")
        cache.store(user_q, [1, 2])
        cache.store(app_q, [2])
        registry.insert("USER", "margo", 7)
        # The USER query is stale, the APP query survives.
        assert cache.lookup(user_q) is None
        assert cache.lookup(app_q) == [2]
        assert cache.stats.stale_drops == 1

    def test_remove_invalidates(self, registry):
        cache = QueryResultCache(registry)
        query = parse_query("USER/margo")
        cache.store(query, [1, 2])
        registry.remove("USER", "margo", 1)
        assert cache.lookup(query) is None

    def test_conjunction_invalidated_by_any_of_its_tags(self, registry):
        cache = QueryResultCache(registry)
        query = parse_query("USER/margo AND NOT APP/quicken")
        cache.store(query, [1])
        registry.insert("APP", "quicken", 1)  # only the negated tag changes
        assert cache.lookup(query) is None

    def test_lru_bounded(self, registry):
        cache = QueryResultCache(registry, capacity=2)
        for oid in range(5):
            cache.store(TagTerm("USER", f"u{oid}"), [oid])
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_capacity_must_be_positive(self, registry):
        with pytest.raises(CacheError):
            QueryResultCache(registry, capacity=0)

    def test_store_skipped_when_mutation_raced_the_evaluation(self, registry):
        # Regression: a mutation landing between evaluation and store must
        # not cache the (possibly stale) result under the fresh generation.
        cache = QueryResultCache(registry)
        query = parse_query("USER/margo")
        snapshot = cache.generations_for(query)
        registry.insert("USER", "margo", 99)  # races the evaluation
        cache.store(query, [1, 2], snapshot=snapshot)
        assert cache.lookup(query) is None
        assert cache.stats.racy_skips == 1

    def test_store_with_current_snapshot_succeeds(self, registry):
        cache = QueryResultCache(registry)
        query = parse_query("USER/margo")
        snapshot = cache.generations_for(query)
        cache.store(query, [1, 2], snapshot=snapshot)
        assert cache.lookup(query) == [1, 2]


class TestAdmission:
    def test_full_and_limited_admissions_are_counted(self, registry):
        cache = QueryResultCache(registry)
        cache.store(parse_query("USER/margo"), [1, 2])
        cache.store(parse_query("APP/quicken"), [2], limited=True)
        assert cache.stats.admitted_full == 1
        assert cache.stats.admitted_limited == 1
        snap = cache.stats.snapshot()
        assert snap["admitted_full"] == 1
        assert snap["admitted_limited"] == 1

    def test_every_admission_decision_is_counted(self, registry):
        cache = QueryResultCache(registry)
        user_q = parse_query("USER/margo")
        cache.store(user_q, [1, 2])
        cache.store(parse_query("APP/quicken"), [2], limited=True)
        snapshot = cache.generations_for(user_q)
        registry.insert("USER", "margo", 99)
        cache.store(user_q, [1, 2], snapshot=snapshot)
        # One full admission, one limited, and the racy store admitted neither.
        assert (cache.stats.admitted_full, cache.stats.admitted_limited,
                cache.stats.racy_skips, cache.stats.stores) == (1, 1, 1, 2)


class TestThroughFileSystem:
    """The facade wires the cache in by default; verify freshness end-to-end."""

    def test_repeated_query_is_cached(self):
        from repro import HFADFileSystem

        with HFADFileSystem() as fs:
            fs.create(b"", owner="margo", annotations=["beach"])
            first = fs.query("USER/margo")
            lookups_after_first = fs.registry.stats.lookups
            second = fs.query("USER/margo")
            assert second == first
            # The second evaluation hit the cache: no new index lookups.
            assert fs.registry.stats.lookups == lookups_after_first
            assert fs.naming.stats.cached_results == 1

    def test_insert_through_registry_invalidates(self):
        from repro import HFADFileSystem

        with HFADFileSystem() as fs:
            a = fs.create(b"", owner="margo")
            assert fs.query("USER/margo") == [a]
            b = fs.create(b"", owner="margo")
            assert fs.query("USER/margo") == sorted([a, b])

    def test_untag_invalidates(self):
        from repro import HFADFileSystem

        with HFADFileSystem() as fs:
            a = fs.create(b"", owner="margo", annotations=["keep"])
            assert fs.query("UDEF/keep") == [a]
            fs.untag(a, "UDEF", "keep")
            assert fs.query("UDEF/keep") == []

    def test_delete_invalidates(self):
        from repro import HFADFileSystem

        with HFADFileSystem() as fs:
            a = fs.create(b"", owner="margo")
            b = fs.create(b"", owner="margo")
            assert fs.query("USER/margo") == sorted([a, b])
            fs.delete(a)
            assert fs.query("USER/margo") == [b]

    def test_content_reindex_invalidates_fulltext(self):
        from repro import HFADFileSystem

        with HFADFileSystem() as fs:
            a = fs.create(b"the beach was sunny", path="/a.txt")
            assert fs.query("FULLTEXT/beach") == [a]
            fs.write(a, 0, b"the mountain was snowy")
            assert a not in fs.query("FULLTEXT/beach")
            assert fs.query("FULLTEXT/mountain") == [a]

    def test_path_operations_invalidate_posix_queries(self):
        from repro import HFADFileSystem

        with HFADFileSystem() as fs:
            a = fs.create(b"x", path="/docs/a.txt")
            assert fs.query("POSIX//docs/a.txt") == [a]
            fs.unlink_path("/docs/a.txt")
            assert fs.query("POSIX//docs/a.txt") == []

    def test_escape_hatch_disables_cache(self):
        from repro import HFADFileSystem

        with HFADFileSystem(query_cache_entries=0) as fs:
            assert fs.query_cache is None
            fs.create(b"", owner="margo")
            before = fs.registry.stats.lookups
            fs.query("USER/margo")
            fs.query("USER/margo")
            # Without the cache every query re-consults the index.
            assert fs.registry.stats.lookups == before + 2
