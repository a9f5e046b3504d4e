"""The result memo: canonical keys, precise generation invalidation, and
end-to-end behaviour through the registry and the file-system facade."""

import pytest

from repro.cache import GenerationMemo, canonical_key, query_tags
from repro.core.naming import NamingInterface
from repro.core.query import And, Or, QueryPlanner, TagTerm, parse_query
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


class TestGenerationMemo:
    def test_miss_store_hit(self):
        memo = GenerationMemo(4)
        assert memo.lookup("k", 1) is None
        memo.store("k", (1, 2), 1)
        assert memo.lookup("k", 1) == (1, 2)
        assert (memo.hits, memo.misses, memo.stores) == (1, 1, 1)

    def test_other_token_drops_the_entry(self):
        memo = GenerationMemo(4)
        memo.store("k", (1, 2), 1)
        assert memo.lookup("k", 2) is None
        assert memo.stale_drops == 1
        assert len(memo) == 0
        # A stale drop is a miss, and the entry stays gone.
        assert memo.lookup("k", 1) is None
        assert (memo.hits, memo.misses) == (0, 2)

    def test_lru_bounded(self):
        memo = GenerationMemo(2)
        for key in range(5):
            memo.store(key, key, 0)
        assert len(memo) == 2
        assert memo.evictions == 3

    def test_eviction_takes_the_least_recently_used(self):
        memo = GenerationMemo(2)
        memo.store("a", 1, 0)
        memo.store("b", 2, 0)
        memo.lookup("a", 0)
        memo.store("c", 3, 0)
        assert memo.lookup("a", 0) == 1
        assert memo.lookup("b", 0) is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(CacheError):
            GenerationMemo(0)

    def test_snapshot_shape(self):
        memo = GenerationMemo(3)
        memo.store("k", 1, 0)
        memo.lookup("k", 0)
        memo.lookup("k", 1)
        assert memo.snapshot() == {
            "capacity": 3, "entries": 0, "hits": 1, "misses": 1,
            "stale_drops": 1, "stores": 1, "evictions": 0, "hit_ratio": 0.5,
        }


def cached_naming(registry, planner=None):
    return NamingInterface(registry, planner=planner,
                           query_cache=GenerationMemo(256))


class TestBooleanResultMemo:
    def test_repeat_is_served_and_copied_out(self, registry):
        naming = cached_naming(registry)
        assert naming.query("USER/margo") == [1, 2]
        result = naming.query("USER/margo")
        assert naming.query_cache.hits == 1
        result.append(99)
        assert naming.query("USER/margo") == [1, 2]

    def test_mutation_invalidates_precisely(self, registry):
        naming = cached_naming(registry)
        naming.query("USER/margo")
        naming.query("APP/quicken")
        registry.insert("USER", "margo", 7)
        # The USER query is stale, the APP query survives.
        assert naming.query("USER/margo") == [1, 2, 7]
        assert naming.query("APP/quicken") == [2]
        assert naming.query_cache.stale_drops == 1
        assert naming.query_cache.hits == 1

    def test_remove_invalidates(self, registry):
        naming = cached_naming(registry)
        naming.query("USER/margo")
        registry.remove("USER", "margo", 1)
        assert naming.query("USER/margo") == [2]

    def test_conjunction_invalidated_by_any_of_its_tags(self, registry):
        naming = cached_naming(registry)
        assert naming.query("USER/margo AND NOT APP/quicken") == [1]
        registry.insert("APP", "quicken", 1)  # only the negated tag changes
        assert naming.query("USER/margo AND NOT APP/quicken") == []

    def test_mutation_during_evaluation_leaves_the_entry_stale(self, registry):
        # The token is taken before evaluating, so a mutation that lands
        # mid-evaluation makes the stored answer stale, never current.
        class RacingPlanner(QueryPlanner):
            raced = False

            def order_conjuncts(self, terms, registry):
                if not self.raced:
                    self.raced = True
                    registry.insert("USER", "margo", 9)
                return super().order_conjuncts(terms, registry)

        naming = cached_naming(registry, planner=RacingPlanner())
        query = "USER/margo AND NOT APP/quicken"
        naming.query(query)
        assert naming.query(query) == [1, 9]
        assert naming.query_cache.stale_drops == 1
        assert naming.query(query) == [1, 9]
        assert naming.query_cache.hits == 1


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
