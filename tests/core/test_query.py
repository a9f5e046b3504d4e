"""Tests for the boolean query algebra, parser and planner."""

import pytest

from repro.core.query import And, Not, Or, QueryPlanner, TagTerm, parse_query
from repro.errors import QueryError
from repro.index import (
    TAG_POSIX,
    FullTextIndexStore,
    IndexStoreRegistry,
    KeyValueIndexStore,
    TagValue,
)


def make_registry():
    registry = IndexStoreRegistry()
    # The facade's routing: the key/value store serves POSIX paths too.
    registry.register(KeyValueIndexStore(tags=(*KeyValueIndexStore.DEFAULT_TAGS, TAG_POSIX)))
    registry.register(FullTextIndexStore())
    # users
    registry.insert("USER", "margo", 1)
    registry.insert("USER", "margo", 2)
    registry.insert("USER", "nick", 3)
    # applications
    registry.insert("APP", "quicken", 2)
    registry.insert("APP", "iphoto", 1)
    registry.insert("APP", "iphoto", 3)
    # annotations
    registry.insert("UDEF", "vacation", 1)
    registry.insert("UDEF", "vacation", 3)
    return registry


class TestTagTerm:
    def test_evaluate(self):
        registry = make_registry()
        assert TagTerm("USER", "margo").evaluate(registry) == [1, 2]
        assert TagTerm("user", "nick").evaluate(registry) == [3]

    def test_id_fastpath(self):
        registry = make_registry()
        assert TagTerm("ID", "17").evaluate(registry) == [17]

    def test_pair_conversion(self):
        term = TagTerm.from_pair(TagValue("UDEF", "beach"))
        assert term.as_pair() == TagValue("UDEF", "beach")
        assert str(term) == "UDEF/beach"


class TestBooleanOperators:
    def test_and(self):
        registry = make_registry()
        query = And([TagTerm("USER", "margo"), TagTerm("APP", "iphoto")])
        assert query.evaluate(registry) == [1]

    def test_or(self):
        registry = make_registry()
        query = Or([TagTerm("APP", "quicken"), TagTerm("UDEF", "vacation")])
        assert query.evaluate(registry) == [1, 2, 3]

    def test_and_with_not(self):
        registry = make_registry()
        query = And([TagTerm("USER", "margo"), Not(TagTerm("APP", "quicken"))])
        assert query.evaluate(registry) == [1]

    def test_nested(self):
        registry = make_registry()
        query = And(
            [
                Or([TagTerm("USER", "margo"), TagTerm("USER", "nick")]),
                TagTerm("UDEF", "vacation"),
            ]
        )
        assert query.evaluate(registry) == [1, 3]

    def test_operator_overloads(self):
        registry = make_registry()
        query = TagTerm("USER", "margo") & ~TagTerm("APP", "quicken")
        assert query.evaluate(registry) == [1]
        query = TagTerm("APP", "quicken") | TagTerm("USER", "nick")
        assert query.evaluate(registry) == [2, 3]

    def test_empty_and_pure_not_rejected(self):
        registry = make_registry()
        with pytest.raises(QueryError):
            And([Not(TagTerm("USER", "margo"))]).evaluate(registry)
        with pytest.raises(QueryError):
            Not(TagTerm("USER", "margo")).evaluate(registry)
        with pytest.raises(QueryError):
            Or([Not(TagTerm("USER", "margo"))]).evaluate(registry)
        assert Or([]).evaluate(registry) == []

    def test_short_circuit_on_empty_intersection(self):
        registry = make_registry()
        query = And([TagTerm("USER", "nobody"), TagTerm("USER", "margo")])
        assert query.evaluate(registry) == []

    def test_string_forms(self):
        query = And([TagTerm("A", "1"), Or([TagTerm("B", "2"), TagTerm("C", "3")])])
        assert str(query) == "(A/1 AND (B/2 OR C/3))"
        assert str(Not(TagTerm("A", "1"))) == "NOT A/1"


class TestParser:
    def test_single_term(self):
        query = parse_query("USER/margo")
        assert isinstance(query, TagTerm)
        assert query.tag == "USER"

    def test_and_or_precedence(self):
        query = parse_query("USER/margo AND UDEF/vacation OR USER/nick")
        # AND binds tighter than OR.
        assert isinstance(query, Or)
        assert isinstance(query.children[0], And)

    def test_parentheses(self):
        registry = make_registry()
        query = parse_query("(APP/quicken OR UDEF/vacation) AND USER/margo")
        assert query.evaluate(registry) == [1, 2]

    def test_not(self):
        registry = make_registry()
        query = parse_query("USER/margo AND NOT APP/quicken")
        assert query.evaluate(registry) == [1]

    def test_case_insensitive_keywords(self):
        registry = make_registry()
        query = parse_query("USER/margo and not APP/quicken")
        assert query.evaluate(registry) == [1]

    def test_value_with_slash(self):
        query = parse_query("POSIX//home/margo/mail")
        assert isinstance(query, TagTerm)
        assert query.value == "/home/margo/mail"

    @pytest.mark.parametrize(
        "bad",
        ["", "AND", "USER/margo AND", "(USER/margo", "USER/margo)", "noslash", "USER/", "/value",
         "USER/a USER/b"],
    )
    def test_malformed_queries_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestParserEdgeCases:
    """Nested parentheses, bare NOT rejection, precedence interactions."""

    def test_deeply_nested_parentheses(self):
        registry = make_registry()
        query = parse_query("(((USER/margo)))")
        assert isinstance(query, TagTerm)
        assert query.evaluate(registry) == [1, 2]

    def test_nested_groups_mixing_operators(self):
        registry = make_registry()
        query = parse_query(
            "((USER/margo AND UDEF/vacation) OR (USER/nick AND APP/iphoto)) AND NOT APP/quicken"
        )
        # margo∩vacation = {1}; nick∩iphoto = {3}; minus quicken = {2} → {1, 3}
        assert query.evaluate(registry) == [1, 3]

    def test_parenthesized_or_under_not(self):
        registry = make_registry()
        query = parse_query("USER/margo AND NOT (APP/quicken OR UDEF/vacation)")
        # margo = {1,2}; quicken∪vacation = {1,2,3} → empty
        assert query.evaluate(registry) == []

    def test_bare_not_parses_but_cannot_evaluate(self):
        registry = make_registry()
        query = parse_query("NOT USER/margo")
        assert isinstance(query, Not)
        with pytest.raises(QueryError):
            query.evaluate(registry)

    def test_not_inside_or_rejected_at_evaluation(self):
        registry = make_registry()
        query = parse_query("NOT USER/margo OR USER/nick")
        with pytest.raises(QueryError):
            query.evaluate(registry)

    def test_conjunction_of_only_negations_rejected(self):
        registry = make_registry()
        query = parse_query("NOT USER/margo AND NOT USER/nick")
        with pytest.raises(QueryError):
            query.evaluate(registry)

    def test_double_negation(self):
        registry = make_registry()
        query = parse_query("USER/margo AND NOT NOT APP/quicken")
        # NOT NOT X parses as Not(Not(X)); the inner Not cannot be evaluated.
        assert isinstance(query, And)
        with pytest.raises(QueryError):
            query.evaluate(registry)

    def test_precedence_not_binds_tighter_than_and(self):
        query = parse_query("NOT A/1 AND B/2")
        assert isinstance(query, And)
        assert isinstance(query.children[0], Not)
        assert isinstance(query.children[0].child, TagTerm)

    def test_precedence_chain_groups_left_to_right(self):
        query = parse_query("A/1 OR B/2 AND C/3 OR D/4")
        assert isinstance(query, Or)
        assert len(query.children) == 3
        assert isinstance(query.children[1], And)

    def test_parentheses_override_precedence(self):
        registry = make_registry()
        grouped = parse_query("(USER/margo OR USER/nick) AND APP/iphoto")
        flat = parse_query("USER/margo OR USER/nick AND APP/iphoto")
        assert grouped.evaluate(registry) == [1, 3]
        assert flat.evaluate(registry) == [1, 2, 3]

    @pytest.mark.parametrize(
        "bad",
        ["()", "(())", "((USER/margo)", "USER/margo))", "AND USER/margo",
         "USER/margo OR", "NOT", "USER/margo (USER/nick)", "( )"],
    )
    def test_more_malformed_queries_rejected(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_whitespace_and_case_robustness(self):
        registry = make_registry()
        query = parse_query("   user/margo    AnD   nOt  app/quicken  ")
        assert query.evaluate(registry) == [1]


class TestPlanner:
    def test_rarest_term_first(self):
        registry = make_registry()
        planner = QueryPlanner()
        terms = [TagTerm("USER", "margo"), TagTerm("APP", "quicken")]
        ordered = planner.order_conjuncts(terms, registry)
        assert str(ordered[0]) == "APP/quicken"  # cardinality 1 < 2
        assert planner.last_plan[0] == ("APP/quicken", 1)

    def test_id_terms_first(self):
        registry = make_registry()
        planner = QueryPlanner()
        terms = [TagTerm("USER", "margo"), TagTerm("ID", "2")]
        ordered = planner.order_conjuncts(terms, registry)
        assert str(ordered[0]) == "ID/2"

    def test_disabled_planner_preserves_order(self):
        registry = make_registry()
        planner = QueryPlanner(enabled=False)
        terms = [TagTerm("USER", "margo"), TagTerm("APP", "quicken")]
        ordered = planner.order_conjuncts(terms, registry)
        assert [str(t) for t in ordered] == ["USER/margo", "APP/quicken"]

    def test_unknown_tag_assumed_expensive(self):
        registry = make_registry()
        planner = QueryPlanner()
        assert planner.estimate(TagTerm("SOUND", "whale"), registry) == planner.DEFAULT_CARDINALITY

    def test_or_and_nested_estimates(self):
        registry = make_registry()
        planner = QueryPlanner()
        union = Or([TagTerm("USER", "margo"), TagTerm("USER", "nick")])
        assert planner.estimate(union, registry) == 3
        nested = And([TagTerm("USER", "margo"), TagTerm("APP", "quicken")])
        assert planner.estimate(nested, registry) == 1

    def test_planned_and_unplanned_results_agree(self):
        registry = make_registry()
        query_terms = [TagTerm("USER", "margo"), TagTerm("UDEF", "vacation"), TagTerm("APP", "iphoto")]
        planned = And(list(query_terms)).evaluate(registry, QueryPlanner(enabled=True))
        unplanned = And(list(query_terms)).evaluate(registry, QueryPlanner(enabled=False))
        assert planned == unplanned == [1]


class TestPlannerMemo:
    def test_hits_and_misses_counted(self):
        registry = make_registry()
        planner = QueryPlanner()
        term = TagTerm("USER", "margo")
        planner.estimate(term, registry)
        planner.estimate(term, registry)
        snapshot = planner.snapshot()
        assert snapshot["memo_hits"] == 1
        assert snapshot["memo_misses"] == 1
        assert snapshot["memo_entries"] == 1
        assert snapshot["memo_hit_ratio"] == 0.5

    def test_mutation_invalidates_memo(self):
        registry = make_registry()
        planner = QueryPlanner()
        term = TagTerm("USER", "margo")
        assert planner.estimate(term, registry) == 2
        registry.insert("USER", "margo", 9)
        assert planner.estimate(term, registry) == 3
        assert planner.snapshot()["memo_misses"] == 2
        assert planner.snapshot()["memo_stale_drops"] == 1

    def test_eviction_drops_least_recently_used(self, monkeypatch):
        registry = make_registry()
        monkeypatch.setattr(QueryPlanner, "MAX_MEMO_ENTRIES", 8)
        planner = QueryPlanner()
        for index in range(8):
            planner.estimate(TagTerm("UDEF", f"value-{index}"), registry)
        assert planner.snapshot()["memo_entries"] == 8
        # Touch the oldest entry so LRU keeps it; value-1 goes instead.
        planner.estimate(TagTerm("UDEF", "value-0"), registry)
        planner.estimate(TagTerm("UDEF", "value-8"), registry)
        snapshot = planner.snapshot()
        assert (snapshot["memo_entries"], snapshot["memo_evictions"]) == (8, 1)
        planner.estimate(TagTerm("UDEF", "value-0"), registry)
        assert planner.snapshot()["memo_hits"] == 2
        planner.estimate(TagTerm("UDEF", "value-1"), registry)
        assert planner.snapshot()["memo_hits"] == 2

    def test_id_terms_bypass_memo(self):
        registry = make_registry()
        planner = QueryPlanner()
        planner.estimate(TagTerm("ID", "5"), registry)
        assert planner.snapshot()["memo_entries"] == 0
