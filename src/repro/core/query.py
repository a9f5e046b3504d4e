"""Boolean queries over tag/value pairs, with a selectivity-based planner.

The paper's naming interface only requires conjunctions of tag/value pairs,
but its open questions ask whether the index stores should "support arbitrary
boolean queries" and "include full-fledged query optimizers".  This module
answers both at the layer above the index stores:

* a tiny query algebra — :class:`TagTerm`, :class:`And`, :class:`Or`,
  :class:`Not` — evaluated against an
  :class:`~repro.index.store.IndexStoreRegistry`;
* :func:`parse_query` for the textual form
  ``"USER/margo AND (FULLTEXT/vacation OR UDEF/beach) AND NOT APP/quicken"``;
* :class:`QueryPlanner`, which orders the terms of a conjunction by estimated
  cardinality (rarest first) so intersections shrink as early as possible —
  the ablation benchmark E7 compares planned vs. unplanned execution.

Execution is *streaming*: every node compiles to a
:class:`~repro.query.cursors.DocIdCursor` (:meth:`Query.cursor`) and the
boolean operators are leapfrog/heap merges over their children's cursors, so
a consumer that stops after ten results only pays for ten results.
:meth:`Query.evaluate` is a thin wrapper that drains the cursor pipeline,
preserving the original materialized API for every existing caller.

``Not`` is only meaningful inside an ``And`` (set difference); a bare ``Not``
would require enumerating the universe and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.query_cache import GenerationMemo
from repro.errors import QueryError
from repro.index.path_index import normalize_path
from repro.index.store import IndexStoreRegistry
from repro.index.tags import TAG_ID, TAG_POSIX, TagValue, normalize_tag
from repro.query.cursors import (
    DifferenceCursor,
    DocIdCursor,
    EmptyCursor,
    IntersectCursor,
    UnionCursor,
    materialize,
)


class Query:
    """Base class of the query algebra."""

    def cursor(
        self,
        registry: IndexStoreRegistry,
        planner: Optional["QueryPlanner"] = None,
        trace=None,
    ) -> DocIdCursor:
        """Compile this query into a streaming cursor over matching ids.

        ``trace`` (an :class:`~repro.telemetry.tracing.ExplainTracer`, duck-
        typed to keep this layer free of telemetry imports) wraps every
        compiled node in a span-charging cursor; the resulting span tree
        mirrors the *compiled* plan — planner ordering and all — which is
        what ``fs.explain`` / ``fs.explain_analyze`` render.
        """
        raise NotImplementedError

    def evaluate(
        self,
        registry: IndexStoreRegistry,
        planner: Optional["QueryPlanner"] = None,
        limit: Optional[int] = None,
    ) -> List[int]:
        """Return the sorted object ids matching this query.

        Thin wrapper over :meth:`cursor`; ``limit`` stops the pipeline after
        that many ids (top-k early exit) instead of draining it.
        """
        results, _exhausted = materialize(self.cursor(registry, planner), limit=limit)
        return results

    # Convenience combinators so callers can write q1 & q2 | ~q3.
    def __and__(self, other: "Query") -> "And":
        return And([self, other])

    def __or__(self, other: "Query") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class TagTerm(Query):
    """A single ``tag/value`` lookup."""

    tag: str
    value: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", normalize_tag(self.tag))
        # A path is stored in its normal form, so it is looked up in it.
        value = str(self.value)
        object.__setattr__(self, "value", normalize_path(value)
                           if self.tag == TAG_POSIX else value)

    @classmethod
    def from_pair(cls, pair: TagValue) -> "TagTerm":
        return cls(tag=pair.tag, value=pair.value)

    def as_pair(self) -> TagValue:
        return TagValue(tag=self.tag, value=self.value)

    def cursor(
        self,
        registry: IndexStoreRegistry,
        planner: Optional["QueryPlanner"] = None,
        trace=None,
    ) -> DocIdCursor:
        cursor = registry.open_cursor(self.tag, self.value)
        if trace is not None:
            return trace.leaf(cursor, "term", str(self))
        return cursor

    def __str__(self) -> str:
        return f"{self.tag}/{self.value}"


@dataclass
class And(Query):
    """All children must match; ``Not`` children subtract from the result."""

    children: List[Query] = field(default_factory=list)

    def cursor(
        self,
        registry: IndexStoreRegistry,
        planner: Optional["QueryPlanner"] = None,
        trace=None,
    ) -> DocIdCursor:
        positive = [child for child in self.children if not isinstance(child, Not)]
        negative = [child for child in self.children if isinstance(child, Not)]
        if not positive:
            raise QueryError("a conjunction needs at least one non-negated term")
        if planner is not None:
            # Rarest first: the first cursor drives the leapfrog merge, so the
            # big operands are only probed with galloping seeks.
            positive = planner.order_conjuncts(positive, registry)
            # Or-under-And pushdown: distribute the rarest conjunct into a
            # more expensive disjunction so the union's operands shrink to
            # intersections before they are ever merged.
            positive = planner.push_down_disjunction(positive, registry)
        cursors = [child.cursor(registry, planner, trace) for child in positive]
        merged = cursors[0] if len(cursors) == 1 else IntersectCursor(cursors)
        if trace is not None and len(cursors) > 1:
            merged = trace.node(merged, "intersect", cursors)
        if negative:
            negations = [child.child.cursor(registry, planner, trace)
                         for child in negative]
            difference = DifferenceCursor(merged, negations)
            if trace is not None:
                difference = trace.node(difference, "difference",
                                        [merged, *negations])
            merged = difference
        return merged

    def __str__(self) -> str:
        return "(" + " AND ".join(str(child) for child in self.children) + ")"


@dataclass
class Or(Query):
    """Any child may match."""

    children: List[Query] = field(default_factory=list)

    def cursor(
        self,
        registry: IndexStoreRegistry,
        planner: Optional["QueryPlanner"] = None,
        trace=None,
    ) -> DocIdCursor:
        if any(isinstance(child, Not) for child in self.children):
            raise QueryError("NOT is only supported inside AND")
        if not self.children:
            empty = EmptyCursor()
            return trace.leaf(empty, "empty") if trace is not None else empty
        cursors = [child.cursor(registry, planner, trace) for child in self.children]
        if len(cursors) == 1:
            return cursors[0]
        union = UnionCursor(cursors)
        if trace is not None:
            union = trace.node(union, "union", cursors)
        return union

    def __str__(self) -> str:
        return "(" + " OR ".join(str(child) for child in self.children) + ")"


@dataclass
class Not(Query):
    """Negation; only usable as a child of :class:`And`."""

    child: Query

    def cursor(
        self,
        registry: IndexStoreRegistry,
        planner: Optional["QueryPlanner"] = None,
        trace=None,
    ) -> DocIdCursor:
        raise QueryError("NOT cannot be evaluated on its own; use it inside AND")

    def __str__(self) -> str:
        return f"NOT {self.child}"


class QueryPlanner:
    """Orders conjunctions so the most selective terms run first.

    Index stores may expose a ``cardinality(tag, value)`` estimate; terms
    whose store does not are assumed expensive and pushed to the end.  ``ID``
    terms are free and always go first.
    """

    #: cost assumed for terms whose store offers no estimate.
    DEFAULT_CARDINALITY = 1 << 30

    #: bound on the memoised estimate table (least recently used goes first).
    MAX_MEMO_ENTRIES = 4096

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: (term, estimate) pairs recorded for the most recent conjunction —
        #: surfaced by the E7 benchmark to show what the planner decided.
        self.last_plan: List[Tuple[str, int]] = []
        # Cardinality estimates memoised per (tag, value), valid while the
        # registry's generation of that tag stands; concurrent readers share
        # one planner, so the memo is the locked one the result caches use.
        self._memo = GenerationMemo(self.MAX_MEMO_ENTRIES)
        #: conjunctions rewritten by :meth:`push_down_disjunction`.
        self.or_pushdowns = 0

    def estimate(self, term: Query, registry: IndexStoreRegistry) -> int:
        if isinstance(term, TagTerm):
            if term.tag == TAG_ID:
                return 0
            key = (term.tag, term.value)
            generation = registry.generation(term.tag)
            estimate = self._memo.lookup(key, generation)
            if estimate is None:
                estimate = self._estimate_term(term, registry)
                self._memo.store(key, estimate, generation)
            return estimate
        if isinstance(term, Or):
            return sum(self.estimate(child, registry) for child in term.children)
        if isinstance(term, And):
            estimates = [self.estimate(child, registry) for child in term.children if not isinstance(child, Not)]
            return min(estimates) if estimates else self.DEFAULT_CARDINALITY
        return self.DEFAULT_CARDINALITY

    def _estimate_term(self, term: TagTerm, registry: IndexStoreRegistry) -> int:
        try:
            store = registry.store_for(term.tag)
        except Exception:
            return self.DEFAULT_CARDINALITY
        cardinality = getattr(store, "cardinality", None)
        if cardinality is None:
            return self.DEFAULT_CARDINALITY
        try:
            return int(cardinality(term.tag, term.value))
        except Exception:
            return self.DEFAULT_CARDINALITY

    def order_conjuncts(self, terms: Sequence[Query], registry: IndexStoreRegistry) -> List[Query]:
        if not self.enabled:
            self.last_plan = [(str(term), -1) for term in terms]
            return list(terms)
        scored = [(self.estimate(term, registry), index, term) for index, term in enumerate(terms)]
        scored.sort(key=lambda item: (item[0], item[1]))
        self.last_plan = [(str(term), estimate) for estimate, _index, term in scored]
        return [term for _estimate, _index, term in scored]

    def push_down_disjunction(self, terms: Sequence[Query],
                              registry: IndexStoreRegistry) -> List[Query]:
        """Distribute the rarest conjunct into a costlier disjunction.

        ``rare AND (a OR b)`` evaluated literally materializes the whole
        ``a ∪ b`` union just to probe it with a handful of rare ids.  The
        algebraic identity ``R ∧ (a ∨ b) = (R ∧ a) ∨ (R ∧ b)`` turns that
        into a union of *tiny* intersections — each disjunct is now driven
        by the rare term, so the big operands are only galloping-seeked.

        ``terms`` must already be ordered rarest-first
        (:meth:`order_conjuncts`).  The rewrite fires at most once per
        conjunction — on the single most selective qualifying ``Or`` — but
        composes recursively: each distributed ``And`` re-plans when it
        compiles, so nested disjunctions keep collapsing.  Skipped when the
        disjunction is itself the cheapest operand (it should stay the
        driver), when the driver has no real estimate, or when the ``Or``
        carries a ``Not`` child (which the original would reject).
        Cache keys are computed on the *original* query, so caching is
        unaffected by the rewritten shape.
        """
        if not self.enabled or len(terms) < 2:
            return list(terms)
        driver = terms[0]
        if isinstance(driver, Or):
            return list(terms)
        driver_cost = self.estimate(driver, registry)
        if driver_cost >= self.DEFAULT_CARDINALITY:
            return list(terms)
        for index, term in enumerate(terms):
            if index == 0 or not isinstance(term, Or) or len(term.children) < 2:
                continue
            if any(isinstance(child, Not) for child in term.children):
                continue
            if self.estimate(term, registry) <= driver_cost:
                continue
            rewritten = Or([And([driver, child]) for child in term.children])
            rest = [t for position, t in enumerate(terms)
                    if position not in (0, index)]
            result = [rewritten] + rest
            self.or_pushdowns += 1
            self.last_plan = [
                (str(t), self.estimate(t, registry)) for t in result
            ]
            return result
        return list(terms)

    def snapshot(self) -> Dict[str, object]:
        """Planner counters for ``fs.stats()`` / the benchmarks."""
        memo = self._memo.snapshot()
        return {
            "enabled": self.enabled,
            **{f"memo_{name}": value for name, value in memo.items()},
            "or_pushdowns": self.or_pushdowns,
        }


# ---------------------------------------------------------------------------
# Parser for the textual query form
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    current = []
    for char in text:
        if char in "()":
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(char)
        elif char.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        tokens.append("".join(current))
    return tokens


class _Parser:
    """Recursive-descent parser: OR-expr := AND-expr (OR AND-expr)* ..."""

    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.position = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self.position += 1
        return token

    def parse(self) -> Query:
        query = self.parse_or()
        if self.peek() is not None:
            raise QueryError(f"unexpected token {self.peek()!r}")
        return query

    def parse_or(self) -> Query:
        children = [self.parse_and()]
        while self.peek() is not None and self.peek().upper() == "OR":
            self.advance()
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(children)

    def parse_and(self) -> Query:
        children = [self.parse_unary()]
        while self.peek() is not None and self.peek().upper() == "AND":
            self.advance()
            children.append(self.parse_unary())
        return children[0] if len(children) == 1 else And(children)

    def parse_unary(self) -> Query:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        if token.upper() == "NOT":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Query:
        token = self.advance()
        if token == "(":
            inner = self.parse_or()
            if self.advance() != ")":
                raise QueryError("missing closing parenthesis")
            return inner
        if token == ")":
            raise QueryError("unexpected ')'")
        if "/" not in token:
            raise QueryError(f"expected TAG/value, got {token!r}")
        tag, value = token.split("/", 1)
        if not tag or not value:
            raise QueryError(f"expected TAG/value, got {token!r}")
        return TagTerm(tag=tag, value=value)


def parse_query(text: str) -> Query:
    """Parse ``"USER/margo AND (FULLTEXT/beach OR UDEF/vacation)"`` syntax.

    Values may not contain spaces in this textual form; use the programmatic
    algebra for values with whitespace.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse()
