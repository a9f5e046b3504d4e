"""Or-under-And pushdown: ``R AND (a OR b)`` → ``(R AND a) OR (R AND b)``.

Evaluated literally, the disjunction materializes every ``a`` and ``b``
posting just so the intersection can throw most of them away.  When the
conjunction carries a rarer driver term, distributing it into the Or turns
the plan into a union of driver-bounded intersections — each branch scans
at most ``|R|`` ids.  These tests pin the plan shape (via EXPLAIN), the
guard rails (no rewrite when the Or is already the cheapest driver; NOT
inside an Or keeps raising exactly as the unrewritten query would), and
bit-identical result equivalence against the unplanned evaluation.
"""

import pytest

from repro.core import HFADFileSystem
from repro.core.query import parse_query
from repro.errors import QueryError
from repro.query.cursors import materialize


@pytest.fixture()
def fs():
    fs = HFADFileSystem(query_cache_entries=0)
    for index in range(40):
        owner = "margo" if index % 20 == 0 else f"user{index}"
        annotations = ["vacation"] if index % 2 else ["beach"]
        if index % 5 == 0:
            annotations.append("shared")
        fs.create(
            b"words common to all docs", owner=owner,
            annotations=annotations,
        )
    yield fs
    fs.close()


def unplanned(fs, expression):
    """Evaluate without the planner: the correctness oracle."""
    results, _complete = materialize(parse_query(expression).cursor(fs.registry, None))
    return results


def test_pushdown_plan_shape(fs):
    before = fs.naming.planner.or_pushdowns
    report = fs.explain("USER/margo AND (UDEF/vacation OR UDEF/beach)")
    assert report.root.op == "union", str(report)
    assert [child.op for child in report.root.children] == \
        ["intersect", "intersect"], str(report)
    # Every branch is bounded by the rare driver term.
    for branch in report.root.children:
        leaf_details = [leaf.detail for leaf in branch.children]
        assert any("USER/margo" in detail for detail in leaf_details), \
            str(report)
    assert fs.naming.planner.or_pushdowns > before
    assert "or_pushdowns" in fs.naming.planner.snapshot()


def test_no_rewrite_when_or_is_the_driver(fs):
    # Both disjuncts are rare (one owner each); the UDEF side is broad.
    # The planner orders the Or first — distributing a broad driver into
    # it would make the plan worse, so the rewrite must not fire.
    before = fs.naming.planner.or_pushdowns
    report = fs.explain("UDEF/vacation AND (USER/margo OR USER/user1)")
    assert report.root.op == "intersect", str(report)
    assert fs.naming.planner.or_pushdowns == before


def test_not_inside_or_still_raises(fs):
    expression = "USER/margo AND (UDEF/vacation OR NOT UDEF/beach)"
    with pytest.raises(QueryError):
        unplanned(fs, expression)
    with pytest.raises(QueryError):
        fs.query(expression)


@pytest.mark.parametrize("expression", [
    "USER/margo AND (UDEF/vacation OR UDEF/beach)",
    "USER/margo AND (UDEF/beach OR UDEF/shared)",     # overlapping branches
    "USER/margo AND (UDEF/vacation OR UDEF/beach) AND FULLTEXT/common",
    "UDEF/shared AND (UDEF/vacation OR UDEF/beach)",
])
def test_pushdown_results_bit_identical(fs, expression):
    oracle = unplanned(fs, expression)
    assert fs.query(expression) == oracle
    # Overlapping disjuncts must not surface duplicates after the rewrite.
    assert len(oracle) == len(set(oracle))


def test_pushdown_respects_limit(fs):
    expression = "UDEF/shared AND (UDEF/vacation OR UDEF/beach)"
    oracle = unplanned(fs, expression)
    assert len(oracle) >= 3
    limited = fs.query(expression, limit=2)
    assert limited == oracle[:2]
