"""E7 — open question 3: how much query optimization do the index stores need?

The paper asks whether index stores should "include full-fledged query
optimizers".  hFAD's planner is deliberately small — it orders the terms of a
conjunction by estimated cardinality so the rarest term runs first and the
intersection shrinks as early as possible.

The benchmark runs conjunctive queries of 1–4 terms (mixing a very common
term, a moderately common one and a rare one) with the planner enabled and
disabled, and reports postings scanned and set elements intersected.
Expected shape: identical results either way; the planned order does
strictly less work, with the gap growing as the conjunction mixes common and
rare terms — evidence that a selectivity heuristic is enough, no full
optimizer required.
"""

from __future__ import annotations

import pytest

from repro.core.query import And, QueryPlanner, TagTerm

from conftest import emit_table

# Conjunctions mixing common (KIND/photo), medium (PLACE/...), rare (PERSON+YEAR).
CONJUNCTIONS = [
    ("1 term", [("KIND", "photo")]),
    ("2 terms", [("KIND", "photo"), ("PLACE", "beach")]),
    ("3 terms", [("KIND", "photo"), ("PLACE", "beach"), ("PERSON", "margo")]),
    ("4 terms", [("KIND", "photo"), ("PLACE", "beach"), ("PERSON", "margo"), ("YEAR", "2009")]),
]


def _measure(fs, pairs, enabled):
    """Evaluate the conjunction and return (results, index probes performed).

    Work model: the first index is scanned (cost = its cardinality); every
    later index is probed once per surviving candidate (cost = size of the
    intermediate result before intersecting).  Running the rarest index first
    shrinks the candidate set earliest, which is exactly what the planner
    buys.
    """
    planner = QueryPlanner(enabled=enabled)
    terms = [TagTerm(tag, value) for tag, value in pairs]
    ordered = planner.order_conjuncts(terms, fs.registry) if enabled else terms
    probes = 0
    result = None
    for term in ordered:
        matches = set(term.evaluate(fs.registry))
        if result is None:
            probes += len(matches)
            result = matches
        else:
            probes += len(result)
            result &= matches
        if not result:
            break
    return sorted(result or []), probes


def test_e7_planner_reduces_work(hfad_with_corpus):
    fs, _ = hfad_with_corpus
    rows = []
    for label, pairs in CONJUNCTIONS:
        planned_result, planned_work = _measure(fs, pairs, enabled=True)
        naive_result, naive_work = _measure(fs, pairs, enabled=False)
        assert planned_result == naive_result  # planning never changes answers
        assert planned_work <= naive_work
        rows.append(
            (
                label,
                len(planned_result),
                naive_work,
                planned_work,
                round(naive_work / max(1, planned_work), 2),
            )
        )
    # For the widest conjunction the planner must show a real saving.
    assert rows[-1][2] > rows[-1][3]
    emit_table(
        "E7 — conjunctive query work: naive order vs selectivity-planned order",
        ["conjunction", "results", "index probes (naive)", "index probes (planned)", "saving (x)"],
        rows,
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["planned", "naive"])
def test_e7_conjunction_latency(benchmark, hfad_with_corpus, enabled):
    fs, _ = hfad_with_corpus
    planner = QueryPlanner(enabled=enabled)
    query = And([TagTerm(tag, value) for tag, value in CONJUNCTIONS[-1][1]])
    benchmark(lambda: query.evaluate(fs.registry, planner))
