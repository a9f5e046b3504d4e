"""E10 — streaming query execution vs. full materialization.

The seed executor materialized every operand of a boolean query as a Python
set, so a conjunction touching one huge tag paid for the tag's entire
posting list even when the caller wanted ten results.  The streaming
executor (repro.query) replaces that with leapfrog/heap cursor merges and
top-k early exit (``limit=``).

This benchmark builds a deliberately skewed corpus — a handful of rare
terms, one term present in *every* document — and answers the same
conjunctions three ways:

* ``materialized`` — set intersection over full ``lookup()`` lists, the way
  the seed worked (postings scanned = total posting-list length);
* ``streamed`` — the cursor pipeline, unlimited (identical results, fewer
  postings touched thanks to rarest-first galloping);
* ``streamed limit=10`` — top-k early exit (the searching-user case).

Expected shape: streamed unlimited results are byte-identical to the
materialized ones, and ``limit=10`` scans ≥ 10× fewer postings with
correspondingly lower latency.
"""

from __future__ import annotations

import time

import pytest

from repro.core.naming import NamingInterface
from repro.core.query import QueryPlanner, parse_query
from repro.index.fulltext_index import FullTextIndexStore
from repro.index.keyvalue_index import KeyValueIndexStore
from repro.index.store import IndexStoreRegistry

from conftest import emit_table, scaled

#: documents in the skewed corpus ("common" appears in all of them).
CORPUS_SIZE = scaled(4000, 400)
#: documents also carrying the rare term / rare tag.
RARE_SIZE = scaled(25, 8)
#: latency-measurement repetitions.
REPEATS = scaled(30, 5)

QUERIES = [
    ("FULLTEXT rare∧common", "FULLTEXT/rare AND FULLTEXT/common"),
    ("KV rare∧common", "UDEF/rare AND UDEF/common"),
    ("mixed ∧ NOT", "UDEF/rare AND FULLTEXT/common AND NOT UDEF/odd"),
]


@pytest.fixture(scope="module")
def skewed_naming():
    registry = IndexStoreRegistry()
    keyvalue = KeyValueIndexStore(tags=["UDEF"])
    fulltext = FullTextIndexStore()
    registry.register(keyvalue)
    registry.register(fulltext)
    rare_stride = CORPUS_SIZE // RARE_SIZE
    for oid in range(CORPUS_SIZE):
        rare = oid % rare_stride == 0 and oid // rare_stride < RARE_SIZE
        fulltext.index_content(oid, "common filler text" + (" rare" if rare else ""))
        registry.insert("UDEF", "common", oid)
        if oid % 2 == 1:
            registry.insert("UDEF", "odd", oid)
        if rare:
            registry.insert("UDEF", "rare", oid)
    naming = NamingInterface(registry, planner=QueryPlanner(), query_cache=None)
    return naming, keyvalue, fulltext


def reset_counters(keyvalue, fulltext):
    keyvalue.scan_stats.reset()
    fulltext.index.reset_counters()


def postings_scanned(keyvalue, fulltext):
    return keyvalue.scan_stats.scanned + fulltext.index.postings_scanned


def materialized_eval(query, registry):
    """Seed-style evaluation: full lookup() lists intersected as sets."""
    positive, negative = [], []
    for part in query.split(" AND "):
        (negative if part.startswith("NOT ") else positive).append(
            part[4:] if part.startswith("NOT ") else part
        )
    result = None
    for part in positive:
        tag, value = part.split("/", 1)
        matches = set(registry.lookup(tag, value))
        result = matches if result is None else result & matches
    for part in negative:
        tag, value = part.split("/", 1)
        result -= set(registry.lookup(tag, value))
    return sorted(result)


def timed(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e10_streaming_beats_materialization(skewed_naming):
    naming, keyvalue, fulltext = skewed_naming
    registry = naming.registry
    rows = []
    for label, text in QUERIES:
        query = parse_query(text)

        reset_counters(keyvalue, fulltext)
        materialized = materialized_eval(text, registry)
        scanned_materialized = postings_scanned(keyvalue, fulltext)

        reset_counters(keyvalue, fulltext)
        streamed = naming.query(query)
        scanned_streamed = postings_scanned(keyvalue, fulltext)

        reset_counters(keyvalue, fulltext)
        top_k = naming.query(query, limit=10)
        scanned_top_k = postings_scanned(keyvalue, fulltext)

        # Correctness: streaming changes cost, never answers.
        assert streamed == materialized
        assert top_k == materialized[:10]

        latency_materialized = timed(lambda: materialized_eval(text, registry), REPEATS)
        latency_top_k = timed(lambda: naming.query(query, limit=10), REPEATS)

        scan_ratio = scanned_materialized / max(1, scanned_top_k)
        # Acceptance: top-k scans >= 10x fewer postings, measurably faster.
        assert scan_ratio >= 10.0, f"{label}: only {scan_ratio:.1f}x fewer postings"
        assert latency_top_k < latency_materialized, f"{label}: streaming not faster"

        rows.append(
            (
                label,
                len(materialized),
                scanned_materialized,
                scanned_streamed,
                scanned_top_k,
                round(scan_ratio, 1),
                round(latency_materialized * 1e6),
                round(latency_top_k * 1e6),
                round(latency_materialized / max(latency_top_k, 1e-9), 1),
            )
        )
    emit_table(
        f"E10 — streaming execution on a skewed corpus ({CORPUS_SIZE} docs, rare={RARE_SIZE})",
        (
            "query",
            "results",
            "scan:mat",
            "scan:stream",
            "scan:top10",
            "scan-gain(x)",
            "lat:mat(us)",
            "lat:top10(us)",
            "lat-gain(x)",
        ),
        rows,
    )


def test_e10_union_and_difference_stream_correctly(skewed_naming):
    """Sanity net under the headline numbers: OR/NOT paths agree too."""
    naming, _keyvalue, _fulltext = skewed_naming
    registry = naming.registry
    union_query = "UDEF/rare OR FULLTEXT/rare"
    streamed = naming.query(union_query)
    materialized = sorted(
        set(registry.lookup("UDEF", "rare")) | set(registry.lookup("FULLTEXT", "rare"))
    )
    assert streamed == materialized
    assert naming.query(union_query, limit=3) == materialized[:3]


def test_e10_limit_latency(benchmark, skewed_naming):
    naming, _keyvalue, _fulltext = skewed_naming
    benchmark(lambda: naming.query("UDEF/rare AND UDEF/common", limit=10))
