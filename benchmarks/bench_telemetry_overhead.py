"""Telemetry overhead — the observability subsystem must be ~free when off.

The PR-6 acceptance bar: with ``telemetry=False`` every instrument is a
shared no-op and the tracer is gone, so instrumented builds must run the
hot query paths within ~5% of each other whichever way the switch points.
(The enabled path's per-query cost is an attribution scope, a histogram
observe and a trace-ring append: about 7 µs, measured against ~190 µs per
boolean ``limit=10`` query on a shared 2-core x86 box.  That box's median
ratios are 1.03–1.05 for the boolean loop and 1.02–1.05 for the ranked
one, so the bar has little headroom.)

Two instances with identical corpora run the same loops:

* an E10-style boolean-conjunction loop (``fs.query(..., limit=10)``), and
* an E13-style WAND ranked loop (``fs.rank(..., limit=10)``).

The gate is the median of ``PAIRS`` interleaved enabled/disabled pair
ratios: each pair times the two instances alternately, so machine-load
drift hits both sides of a ratio alike, and the median discards the pairs a
noisy neighbour landed on one side of.  One lucky pair cannot pass the gate
and one unlucky pair cannot fail it.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import HFADFileSystem

from conftest import emit_table, scaled

#: documents in each instance's corpus.  Smoke mode stays large enough that
#: per-query index work dominates the fixed few-microsecond record cost —
#: a tiny corpus would measure the constant, not the overhead.
CORPUS_SIZE = scaled(2500, 1200)
#: queries per timed loop.
QUERIES_PER_LOOP = scaled(60, 40)
#: interleaved enabled/disabled pairs per workload (the median ratio gates).
PAIRS = 15
#: timed runs per side of a pair (its best is the pair's time for that side).
RUNS_PER_PAIR = 3
#: acceptance bar: enabled/disabled wall-time ratio per workload.
MAX_RATIO = 1.05

BOOLEAN_QUERY = "USER/alice AND FULLTEXT/common AND NOT APP/mailer"
RANK_QUERY = "common rare filler"


def _build(telemetry: bool) -> HFADFileSystem:
    fs = HFADFileSystem(query_cache_entries=0, telemetry=telemetry)
    for oid in range(CORPUS_SIZE):
        rare = oid % 100 == 0
        fs.create(
            content=(
                "common filler text body" + (" rare" if rare else "")
            ).encode(),
            owner="alice" if oid % 2 else "bob",
            application="mailer" if oid % 3 == 0 else "editor",
        )
    return fs


@pytest.fixture(scope="module")
def instances():
    enabled = _build(telemetry=True)
    disabled = _build(telemetry=False)
    yield enabled, disabled
    enabled.close()
    disabled.close()


def _boolean_loop(fs: HFADFileSystem) -> None:
    for _ in range(QUERIES_PER_LOOP):
        fs.query(BOOLEAN_QUERY, limit=10)


def _ranked_loop(fs: HFADFileSystem) -> None:
    for _ in range(QUERIES_PER_LOOP):
        fs.rank(RANK_QUERY, limit=10)


def _pairs(loop, enabled, disabled):
    """``PAIRS`` interleaved ``(enabled, disabled)`` loop times.

    Each side of a pair is its best of ``RUNS_PER_PAIR`` runs, taken
    alternately with the other side's, so a pause that lands on one run
    does not become that pair's ratio.
    """
    pairs = []
    for _ in range(PAIRS):
        best_on = best_off = float("inf")
        for _ in range(RUNS_PER_PAIR):
            start = time.perf_counter()
            loop(enabled)
            best_on = min(best_on, time.perf_counter() - start)
            start = time.perf_counter()
            loop(disabled)
            best_off = min(best_off, time.perf_counter() - start)
        pairs.append((best_on, best_off))
    return pairs


def test_disabled_telemetry_overhead_under_bar(instances):
    enabled, disabled = instances
    # Both instances answer identically — overhead is the only difference.
    assert enabled.query(BOOLEAN_QUERY) == disabled.query(BOOLEAN_QUERY)
    assert enabled.rank(RANK_QUERY, limit=10) == disabled.rank(RANK_QUERY, limit=10)

    rows = []
    for label, loop in (("boolean limit=10", _boolean_loop),
                        ("ranked limit=10", _ranked_loop)):
        loop(enabled)  # warm both instances before timing
        loop(disabled)
        pairs = _pairs(loop, enabled, disabled)
        ratios = [time_on / time_off for time_on, time_off in pairs]
        ratio = statistics.median(ratios)
        assert ratio < MAX_RATIO, (
            f"{label}: telemetry-enabled loop {ratio:.3f}x the disabled one "
            f"(median of {PAIRS} pairs {sorted(round(r, 3) for r in ratios)}, "
            f"bar {MAX_RATIO})"
        )
        rows.append((label, QUERIES_PER_LOOP,
                     round(statistics.median(on for on, _ in pairs) * 1e3, 3),
                     round(statistics.median(off for _, off in pairs) * 1e3, 3),
                     round(ratio, 4)))
    emit_table(
        f"Telemetry overhead — enabled vs disabled ({CORPUS_SIZE} docs)",
        ("workload", "queries/loop", "on(ms)", "off(ms)", "median ratio"),
        rows,
    )


def test_enabled_mode_actually_records(instances):
    """The overhead comparison is meaningless if nothing records: the
    enabled instance must have traces and latency observations, the
    disabled one must have neither."""
    enabled, disabled = instances
    enabled.query(BOOLEAN_QUERY, limit=10)
    enabled.rank(RANK_QUERY, limit=10)
    assert len(enabled.trace(5)) > 0
    histograms = enabled.stats()["telemetry"]["histograms"]
    assert histograms["query.latency_us"]["count"] > 0
    assert histograms["rank.latency_us"]["count"] > 0
    assert disabled.trace() == []
    assert "telemetry" not in disabled.stats()
