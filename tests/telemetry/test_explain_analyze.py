"""EXPLAIN / EXPLAIN ANALYZE — including the differential harness.

The acceptance test of the telemetry PR: the per-node "actual" counts the
analyze report shows must equal the cursor-level counters the equivalence
suites already trust.  Every leaf cursor in the system increments its
store's ``ScanCounter.scanned`` exactly once per non-None ``next``/``seek``
return, and a leaf ``Span.rows`` counts exactly those returns — so over any
traced run::

    sum(leaf.rows) == Δ keyvalue_entries_scanned + Δ fulltext_postings_scanned

as long as every leaf is a keyvalue or single-term FULLTEXT cursor (a
multi-word FULLTEXT value compiles to ONE leaf span over an engine-internal
intersection, whose output size is not a postings count; the registry's
oid fast-path cursors carry no counter at all — both are excluded here by
construction of the query corpus).
"""

import pytest

from repro.core.filesystem import HFADFileSystem

#: boolean queries whose leaves are all keyvalue or single-term FULLTEXT.
QUERIES = [
    "USER/margo",
    "FULLTEXT/alpha",
    "USER/margo AND FULLTEXT/alpha",
    "FULLTEXT/alpha AND FULLTEXT/beta",
    "USER/margo AND FULLTEXT/alpha AND NOT APP/mail",
    "APP/mail OR UDEF/starred",
    "USER/margo AND UDEF/starred AND NOT FULLTEXT/gamma",
]


def _load(fs):
    for index in range(48):
        words = ["alpha"]
        if index % 2:
            words.append("beta")
        if index % 3 == 0:
            words.append("gamma")
        fs.create(
            content=" ".join(words).encode(),
            owner="margo" if index % 2 else "keith",
            application="mail" if index % 3 == 0 else "editor",
            annotations=["starred"] if index % 5 == 0 else [],
        )
    return fs


@pytest.fixture()
def memory_fs():
    # The query cache is off so fs.query() measures evaluation, matching
    # what explain_analyze (which bypasses the cache by design) runs.
    with _load(HFADFileSystem(query_cache_entries=0)) as fs:
        yield fs


@pytest.fixture()
def wal_fs():
    with _load(
        HFADFileSystem(
            num_blocks=1 << 16, btree_on_device=True,
            query_cache_entries=0,
        )
    ) as fs:
        yield fs


def _assert_differential(fs, query):
    before_kv = fs._keyvalue_entries_scanned()
    before_ft = fs.fulltext_index.index.postings_scanned
    report = fs.explain_analyze(query)
    scanned_delta = (
        fs._keyvalue_entries_scanned() - before_kv
        + fs.fulltext_index.index.postings_scanned - before_ft
    )
    leaf_rows = sum(leaf.rows for leaf in report.root.leaves())
    assert leaf_rows == scanned_delta, (
        f"{query}: leaf spans saw {leaf_rows} ids, "
        f"stores scanned {scanned_delta}"
    )
    # The summary's own deltas are sampled around the same run.
    assert scanned_delta == (
        report.summary["keyvalue_entries_scanned"]
        + report.summary["fulltext_postings_scanned"]
    )
    return report


class TestDifferential:
    @pytest.mark.parametrize("query", QUERIES)
    def test_leaf_rows_equal_store_scan_deltas_in_memory(self, memory_fs, query):
        report = _assert_differential(memory_fs, query)
        # Results are the real answer, and the root span produced them all.
        assert report.results == memory_fs.query(query)
        assert report.root.rows == len(report.results)

    @pytest.mark.parametrize(
        "query", ["USER/margo AND FULLTEXT/alpha",
                  "USER/margo AND FULLTEXT/alpha AND NOT APP/mail",
                  "APP/mail OR UDEF/starred"]
    )
    def test_leaf_rows_equal_store_scan_deltas_on_device(self, wal_fs, query):
        report = _assert_differential(wal_fs, query)
        assert report.results == wal_fs.query(query)
        assert isinstance(report.summary["pages_read"], int)

    def test_adhoc_tag_store_leaves_are_accounted(self, memory_fs):
        # Tags invented after construction live in their own per-tag store
        # (the shell registers one on the fly); the summary's keyvalue
        # counter must cover those leaves too, not just the primary store.
        from repro.index import KeyValueIndexStore

        memory_fs.registry.register(
            KeyValueIndexStore(tags=["PLACE"]), tags=["PLACE"])
        targets = memory_fs.query("USER/margo")[:6]
        for oid in targets:
            memory_fs.tag(oid, "PLACE", "beach")
        report = _assert_differential(memory_fs, "PLACE/beach AND USER/margo")
        assert report.results == sorted(targets)
        # The ad-hoc leaf really produced rows — the invariant above would
        # hold vacuously if PLACE matched nothing.
        leaves = {leaf.detail: leaf for leaf in report.root.leaves()}
        assert leaves["PLACE/beach"].rows > 0

    def test_limited_analyze_still_differential(self, memory_fs):
        query = "USER/margo AND FULLTEXT/alpha"
        full = memory_fs.query(query)
        before_kv = memory_fs.keyvalue_index.scan_stats.scanned
        before_ft = memory_fs.fulltext_index.index.postings_scanned
        report = memory_fs.explain_analyze(query, limit=3)
        scanned_delta = (
            memory_fs.keyvalue_index.scan_stats.scanned - before_kv
            + memory_fs.fulltext_index.index.postings_scanned - before_ft
        )
        assert report.results == full[:3]
        assert sum(leaf.rows for leaf in report.root.leaves()) == scanned_delta
        assert report.summary["limit"] == 3
        assert report.summary["exhausted"] is False
        # Early exit means the limited run scanned less than the full answer
        # would imply.
        assert scanned_delta < len(full) * 2


class TestPlanShape:
    def test_explain_reports_estimates_without_running(self, memory_fs):
        report = memory_fs.explain("USER/margo AND FULLTEXT/alpha")
        assert not report.analyzed
        assert report.root.op == "intersect"
        assert sorted(child.op for child in report.root.children) == ["term", "term"]
        for span in report.root.walk():
            assert span.estimate is not None
            assert span.rows == 0 and span.nexts == 0 and span.seeks == 0
        assert str(report).startswith("EXPLAIN (")

    def test_single_term_collapses_to_leaf(self, memory_fs):
        report = memory_fs.explain("USER/margo")
        assert report.root.op == "term"
        assert report.root.children == []

    def test_difference_and_union_shapes(self, memory_fs):
        negated = memory_fs.explain("USER/margo AND FULLTEXT/alpha AND NOT APP/mail")
        assert negated.root.op == "difference"
        assert negated.root.children[0].op == "intersect"
        assert negated.root.children[-1].op == "term"
        union = memory_fs.explain("APP/mail OR UDEF/starred")
        assert union.root.op == "union"
        assert len(union.root.children) == 2

    def test_analyze_render_and_dict(self, memory_fs):
        report = memory_fs.explain_analyze("USER/margo AND FULLTEXT/alpha")
        text = str(report)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "rows=" in text and "est=" in text and "row(s) in" in text
        data = report.to_dict()
        assert data["analyzed"] is True
        assert data["rows"] == len(report.results)
        assert data["plan"]["op"] == "intersect"
        assert all("rows" in child for child in data["plan"]["children"])

    def test_estimate_vs_actual_delta_exposes_misestimates(self, memory_fs):
        # FULLTEXT/alpha matches everything, but intersected with USER/margo
        # only half survives: the alpha leaf's actual is below its estimate.
        report = memory_fs.explain_analyze("USER/margo AND FULLTEXT/alpha")
        leaves = {leaf.detail: leaf for leaf in report.root.leaves()}
        alpha = leaves["FULLTEXT/alpha"]
        assert alpha.estimate == 48
        assert alpha.rows < alpha.estimate


class TestTraceIntegration:
    def test_queries_and_analyze_land_in_trace_ring(self, memory_fs):
        memory_fs.query("USER/margo", limit=5)
        memory_fs.explain_analyze("USER/margo AND FULLTEXT/alpha")
        memory_fs.rank("alpha beta", limit=3)
        kinds = [trace.kind for trace in memory_fs.trace(10)]
        assert kinds[0] == "ranked"            # newest first
        assert "explain_analyze" in kinds
        assert "boolean" in kinds

    def test_ranked_trace_carries_wand_span(self, memory_fs):
        memory_fs.rank("alpha beta", limit=3)
        trace = memory_fs.trace(1)[0]
        assert trace.kind == "ranked"
        assert trace.span is not None and trace.span.op == "wand"
        assert trace.span.rows == trace.rows
        assert "documents_scored" in trace.span.extra

    def test_disabled_telemetry_still_explains(self):
        with _load(HFADFileSystem(query_cache_entries=0, telemetry=False)) as fs:
            report = fs.explain_analyze("USER/margo AND FULLTEXT/alpha")
            assert report.results == fs.query("USER/margo AND FULLTEXT/alpha")
            assert fs.trace() == []
