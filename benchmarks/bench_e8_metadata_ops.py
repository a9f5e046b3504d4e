"""E8 — Section 3.3/3.4: metadata operations without a hierarchy.

In hFAD, "POSIX metadata can easily be stored ... as a unique key (or set of
unique keys) for a file's btree" and the OID→metadata map is one more btree.
A stat is therefore a single keyed lookup, wherever the object "lives" and
however deep its (many) POSIX names are.  In the hierarchical baseline a stat
is a namei: every path component costs a directory lookup, so deeper paths
cost more, and listing a directory costs directory-file I/O.

The benchmark stats the same corpus through both systems (grouped by path
depth) and lists directories vs virtual directories, reporting directory
lookups and device reads per operation.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.semantic import VirtualDirectoryTree

from conftest import emit_table


def test_e8_stat_cost_by_path_depth(hfad_with_corpus, ffs_with_corpus):
    fs, oid_by_path = hfad_with_corpus
    ffs = ffs_with_corpus
    by_depth = defaultdict(list)
    for path in oid_by_path:
        by_depth[path.count("/")].append(path)
    rows = []
    for depth in sorted(by_depth):
        paths = by_depth[depth][:50]
        # hFAD: resolve the POSIX name (one index lookup) + OID metadata lookup.
        before_reads = fs.device.stats.snapshot()
        for path in paths:
            fs.stat(fs.lookup_path(path))
        hfad_reads = fs.device.stats.delta(before_reads).reads
        # FFS: namei per stat.
        dir_lookups_before = ffs.stats.directory_lookups
        device_before = ffs.device.stats.snapshot()
        for path in paths:
            ffs.stat(path)
        ffs_dir_lookups = ffs.stats.directory_lookups - dir_lookups_before
        ffs_reads = ffs.device.stats.delta(device_before).reads
        rows.append(
            (
                depth,
                len(paths),
                round(ffs_dir_lookups / len(paths), 1),
                round(ffs_reads / len(paths), 1),
                round(hfad_reads / len(paths), 1),
            )
        )
        # The hierarchical cost tracks path depth; hFAD's does not.
        assert ffs_dir_lookups / len(paths) == pytest.approx(depth, abs=0.01)
        assert hfad_reads == 0  # metadata btrees are index lookups, not namei walks
    emit_table(
        "E8 — stat cost by path depth (per operation averages)",
        ["path depth", "ops", "FFS dir lookups", "FFS device reads", "hFAD device reads"],
        rows,
    )


def test_e8_listing_directory_vs_virtual_directory(hfad_with_corpus, ffs_with_corpus, corpus):
    fs, _ = hfad_with_corpus
    ffs = ffs_with_corpus
    # Hierarchical listing: a year's photos means walking that subtree.
    device_before = ffs.device.stats.snapshot()
    ffs_listing = ffs.walk("/photos/2009") if ffs.exists("/photos/2009") else []
    ffs_reads = ffs.device.stats.delta(device_before).reads
    # hFAD listing: a virtual directory over YEAR/2009 — pure index work.
    tree = VirtualDirectoryTree(fs)
    tree.define("photos-2009", "KIND/photo AND YEAR/2009")
    device_before = fs.device.stats.snapshot()
    hfad_listing = tree.get("photos-2009").list()
    hfad_reads = fs.device.stats.delta(device_before).reads
    assert len(hfad_listing) == len(ffs_listing)
    emit_table(
        "E8 — listing one year's photos: directory walk vs virtual directory",
        ["system", "entries", "device reads"],
        [
            ("FFS walk of /photos/2009", len(ffs_listing), ffs_reads),
            ("hFAD virtual directory (YEAR/2009)", len(hfad_listing), hfad_reads),
        ],
    )


def test_e8_hfad_stat_latency(benchmark, hfad_with_corpus):
    fs, oid_by_path = hfad_with_corpus
    oids = list(oid_by_path.values())[:100]
    benchmark(lambda: [fs.stat(oid) for oid in oids])


def test_e8_ffs_stat_latency(benchmark, ffs_with_corpus, corpus):
    paths = [item.path for item in corpus][:100]
    benchmark(lambda: [ffs_with_corpus.stat(path) for path in paths])
