"""T1 — Table 1 reproduction: tag/value pairs for different API uses.

The paper's only table enumerates which tag each class of caller uses:
POSIX/pathname, FULLTEXT/term, USER/logname, UDEF/annotation,
APP/application name (+ USER/logname), and the ID fast path.  This benchmark
performs one naming operation per row against the shared corpus, checks that
each resolves through the intended index store, and times the lookups.
"""

from __future__ import annotations

import pytest

from repro.index import TAG_APP, TAG_FULLTEXT, TAG_ID, TAG_POSIX, TAG_UDEF, TAG_USER

from conftest import emit_table


def _table1_rows(fs, oid_by_path):
    some_path = next(iter(oid_by_path))
    rows = [
        ("POSIX (pathname)", TAG_POSIX, some_path, "keyvalue"),
        ("Search (term)", TAG_FULLTEXT, "budget", "fulltext"),
        ("Manual (logname)", TAG_USER, "margo", "keyvalue"),
        ("Manual (annotation)", TAG_UDEF, "beach", "keyvalue"),
        ("Application (app name)", TAG_APP, "iphoto", "keyvalue"),
        ("FastPath (object id)", TAG_ID, str(oid_by_path[some_path]), "<registry fast path>"),
    ]
    return rows


def test_table1_every_row_resolves(hfad_with_corpus):
    fs, oid_by_path = hfad_with_corpus
    results = []
    for use, tag, value, expected_store in _table1_rows(fs, oid_by_path):
        matches = fs.find((tag, value))
        store_name = (
            expected_store
            if tag == TAG_ID
            else fs.registry.store_for(tag).name
        )
        if tag != TAG_ID:
            assert store_name == expected_store
        results.append((use, f"{tag}/{value[:32]}", store_name, len(matches)))
        if tag in (TAG_POSIX, TAG_ID):
            assert len(matches) == 1
        else:
            assert len(matches) >= 1
    emit_table(
        "Table 1 — tag/value pairs per API use (matches against the mixed corpus)",
        ["use", "tag/value", "index store", "matches"],
        results,
    )


@pytest.mark.parametrize(
    "tag,value",
    [
        (TAG_POSIX, None),       # filled in from the corpus below
        (TAG_FULLTEXT, "budget"),
        (TAG_USER, "margo"),
        (TAG_UDEF, "beach"),
        (TAG_APP, "iphoto"),
        (TAG_ID, None),
    ],
)
def test_table1_lookup_latency(benchmark, hfad_with_corpus, tag, value):
    fs, oid_by_path = hfad_with_corpus
    some_path = next(iter(oid_by_path))
    if tag == TAG_POSIX:
        value = some_path
    if tag == TAG_ID:
        value = str(oid_by_path[some_path])
    benchmark(lambda: fs.find((tag, value)))
