"""Top-k early exit (``limit=``) through the naming interface, CLI and cache."""

import pytest

from repro.core import HFADFileSystem
from repro.core.naming import NamingInterface
from repro.core.query import QueryPlanner
from repro.errors import QueryError
from repro.index.keyvalue_index import KeyValueIndexStore
from repro.index.store import IndexStoreRegistry


def make_fs():
    fs = HFADFileSystem(num_blocks=1 << 14)
    for index in range(20):
        fs.create(
            content=b"",
            owner="margo" if index % 2 == 0 else "nick",
            annotations=["vacation"] if index % 4 == 0 else [],
            index_content=False,
        )
    return fs


class TestLimitSemantics:
    def test_limit_truncates(self):
        with make_fs() as fs:
            full = fs.query("USER/margo")
            assert len(full) == 10
            assert fs.query("USER/margo", limit=3) == full[:3]
            assert fs.find(("USER", "margo"), limit=3) == full[:3]

    def test_limit_zero(self):
        with make_fs() as fs:
            assert fs.query("USER/margo", limit=0) == []

    def test_limit_larger_than_result(self):
        with make_fs() as fs:
            full = fs.query("UDEF/vacation")
            assert fs.query("UDEF/vacation", limit=999) == full

    def test_negative_limit_rejected(self):
        with make_fs() as fs:
            with pytest.raises(QueryError):
                fs.query("USER/margo", limit=-1)

    def test_limit_with_not(self):
        with make_fs() as fs:
            full = fs.query("USER/margo AND NOT UDEF/vacation")
            assert len(full) == 5
            assert fs.query("USER/margo AND NOT UDEF/vacation", limit=2) == full[:2]

    def test_limit_with_or(self):
        with make_fs() as fs:
            full = fs.query("USER/margo OR USER/nick")
            assert fs.query("USER/margo OR USER/nick", limit=7) == full[:7]

    def test_limited_queries_counted(self):
        with make_fs() as fs:
            fs.query("USER/margo", limit=2)
            fs.query("USER/margo")
            assert fs.naming.stats.limited_queries == 1

    def test_search_text_limit(self):
        with HFADFileSystem(num_blocks=1 << 14) as fs:
            for _ in range(6):
                fs.create(content=b"sunny beach vacation")
            full = fs.search_text("beach vacation")
            assert len(full) == 6
            assert fs.search_text("beach vacation", limit=2) == full[:2]


class TestLimitCacheInterplay:
    def test_full_result_serves_any_limit(self):
        with make_fs() as fs:
            full = fs.query("USER/margo")  # cached as complete
            assert fs.query("USER/margo", limit=4) == full[:4]
            assert fs.naming.stats.cached_results == 1
            assert fs.query_cache.hits == 1

    def test_truncated_result_cached_under_limit_key(self):
        with make_fs() as fs:
            first = fs.query("USER/margo", limit=4)
            assert fs.query("USER/margo", limit=4) == first
            assert fs.naming.stats.cached_results == 1
            # The truncated entry must not answer the unlimited query.
            full = fs.query("USER/margo")
            assert len(full) == 10
            assert fs.naming.stats.cached_results == 1

    def test_truncated_result_does_not_serve_other_limits(self):
        with make_fs() as fs:
            fs.query("USER/margo", limit=4)
            assert len(fs.query("USER/margo", limit=6)) == 6
            assert fs.naming.stats.cached_results == 0

    def test_exhausted_limited_query_cached_as_full(self):
        with make_fs() as fs:
            # Only 5 objects match; limit=5 drains the stream, so the entry
            # is complete and may serve the unlimited repeat.
            first = fs.query("UDEF/vacation", limit=5)
            assert len(first) == 5
            assert fs.query("UDEF/vacation") == first
            assert fs.naming.stats.cached_results == 1

    def test_mutation_invalidates_limited_entry(self):
        with make_fs() as fs:
            fs.query("USER/margo", limit=4)
            oid = fs.create(content=b"", owner="margo", index_content=False)
            assert oid in fs.query("USER/margo", limit=999)

    def test_limit_without_cache(self):
        registry = IndexStoreRegistry()
        store = KeyValueIndexStore(tags=["UDEF"])
        registry.register(store)
        for oid in range(30):
            registry.insert("UDEF", "bulk", oid)
        naming = NamingInterface(registry, planner=QueryPlanner(), query_cache=None)
        assert naming.query("UDEF/bulk", limit=3) == [0, 1, 2]


class TestShellLimit:
    def test_query_and_find_and_search_accept_limit(self):
        from repro.cli import HFADShell, ShellError

        shell = HFADShell()
        try:
            for index in range(4):
                shell.execute(f"put /docs/n{index}.txt beach vacation notes")
            assert len(shell.execute("query --limit 2 FULLTEXT/beach").splitlines()) == 2
            assert len(shell.execute("find --limit 3 FULLTEXT/beach").splitlines()) == 3
            assert len(shell.execute("search -n 1 beach").splitlines()) == 1
            assert len(shell.execute("query FULLTEXT/beach").splitlines()) == 4
            with pytest.raises(ShellError):
                shell.execute("query --limit nope FULLTEXT/beach")
        finally:
            shell.close()
