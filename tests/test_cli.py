"""Tests for the interactive hFAD shell and its command-line entry point."""

import pytest

from repro.cli import HFADShell, ShellError, build_shell, main


@pytest.fixture
def shell():
    instance = HFADShell()
    yield instance
    instance.close()


class TestFileCommands:
    def test_put_cat_roundtrip(self, shell):
        output = shell.execute("put /docs/note.txt hello from the shell")
        assert "object" in output
        assert shell.execute("cat /docs/note.txt") == "hello from the shell"

    def test_cat_by_object_id(self, shell):
        shell.execute("put /a.txt by id please")
        oid = shell.fs.lookup_path("/a.txt")
        assert shell.execute(f"cat {oid}") == "by id please"

    def test_mkdir_ls(self, shell):
        shell.execute("mkdir /music/albums")
        shell.execute("put /music/song.mp3 la la la")
        listing = shell.execute("ls /music")
        assert "albums/" in listing
        assert "song.mp3" in listing
        assert "music/" in shell.execute("ls")

    def test_rm_mv_ln(self, shell):
        shell.execute("put /old.txt contents")
        shell.execute("mv /old.txt /new.txt")
        shell.execute("ln /new.txt /alias.txt")
        assert shell.execute("cat /alias.txt") == "contents"
        shell.execute("rm /new.txt")
        assert shell.execute("cat /alias.txt") == "contents"
        with pytest.raises(ShellError):
            shell.execute("cat /new.txt")

    def test_stat(self, shell):
        shell.execute("put /s.txt twelve bytes")
        output = shell.execute("stat /s.txt")
        assert "size=12" in output
        assert "/s.txt" in output

    def test_insert_and_cut(self, shell):
        shell.execute("put /e.txt hello world")
        shell.execute("insert /e.txt 5 ' there'")
        assert shell.execute("cat /e.txt") == "hello there world"
        shell.execute("cut /e.txt 5 6")
        assert shell.execute("cat /e.txt") == "hello world"


class TestNamingCommands:
    def test_tag_find_untag(self, shell):
        shell.execute("put /p.jpg beach photo pixels")
        shell.execute("tag /p.jpg UDEF vacation")
        found = shell.execute("find UDEF/vacation")
        assert "/p.jpg" in found
        names = shell.execute("names /p.jpg")
        assert "UDEF/vacation" in names
        assert "POSIX//p.jpg" in names
        shell.execute("untag /p.jpg UDEF vacation")
        assert shell.execute("find UDEF/vacation") == "(no matches)"
        assert shell.execute("untag /p.jpg UDEF vacation") == "no such name"

    def test_find_conjunction_and_query(self, shell):
        shell.execute("put /one.txt alpha contents")
        shell.execute("put /two.txt alpha contents as well")
        shell.execute("tag /one.txt UDEF keep")
        assert "/one.txt" in shell.execute("find FULLTEXT/alpha UDEF/keep")
        assert "/two.txt" not in shell.execute("find FULLTEXT/alpha UDEF/keep")
        output = shell.execute("query FULLTEXT/alpha AND NOT UDEF/keep")
        assert "/two.txt" in output

    def test_search(self, shell):
        shell.execute("put /report.txt quarterly budget figures")
        assert "/report.txt" in shell.execute("search budget figures")
        assert shell.execute("search nonexistentterm") == "(no matches)"

    def test_savequery_and_ls_queries(self, shell):
        shell.execute("put /a.txt vacation beach")
        shell.execute("tag /a.txt UDEF starred")
        shell.execute("savequery starred UDEF/starred")
        assert "starred" in shell.execute("queries")
        assert "a.txt" in shell.execute("ls /queries/starred")
        assert "starred" in shell.execute("ls /queries")


class TestNavigationCommands:
    def test_cd_up_pwd_suggest(self, shell):
        shell.execute("put /photos/a.jpg beach sunset")
        shell.execute("put /photos/b.jpg beach volleyball")
        shell.execute("tag /photos/a.jpg PLACE beach")
        shell.execute("cd FULLTEXT/beach")
        assert "FULLTEXT=beach" in shell.execute("pwd")
        assert "(2 objects)" in shell.execute("cd FULLTEXT/beach") or True
        suggestions = shell.execute("suggest")
        assert "PLACE" in suggestions or "FULLTEXT" in suggestions
        output = shell.execute("up")
        assert "removed" in output
        shell.execute("up")
        assert shell.execute("pwd") == "/"
        assert shell.execute("up") == "/"


class TestDispatch:
    def test_empty_line_and_unknown_command(self, shell):
        assert shell.execute("") == ""
        with pytest.raises(ShellError):
            shell.execute("frobnicate /x")

    def test_bad_arity(self, shell):
        with pytest.raises(ShellError):
            shell.execute("put /only-path")
        with pytest.raises(ShellError):
            shell.execute("tag /x UDEF")

    def test_missing_target(self, shell):
        with pytest.raises(ShellError):
            shell.execute("cat /missing")
        with pytest.raises(ShellError):
            shell.execute("cat 424242")

    def test_help_lists_commands(self, shell):
        text = shell.execute("help")
        for command in ("put", "find", "query", "cd", "savequery"):
            assert command in text


class TestEntryPoint:
    def test_main_with_commands(self, capsys):
        code = main(["-c", "put /hello.txt greetings", "-c", "search greetings"])
        assert code == 0
        output = capsys.readouterr().out
        assert "wrote" in output
        assert "/hello.txt" in output

    def test_build_shell_demo_preloads_corpus(self):
        shell = build_shell(demo=True)
        try:
            assert shell.fs.object_count > 100
            assert shell.execute("find KIND/photo") != "(no matches)"
        finally:
            shell.close()


class TestObservabilityCommands:
    def test_explain_renders_plan(self, shell):
        shell.execute("put /a.txt alpha beta")
        shell.execute("put /b.txt alpha gamma")
        shell.execute("tag /a.txt UDEF keep")
        output = shell.execute("explain FULLTEXT/alpha AND UDEF/keep")
        assert output.startswith("EXPLAIN (")
        assert "intersect" in output
        assert "est=" in output

    def test_explain_analyze_reports_actuals(self, shell):
        shell.execute("put /a.txt alpha beta")
        shell.execute("put /b.txt alpha gamma")
        output = shell.execute("explain --analyze --limit 1 FULLTEXT/alpha")
        assert output.startswith("EXPLAIN ANALYZE")
        assert "rows=" in output
        assert "1 row(s) in" in output

    def test_explain_requires_expression(self, shell):
        with pytest.raises(ShellError):
            shell.execute("explain")

    def test_stats_text_json_prom(self, shell):
        import json

        shell.execute("put /a.txt alpha beta")
        shell.execute("find FULLTEXT/alpha")
        count = shell.fs.object_count
        text = shell.execute("stats")
        assert f"objects: {count}" in text
        assert "keyvalue entries scanned:" in text
        decoded = json.loads(shell.execute("stats --format json"))
        assert decoded["object_count"] == count
        prom = shell.execute("stats --format prom")
        assert f"hfad_object_count {count}" in prom
        with pytest.raises(ShellError):
            shell.execute("stats --format yaml")

    def test_stats_prints_the_posting_backlog_of_a_device_backed_engine(self, shell):
        from repro.core.filesystem import HFADFileSystem

        assert "fulltext backlog" not in shell.execute("stats")  # volatile: no device
        durable = HFADShell(HFADFileSystem(btree_on_device=True, num_blocks=1 << 14))
        durable.execute("put /a.txt alpha beta")
        assert ("fulltext backlog: 1 document(s), 4 key(s) unsettled; 0 settle(s)"
                in durable.execute("stats"))
        durable.fs.checkpoint()
        assert ("fulltext backlog: 0 document(s), 0 key(s) unsettled; 1 settle(s)"
                in durable.execute("stats"))
        durable.fs.close()

    def test_trace_lists_recent_queries(self, shell):
        assert shell.execute("trace") == "(no traces)"
        shell.execute("put /a.txt alpha beta")
        shell.execute("find FULLTEXT/alpha")
        shell.execute("rank alpha")
        output = shell.execute("trace --limit 2")
        lines = output.splitlines()
        assert len(lines) == 2
        assert "row(s) in" in lines[0]
        full = shell.execute("trace")
        assert "ranked" in full       # the `rank` verb streams WAND
        assert "naming" in full       # `find` resolves names

    def test_help_lists_observability_commands(self, shell):
        text = shell.execute("help")
        for command in ("explain", "stats", "trace",
                        "ops", "slowlog", "top", "health"):
            assert command in text


class TestWorkloadObservatoryCommands:
    def test_ops_lists_attributed_operations(self, shell):
        # Mounting creates the root directory, so the ledger is never empty.
        assert "create /" in shell.execute("ops")
        shell.execute("put /a.txt alpha beta")
        shell.execute("query FULLTEXT/alpha")
        output = shell.execute("ops")
        assert "create /a.txt" in output
        assert "query" in output
        assert "pages r/w" in output
        assert "lock wait" in output
        limited = shell.execute("ops --limit 1")
        assert len(limited.splitlines()) == 1
        assert "query" in limited       # newest first
        with pytest.raises(ShellError):
            shell.execute("ops --limit 1 extra")

    def test_slowlog_threshold_and_capture(self, shell):
        assert shell.execute("slowlog") == "(no slow queries)"
        shell.execute("put /a.txt alpha beta")
        armed = shell.execute("slowlog --threshold 0")
        assert armed == "slow-query threshold set to 0 ms"
        shell.execute("query FULLTEXT/alpha")
        output = shell.execute("slowlog")
        assert "query\tFULLTEXT/alpha" in output
        assert "(threshold 0 ms)" in output
        assert "pages r/w" in output
        assert "plan captured (re-executed)" in output
        assert shell.execute("slowlog --threshold off") == \
            "slow-query capture disabled"
        with pytest.raises(ShellError):
            shell.execute("slowlog --threshold fast")

    def test_top_reports_windowed_rates(self, shell):
        first = shell.execute("top")
        assert first == "(sampling started — run 'top' again for a window)"
        shell.execute("put /a.txt alpha beta")
        shell.execute("rank alpha")
        second = shell.execute("top")
        assert second.startswith("window: ")
        assert "health.status = 0" in second

    def test_top_with_telemetry_disabled(self):
        from repro.core.filesystem import HFADFileSystem

        shell = HFADShell(HFADFileSystem(telemetry=False))
        try:
            assert shell.execute("top") == "(telemetry disabled)"
            assert shell.execute("ops").startswith("(no operations recorded")
        finally:
            shell.close()

    def test_health_renders_worst_wins_report(self):
        from repro.core.filesystem import HFADFileSystem

        # On a device: a volatile filesystem has no component to check.
        shell = HFADShell(HFADFileSystem(btree_on_device=True, num_blocks=1 << 14))
        try:
            lines = shell.execute("health").splitlines()
        finally:
            shell.close()
        assert lines[0] == "status: OK"
        assert any(line.startswith("  [OK  ] wal:") for line in lines[1:])
        # Every check line carries an upper-cased status tag and a detail.
        for line in lines[1:]:
            assert line.startswith("  [") and ": " in line

    def test_stats_prom_emits_help_and_type_lines(self, shell):
        shell.execute("put /a.txt alpha beta")
        prom = shell.execute("stats --format prom")
        # Legacy collector scalars are conservatively typed as gauges.
        assert "# TYPE hfad_object_count gauge" in prom
        # Registry-native instruments carry their structural type and a
        # # HELP line sourced from the instrument description.
        assert ("# HELP hfad_telemetry_gauges_health_status "
                "aggregate health: 0=ok 1=warn 2=fail (worst check wins)"
                ) in prom
        assert "# TYPE hfad_telemetry_gauges_health_status gauge" in prom
        assert "hfad_telemetry_gauges_health_status 0" in prom


class TestDurabilityCommands:
    def test_fsck_reports_clean_store(self, shell):
        shell.execute("put /ok.txt some contents")
        report = shell.execute("fsck")
        assert "objects checked: " in report
        assert "clean" in report

    def test_recover_reports_mode_without_wal(self, shell):
        # The default shell keeps its btrees in memory: no journal exists.
        assert "volatile" in shell.execute("recover")

    def test_recover_and_checkpoint_on_wal_shell(self):
        shell = build_shell(on_device=True)
        try:
            shell.execute("put /durable.txt write ahead logged")
            report = shell.execute("recover")
            assert "durability mode: wal" in report
            assert "committed" in report
            checkpointed = shell.execute("checkpoint")
            assert "checkpoint complete" in checkpointed
            assert "clean" in shell.execute("fsck")
        finally:
            shell.close()

    def test_main_accepts_durability_flags(self, capsys):
        code = main([
            "--on-device",
            "-c", "put /d.txt flagged", "-c", "recover",
        ])
        assert code == 0
        assert "durability mode: wal" in capsys.readouterr().out
