"""An interactive shell for hFAD.

The paper's second open question imagines the "current directory" as an
iterative refinement of a search; this module gives that idea a concrete
user interface: a small shell whose navigation commands (`cd`, `up`, `ls`,
`pwd`) operate on tag constraints instead of directories, alongside the
familiar file commands (`put`, `cat`, `mkdir`, `mv`, `rm`, `ln`) served by
the POSIX veneer and the native naming commands (`tag`, `find`, `query`,
`search`, `savequery`).

Usage::

    python -m repro.cli             # interactive shell on an empty store
    python -m repro.cli --demo      # pre-loaded with the synthetic corpus
    python -m repro.cli -c "put /a.txt hello" -c "search hello"

The shell is deliberately stateless across invocations (the store is
in-memory); it exists to demonstrate and exercise the API, and is what the
test-suite drives programmatically through :class:`HFADShell`.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import Callable, Dict, List, Optional

from repro.core import HFADFileSystem
from repro.errors import ReproError
from repro.posix import PosixVFS
from repro.semantic import RefinementSession, VirtualDirectoryTree


class ShellError(ReproError):
    """Raised for malformed shell commands (bad arity, unknown command)."""


class HFADShell:
    """Programmatic driver behind the interactive shell.

    Every command returns its output as a string (possibly empty) so the REPL
    and the tests share one code path.
    """

    def __init__(self, fs: Optional[HFADFileSystem] = None) -> None:
        self.fs = fs if fs is not None else HFADFileSystem()
        self.vfs = PosixVFS(self.fs)
        self.session = RefinementSession(self.fs)
        self.queries = VirtualDirectoryTree(self.fs)
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "help": self.cmd_help,
            "put": self.cmd_put,
            "cat": self.cmd_cat,
            "mkdir": self.cmd_mkdir,
            "ls": self.cmd_ls,
            "rm": self.cmd_rm,
            "mv": self.cmd_mv,
            "ln": self.cmd_ln,
            "stat": self.cmd_stat,
            "tag": self.cmd_tag,
            "untag": self.cmd_untag,
            "names": self.cmd_names,
            "find": self.cmd_find,
            "query": self.cmd_query,
            "search": self.cmd_search,
            "rank": self.cmd_rank,
            "savequery": self.cmd_savequery,
            "queries": self.cmd_queries,
            "cd": self.cmd_cd,
            "up": self.cmd_up,
            "pwd": self.cmd_pwd,
            "suggest": self.cmd_suggest,
            "insert": self.cmd_insert,
            "cut": self.cmd_cut,
            "fsck": self.cmd_fsck,
            "scrub": self.cmd_scrub,
            "recover": self.cmd_recover,
            "checkpoint": self.cmd_checkpoint,
            "explain": self.cmd_explain,
            "stats": self.cmd_stats,
            "trace": self.cmd_trace,
            "ops": self.cmd_ops,
            "slowlog": self.cmd_slowlog,
            "top": self.cmd_top,
            "health": self.cmd_health,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Execute one command line; returns its output."""
        parts = shlex.split(line)
        if not parts:
            return ""
        command, args = parts[0], parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            raise ShellError(f"unknown command {command!r} (try 'help')")
        return handler(args)

    def close(self) -> None:
        self.fs.close()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _require(self, args: List[str], count: int, usage: str) -> None:
        if len(args) < count:
            raise ShellError(f"usage: {usage}")

    def _resolve_target(self, target: str) -> int:
        """Resolve a path or a numeric object id to an object id."""
        if target.isdigit():
            oid = int(target)
            if not self.fs.exists(oid):
                raise ShellError(f"no object {oid}")
            return oid
        oid = self.fs.lookup_path(target)
        if oid is None:
            raise ShellError(f"no object named {target}")
        return oid

    def _parse_limit(self, args: List[str], usage: str):
        """Strip a leading ``--limit N`` / ``-n N`` from ``args``.

        Returns ``(limit, remaining_args)``; ``limit`` is None when absent.
        """
        if args and args[0] in ("--limit", "-n"):
            if len(args) < 2 or not args[1].isdigit():
                raise ShellError(f"usage: {usage}")
            return int(args[1]), args[2:]
        return None, args

    def _render_oids(self, oids: List[int]) -> str:
        lines = []
        for oid in oids:
            paths = self.fs.paths_for(oid)
            label = paths[0] if paths else "(no path)"
            lines.append(f"{oid}\t{label}")
        return "\n".join(lines) if lines else "(no matches)"

    # ------------------------------------------------------------------
    # commands: POSIX-flavoured
    # ------------------------------------------------------------------

    def cmd_help(self, args: List[str]) -> str:
        return (
            "file commands:   put PATH TEXT | cat PATH|OID | mkdir PATH | ls [PATH] |\n"
            "                 rm PATH | mv OLD NEW | ln EXISTING NEW | stat PATH|OID |\n"
            "                 insert PATH|OID OFFSET TEXT | cut PATH|OID OFFSET LENGTH\n"
            "naming commands: tag TARGET TAG VALUE | untag TARGET TAG VALUE | names TARGET |\n"
            "                 find [--limit N] TAG/VALUE... | query [--limit N] EXPR |\n"
            "                 search [--limit N] TEXT | rank [--limit N] TEXT |\n"
            "                 savequery NAME EXPR | queries\n"
            "navigation:      cd TAG/VALUE | up | pwd | suggest\n"
            "durability:      fsck | scrub [--limit N] | recover | checkpoint\n"
            "observability:   explain [--analyze] [--limit N] EXPR |\n"
            "                 stats [--format json|prom|text] | trace [--limit N] |\n"
            "                 ops [--limit N] | slowlog [--limit N|--threshold MS] |\n"
            "                 top | health"
        )

    def cmd_put(self, args: List[str]) -> str:
        self._require(args, 2, "put PATH TEXT...")
        path, text = args[0], " ".join(args[1:])
        parent = path.rsplit("/", 1)[0] or "/"
        if parent != "/" and not self.vfs.exists(parent):
            self.vfs.makedirs(parent)
        oid = self.vfs.write_file(path, text.encode("utf-8"))
        return f"wrote {len(text)} bytes to {path} (object {oid})"

    def cmd_cat(self, args: List[str]) -> str:
        self._require(args, 1, "cat PATH|OID")
        oid = self._resolve_target(args[0])
        return self.fs.read(oid).decode("utf-8", errors="replace")

    def cmd_mkdir(self, args: List[str]) -> str:
        self._require(args, 1, "mkdir PATH")
        self.vfs.makedirs(args[0])
        return ""

    def cmd_ls(self, args: List[str]) -> str:
        path = args[0] if args else "/"
        if path.startswith("/queries"):
            entries = self.queries.resolve(path)
            if isinstance(entries, int):
                return str(entries)
            return "\n".join(entry.name for entry in entries)
        entries = self.vfs.readdir(path)
        return "\n".join(
            entry.name + ("/" if entry.is_directory else "") for entry in entries
        )

    def cmd_rm(self, args: List[str]) -> str:
        self._require(args, 1, "rm PATH")
        self.vfs.unlink(args[0])
        return ""

    def cmd_mv(self, args: List[str]) -> str:
        self._require(args, 2, "mv OLD NEW")
        self.vfs.rename(args[0], args[1])
        return ""

    def cmd_ln(self, args: List[str]) -> str:
        self._require(args, 2, "ln EXISTING NEW")
        self.vfs.link(args[0], args[1])
        return ""

    def cmd_stat(self, args: List[str]) -> str:
        self._require(args, 1, "stat PATH|OID")
        oid = self._resolve_target(args[0])
        metadata = self.fs.stat(oid)
        paths = self.fs.paths_for(oid)
        return (
            f"object {oid}: size={metadata.size} owner={metadata.owner} "
            f"mode={oct(metadata.mode)} names={len(self.fs.names_for(oid))} "
            f"paths={paths}"
        )

    def cmd_insert(self, args: List[str]) -> str:
        self._require(args, 3, "insert PATH|OID OFFSET TEXT...")
        oid = self._resolve_target(args[0])
        offset = int(args[1])
        text = " ".join(args[2:])
        self.fs.insert(oid, offset, text.encode("utf-8"))
        return f"inserted {len(text)} bytes at offset {offset}"

    def cmd_cut(self, args: List[str]) -> str:
        self._require(args, 3, "cut PATH|OID OFFSET LENGTH")
        oid = self._resolve_target(args[0])
        removed = self.fs.truncate(oid, int(args[1]), int(args[2]))
        return f"removed {removed} bytes"

    # ------------------------------------------------------------------
    # commands: naming
    # ------------------------------------------------------------------

    def cmd_tag(self, args: List[str]) -> str:
        self._require(args, 3, "tag TARGET TAG VALUE")
        oid = self._resolve_target(args[0])
        self.fs.tag(oid, args[1], " ".join(args[2:]))
        return ""

    def cmd_untag(self, args: List[str]) -> str:
        self._require(args, 3, "untag TARGET TAG VALUE")
        oid = self._resolve_target(args[0])
        removed = self.fs.untag(oid, args[1], " ".join(args[2:]))
        return "" if removed else "no such name"

    def cmd_names(self, args: List[str]) -> str:
        self._require(args, 1, "names TARGET")
        oid = self._resolve_target(args[0])
        return "\n".join(str(pair) for pair in self.fs.names_for(oid))

    def cmd_find(self, args: List[str]) -> str:
        usage = "find [--limit N] TAG/VALUE..."
        limit, args = self._parse_limit(args, usage)
        self._require(args, 1, usage)
        return self._render_oids(self.fs.find(*args, limit=limit))

    def cmd_query(self, args: List[str]) -> str:
        usage = "query [--limit N] EXPR"
        limit, args = self._parse_limit(args, usage)
        self._require(args, 1, usage)
        return self._render_oids(self.fs.query(" ".join(args), limit=limit))

    def cmd_search(self, args: List[str]) -> str:
        usage = "search [--limit N] TEXT..."
        limit, args = self._parse_limit(args, usage)
        self._require(args, 1, usage)
        return self._render_oids(self.fs.search_text(" ".join(args), limit=limit))

    def cmd_rank(self, args: List[str]) -> str:
        """BM25-ranked search: best hits first, with their scores.

        The default top-10 is scored a posting block at a time with
        block-max pruning instead of scoring the whole corpus; ``--limit N``
        adjusts k.
        """
        usage = "rank [--limit N] TEXT..."
        limit, args = self._parse_limit(args, usage)
        self._require(args, 1, usage)
        hits = self.fs.rank(" ".join(args), limit=10 if limit is None else limit)
        lines = []
        for hit in hits:
            paths = self.fs.paths_for(hit.doc_id)
            label = paths[0] if paths else "(no path)"
            lines.append(f"{hit.doc_id}\t{hit.score:.4f}\t{label}")
        return "\n".join(lines) if lines else "(no matches)"

    def cmd_savequery(self, args: List[str]) -> str:
        self._require(args, 2, "savequery NAME EXPR")
        name, expression = args[0], " ".join(args[1:])
        self.queries.define(name, expression)
        return f"saved /queries/{name}"

    def cmd_queries(self, args: List[str]) -> str:
        return "\n".join(self.queries.names()) or "(none)"

    # ------------------------------------------------------------------
    # commands: durability
    # ------------------------------------------------------------------

    def cmd_fsck(self, args: List[str]) -> str:
        """Walk the on-device structures and report integrity."""
        report = self.fs.fsck()
        lines = [
            f"objects checked: {report['objects']}",
            f"extents checked: {report['extents']}",
        ]
        trees = report["trees"]
        lines.extend(
            f"{name} tree: {trees[name]['leaves']} leaves, {trees[name]['inner']} "
            f"inner, fill {trees[name]['fill']:.1%}"
            for name in ("master", "content", "fulltext", "image") if name in trees
        )
        if "journal_committed_transactions" in report:
            lines.append(
                f"journal: {report['journal_committed_transactions']} committed "
                f"transaction(s), {report['journal_bytes_used']} bytes in use"
            )
        if report["errors"]:
            lines.append(f"ERRORS ({len(report['errors'])}):")
            lines.extend(f"  {error}" for error in report["errors"])
        else:
            lines.append("clean: no inconsistencies found")
        return "\n".join(lines)

    def cmd_scrub(self, args: List[str]) -> str:
        """Run an online integrity scrub (``--limit N`` verifies at most N
        pages and parks the walk for the next call to resume)."""
        limit, args = self._parse_limit(args, "scrub [--limit N]")
        report = self.fs.scrub(limit=limit)
        lines = [
            f"pages scanned: {report.pages_scanned} "
            f"(clean {report.pages_clean}, dirty-skipped {report.skipped_dirty})",
            f"repaired: {report.repaired} "
            f"(from cache {report.repaired_from_cache}, "
            f"from WAL {report.repaired_from_wal})",
            f"quarantined: {report.quarantined}, released: {report.released}",
        ]
        if report.errors:
            lines.append(f"ERRORS ({len(report.errors)}):")
            lines.extend(f"  {error}" for error in report.errors)
        lines.append(
            "cycle complete" if report.complete
            else "cycle parked (run 'scrub' again to resume)"
        )
        return "\n".join(lines)

    def cmd_recover(self, args: List[str]) -> str:
        """Report the durability layer's state (journal, LSNs, checkpoints)."""
        info = self.fs.stats()["recovery"]
        return (
            f"durability mode: wal (group commit {info['group_commit']})\n"
            f"lsn {info['last_lsn']} (durable {info['durable_lsn']}), "
            f"journal {info['journal_bytes_used']}/{info['journal_capacity_bytes']} bytes\n"
            f"committed {info['transactions_committed']}, "
            f"aborted {info['transactions_aborted']}, "
            f"checkpoints {info['checkpoints']} "
            f"({info['auto_checkpoints']} automatic)\n"
            f"replayed at mount: {info['replayed_transactions']} transaction(s), "
            f"{info['replayed_pages']} page(s)"
        )

    def cmd_checkpoint(self, args: List[str]) -> str:
        """Force a checkpoint (flush dirty pages, truncate the journal)."""
        flushed = self.fs.checkpoint()
        return f"checkpoint complete: {flushed} dirty page(s) flushed"

    # ------------------------------------------------------------------
    # commands: observability
    # ------------------------------------------------------------------

    def cmd_explain(self, args: List[str]) -> str:
        """Show a query's plan (``--analyze`` runs it and reports actuals)."""
        usage = "explain [--analyze] [--limit N] EXPR"
        analyze = False
        if args and args[0] == "--analyze":
            analyze = True
            args = args[1:]
        limit, args = self._parse_limit(args, usage)
        self._require(args, 1, usage)
        expression = " ".join(args)
        if analyze:
            return str(self.fs.explain_analyze(expression, limit=limit))
        return str(self.fs.explain(expression))

    def cmd_stats(self, args: List[str]) -> str:
        """Dump runtime stats (``--format json`` / ``prom`` / ``text``)."""
        usage = "stats [--format json|prom|text]"
        fmt = "text"
        if args:
            if args[0] != "--format" or len(args) < 2:
                raise ShellError(f"usage: {usage}")
            fmt = args[1]
        stats = self.fs.stats()
        if fmt == "json":
            from repro.telemetry import stats_to_json

            return stats_to_json(stats)
        if fmt == "prom":
            from repro.telemetry import prometheus_text

            # Passing the registry adds # HELP lines from instrument
            # descriptions alongside the # TYPE lines.
            return prometheus_text(
                stats, registry=self.fs.telemetry.metrics
            ).rstrip("\n")
        if fmt != "text":
            raise ShellError(f"usage: {usage}")
        naming = stats["naming"]
        lines = [
            f"objects: {stats['object_count']}",
            f"naming: {naming.naming_operations} operation(s), "
            f"{naming.queries} quer(y/ies), {naming.ranked_queries} ranked",
            f"keyvalue entries scanned: {stats['keyvalue_entries_scanned']}",
            f"fulltext postings scanned: {stats['fulltext_postings_scanned']}",
        ]
        if stats["query_cache"] is not None:
            cache = stats["query_cache"]
            lines.append(
                f"query cache: {cache['hits']} hit(s), {cache['misses']} "
                f"miss(es), hit ratio {cache['hit_ratio']}"
            )
        index = stats["persistent_index"]
        lines += [
            f"buffer pool: {stats['buffer_pool']}",
            f"fulltext backlog: {index['fulltext_backlog_docs']} document(s), "
            f"{index['fulltext_backlog_keys']} key(s) unsettled; "
            f"{index['fulltext_settles']} settle(s)",
            f"recovery: {stats['recovery']['mode']}",
        ]
        return "\n".join(lines)

    def cmd_trace(self, args: List[str]) -> str:
        """The last-N completed query traces, newest first."""
        usage = "trace [--limit N]"
        limit, args = self._parse_limit(args, usage)
        if args:
            raise ShellError(f"usage: {usage}")
        traces = self.fs.trace(10 if limit is None else limit)
        if not traces:
            return "(no traces)"
        lines = []
        for trace in traces:
            lines.append(
                f"#{trace.seq}\t{trace.kind}\t{trace.text}\t"
                f"{trace.rows} row(s) in {trace.elapsed * 1e3:.3f} ms"
            )
        return "\n".join(lines)

    def cmd_ops(self, args: List[str]) -> str:
        """Recent operations with their per-operation resource attribution."""
        usage = "ops [--limit N]"
        limit, args = self._parse_limit(args, usage)
        if args:
            raise ShellError(f"usage: {usage}")
        records = self.fs.operations(10 if limit is None else limit)
        if not records:
            return "(no operations recorded — telemetry off or nothing ran)"
        lines = []
        for rec in records:
            detail = f" {rec['detail']}" if rec["detail"] else ""
            flags = " FAILED" if rec.get("failed") else ""
            lines.append(
                f"#{rec['seq']}\t{rec['kind']}{detail}\t"
                f"{rec['elapsed_us'] / 1e3:.3f} ms{flags}\t"
                f"pages r/w {rec['pages_read']}/{rec['pages_written']}  "
                f"cache h/m {rec['cache_hits']}/{rec['cache_misses']}  "
                f"wal {rec['wal_bytes']}B/{rec['wal_syncs']} sync(s)  "
                f"lock wait {rec['lock_wait_us']:.0f} µs"
            )
        return "\n".join(lines)

    def cmd_slowlog(self, args: List[str]) -> str:
        """Show the slow-query log, or retune it with ``--threshold MS|off``."""
        usage = "slowlog [--limit N | --threshold MS|off]"
        if args and args[0] == "--threshold":
            if len(args) != 2:
                raise ShellError(f"usage: {usage}")
            if args[1] == "off":
                self.fs.set_slow_query_threshold(None)
                return "slow-query capture disabled"
            try:
                threshold = float(args[1])
            except ValueError:
                raise ShellError(f"usage: {usage}")
            self.fs.set_slow_query_threshold(threshold)
            return f"slow-query threshold set to {threshold:g} ms"
        limit, args = self._parse_limit(args, usage)
        if args:
            raise ShellError(f"usage: {usage}")
        entries = self.fs.slow_queries(10 if limit is None else limit)
        if not entries:
            return "(no slow queries)"
        lines = []
        for entry in entries:
            lines.append(
                f"#{entry['seq']}\t{entry['kind']}\t{entry['query']}\t"
                f"{entry['elapsed_ms']:.3f} ms "
                f"(threshold {entry['threshold_ms']:g} ms)"
            )
            attribution = entry.get("attribution")
            if attribution:
                lines.append(
                    f"  pages r/w {attribution['pages_read']}"
                    f"/{attribution['pages_written']}  "
                    f"cache h/m {attribution['cache_hits']}"
                    f"/{attribution['cache_misses']}  "
                    f"lock wait {attribution['lock_wait_us']:.0f} µs"
                )
            if "report" in entry:
                suffix = (" (re-executed)"
                          if entry.get("report_reexecuted") else "")
                lines.append(f"  plan captured{suffix}")
        return "\n".join(lines)

    def cmd_top(self, args: List[str]) -> str:
        """Windowed workload rates: counter deltas, gauges, latency quantiles.

        Each call takes one metrics sample and reports the delta against the
        previous call's — the first call only primes the window.
        """
        history = self.fs.telemetry.history
        if history is None:
            return "(telemetry disabled)"
        history.sample()
        window = history.window()
        if window is None:
            return "(sampling started — run 'top' again for a window)"
        lines = [f"window: {window['seconds']:.3f} s"]
        active = [(name, entry) for name, entry in
                  sorted(window["counters"].items()) if entry["delta"]]
        for name, entry in active:
            lines.append(
                f"  {name}: +{entry['delta']:g} ({entry['rate']:g}/s)")
        if not active:
            lines.append("  (no counter activity this window)")
        for name, value in sorted(window["gauges"].items()):
            lines.append(f"  {name} = {value:g}")
        for name, entry in sorted(window["histograms"].items()):
            if not entry["count"]:
                continue
            p50 = entry.get("p50")
            p95 = entry.get("p95")
            lines.append(
                f"  {name}: {entry['count']} obs ({entry['rate']:g}/s)  "
                f"p50 {p50 if p50 is not None else '-'}  "
                f"p95 {p95 if p95 is not None else '-'}"
            )
        return "\n".join(lines)

    def cmd_health(self, args: List[str]) -> str:
        """Aggregate health: worst-wins status over the component checks."""
        report = self.fs.health()
        lines = [f"status: {report['status'].upper()}"]
        for name, check in sorted(report["checks"].items()):
            lines.append(
                f"  [{check['status'].upper():4}] {name}: {check['detail']}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # commands: refinement navigation
    # ------------------------------------------------------------------

    def cmd_cd(self, args: List[str]) -> str:
        self._require(args, 1, "cd TAG/VALUE")
        results = self.session.cd(args[0])
        return f"{self.session.pwd()}  ({len(results)} objects)"

    def cmd_up(self, args: List[str]) -> str:
        popped = self.session.up()
        if popped is None:
            return "/"
        return f"{self.session.pwd()}  (removed {popped})"

    def cmd_pwd(self, args: List[str]) -> str:
        return self.session.pwd()

    def cmd_suggest(self, args: List[str]) -> str:
        suggestions = self.session.suggest(limit_per_tag=4)
        if not suggestions:
            return "(no narrowing facets)"
        lines = []
        for tag in sorted(suggestions):
            rendered = ", ".join(f"{value} ({count})" for value, count in suggestions[tag])
            lines.append(f"{tag}: {rendered}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------


def build_shell(demo: bool = False) -> HFADShell:
    """Create a shell, optionally pre-loaded with the synthetic corpus."""
    fs = HFADFileSystem(num_blocks=1 << 17)
    if demo:
        from repro.workloads import load_into_hfad, mixed_corpus

        load_into_hfad(fs, mixed_corpus(photos=60, mails=60, documents=30, seed=1))
    return HFADShell(fs)


def main(argv: Optional[List[str]] = None) -> int:
    # `hfad serve` / `hfad client` dispatch to the network front end
    # (repro.serve) before the shell's own argument parsing.
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] in ("serve", "client"):
        from repro.serve.cli import client_main, serve_main

        return (serve_main if args[0] == "serve" else client_main)(args[1:])
    parser = argparse.ArgumentParser(prog="hfad", description="Interactive hFAD shell")
    parser.add_argument("--demo", action="store_true", help="pre-load the synthetic corpus")
    parser.add_argument(
        "-c", "--command", action="append", default=[],
        help="run this command and exit (repeatable)",
    )
    options = parser.parse_args(argv)
    shell = build_shell(demo=options.demo)
    try:
        if options.command:
            for line in options.command:
                try:
                    output = shell.execute(line)
                except ReproError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                if output:
                    print(output)
            return 0
        print("hFAD shell — type 'help' for commands, Ctrl-D to exit")
        while True:
            try:
                line = input(f"hfad {shell.session.pwd()}> ")
            except EOFError:
                print()
                return 0
            try:
                output = shell.execute(line)
            except ReproError as error:
                print(f"error: {error}")
                continue
            if output:
                print(output)
    finally:
        shell.close()


if __name__ == "__main__":
    sys.exit(main())
