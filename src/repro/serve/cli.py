"""``hfad serve`` / ``hfad client`` — the network face of the shell.

``hfad serve`` formats an in-memory device, mounts the engine and serves
the length-prefixed JSON protocol on a TCP port or a unix socket until
interrupted.  ``hfad client`` connects to such a server and offers either
one-shot commands (``-c "search vacation"``) or a small interactive REPL
mirroring the shell's navigation: ``cd TAG/value`` narrows the *session
scope* on the server, so every subsequent find/query/search is answered
within it.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.serve.client import Client
from repro.serve.server import ServeConfig, serve_in_thread


def _address(options):
    if options.unix:
        return ("unix", options.unix)
    return (options.host, options.port)


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hfad serve", description="Serve an hFAD store over the wire")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7340)
    parser.add_argument("--unix", help="serve on this unix socket instead of TCP")
    parser.add_argument("--blocks", type=int, default=1 << 17,
                        help="device size in blocks")
    parser.add_argument("--group-commit", type=int, default=8,
                        help="commits batched per WAL sync")
    parser.add_argument("--sync-interval-ms", type=float, default=None,
                        help="WAL idle-flush interval (default: auto)")
    parser.add_argument("--workers", type=int, default=4,
                        help="engine worker threads")
    parser.add_argument("--max-inflight", type=int, default=32,
                        help="per-session in-flight request bound")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="default slow-request threshold (ms)")
    parser.add_argument("--demo", action="store_true",
                        help="pre-load the synthetic corpus")
    options = parser.parse_args(argv)

    from repro.core import HFADFileSystem

    fs = HFADFileSystem(
        num_blocks=options.blocks,
        group_commit=options.group_commit,
        sync_interval_ms=options.sync_interval_ms,
    )
    if options.demo:
        from repro.workloads import load_into_hfad, mixed_corpus

        load_into_hfad(fs, mixed_corpus(photos=60, mails=60, documents=30, seed=1))
    config = ServeConfig(
        host=options.host,
        port=options.port,
        unix_path=options.unix,
        max_workers=options.workers,
        max_inflight=options.max_inflight,
        slow_ms=options.slow_ms,
    )
    handle = serve_in_thread(fs, config)
    where = (handle.address[1] if handle.address[0] == "unix"
             else f"{handle.address[0]}:{handle.address[1]}")
    print(f"hfad serving on {where} "
          f"(group_commit={options.group_commit}, "
          f"sync_interval_ms={fs.recovery.sync_interval_ms if fs.recovery else 0}, "
          f"workers={options.workers})")
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        handle.stop()
        fs.close()
    return 0


def _run_client_line(client: Client, line: str) -> str:
    words = shlex.split(line)
    if not words:
        return ""
    cmd, args = words[0], words[1:]
    if cmd == "ping":
        return str(client.ping().get("pong"))
    if cmd == "put":
        text = " ".join(args)
        return str(client.create(text.encode("utf-8")))
    if cmd == "cat":
        return client.read(int(args[0])).decode("utf-8", "replace")
    if cmd == "rm":
        client.delete(int(args[0]))
        return ""
    if cmd == "tag":
        client.tag(int(args[0]), args[1], args[2])
        return ""
    if cmd == "untag":
        return str(client.untag(int(args[0]), args[1], args[2]))
    if cmd == "find":
        return " ".join(str(oid) for oid in client.find(*args))
    if cmd == "query":
        response = client.query(" ".join(args))
        return " ".join(str(oid) for oid in response["results"])
    if cmd == "search":
        return " ".join(str(oid) for oid in client.search(" ".join(args)))
    if cmd == "rank":
        hits = client.rank(" ".join(args))
        return "\n".join(f"{hit['oid']}\t{hit['score']:.4f}" for hit in hits)
    if cmd == "cd":
        return "/" + "/".join(client.cd(args[0]) if args else client.cd("/"))
    if cmd == "up":
        return "/" + "/".join(client.up())
    if cmd == "pwd":
        return "/" + "/".join(client.pwd())
    if cmd == "stats":
        import json

        return json.dumps(client.stats(args[0] if args else "server"),
                          indent=2, default=str)
    if cmd == "health":
        health = client.health()
        return str(health.get("status", health))
    raise ReproError(f"unknown client command {cmd!r}")


def client_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hfad client", description="Talk to a running hfad server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7340)
    parser.add_argument("--unix", help="connect to this unix socket")
    parser.add_argument("-c", "--command", action="append", default=[],
                        help="run this command and exit (repeatable)")
    options = parser.parse_args(argv)
    client = Client(_address(options))
    try:
        if options.command:
            for line in options.command:
                try:
                    output = _run_client_line(client, line)
                except ReproError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                if output:
                    print(output)
            return 0
        print("hfad client — ping/put/cat/find/query/search/rank/cd/up/pwd/"
              "stats/health, Ctrl-D to exit")
        while True:
            try:
                line = input("hfad> ")
            except EOFError:
                print()
                return 0
            try:
                output = _run_client_line(client, line)
            except ReproError as error:
                print(f"error: {error}")
                continue
            if output:
                print(output)
    finally:
        client.close()
