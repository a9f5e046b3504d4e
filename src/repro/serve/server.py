"""The asyncio serving front end over :class:`HFADFileSystem`.

One :class:`Server` multiplexes many connections over one engine:

* **Sessions** — every accepted connection gets a
  :class:`~repro.serve.session.Session` carrying its working query scope,
  slow-query threshold and pending result pages.
* **Pipelining** — the per-connection reader loop admits each request as it
  arrives and answers out of order as engine calls complete; the ``id``
  field re-associates responses.
* **Memo answers on the loop** — a ``find``, ``query``, ``search`` or
  ``rank`` whose memoised answer is current (its tags' generations have not
  moved), and a ``read`` of an object whose memoised content is current (no
  content mutation since it was read), is answered on the event loop from
  the memo, taking only the memo's own lock: no worker, no engine lock, no
  thread crossing.  Only a miss goes on to the worker pool.
* **A bounded worker pool** — blocking engine calls run on a
  ``ThreadPoolExecutor`` behind the engine lock; the event loop never
  blocks on the device.  Completions come back through one
  :class:`~repro.serve.completions.Completions` channel that wakes the loop
  once per batch, not once per call.
* **Group-commit alignment** — mutations are acknowledged through the
  :class:`~repro.serve.batcher.WriteBatcher`: the ack waits for the WAL to
  be durable past the write's covering LSN, so N concurrent writers share
  one journal sync and a client ``ok`` *is* a durability promise.
* **Admission control** — requests beyond a session's ``max_inflight`` are
  shed with ``code="overloaded"`` instead of queued unboundedly, and
  mutations are shed with ``code="unhealthy"`` while ``fs.health()``
  reports ``fail`` (dead device, poisoned WAL, full journal).
* **Attribution** — every engine call runs inside a per-session
  ``OperationContext`` (kind ``serve.<op>``, detail ``session=<sid>``), so
  ``fs.operations()`` shows who caused which pages/WAL bytes/lock waits.
"""

from __future__ import annotations

import asyncio
import base64
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.errors import ProtocolError, ReproError, RequestError
from repro.core.query import parse_query, And, TagTerm
from repro.index.tags import TAG_FULLTEXT, TagValue
from repro.serve.batcher import WriteBatcher
from repro.serve.completions import Completions
from repro.serve.protocol import read_frame, write_frame
from repro.serve.session import Session


@dataclass
class ServeConfig:
    """Knobs of one server instance."""

    #: TCP listen address (ignored when ``unix_path`` is set).
    host: str = "127.0.0.1"
    port: int = 0
    #: serve on a unix socket instead of TCP (tests, local CLI).
    unix_path: Optional[str] = None
    #: worker threads running blocking engine calls.
    max_workers: int = 4
    #: per-session in-flight request bound (admission control).
    max_inflight: int = 32
    #: server-default slow threshold (ms); sessions may override via ``set``.
    slow_ms: Optional[float] = None
    #: ceiling on one ack wait before the batcher forces a flush.
    ack_timeout_s: float = 1.0
    #: seconds one cached health verdict is trusted.
    health_poll_s: float = 0.25
    #: default page size for query/find/search results; ``None`` = no paging.
    page_size: Optional[int] = None


def _data_bytes(request: dict) -> bytes:
    """Object content from a request: ``text`` (UTF-8) or ``data_b64``."""
    if "data_b64" in request:
        try:
            return base64.b64decode(request["data_b64"], validate=True)
        except Exception as exc:
            raise RequestError(f"bad data_b64: {exc}", code="bad_request") from exc
    return str(request.get("text", "")).encode("utf-8")


def _require(request: dict, field: str):
    try:
        return request[field]
    except KeyError:
        raise RequestError(f"missing field {field!r}", code="bad_request") from None


_REQUIRED = object()


def _natural(request: dict, field: str, default=_REQUIRED, nullable: bool = False):
    """A non-negative integer field, checked before any engine call.

    An absent field is ``default`` (or missing, if there is none); ``null``
    is ``None`` only where ``nullable`` (no limit, no page, to the end).
    Anything else — a string, a float, a bool, a negative number — is the
    client's error, answered as ``bad_request``.
    """
    value = request.get(field, default)
    if value is _REQUIRED:
        raise RequestError(f"missing field {field!r}", code="bad_request")
    if value is None and nullable:
        return None
    if type(value) is not int or value < 0:  # bool is an int subclass
        raise RequestError(f"field {field!r} must be a non-negative integer, "
                           f"not {value!r}", code="bad_request")
    return value


class Server:
    """Asyncio session layer over one :class:`HFADFileSystem`."""

    def __init__(self, fs, config: Optional[ServeConfig] = None) -> None:
        self.fs = fs
        self.config = config or ServeConfig()
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.executor: Optional[ThreadPoolExecutor] = None
        self.completions: Optional[Completions] = None
        self.batcher: Optional[WriteBatcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[int, Session] = {}
        self._next_sid = 1
        self._health_status_cache = "ok"
        self._health_checked = -1.0
        self.counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "responses": 0,
            "sheds_overload": 0,
            "sheds_unhealthy": 0,
            "errors": 0,
            "slow_requests": 0,
            "protocol_errors": 0,
            #: reads answered from a current memo entry on the event loop.
            "answered_on_loop": 0,
        }
        #: listen address once started: ("unix", path) or (host, port).
        self.address = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self.loop = asyncio.get_event_loop()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="hfad-serve",
        )
        self.completions = Completions(self.loop)
        self.batcher = WriteBatcher(
            self.fs.recovery, self.completions, self.executor,
            ack_timeout_s=self.config.ack_timeout_s,
        )
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path)
            self.address = ("unix", self.config.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port)
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.batcher is not None:
            self.batcher.close()
        if self.executor is not None:
            self.executor.shutdown(wait=True)

    # ------------------------------------------------------------ connections

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        sid = self._next_sid
        self._next_sid += 1
        peername = writer.get_extra_info("peername")
        session = Session(
            sid,
            peer=str(peername) if peername else "",
            slow_ms=self.config.slow_ms,
            max_inflight=self.config.max_inflight,
        )
        self._sessions[sid] = session
        self.counters["connections"] += 1
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError:
                    self.counters["protocol_errors"] += 1
                    break
                if request is None:
                    break
                self.counters["requests"] += 1
                session.requests += 1
                if request.get("op") == "close":
                    await self._respond(writer, write_lock,
                                        {"id": request.get("id"), "ok": True,
                                         "closed": True})
                    break
                # Admission control: beyond the in-flight bound the request
                # is answered immediately with a shed, never queued.
                if session.inflight >= session.max_inflight:
                    session.shed += 1
                    self.counters["sheds_overload"] += 1
                    await self._respond(writer, write_lock, {
                        "id": request.get("id"), "ok": False,
                        "code": "overloaded",
                        "error": (f"session {sid} has {session.inflight} "
                                  f"requests in flight (bound "
                                  f"{session.max_inflight})"),
                    })
                    continue
                session.inflight += 1
                tasks.append(self.loop.create_task(
                    self._serve_request(session, writer, write_lock, request)))
                tasks = [t for t in tasks if not t.done()]
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._sessions.pop(sid, None)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(self, writer, write_lock, message: dict) -> None:
        async with write_lock:
            try:
                await write_frame(writer, message)
                self.counters["responses"] += 1
            except (ConnectionError, ProtocolError, RuntimeError):
                pass  # peer went away mid-response

    async def _serve_request(self, session: Session, writer, write_lock,
                             request: dict) -> None:
        response = {"id": request.get("id")}
        try:
            fields = await self._dispatch(session, request)
            response["ok"] = True
            response.update(fields)
        except RequestError as exc:
            session.errors += 1
            if exc.code in ("overloaded", "unhealthy"):
                session.shed += 1
            else:
                self.counters["errors"] += 1
            response.update(ok=False, error=str(exc), code=exc.code)
        except ReproError as exc:
            session.errors += 1
            self.counters["errors"] += 1
            response.update(ok=False, error=str(exc),
                            code=type(exc).__name__)
        except Exception as exc:  # unexpected: still answer the client
            session.errors += 1
            self.counters["errors"] += 1
            response.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                            code="internal")
        finally:
            session.inflight -= 1
        await self._respond(writer, write_lock, response)

    # ------------------------------------------------------------ dispatch

    async def _dispatch(self, session: Session, request: dict) -> dict:
        op = str(request.get("op", ""))
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise RequestError(f"unknown op {op!r}", code="unknown_op")
        return await handler(session, request)

    def _health_verdict(self) -> str:
        """The cached health status gating mutation admission."""
        now = self.loop.time()
        if now - self._health_checked >= self.config.health_poll_s:
            self._health_checked = now
            try:
                self._health_status_cache = self.fs.health()["status"]
            except Exception:
                self._health_status_cache = "fail"
        return self._health_status_cache

    async def _run(self, session: Session, kind: str, fn):
        """One read-only engine call on the worker pool, attributed."""
        def work():
            ledger = self.fs.telemetry.attribution
            scope = (ledger.operation(f"serve.{kind}", f"session={session.sid}")
                     if ledger is not None else nullcontext())
            with scope:
                return fn()
        started = perf_counter()
        result = await self.completions.submit(self.executor, work)
        self._note_latency(session, started)
        return result

    async def _read(self, session: Session, kind: str, probe, call):
        """A read: answered on the loop when ``probe`` finds its memo entry
        current, else by ``call`` on the worker pool."""
        answer = self._answer_on_loop(session, kind, probe)
        if answer is not None:
            return answer
        return await self._run(session, kind, call)

    def _answer_on_loop(self, session: Session, kind: str, probe):
        """``probe()``'s memo answer, attributed like a worker's call, or None.

        Nothing is answered while the engine is poisoned: the worker's call
        then raises the typed error a poisoned engine gives.  A probe that
        raises (a malformed pair) also falls through, so the worker's call
        reports it as before.
        """
        if self.fs.recovery.poisoned:
            return None
        started = perf_counter()
        ledger = self.fs.telemetry.attribution
        # Built before the probe so its elapsed covers it; recorded only on
        # an answer, so a miss leaves just the worker's record.
        scope = (ledger.operation(f"serve.{kind}", f"session={session.sid}")
                 if ledger is not None else nullcontext())
        try:
            answer = probe()
        except ReproError:
            return None
        if answer is None:
            return None
        with scope:
            pass
        self.counters["answered_on_loop"] += 1
        self._note_latency(session, started)
        return answer

    async def _run_mutation(self, session: Session, kind: str, fn):
        """One mutating engine call; the return is ack-after-durable."""
        if self._health_verdict() == "fail":
            self.counters["sheds_unhealthy"] += 1
            raise RequestError("engine unhealthy: mutation shed",
                               code="unhealthy")
        recovery = self.fs.recovery

        def work():
            ledger = self.fs.telemetry.attribution
            scope = (ledger.operation(f"serve.{kind}", f"session={session.sid}")
                     if ledger is not None else nullcontext())
            with scope:
                out = fn()
            # Upper bound on this write's frame LSN: captured after the
            # call returns, before handing back to the event loop.
            lsn = recovery.journal.sealed_lsn
            return out, lsn
        started = perf_counter()
        result, lsn = await self.completions.submit(self.executor, work)
        session.mutations += 1
        durable = await self.batcher.wait_durable(lsn)
        self._note_latency(session, started)
        if not durable:
            raise RequestError(
                "write committed but durability could not be confirmed",
                code="ack_timeout")
        return result

    def _note_latency(self, session: Session, started: float) -> None:
        elapsed_ms = (perf_counter() - started) * 1e3
        threshold = session.slow_ms
        if threshold is not None and elapsed_ms >= threshold:
            session.slow_queries += 1
            self.counters["slow_requests"] += 1

    def _paged(self, session: Session, page: Optional[int], results: List) -> dict:
        """Answer a result list, paging through the session when it
        overflows ``page``, the requested (or configured) page size."""
        if page is None or len(results) <= page:
            return {"results": results, "total": len(results)}
        rid = session.stash_results(results)
        return {"results": results[:page], "total": len(results), "rid": rid}

    # ------------------------------------------------------------ operations

    async def _op_ping(self, session: Session, request: dict) -> dict:
        return {"pong": True, "sid": session.sid}

    async def _op_create(self, session: Session, request: dict) -> dict:
        content = _data_bytes(request)
        tags = [str(t) for t in request.get("tags", [])]
        annotations = [str(a) for a in request.get("annotations", [])]
        oid = await self._run_mutation(session, "create", lambda: self.fs.create(
            content,
            path=request.get("path"),
            owner=str(request.get("owner", "root")),
            application=request.get("application"),
            tags=tags,
            annotations=annotations,
            index_content=bool(request.get("index", True)),
        ))
        return {"oid": oid}

    async def _op_read(self, session: Session, request: dict) -> dict:
        oid = _natural(request, "oid")
        offset = _natural(request, "offset", 0)
        length = _natural(request, "length", None, nullable=True)
        data = await self._read(
            session, "read", lambda: self.fs.objects.probe_read(oid, offset, length),
            lambda: self.fs.read(oid, offset=offset, length=length))
        return {"data_b64": base64.b64encode(data).decode("ascii"),
                "size": len(data)}

    async def _op_write(self, session: Session, request: dict) -> dict:
        oid = _natural(request, "oid")
        offset = _natural(request, "offset", 0)
        data = _data_bytes(request)
        written = await self._run_mutation(
            session, "write", lambda: self.fs.write(oid, offset, data))
        return {"written": written}

    async def _op_append(self, session: Session, request: dict) -> dict:
        oid = _natural(request, "oid")
        data = _data_bytes(request)
        written = await self._run_mutation(
            session, "append", lambda: self.fs.append(oid, data))
        return {"written": written}

    async def _op_delete(self, session: Session, request: dict) -> dict:
        oid = _natural(request, "oid")
        await self._run_mutation(session, "delete", lambda: self.fs.delete(oid))
        return {"deleted": True}

    async def _op_tag(self, session: Session, request: dict) -> dict:
        oid = _natural(request, "oid")
        tag = str(_require(request, "tag"))
        value = str(_require(request, "value"))
        await self._run_mutation(
            session, "tag", lambda: self.fs.tag(oid, tag, value))
        return {"tagged": True}

    async def _op_untag(self, session: Session, request: dict) -> dict:
        oid = _natural(request, "oid")
        tag = str(_require(request, "tag"))
        value = str(_require(request, "value"))
        removed = await self._run_mutation(
            session, "untag", lambda: self.fs.untag(oid, tag, value))
        return {"removed": removed}

    async def _op_find(self, session: Session, request: dict) -> dict:
        pairs = [str(p) for p in _require(request, "pairs")]
        if not pairs:
            raise RequestError("find needs at least one TAG/value pair",
                               code="bad_request")
        pairs = session.scope_pairs(pairs)
        limit = _natural(request, "limit", None, nullable=True)
        page = _natural(request, "page", self.config.page_size, nullable=True)
        oids = await self._read(
            session, "find", lambda: self.fs.naming.probe_resolve(pairs, limit),
            lambda: self.fs.find(*pairs, limit=limit))
        return self._paged(session, page, oids)

    async def _op_query(self, session: Session, request: dict) -> dict:
        query = session.apply_scope(parse_query(str(_require(request, "q"))))
        limit = _natural(request, "limit", None, nullable=True)
        page = _natural(request, "page", self.config.page_size, nullable=True)
        oids = await self._read(
            session, "query", lambda: self.fs.naming.probe_query(query, limit),
            lambda: self.fs.query(query, limit=limit))
        return self._paged(session, page, oids)

    async def _op_search(self, session: Session, request: dict) -> dict:
        text = str(_require(request, "text"))
        limit = _natural(request, "limit", None, nullable=True)
        page = _natural(request, "page", self.config.page_size, nullable=True)
        naming = self.fs.naming
        # The pairs HFADFileSystem.search_text builds: one per kept token,
        # as written, so the probe and the worker ask the same question.
        tokens = self.fs.fulltext_index.index.analyzer.query_tokens(text)
        if session.scope:
            # Scoped search: the FULLTEXT conjunction composes with the
            # session scope like any other query.
            if not tokens:
                return self._paged(session, page, [])
            query = session.apply_scope(
                And([TagTerm(TAG_FULLTEXT, token) for token in tokens]))
            oids = await self._read(
                session, "search", lambda: naming.probe_query(query, limit),
                lambda: self.fs.query(query, limit=limit))
        else:
            pairs = [TagValue(TAG_FULLTEXT, token) for token in tokens]
            oids = await self._read(
                session, "search", lambda: naming.probe_resolve(pairs, limit),
                lambda: self.fs.search_text(text, limit=limit))
        return self._paged(session, page, oids)

    async def _op_rank(self, session: Session, request: dict) -> dict:
        text = str(_require(request, "text"))
        limit = _natural(request, "limit", 10, nullable=True)
        hits = await self._read(
            session, "rank", lambda: self.fs.naming.probe_rank(text, limit),
            lambda: self.fs.rank(text, limit=limit))
        return {"hits": [{"oid": hit.doc_id, "score": hit.score}
                         for hit in hits]}

    async def _op_fetch(self, session: Session, request: dict) -> dict:
        rid = _natural(request, "rid")
        offset = _natural(request, "offset", 0)
        count = _natural(request, "count", None, nullable=True)
        try:
            page, total = session.fetch(rid, offset, count)
        except KeyError:
            raise RequestError(f"no pending result {rid}",
                               code="bad_request") from None
        return {"results": page, "total": total}

    async def _op_cd(self, session: Session, request: dict) -> dict:
        target = str(_require(request, "scope"))
        if target in ("/", ""):
            return {"scope": session.reset_scope()}
        try:
            return {"scope": session.enter_scope(target)}
        except (ValueError, ReproError) as exc:
            raise RequestError(str(exc), code="bad_request") from exc

    async def _op_up(self, session: Session, request: dict) -> dict:
        return {"scope": session.leave_scope()}

    async def _op_pwd(self, session: Session, request: dict) -> dict:
        return {"scope": session.scope_strings()}

    async def _op_set(self, session: Session, request: dict) -> dict:
        if "slow_ms" in request:
            slow_ms = request["slow_ms"]
            if slow_ms is not None and (type(slow_ms) not in (int, float) or slow_ms < 0):
                raise RequestError(f"field 'slow_ms' must be a non-negative number or null, "
                                   f"not {slow_ms!r}", code="bad_request")
            session.slow_ms = None if slow_ms is None else float(slow_ms)
        if "max_inflight" in request:
            session.max_inflight = max(1, _natural(request, "max_inflight"))
        return {"slow_ms": session.slow_ms,
                "max_inflight": session.max_inflight}

    async def _op_session_stats(self, session: Session, request: dict) -> dict:
        return {"session": session.snapshot()}

    async def _op_stats(self, session: Session, request: dict) -> dict:
        section = str(request.get("section", "server"))
        if section == "server":
            return {"stats": self.stats()}
        if section == "session":
            return {"stats": session.snapshot()}
        if section == "fs":
            from repro.telemetry import to_jsonable
            stats = await self._run(session, "stats", self.fs.stats)
            return {"stats": to_jsonable(stats)}
        raise RequestError(f"unknown stats section {section!r}",
                           code="bad_request")

    async def _op_health(self, session: Session, request: dict) -> dict:
        return {"health": await self._run(session, "health", self.fs.health)}

    # ------------------------------------------------------------ stats

    def stats(self) -> Dict[str, object]:
        return {
            "address": list(self.address) if self.address else None,
            "sessions": len(self._sessions),
            "workers": self.config.max_workers,
            "max_inflight": self.config.max_inflight,
            **self.counters,
            "loop_wakeups": self.completions.wakeups if self.completions else 0,
            "content_cache": (self.fs.content_cache.snapshot()
                              if self.fs.content_cache is not None else None),
            "batcher": self.batcher.snapshot() if self.batcher else None,
        }


class ServerHandle:
    """A server running on a background event-loop thread (tests, CLI)."""

    def __init__(self, server: Server, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def address(self):
        return self.server.address

    def stop(self, timeout: float = 5.0) -> None:
        if not self.loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self.loop)
            try:
                future.result(timeout)
            except Exception:
                pass
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)
        if not self.loop.is_closed():
            self.loop.close()


def serve_in_thread(fs, config: Optional[ServeConfig] = None,
                    start_timeout: float = 10.0) -> ServerHandle:
    """Start a :class:`Server` on a dedicated event-loop thread.

    Returns once the listen socket is bound (``handle.address`` is live).
    """
    server = Server(fs, config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            # Drain cancelled tasks so the loop closes cleanly.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))

    thread = threading.Thread(target=run, name="hfad-serve-loop", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise RuntimeError("server failed to start in time")
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)
