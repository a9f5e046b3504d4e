"""Per-layer tracing from outside the engine.

:class:`Tracer` replaces the public entry points of each engine layer with
timing wrappers (and puts the originals back on :meth:`Tracer.uninstall`);
nothing under ``src/`` knows about it.  A *span* opens when control enters a
layer from another layer — a call that stays inside its layer passes
straight through — and a layer's **self time** is its spans' duration minus
the part their child spans cover.  Clocks are ``perf_counter_ns``: on the
engine-direct workloads wall time is CPU time; on the served ones it also
holds waiting (for the GIL, the loop, the executor), which is the point.

Spans are kept in memory as tuples ``(id, layer, name, start_ns, end_ns,
parent id, request id, leaf)`` and written out by :meth:`Tracer.write`.  The
leaf-hot layers (``btree``, ``cache.pool``, ``storage.device``,
``integrity``) are called hundreds of times per operation, so they get no
span of their own: each is folded into its parent span's ``leaf`` dict as
``{layer: [calls, total_ns]}``.

The current span lives in a ``ContextVar``, so the two requests a served
pass has in flight (one per connection, each its own asyncio task) keep
separate stacks, and :meth:`Tracer._adopting` carries a request's span
across the hop to the executor thread.

Installing raises if the engine no longer has a wrapped name: a refactor
must move the wrapper, not silently lose the layer.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from repro.btree import btree as btree_module, cursor as btree_cursor, pages
from repro.cache import buffer_pool
from repro.core import naming as naming_module, query as query_module
from repro.core.filesystem import HFADFileSystem
from repro.fulltext import analyzer, persistent_index
from repro.index import fulltext_index, keyvalue_index, store as index_store
from repro.integrity import context as integrity_context
from repro.osd import object_store
from repro.query import cursors, scored
from repro.recovery import manager as recovery_manager
from repro.serve import batcher, protocol, server as server_module, session
from repro.storage import block_device, journal

LEAF_LAYERS = frozenset(("btree", "cache.pool", "storage.device", "integrity"))
#: layers whose individual span durations (children included) are kept.
TIMED_LAYERS = frozenset(("recovery.checkpoint", "recovery.replay", "serve.batcher"))
MAX_SPANS_WRITTEN = 100_000

# frame = [layer, child_ns, request id, span id (0 for leaf layers), leaf dict]
_LAYER, _CHILD_NS, _REQUEST, _SPAN_ID, _LEAF = range(5)


class _TimedIter:
    """An iterator whose every resumption is a (potential) span."""

    __slots__ = ("_inner", "_step")

    def __init__(self, inner, step) -> None:
        self._inner = inner
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._inner)


class Tracer:
    def __init__(self) -> None:
        self._current = contextvars.ContextVar("perfbench.span", default=None)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[Dict[str, List[int]]] = []
        self._undo: List[tuple] = []
        self.spans: List[tuple] = []
        self.durations: Dict[str, List[int]] = defaultdict(list)
        #: request id given to spans opened outside any other span; the
        #: single-threaded harness loops set it before each op.
        self.request = None
        #: ident of the server's event-loop thread (protocol framing done by
        #: the load generator's own thread is not the server's cost).
        self.server_thread: Optional[int] = None

    # ------------------------------------------------------------ wrappers

    def _totals(self) -> Dict[str, List[int]]:
        try:
            return self._tls.totals
        except AttributeError:
            totals = self._tls.totals = defaultdict(lambda: [0, 0])
            with self._lock:
                self._per_thread.append(totals)
            return totals

    def _open(self, layer: str, parent, request=None) -> list:
        if request is None:
            request = parent[_REQUEST] if parent is not None else self.request
        span_id = 0 if layer in LEAF_LAYERS else next(self._ids)
        return [layer, 0, request, span_id, None]

    def _close(self, frame: list, parent, name: str, start: int, elapsed: int) -> None:
        layer = frame[_LAYER]
        slot = self._totals()[layer]
        slot[0] += 1
        slot[1] += elapsed - frame[_CHILD_NS]
        if parent is not None:
            parent[_CHILD_NS] += elapsed
        if frame[_SPAN_ID]:
            self.spans.append((frame[_SPAN_ID], layer, name, start, start + elapsed,
                               parent[_SPAN_ID] if parent is not None else 0,
                               frame[_REQUEST], frame[_LEAF]))
            if layer in TIMED_LAYERS:
                self.durations[layer].append(elapsed)
        elif parent is not None and parent[_SPAN_ID]:
            leaf = parent[_LEAF]
            if leaf is None:
                leaf = parent[_LEAF] = {}
            entry = leaf.get(layer)
            if entry is None:
                leaf[layer] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    def _sync(self, layer, name: str, fn: Callable) -> Callable:
        """``layer`` is a name, or a callable of the call's arguments that
        returns one (``None`` = do not trace this call)."""
        current, dynamic = self._current, callable(layer)

        def traced(*args, **kwargs):
            entered = layer(*args) if dynamic else layer
            parent = current.get()
            if entered is None or (parent is not None and parent[_LAYER] == entered):
                return fn(*args, **kwargs)
            frame = self._open(entered, parent)
            token = current.set(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                current.reset(token)
                self._close(frame, parent, name, start, elapsed)

        traced.__wrapped__ = fn
        return traced

    def _async(self, layer: str, name: str, fn: Callable,
               request_of: Optional[Callable] = None) -> Callable:
        current = self._current

        async def traced(*args, **kwargs):
            parent = current.get()
            if parent is not None and parent[_LAYER] == layer:
                return await fn(*args, **kwargs)
            frame = self._open(layer, parent,
                               request_of(*args) if request_of else None)
            token = current.set(frame)
            start = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                current.reset(token)
                self._close(frame, parent, name, start, elapsed)

        return traced

    def _adopting(self, fn: Callable) -> Callable:
        """``Server._run``/``_run_mutation``: make the engine call, which the
        server hands to an executor thread, a child of the request's span."""
        current = self._current

        async def traced(server, session_, kind, call):
            frame = current.get()

            def adopted():
                token = current.set(frame)
                try:
                    return call()
                finally:
                    current.reset(token)

            return await fn(server, session_, kind, adopted)

        return traced

    # ------------------------------------------------------------ install

    def _patch(self, owner, name: str, make: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def _wrap(self, layer, owner, names: str) -> None:
        prefix = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
        for name in names.split():
            self._patch(owner, name, lambda fn, name=name:
                        self._sync(layer, f"{prefix}.{name}", fn))

    def install(self) -> "Tracer":
        wrap = self._wrap
        wrap("core.facade", HFADFileSystem,
             "create read write append delete tag untag find query search_text "
             "rank checkpoint")
        wrap("core.naming", naming_module.NamingInterface,
             "add_name remove_name remove_all_names names_for resolve query rank")
        wrap("core.naming", index_store.IndexStoreRegistry,
             "insert remove remove_object lookup open_cursor names_for store_for touch")
        for query_class in (query_module.TagTerm, query_module.And,
                            query_module.Or, query_module.Not):
            wrap("query.cursors", query_class, "cursor")
        wrap("query.cursors", query_module.QueryPlanner,
             "estimate order_conjuncts push_down_disjunction")
        for cursor_class in (cursors.ListCursor, cursors.IntersectCursor,
                             cursors.UnionCursor, cursors.DifferenceCursor):
            wrap("query.cursors", cursor_class, "next seek")
        # ``materialize`` is imported by name where it is used.
        for module in (naming_module, query_module):
            wrap("query.cursors", module, "materialize")
        wrap("query.scored", scored.WandCursor, "__init__ top_k")
        wrap("fulltext.analyze", analyzer.Analyzer, "analyze analyze_with_positions")
        wrap("fulltext.write", persistent_index.PersistentInvertedIndex,
             "add_document remove_document update_document append_terms")
        wrap("fulltext.write", fulltext_index.FullTextIndexStore,
             "index_content drop_content insert remove remove_object")
        wrap("fulltext.read", persistent_index.PersistentInvertedIndex,
             "cursor rank rank_exhaustive document_frequency terms_for "
             "document_ids __contains__")
        wrap("fulltext.read", fulltext_index.FullTextIndexStore,
             "open_cursor lookup cardinality rank values_for")
        wrap("fulltext.read", persistent_index._PostingScoredCursor,
             "next seek score block_max")
        # One cursor class streams both key/value entries and postings; the
        # index that opened it says whose time its steps are.
        self._patch(persistent_index.PersistentInvertedIndex, "_term_cursor",
                    lambda fn: lambda *args, **kwargs: _labelled(
                        fn(*args, **kwargs), "fulltext.read"))
        wrap(lambda cursor, *_: getattr(cursor, "_perfbench_layer", "index.keyvalue"),
             keyvalue_index.PrefixOidCursor, "next seek")
        wrap("index.keyvalue", keyvalue_index.KeyValueIndexStore,
             "insert remove lookup open_cursor remove_object values_for cardinality")
        wrap("osd", object_store.ObjectStore,
             "create exists delete list_objects put_name remove_name check_name "
             "names stat size set_attributes remove_attributes write append read "
             "flush_access_times take_mount_inventory")
        wrap("btree", btree_module.BPlusTree,
             "get lookup put delete pop first last __contains__ destroy")
        wrap("btree", btree_cursor.Cursor, "next_item seek")
        step = self._sync("btree", "Cursor.__next__", next)
        self._patch(btree_cursor.Cursor, "_forward_from",
                    lambda fn: lambda cursor, start: _TimedIter(fn(cursor, start), step))
        wrap("btree", pages.DevicePageStore, "allocate read write free _write_page flush")
        wrap("cache.pool", buffer_pool.PoolConsumer,
             "get put pin unpin invalidate flush page_lsn drop_all peek is_dirty")
        wrap("cache.pool", buffer_pool.BufferPool, "flush flush_page min_dirty_lsn")
        wrap("recovery", recovery_manager.RecoveryManager,
             "begin commit abort log_page log_meta log_revoke protect forget_page "
             "on_durable ensure_durable flush_commits write_superblock checkpoint "
             "maybe_checkpoint _checkpoint_if_needed")
        # Every checkpoint, asked for or triggered by journal fill, runs this.
        wrap("recovery.checkpoint", recovery_manager.RecoveryManager,
             "_checkpoint_quiesced")
        wrap("recovery.replay", recovery_manager.RecoveryManager, "replay")
        wrap("storage.journal", journal.Journal,
             "append sync commit_txid checkpoint replay scan allocate_txid")
        wrap("storage.device", block_device.BlockDevice, "read_blocks write_blocks")
        wrap("integrity", integrity_context.IntegrityContext, "read_blocks")
        wrap("integrity", pages, "verify_frame frame_page")
        # The serving layer.  Frames the load generator encodes and decodes
        # on its own thread go through the same functions and are skipped.
        wrap(lambda *_: ("serve.protocol"
                         if threading.get_ident() == self.server_thread else None),
             protocol, "encode_frame decode_payload")
        wrap("serve.session", session.Session,
             "scope_pairs apply_scope stash_results fetch snapshot")
        wrap("serve.batcher", batcher.WriteBatcher, "_on_durable")
        self._patch(batcher.WriteBatcher, "wait_durable", lambda fn: self._async(
            "serve.batcher", "WriteBatcher.wait_durable", fn))
        self._patch(server_module.Server, "_serve_request", lambda fn: self._async(
            "serve.server", "Server._serve_request", fn,
            request_of=lambda _server, session_, _writer, _lock, request:
                f"{session_.sid}:{request.get('id')}"))
        for name in ("_run", "_run_mutation"):
            self._patch(server_module.Server, name, self._adopting)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------ results

    def reset(self) -> None:
        """Forget everything recorded so far (set-up, warm-up)."""
        with self._lock:
            for totals in self._per_thread:
                totals.clear()
        self.spans.clear()
        self.durations.clear()

    def layers(self) -> Dict[str, List[int]]:
        """``{layer: [calls, self_ns]}`` summed over every thread."""
        merged: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        with self._lock:
            for totals in self._per_thread:
                for layer, (calls, self_ns) in list(totals.items()):
                    merged[layer][0] += calls
                    merged[layer][1] += self_ns
        return dict(merged)

    def write(self, path: str, **header) -> None:
        with open(path, "w") as handle:
            json.dump({
                **header,
                "span_fields": ["id", "layer", "name", "start_ns", "end_ns",
                                "parent", "request", "leaf"],
                "layers": {layer: {"calls": calls, "self_ns": self_ns}
                           for layer, (calls, self_ns) in sorted(self.layers().items())},
                "spans_recorded": len(self.spans),
                "spans": self.spans[:MAX_SPANS_WRITTEN],
            }, handle)


def _labelled(cursor, layer: str):
    cursor._perfbench_layer = layer
    return cursor
