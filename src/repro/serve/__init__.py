"""repro.serve — the asyncio serving front end over HFADFileSystem.

A Server multiplexes many client sessions over one engine: a read whose
memoised answer (or object content) is current is answered on the event loop, other blocking
engine calls run on a bounded worker pool, mutations are acknowledged only once
the WAL is durable past their covering LSN (group-commit alignment via the
WriteBatcher plus the recovery manager's ``sync_interval_ms`` idle flush),
and overload is shed at admission instead of queued unboundedly.
"""

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    decode_payload,
    read_frame,
    write_frame,
    send_frame,
    recv_frame,
)
from repro.serve.session import MAX_PENDING_RESULTS, Session
from repro.serve.batcher import WriteBatcher
from repro.serve.server import ServeConfig, Server, ServerHandle, serve_in_thread
from repro.serve.client import AsyncClient, Client

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_PENDING_RESULTS",
    "AsyncClient",
    "Client",
    "ServeConfig",
    "Server",
    "ServerHandle",
    "Session",
    "WriteBatcher",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
    "send_frame",
    "recv_frame",
    "serve_in_thread",
]
