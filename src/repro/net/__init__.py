"""Network serving for CLARE: wire protocol, threaded server, clients.

The paper's engine is a *server* a host Prolog system queries; this
package puts the in-process :class:`~repro.cluster.ShardedRetrievalServer`
behind an actual socket.  ``protocol`` defines the length-prefixed frame
format (reusing the PIF encoder and symbol table), ``server`` is the
front-end on plain threads with admission control and deadlines, and
``client`` holds one request core (verb table, framing, retry/backoff,
deadline, connection pool) over blocking sockets and over asyncio
streams; only the asyncio client imports asyncio, and only when it runs.
"""

from .client import (
    AddressHealth,
    AsyncRetrievalClient,
    BackoffPolicy,
    ConnectError,
    FailoverClient,
    RetrievalClient,
)
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DeadlineExceeded,
    ErrorCode,
    FrameType,
    NetError,
    ProtocolError,
    RemoteError,
    ServerBusy,
    ServerDraining,
    StaleManifest,
)
from .server import BackgroundService, RetrievalService

__all__ = [
    "AddressHealth",
    "AsyncRetrievalClient",
    "BackgroundService",
    "BackoffPolicy",
    "ConnectError",
    "DEFAULT_MAX_FRAME_BYTES",
    "DeadlineExceeded",
    "ErrorCode",
    "FailoverClient",
    "FrameType",
    "NetError",
    "ProtocolError",
    "RemoteError",
    "RetrievalClient",
    "RetrievalService",
    "ServerBusy",
    "ServerDraining",
    "StaleManifest",
]
