"""The multi-core data plane: process shard workers over shared segments.

See :mod:`repro.parallel.segments` for the mmap segments and their
copy-on-write rule, :mod:`repro.parallel.worker` for the worker
process protocol, and :mod:`repro.parallel.server` for the
process-backed drop-in behind the cluster front-end.
"""

from .segments import (
    SegmentError,
    SharedKnowledgeBase,
    attach_kb,
    write_segments,
)
from .server import ProcessShardedRetrievalServer, WorkerError
from .worker import WorkerConfig, worker_main

__all__ = [
    "ProcessShardedRetrievalServer",
    "SegmentError",
    "SharedKnowledgeBase",
    "WorkerConfig",
    "WorkerError",
    "attach_kb",
    "worker_main",
    "write_segments",
]
