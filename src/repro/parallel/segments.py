"""mmap-backed clause segments shared across processes.

The multi-core data plane hosts each shard's engine in a worker
*process*; the shard's clause images, index rows and bit-sliced columns
are written **once** by the parent into a segment directory and every
worker attaches with ``mmap`` — the kernel shares the pages, so N
workers over one shard cost one copy of the knowledge base.

A segment directory is a :func:`repro.storage.save_kb` directory plus
one ``<stem>.cols`` file per predicate (the packed bit-sliced columns,
:func:`repro.storage.persist.write_columns`).  Attaching is
:func:`repro.storage.load_kb` with a different reader: each file is
mapped instead of read, and the same :class:`~repro.pif.ClauseFile` /
:class:`~repro.scw.SecondaryIndexFile` classes wrap the maps as they
are (every record header validated, nothing decoded or re-hashed).
Record fetches inside a worker are ``memoryview`` slices of the map —
zero-copy all the way into the FS2 byte-walk.

Mutability: the maps are read-only and never written.  A worker's
first mutation of a predicate copies that predicate's clause image and
index rows to the heap (the copy-on-write built into both classes) and
splices the copy; the segment pages stay untouched for every other
attacher.  Decoded-clause caches key on (generation, address), and
generation ids are process-local, so no cross-process invalidation
protocol is needed: the parent forwards each mutation to the owning
worker, and both sides' caches roll over independently.
"""

from __future__ import annotations

import mmap
import pathlib

from ..obs import Instrumentation
from ..storage import KnowledgeBase, PersistenceError, save_kb
from ..storage.persist import restore_kb, write_columns

__all__ = [
    "SegmentError",
    "SharedKnowledgeBase",
    "attach_kb",
    "write_segments",
]


class SegmentError(PersistenceError):
    """Raised on malformed or missing segment files."""


def write_segments(kb: KnowledgeBase, directory: str | pathlib.Path) -> list[str]:
    """Serialise ``kb`` into a segment directory; returns files written.

    Called once per shard by the parent before spawning workers.  Every
    image is written from the in-memory structures — workers never
    recompute them.
    """
    return save_kb(kb, directory, durable=False) + write_columns(kb, directory)


class SharedKnowledgeBase(KnowledgeBase):
    """A knowledge base whose images are mmap'd segments.

    Reads are served straight off the maps; mutations go through the
    ordinary :class:`KnowledgeBase` paths and copy what they touch.
    This class only owns the maps' lifetime.
    """

    def __init__(self, obs: Instrumentation | None = None):
        super().__init__(obs=obs)
        self._segment_maps: list[tuple[mmap.mmap, object]] = []

    def _map_file(self, path: pathlib.Path) -> memoryview:
        if path.stat().st_size == 0:
            return memoryview(b"")
        handle = path.open("rb")
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._segment_maps.append((mapped, handle))
        return memoryview(mapped)

    def close(self) -> None:
        """Release the segment maps (best effort — exported memoryview
        slices still alive keep their map open until they are dropped)."""
        maps, self._segment_maps = self._segment_maps, []
        for mapped, handle in maps:
            try:
                mapped.close()
            except BufferError:
                pass
            handle.close()  # type: ignore[attr-defined]


def attach_kb(
    directory: str | pathlib.Path,
    obs: Instrumentation | None = None,
) -> SharedKnowledgeBase:
    """Attach to a segment directory written by :func:`write_segments`."""
    kb = SharedKnowledgeBase(obs=obs)
    try:
        restore_kb(kb, directory, kb._map_file, SegmentError)
    except BaseException:
        kb.close()
        raise
    return kb
