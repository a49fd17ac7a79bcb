"""The shared-memory result slab of the process data plane.

A worker's candidate *records* already exist as bytes in its mmap'd
segment, and the parent holds a byte-identical store (segments are
written from it and every mutation is forwarded under the same shard
lock), so a retrieve reply need not pickle candidate term graphs: the
parent rebuilds each candidate from ``(address, record bytes)`` through
its own decode cache.

Each worker owns one :class:`multiprocessing.shared_memory.SharedMemory`
slab.  A reply is ``u32 n`` followed by ``n`` length-prefixed results,
each::

    u32 stats_len | u32 count          (_RESULT)
    stats_len × u8                      pickled RetrievalStats
    count × (u32 address, u32 length)   (_PAIR, candidate directory)
    concatenated record bytes           (PIF records, segment order)

The worker copies the payload to the start of the slab and sends only
``("__shm__", length)`` over the pipe; the parent decodes straight off a
``memoryview`` of the slab.  One slot suffices: a worker has at most one
request outstanding, so the payload is consumed before the next is
written.

Fallback: when a payload outgrows the slab, the candidate addresses are
unknown (merged results), or a record address is missing from the
worker's clause file, the worker falls back to the pickled pipe — the
parent counts those in ``parallel.shm.fallbacks``.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING, Sequence

from ..terms import Term, functor_indicator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.server import ClusterShard
    from ..crs import RetrievalResult

__all__ = [
    "DEFAULT_SLOT_BYTES",
    "SHM_MARKER",
    "SlabWriter",
    "attach_slab",
    "decode_results",
    "encode_results",
    "is_shm_ref",
]

#: slab capacity; payloads above this fall back to the pipe.
DEFAULT_SLOT_BYTES = 1 << 20

#: first element of a slab reference riding the pipe in place of the
#: pickled results: ``(SHM_MARKER, payload_length)``.
SHM_MARKER = "__shm__"

_RESULT = struct.Struct("<II")  # stats_len, candidate count
_PAIR = struct.Struct("<II")  # record address, record length
_COUNT = struct.Struct("<I")  # result count / per-result length prefix


def is_shm_ref(payload) -> bool:
    """True when a worker reply is a slab reference, not a result list."""
    return (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == SHM_MARKER
    )


# -- worker side -------------------------------------------------------------


def _encode_one(result: "RetrievalResult", kb) -> bytes | None:
    """Serialise one result as a candidate directory over ``kb``'s records.

    Returns ``None`` when the result cannot ride the slab (no address
    list, or an address is missing from the clause file) — the caller
    falls back to the pickled pipe.
    """
    addresses = result.addresses
    if addresses is None or len(addresses) != len(result.candidates):
        return None
    stats_blob = pickle.dumps(result.stats)
    out = bytearray(_RESULT.pack(len(stats_blob), len(addresses)))
    out += stats_blob
    if not addresses:
        return bytes(out)
    try:
        clause_file = kb.store(functor_indicator(result.goal)).clause_file
        spans = [clause_file.record_span(address) for address in addresses]
    except KeyError:
        return None
    records = [clause_file.record_bytes(position) for position, _ in spans]
    for address, record in zip(addresses, records):
        out += _PAIR.pack(address, len(record))
    for record in records:
        out += record
    return bytes(out)


def encode_results(results: Sequence["RetrievalResult"], kb) -> bytes | None:
    """The slab payload for a worker's results, or ``None`` when some
    result cannot ride the slab."""
    out = bytearray(_COUNT.pack(len(results)))
    for result in results:
        encoded = _encode_one(result, kb)
        if encoded is None:
            return None
        out += _COUNT.pack(len(encoded))
        out += encoded
    return bytes(out)


class SlabWriter:
    """The worker's end of the slab: copy a payload in, hand out its ref."""

    def __init__(self, shm, slot_bytes: int):
        self.shm = shm
        self.slot_bytes = slot_bytes

    def write(self, encoded: bytes) -> tuple[str, int] | None:
        """Place ``encoded`` in the slab; ``None`` when it won't fit."""
        if len(encoded) > self.slot_bytes:
            return None
        self.shm.buf[: len(encoded)] = encoded
        return (SHM_MARKER, len(encoded))

    def close(self) -> None:
        self.shm.close()


def attach_slab(name: str):
    """Attach an existing slab by name (worker side).

    On Python < 3.13 attaching re-registers the segment with the
    resource tracker; workers are spawned by :mod:`multiprocessing`, so
    they share the parent's tracker and the re-register is an idempotent
    set-add — the parent's ``unlink`` unregisters the name exactly once.
    (Do *not* unregister here: that would strip the parent's own
    registration from the shared tracker.)
    """
    from multiprocessing.shared_memory import SharedMemory

    return SharedMemory(name=name)


# -- parent side -------------------------------------------------------------


def decode_results(
    view: memoryview, goals: Sequence[Term], shard: "ClusterShard"
) -> "list[RetrievalResult]":
    """Rebuild a worker's results (parallel to ``goals``) against the
    parent shard.

    The records decode through ``shard.server``'s decoded-clause cache
    under the *parent's* clause-file generation: worker and parent
    stores are byte-identical by construction (segments are exported
    from the parent, mutations are forwarded under the shard lock), so
    a repeated broadcast answer costs a cache probe, not a decode.
    """
    (count,) = _COUNT.unpack_from(view, 0)
    if count != len(goals):
        raise ValueError(
            f"slab holds {count} results for {len(goals)} goals"
        )
    offset = _COUNT.size
    results = []
    for goal in goals:
        (length,) = _COUNT.unpack_from(view, offset)
        offset += _COUNT.size
        result, consumed = _decode_one(view, offset, goal, shard)
        if consumed != length:
            raise ValueError("slab payload length mismatch")
        offset += length
        results.append(result)
    return results


def _decode_one(
    view: memoryview, base: int, goal: Term, shard: "ClusterShard"
) -> "tuple[RetrievalResult, int]":
    from ..crs import RetrievalResult

    stats_len, count = _RESULT.unpack_from(view, base)
    offset = base + _RESULT.size
    stats = pickle.loads(view[offset : offset + stats_len])
    offset += stats_len
    pairs = list(
        _PAIR.iter_unpack(bytes(view[offset : offset + count * _PAIR.size]))
    )
    offset += count * _PAIR.size
    candidates = []
    if count:
        store = shard.kb.store(functor_indicator(goal))
        decode = shard.server._decode_record
        for address, length in pairs:
            candidates.append(
                decode(store, view[offset : offset + length], address)
            )
            offset += length
    result = RetrievalResult(
        goal=goal,
        candidates=candidates,
        stats=stats,
        addresses=tuple(address for address, _ in pairs),
    )
    return result, offset - base
