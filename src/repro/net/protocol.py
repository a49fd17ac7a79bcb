"""The CLARE wire protocol: length-prefixed binary frames over TCP.

The paper positions the retrieval engine as a *server* a host Prolog
system talks to; this module defines what actually crosses that wire.
Every message is one **frame**::

    +0   u16  magic (0xC1AE)
    +2   u8   protocol version (1)
    +3   u8   frame type
    +4   u32  request id (echoed verbatim in the response)
    +8   u32  payload length
    +12  ...  payload

and requests/responses are matched by request id, so one connection can
carry many concurrent retrievals (the server multiplexes; the clients
pipeline).  A reader that sees a bad magic, an unknown version, or a
declared payload longer than its ``max_frame_bytes`` budget raises
:class:`ProtocolError` and must drop the connection — framing cannot be
resynchronised once trust in the length prefix is gone.

Payloads reuse the existing PIF machinery end to end: goals travel as
query-side PIF item streams, candidate clauses as the same compiled
records that stream off the simulated disk, and each frame carries its
own miniature :class:`~repro.pif.SymbolTable` so a message is fully
self-contained — no connection-level symbol state to leak, resync, or
poison.  :class:`~repro.crs.RetrievalStats` (and the cluster's
:class:`~repro.cluster.MergedRetrievalStats`, per-shard split included)
serialise field-for-field, so a client-side stats object compares equal
to the in-process one — the loopback differential suite relies on it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import IntEnum

from ..cluster import MergedRetrievalStats, WritesFrozen
from ..crs import RetrievalResult, RetrievalStats, RetrievalTimeout, SearchMode
from ..crs.server import StoredCandidates
from ..engine.builtins import PrologError, ResourceError
from ..pif import (
    CompiledClause,
    PIFDecodeError,
    PIFDecoder,
    PIFEncoder,
    SymbolTable,
    clause_record,
)
from ..pif.clausefile import rebase_record
from ..pif.encoder import EncodedArgs
from ..storage import UnknownPredicateError
from ..terms import Clause, Term

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER",
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameType",
    "ErrorCode",
    "Frame",
    "ProtocolError",
    "NetError",
    "ServerBusy",
    "ServerDraining",
    "DeadlineExceeded",
    "StaleManifest",
    "WritesFrozen",
    "RemoteError",
    "encode_frame",
    "decode_header",
    "encode_retrieve_request",
    "decode_retrieve_request",
    "encode_batch_request",
    "decode_batch_request",
    "encode_result_response",
    "decode_result_response",
    "encode_batch_response",
    "decode_batch_response",
    "encode_solve_request",
    "decode_solve_request",
    "encode_solution",
    "decode_solution",
    "encode_solve_done",
    "decode_solve_done",
    "encode_mutate_request",
    "decode_mutate_request",
    "encode_mutated_response",
    "decode_mutated_response",
    "encode_manifest_response",
    "decode_manifest_response",
    "encode_error",
    "decode_error",
    "encode_stats_response",
    "decode_stats_response",
    "error_to_exception",
    "exception_to_error",
]

MAGIC = 0xC1AE
VERSION = 1
HEADER = struct.Struct(">HBBII")

#: Hard ceiling on one frame's payload.  A batch of Result-Memory-sized
#: clause records fits comfortably; a length prefix claiming more is a
#: corrupt or hostile peer, not a big retrieval.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024


class FrameType(IntEnum):
    REQ_RETRIEVE = 0x01
    REQ_RETRIEVE_BATCH = 0x02
    REQ_STATS = 0x03
    REQ_PING = 0x04
    REQ_SOLVE = 0x05
    REQ_MUTATE = 0x06
    REQ_MANIFEST = 0x07
    RESP_RESULT = 0x11
    RESP_BATCH = 0x12
    RESP_STATS = 0x13
    RESP_PONG = 0x14
    RESP_SOLUTION = 0x15
    RESP_SOLVE_DONE = 0x16
    RESP_MUTATED = 0x17
    RESP_MANIFEST = 0x18
    RESP_ERROR = 0x1F


class ErrorCode(IntEnum):
    SERVER_BUSY = 1
    DEADLINE_EXPIRED = 2
    UNKNOWN_PREDICATE = 3
    BAD_REQUEST = 4
    SHUTTING_DOWN = 5
    INTERNAL = 6
    RESOURCE_EXHAUSTED = 7
    RESOLUTION_ERROR = 8
    STALE_MANIFEST = 9
    WRITE_FROZEN = 10


class ProtocolError(ValueError):
    """A malformed frame: bad magic/version, truncation, oversize."""


class NetError(RuntimeError):
    """Base class for errors the service reports over the wire."""


class ServerBusy(NetError):
    """Admission control rejected the request (``SERVER_BUSY`` frame)."""


class ServerDraining(NetError):
    """The server is shutting down and accepts no new requests."""


class DeadlineExceeded(NetError):
    """The request's deadline expired (in queue, in flight, or client-side)."""


class StaleManifest(NetError):
    """The request was tagged with an out-of-date cluster manifest version.

    The message carries the node's current version as text; clients
    re-fetch the manifest (``REQ_MANIFEST``) and re-route, rather than
    applying a write against placement that no longer holds.
    """


class RemoteError(NetError):
    """The server failed internally or rejected the request as malformed."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, correlation id, raw payload."""

    type: FrameType
    request_id: int
    payload: bytes


@dataclass(frozen=True)
class Verb:
    """One row of the verb table: the wire facts of one verb.

    Both ends read it — the client frames a call and checks the answer
    against the row, the server admits, decodes and answers by it.  The
    codecs are *named*, not captured, and looked up on this module per
    call, so a wrapper installed on the module attribute (outside-in
    tracing, a monkeypatch) sees either side's calls.
    """

    name: str
    request: FrameType
    encode_request: str | None  # called (*args, deadline_ms=, **options); None: b""
    decode_request: str | None  # None: the request carries nothing
    response: FrameType
    encode_response: str | None  # None: the answer carries nothing
    decode_response: str | None  # None: nothing to decode, the answer is True
    #: ends a streamed answer, after any number of ``response`` frames;
    #: ``None``: one ``response`` frame is the whole answer
    trailer: FrameType | None = None
    #: ``False``: answered inline by the connection's reader, outside admission
    #: control — a health probe must get through a saturated server
    admitted: bool = True


_ROWS = (
    Verb(
        "retrieve",
        FrameType.REQ_RETRIEVE, "encode_retrieve_request", "decode_retrieve_request",
        FrameType.RESP_RESULT, "encode_result_response", "decode_result_response",
    ),
    Verb(
        "retrieve_batch",
        FrameType.REQ_RETRIEVE_BATCH, "encode_batch_request", "decode_batch_request",
        FrameType.RESP_BATCH, "encode_batch_response", "decode_batch_response",
    ),
    Verb(
        "solve",
        FrameType.REQ_SOLVE, "encode_solve_request", "decode_solve_request",
        FrameType.RESP_SOLUTION, "encode_solution", "decode_solution",
        trailer=FrameType.RESP_SOLVE_DONE,
    ),
    Verb(
        "mutate",
        FrameType.REQ_MUTATE, "encode_mutate_request", "decode_mutate_request",
        FrameType.RESP_MUTATED, "encode_mutated_response", "decode_mutated_response",
    ),
    Verb(
        "manifest",
        FrameType.REQ_MANIFEST, None, None,
        FrameType.RESP_MANIFEST, "encode_manifest_response", "decode_manifest_response",
        admitted=False,
    ),
    Verb(
        "ping",
        FrameType.REQ_PING, None, None,
        FrameType.RESP_PONG, None, None,
        admitted=False,
    ),
    Verb(
        "stats",
        FrameType.REQ_STATS, None, None,
        FrameType.RESP_STATS, "encode_stats_response", "decode_stats_response",
        admitted=False,
    ),
)

#: the table by verb name (how a client finds the row of a call) and by
#: request frame type (how a server finds the row of a frame)
VERBS = {verb.name: verb for verb in _ROWS}
VERB_OF_REQUEST = {verb.request: verb for verb in _ROWS}


def encode_frame(frame_type: FrameType, request_id: int, payload: bytes) -> bytes:
    return HEADER.pack(
        MAGIC, VERSION, int(frame_type), request_id, len(payload)
    ) + payload


def decode_header(
    data: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[FrameType, int, int]:
    """Parse a 12-byte header; returns (type, request id, payload length)."""
    if len(data) != HEADER.size:
        raise ProtocolError(f"header is {len(data)} bytes, need {HEADER.size}")
    magic, version, frame_type, request_id, length = HEADER.unpack(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    try:
        frame_type = FrameType(frame_type)
    except ValueError:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02x}") from None
    if length > max_frame_bytes:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    return frame_type, request_id, length


# -- payload primitives -------------------------------------------------------


class _Writer:
    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        self.buf.append(value & 0xFF)

    def u16(self, value: int) -> None:
        self.buf += value.to_bytes(2, "big")

    def u32(self, value: int) -> None:
        self.buf += value.to_bytes(4, "big")

    def u64(self, value: int) -> None:
        self.buf += value.to_bytes(8, "big")

    def f64(self, value: float) -> None:
        self.buf += struct.pack(">d", value)

    def blob16(self, data: bytes) -> None:
        self.u16(len(data))
        self.buf += data

    def text(self, value: str) -> None:
        self.blob16(value.encode("utf-8"))


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError("truncated payload")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def blob16(self) -> bytes:
        return self._take(self.u16())

    def text(self) -> str:
        return self.blob16().decode("utf-8")

    def at_end(self) -> bool:
        return self.pos >= len(self.data)


class PayloadEncoder:
    """One payload under construction, with its own symbol table.

    Terms intern into the per-message table while the body is written;
    :meth:`finish` prepends the serialised table so the receiver can
    decode without any shared connection state.
    """

    def __init__(self) -> None:
        self.symbols = SymbolTable()
        self.body = _Writer()
        #: per engine symbol table: its offsets already moved into ours
        self._moved: dict[SymbolTable, dict[int, int]] = {}

    def goal(self, goal: Term) -> None:
        encoded = PIFEncoder(self.symbols, side="query").encode_term(goal)
        self._encoded_args(encoded)

    def clause(self, clause: Clause) -> None:
        self._record(clause_record(clause, self.symbols), clause.indicator)

    def stored(self, source: StoredCandidates) -> None:
        """An engine's candidate records, each rebased onto this message's
        table: what :meth:`clause` writes for its clause, never decoded."""
        memo = self._moved.setdefault(source.symbols, {})
        for record in source.records:
            self._record(
                rebase_record(record, source.symbols, self.symbols, memo),
                source.indicator,
            )

    def _record(self, record: bytes, indicator: tuple[str, int]) -> None:
        name, arity = indicator
        self.body.u32(self.symbols.intern_atom(name))
        self.body.u16(arity)
        self.body.blob16(record)

    def _encoded_args(self, encoded: EncodedArgs) -> None:
        self.body.blob16(encoded.stream)
        self.body.blob16(encoded.heap)
        self.body.u8(len(encoded.var_names))
        for var_name in encoded.var_names:
            self.body.text(var_name)

    def stats(self, stats: RetrievalStats | None) -> None:
        write = self.body
        if stats is None:
            write.u8(0xFF)
            return
        merged = isinstance(stats, MergedRetrievalStats)
        write.u8(1 if merged else 0)
        self._stats_fields(stats)
        if merged:
            write.u16(stats.shards_queried)
            write.u8(1 if stats.broadcast else 0)
            write.u16(len(stats.per_shard))
            for shard_id in sorted(stats.per_shard):
                write.u16(shard_id)
                self._stats_fields(stats.per_shard[shard_id])

    def _stats_fields(self, stats: RetrievalStats) -> None:
        write = self.body
        write.u8(tuple(SearchMode).index(stats.mode))
        write.text(stats.residency)
        write.u32(stats.clauses_total)
        fs1 = stats.fs1_candidates
        write.u8(0 if fs1 is None else 1)
        write.u32(fs1 or 0)
        write.u32(stats.final_candidates)
        write.u32(stats.fs2_search_calls)
        write.u64(stats.bytes_from_disk)
        write.f64(stats.disk_time_s)
        write.f64(stats.fs1_time_s)
        write.f64(stats.fs2_time_s)
        write.f64(stats.software_time_s)

    def result(self, result: RetrievalResult) -> None:
        self.goal(result.goal)
        self.body.u32(len(result))
        if result.sources is None:
            for clause in result.candidates:
                self.clause(clause)
        else:
            for source in result.sources:
                self.stored(source)
        self.stats(result.stats)

    def finish(self) -> bytes:
        table = self.symbols.to_bytes()
        return len(table).to_bytes(4, "big") + table + bytes(self.body.buf)


class PayloadDecoder:
    """The reading side of :class:`PayloadEncoder`.

    A malformed PIF term or clause record, or a symbol offset the
    message's table lacks, is a malformed payload like any other:
    :class:`ProtocolError`.
    """

    def __init__(self, payload: bytes) -> None:
        if len(payload) < 4:
            raise ProtocolError("truncated payload")
        table_len = int.from_bytes(payload[:4], "big")
        if 4 + table_len > len(payload):
            raise ProtocolError("truncated symbol table")
        try:
            self.symbols = SymbolTable.from_bytes(payload[4 : 4 + table_len])
        except (IndexError, ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"corrupt symbol table: {exc}") from None
        self.body = _Reader(payload[4 + table_len :])
        self._decoder = PIFDecoder(self.symbols)

    def goal(self) -> Term:
        encoded = self._encoded_args()
        try:
            return self._decoder.decode_term(encoded)
        except (PIFDecodeError, KeyError) as exc:
            raise ProtocolError(f"malformed PIF term: {exc}") from None

    def clause(self) -> Clause:
        from ..pif.clausefile import decode_compiled

        try:
            name = self.symbols.atom_name_at(self.body.u32())
            arity = self.body.u16()
            record = self.body.blob16()
            compiled, _ = CompiledClause.from_bytes(record, (name, arity))
            return decode_compiled(compiled, self.symbols)
        except (PIFDecodeError, KeyError) as exc:
            raise ProtocolError(f"malformed clause record: {exc}") from None

    def _encoded_args(self) -> EncodedArgs:
        stream = self.body.blob16()
        heap = self.body.blob16()
        var_names = tuple(self.body.text() for _ in range(self.body.u8()))
        return EncodedArgs(
            indicator=("$term", 1), stream=stream, heap=heap,
            var_names=var_names,
        )

    def stats(self) -> RetrievalStats | None:
        kind = self.body.u8()
        if kind == 0xFF:
            return None
        if kind not in (0, 1):
            raise ProtocolError(f"unknown stats kind {kind}")
        fields = self._stats_fields()
        if kind == 0:
            return RetrievalStats(**fields)
        shards_queried = self.body.u16()
        broadcast = self.body.u8() == 1
        per_shard: dict[int, RetrievalStats] = {}
        for _ in range(self.body.u16()):
            shard_id = self.body.u16()
            per_shard[shard_id] = RetrievalStats(**self._stats_fields())
        return MergedRetrievalStats(
            shards_queried=shards_queried,
            broadcast=broadcast,
            per_shard=per_shard,
            **fields,
        )

    def _stats_fields(self) -> dict:
        read = self.body
        mode_index = read.u8()
        modes = tuple(SearchMode)
        if mode_index >= len(modes):
            raise ProtocolError(f"unknown search mode index {mode_index}")
        residency = read.text()
        clauses_total = read.u32()
        has_fs1 = read.u8()
        fs1_raw = read.u32()
        return {
            "mode": modes[mode_index],
            "residency": residency,
            "clauses_total": clauses_total,
            "fs1_candidates": fs1_raw if has_fs1 else None,
            "final_candidates": read.u32(),
            "fs2_search_calls": read.u32(),
            "bytes_from_disk": read.u64(),
            "disk_time_s": read.f64(),
            "fs1_time_s": read.f64(),
            "fs2_time_s": read.f64(),
            "software_time_s": read.f64(),
        }

    def result(self) -> RetrievalResult:
        goal = self.goal()
        candidates = [self.clause() for _ in range(self.body.u32())]
        return RetrievalResult(
            goal=goal, candidates=candidates, stats=self.stats()
        )


# -- request payloads ---------------------------------------------------------


def _mode_byte(mode: SearchMode | None) -> int:
    return 0xFF if mode is None else tuple(SearchMode).index(mode)


def _mode_from_byte(value: int) -> SearchMode | None:
    if value == 0xFF:
        return None
    modes = tuple(SearchMode)
    if value >= len(modes):
        raise ProtocolError(f"unknown search mode index {value}")
    return modes[value]


def encode_retrieve_request(
    goal: Term, mode: SearchMode | None = None, deadline_ms: int = 0
) -> bytes:
    encoder = PayloadEncoder()
    encoder.body.u8(_mode_byte(mode))
    encoder.body.u32(max(0, deadline_ms))
    encoder.goal(goal)
    return encoder.finish()


def decode_retrieve_request(payload: bytes) -> tuple[Term, SearchMode | None, int]:
    decoder = PayloadDecoder(payload)
    mode = _mode_from_byte(decoder.body.u8())
    deadline_ms = decoder.body.u32()
    return decoder.goal(), mode, deadline_ms


def encode_batch_request(
    goals: list[Term], mode: SearchMode | None = None, deadline_ms: int = 0
) -> bytes:
    encoder = PayloadEncoder()
    encoder.body.u8(_mode_byte(mode))
    encoder.body.u32(max(0, deadline_ms))
    encoder.body.u16(len(goals))
    for goal in goals:
        encoder.goal(goal)
    return encoder.finish()


def decode_batch_request(
    payload: bytes,
) -> tuple[list[Term], SearchMode | None, int]:
    decoder = PayloadDecoder(payload)
    mode = _mode_from_byte(decoder.body.u8())
    deadline_ms = decoder.body.u32()
    goals = [decoder.goal() for _ in range(decoder.body.u16())]
    return goals, mode, deadline_ms


def encode_solve_request(
    goal: Term,
    mode: SearchMode | None = None,
    deadline_ms: int = 0,
    max_solutions: int = 0,
) -> bytes:
    """A ``REQ_SOLVE`` payload: resolve ``goal`` and stream every answer.

    The first body byte is reserved and must be zero: which engine
    resolves the goal is the server's choice, never the request's."""
    encoder = PayloadEncoder()
    encoder.body.u8(0)
    encoder.body.u8(_mode_byte(mode))
    encoder.body.u32(max(0, deadline_ms))
    encoder.body.u32(max(0, max_solutions))
    encoder.goal(goal)
    return encoder.finish()


def decode_solve_request(
    payload: bytes,
) -> tuple[Term, SearchMode | None, int, int]:
    decoder = PayloadDecoder(payload)
    reserved = decoder.body.u8()
    if reserved != 0:
        raise ProtocolError(f"reserved solve byte is {reserved}, must be 0")
    mode = _mode_from_byte(decoder.body.u8())
    deadline_ms = decoder.body.u32()
    max_solutions = decoder.body.u32()
    return decoder.goal(), mode, deadline_ms, max_solutions


def encode_solution(index: int, bindings: dict[str, Term]) -> bytes:
    """One ``RESP_SOLUTION`` frame: answer ``index`` (0-based), one term
    per query variable.  Each frame carries its own symbol table, so a
    client can decode any prefix of the stream the deadline allows."""
    encoder = PayloadEncoder()
    encoder.body.u32(index)
    encoder.body.u16(len(bindings))
    for name in sorted(bindings):
        encoder.body.text(name)
        encoder.goal(bindings[name])
    return encoder.finish()


def decode_solution(payload: bytes) -> tuple[int, dict[str, Term]]:
    decoder = PayloadDecoder(payload)
    index = decoder.body.u32()
    bindings: dict[str, Term] = {}
    for _ in range(decoder.body.u16()):
        name = decoder.body.text()
        bindings[name] = decoder.goal()
    return index, bindings


def encode_solve_done(count: int, completed: bool, reason: str = "") -> bytes:
    """The ``RESP_SOLVE_DONE`` trailer: how many solutions were streamed
    and whether the search ran to exhaustion (``completed``) or stopped
    early (``max_solutions`` cap — ``reason`` says which)."""
    writer = _Writer()
    writer.u32(count)
    writer.u8(1 if completed else 0)
    writer.text(reason)
    return bytes(writer.buf)


def decode_solve_done(payload: bytes) -> tuple[int, bool, str]:
    reader = _Reader(payload)
    return reader.u32(), reader.u8() == 1, reader.text()


#: Mutation operations a ``REQ_MUTATE`` frame can carry.  ``retract``
#: removes the first clause *unifying* with the template (and reports
#: which); ``retract_exact`` removes only a structurally identical
#: clause — the replication-safe form a client replays onto the other
#: replicas after the first replica has chosen the victim.
MUTATION_OPS = ("assertz", "asserta", "retract", "retract_exact")


def encode_mutate_request(
    op: str,
    clause: Clause,
    module: str = "user",
    manifest_version: int = 0,
    deadline_ms: int = 0,
    write_id: str = "",
) -> bytes:
    """A ``REQ_MUTATE`` payload.  ``manifest_version`` is the placement
    the client routed under; 0 means "unversioned" (single-node use) and
    is never rejected as stale.  ``write_id`` is the client's
    idempotency stamp for the logical write — one id per write, reused
    across re-routes and replica fan-out, so a node that sees the same
    id twice (directly and via a migration delta replay) applies it
    once.  Empty means unstamped; the field is a trailing addition, so
    old decoders simply ignore it and old frames decode as unstamped."""
    if op not in MUTATION_OPS:
        raise ValueError(f"unknown mutation op {op!r}")
    encoder = PayloadEncoder()
    encoder.body.u8(MUTATION_OPS.index(op))
    encoder.body.u32(max(0, manifest_version))
    encoder.body.u32(max(0, deadline_ms))
    encoder.body.text(module)
    encoder.clause(clause)
    encoder.body.text(write_id)
    return encoder.finish()


def decode_mutate_request(
    payload: bytes,
) -> tuple[str, Clause, str, int, int, str]:
    decoder = PayloadDecoder(payload)
    op_index = decoder.body.u8()
    if op_index >= len(MUTATION_OPS):
        raise ProtocolError(f"unknown mutation op index {op_index}")
    manifest_version = decoder.body.u32()
    deadline_ms = decoder.body.u32()
    module = decoder.body.text()
    clause = decoder.clause()
    write_id = "" if decoder.body.at_end() else decoder.body.text()
    return (
        MUTATION_OPS[op_index], clause, module, manifest_version,
        deadline_ms, write_id,
    )


def encode_mutated_response(
    version: int, applied: bool, removed: Clause | None = None
) -> bytes:
    """A ``RESP_MUTATED`` payload: the engine's post-mutation version,
    whether anything changed (retracts can miss), and — for unifying
    retracts — the exact clause removed, so the client can replay it
    verbatim on the remaining replicas."""
    encoder = PayloadEncoder()
    encoder.body.u64(version)
    encoder.body.u8(1 if applied else 0)
    encoder.body.u8(1 if removed is not None else 0)
    if removed is not None:
        encoder.clause(removed)
    return encoder.finish()


def decode_mutated_response(payload: bytes) -> tuple[int, bool, Clause | None]:
    decoder = PayloadDecoder(payload)
    version = decoder.body.u64()
    applied = decoder.body.u8() == 1
    removed = decoder.clause() if decoder.body.u8() == 1 else None
    return version, applied, removed


def encode_manifest_response(manifest_json: str) -> bytes:
    """A ``RESP_MANIFEST`` payload: the node's current cluster manifest
    as JSON (see :meth:`repro.cluster.ClusterManifest.to_json`)."""
    return manifest_json.encode("utf-8")


def decode_manifest_response(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"corrupt manifest payload: {exc}") from None


# -- response payloads --------------------------------------------------------


def encode_result_response(result: RetrievalResult) -> bytes:
    encoder = PayloadEncoder()
    encoder.result(result)
    return encoder.finish()


def decode_result_response(payload: bytes) -> RetrievalResult:
    return PayloadDecoder(payload).result()


def encode_batch_response(results: list[RetrievalResult]) -> bytes:
    encoder = PayloadEncoder()
    encoder.body.u16(len(results))
    for result in results:
        encoder.result(result)
    return encoder.finish()


def decode_batch_response(payload: bytes) -> list[RetrievalResult]:
    decoder = PayloadDecoder(payload)
    return [decoder.result() for _ in range(decoder.body.u16())]


def encode_error(code: ErrorCode, message: str) -> bytes:
    writer = _Writer()
    writer.u8(int(code))
    writer.text(message)
    return bytes(writer.buf)


def decode_error(payload: bytes) -> tuple[ErrorCode, str]:
    reader = _Reader(payload)
    raw = reader.u8()
    try:
        code = ErrorCode(raw)
    except ValueError:
        raise ProtocolError(f"unknown error code {raw}") from None
    return code, reader.text()


def encode_stats_response(snapshot: dict) -> bytes:
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


def decode_stats_response(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"corrupt stats payload: {exc}") from None


# -- error mapping ------------------------------------------------------------


#: The ``(code, exception class)`` pairs, written once.  A server
#: reports the code of the first row its failure is an instance of, so a
#: subclass sits above its base (``ResourceError`` above ``PrologError``);
#: a client raises the class of the first row of the code it is sent
#: (``RetrievalTimeout`` folds into ``DEADLINE_EXPIRED`` one way only).
_ERRORS = (
    (ErrorCode.SERVER_BUSY, ServerBusy),
    (ErrorCode.DEADLINE_EXPIRED, DeadlineExceeded),
    (ErrorCode.DEADLINE_EXPIRED, RetrievalTimeout),
    (ErrorCode.UNKNOWN_PREDICATE, UnknownPredicateError),
    (ErrorCode.SHUTTING_DOWN, ServerDraining),
    (ErrorCode.RESOURCE_EXHAUSTED, ResourceError),
    (ErrorCode.RESOLUTION_ERROR, PrologError),
    (ErrorCode.STALE_MANIFEST, StaleManifest),
    (ErrorCode.WRITE_FROZEN, WritesFrozen),
)


def error_to_exception(code: ErrorCode, message: str) -> Exception:
    """The client-side exception for a ``RESP_ERROR`` frame.

    ``BAD_REQUEST`` and ``INTERNAL`` have no class of their own: both
    surface as a :class:`RemoteError` naming the code."""
    for row_code, exception_class in _ERRORS:
        if row_code is code:
            return exception_class(message)
    return RemoteError(f"{code.name}: {message}")


def exception_to_error(exc: BaseException) -> tuple[ErrorCode, str]:
    """The wire (code, message) a server reports for a handler failure."""
    for code, exception_class in _ERRORS:
        if isinstance(exc, exception_class):
            # KeyError reprs quote the message; unwrap the original text.
            unquoted = isinstance(exc, KeyError) and exc.args
            return code, str(exc.args[0] if unquoted else exc)
    if isinstance(exc, (ProtocolError, ValueError, KeyError)):
        return ErrorCode.BAD_REQUEST, str(exc)
    return ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
