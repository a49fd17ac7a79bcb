"""`repro.storage.wal` — write-ahead log + crash-consistent clause store.

The engine's mutations (assertz/asserta/retract) are in-memory clause
file rewrites; ``save_kb`` snapshots are whole-KB and caller-driven.
This module closes the durability gap between the two with the classic
log-structured recipe:

* **WAL**: every acked mutation is first appended to an append-only log
  segment (``wal-<baseseq>.log``) as a self-contained, CRC-framed
  record.  Appends are *staged* in memory while the engine's shard lock
  is held (so log order is exactly seq order) and made durable by
  **fsync-batched group commit**: the first waiter becomes the flusher
  for everything staged so far, later waiters ride the same fsync.
* **Snapshots + compaction**: a background (or on-demand) compaction
  folds the log into a fresh ``save_kb`` snapshot per shard under the
  engine's shard locks, rotates the WAL at the pinned seq, fsyncs the
  snapshot tree, and flips the ``CURRENT`` pointer atomically
  (write-tmp, fsync, rename, fsync-dir).  Old segments and snapshots
  are garbage-collected only after the flip.
* **Recovery**: load the ``CURRENT`` snapshot, then replay every WAL
  record with ``seq > snapshot_seq`` in order.  A torn/truncated tail
  (crash mid-append) is detected by the length/CRC framing, discarded,
  and physically truncated before new appends continue.

Record framing (little-endian)::

    u32 body_len | u32 crc32(body) | body
    body = u64 seq | u8 op | u8 write_id? | u16 module_len | module
         | u16 write_id_len | write_id | u32 sym_len | symbol table
         | u16 name_len | functor name | u16 arity | u16 rec_len
         | compiled clause record

Each record carries its own (tiny) symbol table, so a segment can be
replayed — or shipped to a replica — without any shared state.  The
``crash point`` hooks (:func:`install_crash_point`) let the test
harness SIGKILL the process at the exact boundaries that matter:
before/after fsync, after WAL rotation, after the snapshot tree is
synced, and after the ``CURRENT`` flip.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import shutil
import signal
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable

from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..pif import CompiledClause, PIFDecodeError, SymbolTable, clause_record
from ..pif.clausefile import decode_compiled
from ..terms import Clause
from .persist import load_write_ids, save_write_ids

__all__ = [
    "BULK_COMMIT_RECORDS",
    "DurabilityOptions",
    "DurableStore",
    "MutationRecord",
    "RecoveredState",
    "WalError",
    "WriteAheadLog",
    "clear_crash_points",
    "install_crash_point",
    "wal_dump",
]

_MAGIC = b"RWAL"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBQ")  # magic, version, base_seq
_FRAME = struct.Struct("<II")  # body length, crc32(body)
_CURRENT = "CURRENT"
_STORE_META = "store.json"
_SNAPSHOT_META = "meta.json"

#: How many records a bulk writer stages between two group commits (the
#: engine's batched ingest path).  A frame is one clause record (at most
#: 512 bytes) plus the names it mentions — about 100 bytes for a typical
#: fact — so a bulk load holds ~100 KB of not-yet-durable frames, never
#: the whole load, and pays N / 1024 fsyncs instead of N.
BULK_COMMIT_RECORDS = 1024

#: ``wal.batch_records`` bounds: powers of two up to twice the bulk
#: chunk, so single writes, concurrent groups and bulk chunks each land
#: in a bucket of their own instead of the overflow.
_BATCH_BUCKETS = (0,) + tuple(
    1 << k for k in range(BULK_COMMIT_RECORDS.bit_length() + 1)
)

_OPS = ("assertz", "asserta", "retract")
_OP_CODE = {op: code for code, op in enumerate(_OPS)}


class WalError(RuntimeError):
    """Corrupt or inconsistent write-ahead-log state (beyond a torn tail)."""


# -- crash-point injection ----------------------------------------------------
#
# The crash-recovery suite runs the engine in a subprocess with one of
# these points armed and SIGKILLs it at the exact boundary — no cleanup
# handlers, no buffered flushes, the closest a test gets to pulling the
# plug.  Production code never arms them; the dict stays empty.

_crash_points: dict[str, int] = {}


def install_crash_point(point: str, hits: int = 1) -> None:
    """SIGKILL this process the ``hits``-th time ``point`` is reached."""
    _crash_points[point] = hits


def clear_crash_points() -> None:
    _crash_points.clear()


def _maybe_crash(point: str) -> None:
    remaining = _crash_points.get(point)
    if remaining is None:
        return
    if remaining <= 1:
        os.kill(os.getpid(), signal.SIGKILL)
    _crash_points[point] = remaining - 1


# -- record codec -------------------------------------------------------------


@dataclass(frozen=True)
class MutationRecord:
    """One logged KB mutation: what the WAL stores, what the replication
    log's ``since()`` ships, and what a replica replays.

    ``op`` is one of ``assertz``/``asserta``/``retract`` and ``clause``
    the exact clause added or removed (for retract: the clause the
    *primary* removed, not the unification template — replaying the
    template could remove a different clause on the replica).

    ``write_id`` is the client's idempotency stamp for the logical write
    (``None`` for coordinator-originated mutations).  Replaying a record
    onto a replica that already applied that id — because the client
    re-routed the same write there after a manifest flip — is a no-op
    instead of a duplicate.
    """

    seq: int
    op: str
    clause: Clause
    module: str = "user"
    write_id: str | None = None


def encode_record(record: MutationRecord) -> bytes:
    """Frame one record: ``u32 len | u32 crc | body`` (self-contained)."""
    if record.op not in _OP_CODE:
        raise WalError(f"op {record.op!r} is not WAL-encodable")
    symbols = SymbolTable()
    rec_blob = clause_record(record.clause, symbols)
    sym_blob = symbols.to_bytes()
    name, arity = record.clause.indicator
    name_blob = name.encode("utf-8")
    module_blob = record.module.encode("utf-8")
    id_blob = (record.write_id or "").encode("utf-8")
    body = bytearray()
    body += struct.pack("<QBB", record.seq, _OP_CODE[record.op],
                        1 if record.write_id is not None else 0)
    body += struct.pack("<H", len(module_blob)) + module_blob
    body += struct.pack("<H", len(id_blob)) + id_blob
    body += struct.pack("<I", len(sym_blob)) + sym_blob
    body += struct.pack("<H", len(name_blob)) + name_blob
    body += struct.pack("<HH", arity, len(rec_blob)) + rec_blob
    return _FRAME.pack(len(body), zlib.crc32(bytes(body))) + bytes(body)


def _decode_body(body: bytes) -> MutationRecord:
    seq, op_code, has_id = struct.unpack_from("<QBB", body, 0)
    offset = 10
    if op_code >= len(_OPS):
        raise WalError(f"unknown WAL op code {op_code}")

    def take_text(width: str) -> str:
        nonlocal offset
        size = struct.Struct(width)
        (length,) = size.unpack_from(body, offset)
        offset += size.size
        text = body[offset:offset + length].decode("utf-8")
        offset += length
        return text

    module = take_text("<H")
    write_id = take_text("<H")
    (sym_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    symbols = SymbolTable.from_bytes(body[offset:offset + sym_len])
    offset += sym_len
    name = take_text("<H")
    arity, rec_len = struct.unpack_from("<HH", body, offset)
    offset += 4
    try:
        compiled, _ = CompiledClause.from_bytes(
            body[offset:offset + rec_len], (name, arity)
        )
        clause = decode_compiled(compiled, symbols)
    except (PIFDecodeError, KeyError) as exc:
        # The CRC held, so this is no torn tail: the record itself lies.
        raise WalError(f"WAL record {seq}: malformed clause record: {exc}") from None
    return MutationRecord(
        seq=seq,
        op=_OPS[op_code],
        clause=clause,
        module=module,
        write_id=write_id if has_id else None,
    )


def _segment_name(base_seq: int) -> str:
    return f"wal-{base_seq:020d}.log"


def _segment_base(path: pathlib.Path) -> int:
    stem = path.name[len("wal-"):-len(".log")]
    try:
        return int(stem)
    except ValueError as exc:
        raise WalError(f"malformed WAL segment name {path.name!r}") from exc


def _list_segments(directory: pathlib.Path) -> list[pathlib.Path]:
    return sorted(directory.glob("wal-*.log"), key=_segment_base)


@dataclass
class _SegmentScan:
    base_seq: int
    records: list[MutationRecord]
    valid_bytes: int  # offset of the first torn/invalid byte (= durable end)
    torn: bool  # a torn tail was found (short frame or CRC mismatch)


def _scan_segment(path: pathlib.Path) -> _SegmentScan:
    """Parse one segment, stopping (not raising) at a torn tail."""
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        # A crash can tear even the header of a freshly rotated segment.
        return _SegmentScan(_segment_base(path), [], 0, True)
    magic, version, base_seq = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC or version != _FORMAT_VERSION:
        raise WalError(f"{path.name}: bad WAL header")
    if base_seq != _segment_base(path):
        raise WalError(f"{path.name}: header base_seq {base_seq} mismatch")
    records: list[MutationRecord] = []
    offset = _HEADER.size
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return _SegmentScan(base_seq, records, offset, True)
        body_len, crc = _FRAME.unpack_from(data, offset)
        body = data[offset + _FRAME.size:offset + _FRAME.size + body_len]
        if len(body) < body_len or zlib.crc32(body) != crc:
            return _SegmentScan(base_seq, records, offset, True)
        records.append(_decode_body(body))
        offset += _FRAME.size + body_len
    return _SegmentScan(base_seq, records, offset, False)


def _fsync_path(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_tree(root: pathlib.Path) -> None:
    """fsync every file then every directory under ``root`` (and root)."""
    for base, dirs, files in os.walk(root):
        for name in files:
            _fsync_path(pathlib.Path(base) / name)
    for base, dirs, files in os.walk(root, topdown=False):
        _fsync_path(pathlib.Path(base))


def _atomic_replace(tmp: pathlib.Path, final: pathlib.Path) -> None:
    _fsync_path(tmp)
    os.replace(tmp, final)
    _fsync_path(final.parent)


# -- the write-ahead log ------------------------------------------------------


class WriteAheadLog:
    """Segment writer with group commit; one per :class:`DurableStore`.

    ``stage`` is called in seq order (the engine stages under the lock
    that assigns seqs); ``wait_durable`` is called after the shard lock
    is released.  The first waiter that finds no flush in flight swaps
    the staging buffer out and commits it — write, flush, fsync per the
    policy — while later waiters block on the condition variable and
    are released in one batch when the commit lands.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        flush: str = "fsync",
        obs: Instrumentation | None = None,
    ):
        if flush not in ("fsync", "os", "none"):
            raise ValueError("flush policy must be 'fsync', 'os' or 'none'")
        self.directory = pathlib.Path(directory)
        self.flush_policy = flush
        self.obs = obs if obs is not None else _default_obs()
        self._cond = threading.Condition()
        self._staged: list[bytes] = []
        self._staged_seq = 0  # seq of the newest staged record
        self._durable_seq = 0  # everything ≤ this has been committed
        self._flushing = False
        self._file: io.BufferedWriter | None = None
        self._base_seq = 0
        #: appended volume since the last rotation (compaction trigger).
        self.bytes_since_rotate = 0
        self.records_since_rotate = 0

    # -- opening -------------------------------------------------------------

    def open_at(self, durable_seq: int, valid_bytes: int | None) -> None:
        """Attach to the newest segment (truncating its torn tail) or
        create the first one; appends continue at ``durable_seq + 1``."""
        segments = _list_segments(self.directory)
        if not segments:
            self._create_segment(durable_seq)
        else:
            path = segments[-1]
            if valid_bytes is not None:
                with open(path, "r+b") as handle:
                    handle.truncate(max(valid_bytes, 0))
            if valid_bytes is not None and valid_bytes < _HEADER.size:
                # The segment lost even its header to the tear; rewrite.
                path.unlink()
                self._create_segment(_segment_base(path))
            else:
                self._file = open(path, "ab")
                self._base_seq = _segment_base(path)
        with self._cond:
            self._staged_seq = durable_seq
            self._durable_seq = durable_seq

    def _create_segment(self, base_seq: int) -> None:
        path = self.directory / _segment_name(base_seq)
        self._file = open(path, "wb")
        self._file.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, base_seq))
        self._file.flush()
        os.fsync(self._file.fileno())
        _fsync_path(self.directory)
        self._base_seq = base_seq
        self.bytes_since_rotate = 0
        self.records_since_rotate = 0

    # -- appending -----------------------------------------------------------

    def stage(self, record: MutationRecord) -> None:
        """Queue one encoded record (caller serialises seq order)."""
        frame = encode_record(record)
        with self._cond:
            if record.seq <= self._staged_seq:
                raise WalError(
                    f"stage out of order: {record.seq} after "
                    f"{self._staged_seq}"
                )
            self._staged.append(frame)
            self._staged_seq = record.seq
            self.bytes_since_rotate += len(frame)
            self.records_since_rotate += 1
        _maybe_crash("wal.staged")
        self.obs.counter("wal.appends").inc()
        self.obs.counter("wal.append_bytes").inc(len(frame))

    def wait_durable(self, seq: int) -> None:
        """Block until record ``seq`` (already staged) is committed per
        the flush policy."""
        self._write_staged(self._commit, durable=True, seq=seq)

    def _write_staged(
        self,
        then: Callable[[list[bytes]], None],
        *,
        durable: bool,
        seq: int | None = None,
    ) -> None:
        """The one staged-batch hand-off every writer goes through: wait
        out a flush in flight, take the staged batch and its seq, write
        it, then ``then(batch)`` with the flush flag still held.

        ``durable`` says whether what ``then`` did commits the batch;
        ``seq`` skips the hand-off once a flush that landed meanwhile
        committed it (the group-commit waiters).
        """
        with self._cond:
            self._cond.wait_for(
                lambda: not self._flushing
                or (seq is not None and self._durable_seq >= seq)
            )
            if seq is not None and self._durable_seq >= seq:
                return
            batch, batch_seq = self._staged, self._staged_seq
            self._staged = []
            self._flushing = True
        try:
            assert self._file is not None, "WAL not opened"
            if batch:
                self._file.write(b"".join(batch))
            then(batch)
        finally:
            with self._cond:
                if durable:
                    self._durable_seq = max(self._durable_seq, batch_seq)
                self._flushing = False
                self._cond.notify_all()

    def _commit(self, batch: list[bytes]) -> None:
        """The policy flush + fsync of a written batch."""
        if self.flush_policy != "none":
            self._file.flush()
        _maybe_crash("wal.pre_fsync")
        if self.flush_policy == "fsync":
            os.fsync(self._file.fileno())
            self.obs.counter("wal.fsyncs").inc()
        _maybe_crash("wal.post_fsync")
        self.obs.histogram(
            "wal.batch_records", buckets=_BATCH_BUCKETS
        ).observe(len(batch))

    # -- rotation and reads ---------------------------------------------------

    def rotate(self, base_seq: int) -> None:
        """Seal the active segment and start ``wal-<base_seq>.log``.

        Called with the engine's shard locks held (no concurrent
        stages).  Whatever is still staged is flushed *and fsynced* into
        the old segment regardless of policy — rotation is the boundary
        recovery relies on to confine torn tails to the newest segment.
        An active segment already based at ``base_seq`` holds no record
        the new snapshot covers (a seed's checkpoint at seq 0): it stays.
        """
        if base_seq == self._base_seq:
            return

        def seal(batch: list[bytes]) -> None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._create_segment(base_seq)

        self._write_staged(seal, durable=True)

    def records_since(self, seq: int) -> list[MutationRecord]:
        """Every durable-or-staged record with ``seq`` greater, from disk.

        Staged bytes are pushed into the file (no fsync — this is a
        read-back path, durability still rides the caller's policy)
        so the scan sees a contiguous prefix of everything staged.
        """
        self._write_staged(lambda batch: self._file.flush(), durable=False)
        out: list[MutationRecord] = []
        for path in _list_segments(self.directory):
            try:
                scan = _scan_segment(path)
            except FileNotFoundError as exc:
                # A concurrent compaction purged it after the listing.
                raise WalError(f"{path.name}: purged mid-read") from exc
            if scan.torn:
                raise WalError(f"{path.name}: torn segment in a live store")
            out.extend(r for r in scan.records if r.seq > seq)
        return out

    def purge_below(self, base_seq: int) -> int:
        """Delete sealed segments fully covered by the ``base_seq`` snapshot."""
        removed = 0
        for path in _list_segments(self.directory):
            if _segment_base(path) < base_seq:
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        if self._file is None:
            return
        self.wait_durable(self._staged_seq)
        self._file.close()
        self._file = None


# -- the durable store --------------------------------------------------------


@dataclass
class DurabilityOptions:
    """Knobs for one durable engine (see ``serve --durability``)."""

    directory: str | pathlib.Path
    #: "fsync" (group-committed fsync per ack), "os" (flush to the OS,
    #: survive process death but not power loss), "none" (buffered).
    flush: str = "fsync"
    #: compaction triggers: WAL volume since the last snapshot.
    compact_min_bytes: int = 4 * 1024 * 1024
    compact_min_records: int = 4096
    #: run the background compaction thread (off for harness-driven tests).
    auto_compact: bool = True
    #: how often the background thread re-checks the compaction triggers.
    compact_interval_s: float = 0.25

    @classmethod
    def coerce(
        cls, value: "DurabilityOptions | str | pathlib.Path"
    ) -> "DurabilityOptions":
        if isinstance(value, cls):
            return value
        return cls(directory=value)


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.open` found on disk."""

    snapshot_seq: int = 0
    #: the ``CURRENT`` snapshot directory, ``None`` before the first flip
    snapshot: pathlib.Path | None = None
    shard_dirs: list[pathlib.Path] = field(default_factory=list)
    write_ids: list[str] = field(default_factory=list)
    records: list[MutationRecord] = field(default_factory=list)
    #: torn-tail records discarded (and truncated) during the scan.
    discarded_bytes: int = 0

    @property
    def empty(self) -> bool:
        """Nothing on disk: a seed snapshot at seq 0 is not empty."""
        return self.snapshot is None and not self.records


class DurableStore:
    """One engine's durable state: snapshots + WAL under one directory.

    Layout::

        <dir>/store.json                   # num_shards / policy / format
        <dir>/CURRENT                      # name of the live snapshot
        <dir>/snapshot-<seq>/meta.json
        <dir>/snapshot-<seq>/write_ids.json
        <dir>/snapshot-<seq>/shard<k>/...  # one save_kb tree per shard
        <dir>/wal-<baseseq>.log            # sealed + active segments
    """

    def __init__(
        self,
        options: DurabilityOptions | str | pathlib.Path,
        *,
        obs: Instrumentation | None = None,
        meta: dict | None = None,
    ):
        self.options = DurabilityOptions.coerce(options)
        self.directory = pathlib.Path(self.options.directory)
        self.obs = obs if obs is not None else _default_obs()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.meta = self._reconcile_meta(meta or {})
        self.snapshot_seq = 0
        #: the live ``CURRENT`` snapshot directory, ``None`` before one
        self.snapshot: pathlib.Path | None = None
        self._wal = WriteAheadLog(
            self.directory, flush=self.options.flush, obs=self.obs
        )
        self._opened = False

    def _reconcile_meta(self, meta: dict) -> dict:
        """Persist the store's shape on first open; verify it after."""
        meta_path = self.directory / _STORE_META
        if meta_path.exists():
            stored = json.loads(meta_path.read_text(encoding="utf-8"))
            for key, value in meta.items():
                if key in stored and stored[key] != value:
                    raise WalError(
                        f"store {self.directory} was written with "
                        f"{key}={stored[key]!r}, engine expects {value!r}"
                    )
            return stored
        stored = dict(meta)
        stored["format"] = _FORMAT_VERSION
        tmp = meta_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=2), encoding="utf-8")
        _atomic_replace(tmp, meta_path)
        return stored

    # -- recovery -------------------------------------------------------------

    def open(self) -> RecoveredState:
        """Scan disk state, truncate torn tails, arm the writer."""
        state = RecoveredState()
        current = self.directory / _CURRENT
        if current.exists():
            snapshot_name = current.read_text(encoding="utf-8").strip()
            snapshot_dir = self.directory / snapshot_name
            meta_path = snapshot_dir / _SNAPSHOT_META
            if not meta_path.exists():
                raise WalError(
                    f"CURRENT points at {snapshot_name} but it has no "
                    f"{_SNAPSHOT_META}"
                )
            snap_meta = json.loads(meta_path.read_text(encoding="utf-8"))
            state.snapshot_seq = int(snap_meta["seq"])
            state.snapshot = snapshot_dir
            state.shard_dirs = sorted(
                snapshot_dir.glob("shard*"),
                key=lambda p: int(p.name[len("shard"):]),
            )
            state.write_ids = load_write_ids(snapshot_dir)
        self.snapshot_seq = state.snapshot_seq
        self.snapshot = state.snapshot

        expected = state.snapshot_seq
        last_valid_bytes: int | None = None
        segments = _list_segments(self.directory)
        for position, path in enumerate(segments):
            scan = _scan_segment(path)
            if scan.torn and position != len(segments) - 1:
                raise WalError(
                    f"{path.name}: torn tail in a sealed segment — "
                    "rotation fsyncs should make this impossible"
                )
            for record in scan.records:
                if record.seq <= state.snapshot_seq:
                    continue  # already folded into the snapshot
                if record.seq != expected + 1:
                    raise WalError(
                        f"{path.name}: seq {record.seq} after {expected} — "
                        "non-contiguous WAL"
                    )
                state.records.append(record)
                expected = record.seq
            if position == len(segments) - 1:
                last_valid_bytes = scan.valid_bytes
                if scan.torn:
                    state.discarded_bytes = (
                        path.stat().st_size - scan.valid_bytes
                    )
        self._wal.open_at(expected, last_valid_bytes)
        self._opened = True
        if state.records:
            self.obs.counter("wal.replay.records").inc(len(state.records))
        if state.discarded_bytes:
            self.obs.counter("wal.replay.discarded_bytes").inc(
                state.discarded_bytes
            )
        return state

    # -- the write path (delegated) -------------------------------------------

    def stage(self, record: MutationRecord) -> None:
        self._wal.stage(record)

    def wait_durable(self, seq: int) -> None:
        self._wal.wait_durable(seq)

    def records_since(self, seq: int) -> list[MutationRecord]:
        """Log-shipping read: records after ``seq`` from the durable log.

        Returns an empty list when ``seq`` predates the oldest retained
        segment (the caller falls back to a snapshot).
        """
        if seq < self.snapshot_seq:
            return []
        return self._wal.records_since(seq)

    def should_compact(self) -> bool:
        return (
            self._wal.bytes_since_rotate >= self.options.compact_min_bytes
            or self._wal.records_since_rotate
            >= self.options.compact_min_records
        )

    # -- compaction -----------------------------------------------------------

    def begin_compaction(self, seq: int) -> pathlib.Path:
        """Pin the snapshot dir and rotate the WAL (engine locks held).

        The caller writes one ``save_kb`` tree per shard plus the
        write-id sidecar into the returned directory, releases its
        locks, then calls :meth:`finish_compaction`.
        """
        if seq < self.snapshot_seq or (
            seq == self.snapshot_seq and self.snapshot is not None
        ):
            raise WalError(
                f"compaction seq {seq} not past snapshot {self.snapshot_seq}"
            )
        snapshot_dir = self.directory / f"snapshot-{seq:020d}"
        if snapshot_dir.exists():
            # Leftover from a compaction that crashed before its flip.
            shutil.rmtree(snapshot_dir)
        snapshot_dir.mkdir()
        self._wal.rotate(seq)
        _maybe_crash("compact.rotated")
        return snapshot_dir

    def write_snapshot_meta(
        self, snapshot_dir: pathlib.Path, seq: int, write_ids: list[str]
    ) -> None:
        save_write_ids(snapshot_dir, write_ids)
        (snapshot_dir / _SNAPSHOT_META).write_text(
            json.dumps({"seq": seq, **self.meta}), encoding="utf-8"
        )

    def finish_compaction(self, seq: int, snapshot_dir: pathlib.Path) -> None:
        """fsync the tree, flip ``CURRENT``, GC old segments/snapshots."""
        _fsync_tree(snapshot_dir)
        _fsync_path(self.directory)
        _maybe_crash("compact.synced")
        tmp = self.directory / (_CURRENT + ".tmp")
        tmp.write_text(snapshot_dir.name + "\n", encoding="utf-8")
        _atomic_replace(tmp, self.directory / _CURRENT)
        _maybe_crash("compact.flipped")
        self.snapshot_seq, self.snapshot = seq, snapshot_dir
        self._wal.purge_below(seq)
        for stale in self.directory.glob("snapshot-*"):
            if stale.name != snapshot_dir.name:
                shutil.rmtree(stale, ignore_errors=True)
        self.obs.counter("wal.compactions").inc()

    def close(self) -> None:
        if self._opened:
            self._wal.close()


# -- offline inspection (the ``repro wal-dump`` verb) -------------------------


def wal_dump(directory: str | pathlib.Path) -> str:
    """A human-readable dump of a durable store's on-disk state."""
    root = pathlib.Path(directory)
    lines: list[str] = [f"durable store {root}"]
    meta_path = root / _STORE_META
    if meta_path.exists():
        lines.append(f"  meta: {meta_path.read_text(encoding='utf-8').strip()}")
    current = root / _CURRENT
    snapshot_seq = 0
    if current.exists():
        name = current.read_text(encoding="utf-8").strip()
        snap_meta = root / name / _SNAPSHOT_META
        if snap_meta.exists():
            snapshot_seq = int(
                json.loads(snap_meta.read_text(encoding="utf-8"))["seq"]
            )
        lines.append(f"  CURRENT -> {name} (seq {snapshot_seq})")
    else:
        lines.append("  CURRENT -> (none)")
    for path in _list_segments(root):
        scan = _scan_segment(path)
        live = sum(1 for r in scan.records if r.seq > snapshot_seq)
        tail = " TORN-TAIL" if scan.torn else ""
        lines.append(
            f"  {path.name}: {len(scan.records)} records "
            f"({live} past snapshot){tail}"
        )
        for record in scan.records:
            marker = " " if record.seq > snapshot_seq else "*"
            wid = record.write_id or "-"
            lines.append(
                f"    {marker}{record.seq:>8} {record.op:<8} "
                f"[{record.module}] {record.clause} id={wid}"
            )
    return "\n".join(lines)
