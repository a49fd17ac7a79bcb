"""The replication log: one seq order over everything a node applies."""

from __future__ import annotations

import pathlib
import threading
from collections import OrderedDict, deque
from contextlib import ExitStack
from typing import Callable, Iterable, NamedTuple

from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..pif import ClauseFile, CompiledClause
from ..pif.clausefile import decode_compiled
from ..storage import KnowledgeBase
from ..storage.wal import (
    BULK_COMMIT_RECORDS,
    DurableStore,
    MutationRecord,
    RecoveredState,
    WalError,
)
from ..terms import Clause

__all__ = ["MutationLogOverflow", "ReplicationLog", "WritesFrozen"]


class MutationLogOverflow(RuntimeError):
    """The requested delta is no longer in the log.

    A catch-up reader that asks for "everything since seq N" after the
    log has evicted, compacted away or adopted past N+1 cannot be given
    a correct delta; it must take a fresh snapshot instead of a silently
    incomplete replay.
    """


class WritesFrozen(RuntimeError):
    """Mutations are temporarily refused (a migration is finalising).

    Raised *before* any state changes, so a caller that sees it knows
    the write was not applied and may simply retry; the fleet client
    backs off briefly and re-routes under the post-flip manifest.
    """


class _Entry(NamedTuple):
    """One tail slot: a mutation as stored bytes, decoded on demand.

    Not the decoded ``Clause`` but a copy of the record the apply path
    just stored (or cut) and the clause file it belongs to, for its
    indicator and symbol table.  The table is append-only, so the bytes
    stay decodable however many later splices move or delete the record
    in the file.
    """

    seq: int
    op: str
    module: str
    write_id: str | None
    stored: ClauseFile
    record: bytes

    def materialise(self) -> MutationRecord:
        stored = self.stored
        compiled, _ = CompiledClause.from_bytes(self.record, stored.indicator)
        return MutationRecord(
            self.seq, self.op, decode_compiled(compiled, stored.symbols),
            self.module, self.write_id,
        )


class ReplicationLog:
    """Seq counter, tail, WAL hand-off, write-id memo and freeze flag.

    What must move together when a mutation is acknowledged, behind one
    lock.  The engine applies a mutation to a shard under that shard's
    lock and calls :meth:`append` before releasing it, so a snapshot
    taken under the shard lock sees KB content and log cut at exactly
    the same seq.

    ``capacity`` sizes the tail and the memo alike: a duplicate delivery
    can only arrive within one catch-up / re-route window, which the
    tail already bounds, and ids enter the memo in seq order, so the
    oldest-first eviction never drops an id whose record the tail still
    holds.  With a ``durable`` store every record is also staged in the
    WAL, in seq order, and :meth:`since` reads past the tail's eviction
    into it; without one the tail is the whole log.
    """

    def __init__(
        self,
        capacity: int,
        durable: DurableStore | None = None,
        obs: Instrumentation | None = None,
    ):
        #: seq of the newest applied mutation — the engine's ``version``.
        self.seq = 0
        #: when set, :meth:`check_writable` refuses (see :meth:`freeze`).
        self.frozen = False
        self.durable = durable
        self.obs = obs if obs is not None else _default_obs()
        self._lock = threading.Lock()
        self._tail: deque[_Entry] = deque(maxlen=capacity)
        #: write_id -> clause removed (retracts) or ``None``.  Not a
        #: cache: losing an entry early is a double apply, not a miss.
        self._memo: OrderedDict[str, Clause | None] = OrderedDict()
        #: no seq below this can be served: everything up to it was
        #: folded into the content by a snapshot load or a barrier.
        self._floor = 0
        #: a barrier ran: an in-memory log's only kind of snapshot (a
        #: durable log asks its store for ``CURRENT`` instead).
        self._adopted = False
        #: serialises checkpoints; a caller that must order it before a
        #: shard lock (``adopt_kb``) takes it first, hence re-entrant.
        self.checkpointing = threading.RLock()
        self._compactor: threading.Thread | None = None
        self._closing = threading.Event()

    # -- the write path ------------------------------------------------------

    def append(
        self, op: str, clause: Clause, module: str, write_id: str | None,
        kb: KnowledgeBase,
    ) -> int:
        """Seq-stamp a mutation just applied to ``kb`` (shard lock held).

        Seq, tail entry, memo entry and WAL frame are assigned together;
        the fsync comes later, in :meth:`wait_durable`.
        """
        stored = kb.store(clause.indicator).clause_file
        if op == "retract":
            record = kb.last_cut  # spliced out: it cannot be read back
        else:
            record = stored.record_bytes(
                0 if op == "asserta" else len(stored) - 1
            )
        with self._lock:
            self.seq = seq = self.seq + 1
            self._tail.append(
                _Entry(seq, op, module, write_id, stored, record)
            )
            if write_id is not None:
                self._memo[write_id] = clause if op == "retract" else None
                if len(self._memo) > self._tail.maxlen:
                    self._memo.popitem(last=False)  # oldest first
            if self.durable is not None:
                self.durable.stage(
                    MutationRecord(seq, op, clause, module, write_id)
                )
            return seq

    def wait_durable(self, seq: int | None) -> None:
        """Block until record ``seq`` is on disk (volatile, ``None``: no-op)
        — *after* the shard lock is released, so concurrent writers ride
        one group commit instead of an fsync each under the lock."""
        if seq is not None and self.durable is not None:
            self.durable.wait_durable(seq)

    def group_commit(self, staged: Iterable[int | None]) -> int:
        """Drain a stream of applied mutations, one durability wait per chunk.

        ``staged`` applies one mutation per item and yields its seq
        (``None``: nothing logged).  If it raises part-way, what it had
        applied is made durable before the exception propagates: memory
        and disk agree on the same prefix.  Returns the item count.
        """
        count, pending = 0, None
        try:
            for count, seq in enumerate(staged, 1):
                pending = pending if seq is None else seq
                if count % BULK_COMMIT_RECORDS == 0:
                    self.wait_durable(pending)
                    pending = None
        finally:
            self.wait_durable(pending)
        return count

    # -- idempotency and the freeze flag --------------------------------------

    def seen(self, write_id: str | None) -> tuple[bool, Clause | None]:
        """(already applied, the clause its retract removed) for one stamp.

        Callers hold the shard lock: check-then-apply is atomic against
        a concurrent delivery of the same id (a client re-route racing
        the migration coordinator's delta replay).
        """
        if write_id is not None:
            with self._lock:
                if write_id in self._memo:
                    return True, self._memo[write_id]
        return False, None

    def write_ids(self) -> list[str]:
        """The memoised stamps, oldest first (what a snapshot carries)."""
        with self._lock:
            return list(self._memo)

    def freeze(self, locks: Iterable[threading.Lock] = ()) -> None:
        """Refuse mutations until :meth:`thaw` (a migration's finale).

        The flag is checked *inside* the shard lock, so passing through
        every one of ``locks`` once after setting it is a quiescence
        barrier: any mutation admitted before has finished and logged by
        the time this returns, and none can start after — a delta read
        next is provably the last.
        """
        self.frozen = True
        for lock in locks:
            with lock:
                pass

    def thaw(self) -> None:
        self.frozen = False

    def check_writable(self) -> None:
        """Raise :class:`WritesFrozen`; called before any state changes."""
        if self.frozen:
            raise WritesFrozen(
                "writes are frozen while a migration finalises; retry"
            )

    # -- the read path ---------------------------------------------------------

    def since(self, seq: int) -> list[MutationRecord]:
        """Every mutation after ``seq``, contiguous and in order.

        ``seq`` was read from :attr:`seq` earlier (at snapshot time).
        The tail answers when it still reaches back to ``seq + 1``;
        otherwise the durable store does, which holds every record since
        the last compaction.  Anything else — a seq before the last
        barrier or compaction, a volatile log that wrapped, a WAL
        segment purged or torn under the read — raises
        :class:`MutationLogOverflow`: the caller re-snapshots and never
        learns which container failed.
        """
        with self._lock:
            if not self._floor <= seq <= self.seq:
                raise MutationLogOverflow(
                    f"seq {seq} is outside the log "
                    f"({self._floor}..{self.seq})"
                )
            wanted = self.seq - seq
            entries = [entry for entry in self._tail if entry.seq > seq]
        if len(entries) == wanted:
            records = [entry.materialise() for entry in entries]
        elif self.durable is None:
            records = []
        else:
            try:
                records = self.durable.records_since(seq)
            except WalError as exc:
                raise MutationLogOverflow(f"after seq {seq}: {exc}") from exc
            self.obs.counter("wal.shipped_records").inc(len(records))
        if len(records) < wanted or any(
            record.seq != expected
            for expected, record in enumerate(records, seq + 1)
        ):
            raise MutationLogOverflow(
                f"mutations after seq {seq} have been evicted"
            )
        return records

    # -- wholesale replacement and recovery -------------------------------------

    def barrier(self, write_ids: Iterable[str] = ()) -> int:
        """The content was replaced wholesale; returns the barrier's seq.

        In one step: the seq moves (caches keyed on it die), the tail is
        dropped so every earlier seq overflows in :meth:`since`, and the
        memo becomes exactly the adopted content's — a sidecar written
        next carries the ids it adopted.  Retract memo values are not
        carried; a duplicate retract after a restore reports "nothing
        matched" rather than removing a second clause.

        A log at seq 0 with no snapshot yet (a fleet replica's seed, a
        fresh migration target) has nothing a seq could invalidate: the
        adopted content becomes its base state at seq 0, and
        :meth:`since` from 0 serves every later mutation.  Once a base
        exists every barrier moves the seq, so no checkpoint reuses the
        seq of the live snapshot and no cached result outlives it.
        """
        with self._lock:
            store = self.durable
            based = self._adopted if store is None else store.snapshot
            base = self.seq == 0 and not based
            self._reset(0 if base else self.seq + 1, write_ids)
            self._adopted = True
            return self.seq

    def replay(
        self, state: RecoveredState, apply: Callable[[MutationRecord], object]
    ) -> None:
        """Re-apply a recovered WAL tail on top of its loaded snapshot.

        ``apply`` is the engine's ordinary mutation path; the store is
        detached while it runs, so nothing is staged or awaited twice.
        Each record must land on exactly its logged seq — a stall (a
        retract whose clause is absent) means log and snapshot disagree.
        """
        self._reset(state.snapshot_seq, state.write_ids)
        durable, self.durable = self.durable, None
        try:
            for record in state.records:
                apply(record)
                if self.seq != record.seq:
                    raise WalError(
                        f"replaying seq {record.seq} left the engine at "
                        f"version {self.seq}; snapshot and WAL disagree"
                    )
        finally:
            self.durable = durable

    # -- the durable side: checkpoints, background compaction, shutdown -----------

    def checkpoint(
        self,
        save_trees: Callable[[pathlib.Path], None],
        locks: Iterable[threading.Lock] = (),
    ) -> int:
        """Fold the WAL into a fresh snapshot; returns the pinned seq.

        ``locks`` — every shard lock — are held for the point-in-time
        cut only: pin the seq, rotate the WAL at it, ``save_trees`` into
        the new snapshot directory, write the memo beside them.  The
        fsync and the ``CURRENT`` flip happen after they are released;
        mutations admitted in between land in the fresh segment, so the
        log stays contiguous whether or not the flip survives a crash.
        A caller already holding the locks passes none and so keeps
        them through the flip.
        """
        store = self.durable
        if store is None:
            raise WalError("engine has no durable store to compact")
        with self.checkpointing:
            with ExitStack() as cut:
                for lock in locks:
                    cut.enter_context(lock)
                seq = self.seq
                if seq == store.snapshot_seq and store.snapshot is not None:
                    return seq  # nothing new since the last snapshot
                snapshot_dir = store.begin_compaction(seq)
                save_trees(snapshot_dir)
                store.write_snapshot_meta(snapshot_dir, seq, self.write_ids())
            store.finish_compaction(seq, snapshot_dir)
            return seq

    def start_compactor(self, compact: Callable[[], object]) -> None:
        """Run ``compact`` in the background whenever the WAL has grown."""

        def loop() -> None:
            store = self.durable
            while not self._closing.wait(store.options.compact_interval_s):
                try:
                    if store.should_compact():
                        compact()
                except Exception:
                    # Compaction is an optimisation; the WAL keeps growing
                    # and stays authoritative.  Count it, try again later.
                    self.obs.counter("wal.compact_errors").inc()

        self._compactor = threading.Thread(
            target=loop, name="repro-wal-compact", daemon=True
        )
        self._compactor.start()

    def close(self) -> None:
        """Stop compacting, flush and release the store (idempotent)."""
        self._closing.set()
        if self._compactor is not None:
            self._compactor.join(timeout=10.0)
        if self.durable is not None:
            self.durable.close()

    def _reset(self, seq: int, write_ids: Iterable[str]) -> None:
        self.seq = self._floor = seq
        self._tail.clear()
        capped = deque(write_ids, self._tail.maxlen)  # the newest ids
        self._memo = OrderedDict.fromkeys(capped)
