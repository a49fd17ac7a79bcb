"""A sharded, concurrent front-end over N independent CLARE engines.

The paper's CLARE is one two-stage filter (FS1 SCW index scan, FS2
partial test unification) in front of one disk.  Production traffic
wants many retrievals in flight against many devices at once, so the
:class:`ShardedRetrievalServer` partitions the knowledge base across N
complete engine instances — each shard owns its clause files, SCW+MB
index, FS2 engine and disk model — and presents the *same*
``retrieve``/``solutions`` contract as the single-engine
:class:`~repro.crs.ClauseRetrievalServer`.

Concurrency model: the simulated hardware is stateful (one Result
Memory, one query register per device), so each shard is guarded by its
own lock; different shards run genuinely in parallel, one retrieval at a
time per shard.  Timing model: parallel disks — a broadcast retrieval's
wall clock is the *maximum* over the queried shards' filter times, not
their sum; the per-shard breakdown is preserved in
:class:`MergedRetrievalStats` for the report layer.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..crs import (
    HostCostModel,
    RetrievalResult,
    RetrievalStats,
    RetrievalTimeout,
    SearchMode,
)
from ..crs.server import CachedFrontDoor, ClauseRetrievalServer
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..scw import CodewordScheme, DEFAULT_SCHEME
from ..storage import KnowledgeBase, Residency, UnknownPredicateError, load_kb
from ..storage.wal import (
    BULK_COMMIT_RECORDS,
    DurabilityOptions,
    DurableStore,
    MutationRecord,
    RecoveredState,
    WalError,
)
from ..terms import (
    Clause,
    Term,
    as_clause,
    clause_from_term,
    functor_indicator,
    read_program,
)
from .routing import ShardingPolicy, ShardRouter

__all__ = [
    "ClusterShard",
    "MergedRetrievalStats",
    "MutationLogOverflow",
    "MutationRecord",
    "ShardedRetrievalServer",
    "WritesFrozen",
]


class MutationLogOverflow(RuntimeError):
    """The requested delta fell off the capped mutation log.

    A catch-up reader that asks for "everything since seq N" after the
    log has evicted N+1 cannot be given a correct delta; it must take a
    fresh snapshot instead of a silently incomplete replay.
    """


class WritesFrozen(RuntimeError):
    """Mutations are temporarily refused (a migration is finalising).

    Raised *before* any state changes, so a caller that sees it knows
    the write was not applied and may simply retry; the fleet client
    backs off briefly and re-routes under the post-flip manifest.
    """


@dataclass
class MergedRetrievalStats(RetrievalStats):
    """Cluster-level accounting for one goal across its queried shards.

    The count fields (``clauses_total``, ``fs1_candidates``,
    ``final_candidates``, ``fs2_search_calls``, ``bytes_from_disk``) and
    the time fields are *sums* over shards — total device work.  The
    wall clock, :attr:`filter_time_s`, is the max over shards instead:
    the shards' disks and filter pipelines run in parallel.
    """

    shards_queried: int = 0
    broadcast: bool = False
    per_shard: dict[int, RetrievalStats] = field(default_factory=dict)
    #: set by the fleet client when some queried shard had every replica
    #: stale-marked and the read was knowingly served from replicas that
    #: may be missing acknowledged writes.  Client-local only — it never
    #: crosses the wire (each node reports its own stats unflagged).
    degraded: bool = False

    @property
    def filter_time_s(self) -> float:  # type: ignore[override]
        """Modelled wall clock: the slowest queried shard's filter time."""
        if not self.per_shard:
            return 0.0
        return max(s.filter_time_s for s in self.per_shard.values())

    @property
    def serial_filter_time_s(self) -> float:
        """What the same retrieval would cost on one device at a time."""
        return sum(s.filter_time_s for s in self.per_shard.values())

    def without_cost(self) -> MergedRetrievalStats:
        """A hit touches no shard hardware: ``per_shard`` empties too."""
        return replace(super().without_cost(), per_shard={})


@dataclass
class ClusterShard:
    """One engine instance: its KB, its CRS, and its serialising lock."""

    shard_id: int
    kb: KnowledgeBase
    server: ClauseRetrievalServer
    lock: threading.Lock = field(default_factory=threading.Lock)


class ShardedRetrievalServer(CachedFrontDoor):
    """N CLARE engines behind one single-engine-compatible front door."""

    _family = "cluster"

    def __init__(
        self,
        num_shards: int,
        policy: ShardingPolicy | str = ShardingPolicy.PREDICATE,
        scheme: CodewordScheme = DEFAULT_SCHEME,
        cost_model: HostCostModel | None = None,
        cross_binding: bool = True,
        cache_size: int = 0,
        obs: Instrumentation | None = None,
        mutation_log_size: int = 4096,
        durability: DurabilityOptions | str | None = None,
    ):
        self.obs = obs if obs is not None else _default_obs()
        self._cost_model = cost_model
        self._cross_binding = cross_binding
        self.router = ShardRouter(num_shards, policy)
        self.shards: list[ClusterShard] = []
        for shard_id in range(num_shards):
            # Every existing counter/histogram/span the shard's engine
            # emits is stamped with its shard label; family totals still
            # aggregate across the whole cluster.
            shard_obs = self.obs.labelled(shard=str(shard_id))
            kb = KnowledgeBase(scheme=scheme, obs=shard_obs)
            server = ClauseRetrievalServer(
                kb,
                cost_model=cost_model,
                cross_binding=cross_binding,
                cache_size=0,  # caching happens once, at the cluster level
                obs=shard_obs,
            )
            self.shards.append(ClusterShard(shard_id, kb, server))
        #: bumped on every mutation through this front-end; the cluster
        #: cache keys on it exactly as the single server keys on
        #: ``KnowledgeBase.version``.
        self.version = 0
        #: the last ``mutation_log_size`` mutations, seq-stamped with the
        #: version they produced — the catch-up transport for migration
        #: and replica resync (see :meth:`mutations_since`).
        self._mutation_log: deque[MutationRecord] = deque(
            maxlen=mutation_log_size
        )
        #: idempotency memo: write_id -> clause removed (retracts) or
        #: ``None``, for the ids most recently applied.  Bounded like
        #: the mutation log — a duplicate can only arrive within one
        #: catch-up/re-route window, which the log cap already limits.
        self._applied_writes: "OrderedDict[str, Clause | None]" = OrderedDict()
        self._applied_writes_cap = mutation_log_size
        #: when set, mutations are refused with :class:`WritesFrozen`
        #: before touching any state (see :meth:`freeze_writes`).
        self.writes_frozen = False
        #: guards ``version``, the mutation log and the write-id memo: a
        #: seq, its log record and its WAL frame are assigned together.
        self._log_lock = threading.Lock()
        self._init_result_cache(cache_size)
        #: write-ahead durability (``repro.storage.wal``).  ``None`` keeps
        #: the historical in-memory behaviour.  When set, every acked
        #: mutation is staged in the WAL under the same lock that assigns
        #: its seq and group-committed after the shard lock is released;
        #: :meth:`mutations_since` falls back to the durable log when the
        #: in-memory deque has evicted the requested range.
        self._durable: DurableStore | None = None
        #: what recovery found on disk (``None`` without durability) —
        #: callers use :attr:`recovered` to decide whether to re-consult
        #: source programs after a restart.
        self.recovered: RecoveredState | None = None
        self._replaying = False
        self._compact_stop = threading.Event()
        self._compact_thread: threading.Thread | None = None
        self._compact_serial = threading.Lock()
        self._closed = False
        if durability is not None:
            options = DurabilityOptions.coerce(durability)
            self._durable = DurableStore(
                options,
                obs=self.obs,
                meta={
                    "num_shards": num_shards,
                    "policy": self.router.policy.value,
                },
            )
            self._recover()
            if options.auto_compact:
                self._compact_thread = threading.Thread(
                    target=self._compact_loop,
                    name="repro-wal-compact",
                    daemon=True,
                )
                self._compact_thread.start()

    # -- cluster shape -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def policy(self) -> ShardingPolicy:
        return self.router.policy

    def clause_count(self) -> int:
        return sum(shard.kb.clause_count() for shard in self.shards)

    def size_bytes(self) -> int:
        return sum(shard.kb.size_bytes() for shard in self.shards)

    def shard_clause_counts(self) -> dict[int, int]:
        """Clauses per shard — the partitioning balance at a glance."""
        return {s.shard_id: s.kb.clause_count() for s in self.shards}

    # -- loading and updating clauses ---------------------------------------

    def consult_text(self, text: str, module: str = "user") -> int:
        """Load ``.``-terminated clauses, routing each to its home shard."""
        return self.add_clauses(
            (clause_from_term(term) for term in read_program(text)),
            module=module,
        )

    def consult_clauses(
        self, clauses: Iterable[Clause], module: str = "user"
    ) -> int:
        return self.add_clauses(clauses, module=module)

    def add_clauses(
        self, clauses: Iterable[Clause], module: str = "user"
    ) -> int:
        """Bulk load: append every clause, one group commit per chunk.

        Each clause is routed, applied and logged exactly as
        :meth:`add_clause` would (own seq, own :class:`MutationRecord`,
        own WAL record); only the durability wait is shared.  The call
        returns — and so the load is acknowledged — once the last
        clause's record is durable.  Returns the number of clauses.
        """
        return self._group_commit(
            self._apply_assert("assertz", clause, module, None)[1]
            for clause in clauses
        )

    def add_clause(
        self,
        clause: Clause,
        module: str = "user",
        write_id: str | None = None,
    ) -> int:
        """Append a clause on its home shard; returns the shard id."""
        shard_id, seq = self._apply_assert("assertz", clause, module, write_id)
        self._wal_commit(seq)
        return shard_id

    def assertz(
        self,
        clause_or_term: Clause | Term,
        module: str = "user",
        write_id: str | None = None,
    ) -> None:
        self.add_clause(
            as_clause(clause_or_term), module=module, write_id=write_id
        )

    def asserta(
        self,
        clause_or_term: Clause | Term,
        module: str = "user",
        write_id: str | None = None,
    ) -> None:
        """Prepend within the clause's home shard.

        Cross-shard clause order is not defined by the cluster (the
        candidate *set* is what the contract guarantees); within a shard
        the usual Prolog ordering semantics hold.
        """
        _, seq = self._apply_assert(
            "asserta", as_clause(clause_or_term), module, write_id
        )
        self._wal_commit(seq)

    def _apply_assert(
        self, op: str, clause: Clause, module: str, write_id: str | None
    ) -> tuple[int, int | None]:
        """Route and apply one ``assertz``/``asserta``; not yet durable.

        Returns ``(shard_id, seq)``; ``seq`` is ``None`` for a duplicate
        delivery of an already applied ``write_id``.  The caller owes a
        :meth:`_wal_commit` of the seq before acknowledging.

        Mutations hold the shard lock: ``retract_matching`` swaps in a
        rebuilt clause file after snapshotting the old one, so an
        unlocked concurrent append would land on the file being
        replaced and vanish with it (a lost update).
        """
        shard_id = self.router.route_clause(clause.head)
        shard = self.shards[shard_id]
        # The version bump (and its mutation-log append) happens while
        # the shard lock is still held: a snapshot taken under that lock
        # then sees KB state and log cut at exactly the same seq, so a
        # snapshot + delta replay neither misses nor doubles a mutation.
        with shard.lock:
            if write_id is not None and self._applied_before(write_id)[0]:
                return shard_id, None
            self._check_frozen()
            if op == "assertz":
                shard.kb.add_clause(clause, module=module)
                self.obs.counter(
                    "cluster.clauses_routed", shard=str(shard_id)
                ).inc()
            else:
                shard.kb.asserta(clause, module=module)
            seq = self._bump_version(
                op=op, clause=clause, module=module, write_id=write_id
            )
            self._on_shard_mutation(shard, op, clause, module)
        return shard_id, seq

    def _group_commit(self, staged: Iterable[int | None]) -> int:
        """Drain a stream of applied mutations, one durability wait per chunk.

        ``staged`` applies one mutation per item and yields its seq
        (``None`` when nothing was logged).  The waits are this call's
        own: a concurrent single writer still blocks on its own seq in
        :meth:`_wal_commit` and rides whichever commit is in flight.  If
        ``staged`` raises part-way, everything it already applied is
        made durable before the exception propagates, so after a failed
        bulk load memory and disk agree on the same prefix.  Returns the
        number of items drained.
        """
        count = 0
        pending: int | None = None
        try:
            for seq in staged:
                count += 1
                if seq is not None:
                    pending = seq
                if count % BULK_COMMIT_RECORDS == 0:
                    self._wal_commit(pending)
                    pending = None
        finally:
            self._wal_commit(pending)
        return count

    def retract(self, clause_or_term: Clause | Term) -> bool:
        """Remove the first matching clause, probing shards in id order."""
        return self.retract_matching(clause_or_term) is not None

    def retract_matching(
        self,
        clause_or_term: Clause | Term,
        write_id: str | None = None,
    ) -> Clause | None:
        """Like :meth:`retract` but returns the clause actually removed.

        The resolution engines need the removed clause to bind a
        ``retract/1`` template against; version bumping here is what
        keeps the cluster cache (and every retriever layered on it) from
        serving the retracted clause to later choice points.
        """
        template = as_clause(clause_or_term)
        try:
            targets = self.router.route_goal(template.head)
        except UnknownPredicateError:
            return None
        for shard_id in targets:
            shard = self.shards[shard_id]
            with shard.lock:
                if write_id is not None:
                    hit, memo = self._applied_before(write_id)
                    if hit:
                        # Duplicate delivery: report the clause the
                        # first application removed, not a second one.
                        return memo
                self._check_frozen()
                removed = shard.kb.retract_matching(template)
                if removed is not None:
                    seq = self._bump_version(
                        op="retract", clause=removed, write_id=write_id
                    )
                    # Forward the clause actually removed, not the
                    # template: replaying the template on the worker
                    # could remove a different (more general) clause.
                    self._on_shard_mutation(shard, "remove_exact", removed)
            if removed is not None:
                self._wal_commit(seq)
                return removed
        return None

    def pin_module(self, name: str, residency: str) -> None:
        """Pin one module's residency on every shard (e.g. to disk)."""
        for shard in self.shards:
            shard.kb.module(name).pin(residency)
        if residency == Residency.DISK:
            for shard in self.shards:
                shard.kb.sync_to_disk()
        self._on_pin_module(name, residency)

    def _on_pin_module(self, name: str, residency: str) -> None:
        """Hook: a residency pin was applied to every shard.

        Process-backed subclasses forward the pin so worker engines
        plan and account disk residency identically to the parent.
        """

    def sync_to_disk(self) -> dict[int, list[str]]:
        """Write each shard's disk-resident extents; extents per shard."""
        return {s.shard_id: s.kb.sync_to_disk() for s in self.shards}

    def _bump_version(
        self,
        op: str = "reload",
        clause: Clause | None = None,
        module: str = "user",
        write_id: str | None = None,
    ) -> int:
        with self._log_lock:
            self.version += 1
            record = MutationRecord(
                seq=self.version, op=op, clause=clause, module=module,
                write_id=write_id,
            )
            self._mutation_log.append(record)
            if write_id is not None:
                self._applied_writes[write_id] = (
                    clause if op == "retract" else None
                )
                self._applied_writes.move_to_end(write_id)
                while len(self._applied_writes) > self._applied_writes_cap:
                    self._applied_writes.popitem(last=False)
            # Stage the WAL record under the same lock that assigned its
            # seq: log order is exactly seq order by construction.  The
            # fsync happens later, in _wal_commit, after the caller drops
            # the shard lock.  ``reload`` is not staged — the adopted KB
            # exists only in memory, so adopt_kb snapshots it instead.
            if (
                self._durable is not None
                and not self._replaying
                and op != "reload"
                and clause is not None
            ):
                self._durable.stage(record)
            return self.version

    def _wal_commit(self, seq: int | None) -> None:
        """Block until WAL record ``seq`` is durable (volatile: no-op).

        Called *after* the shard lock is released, so concurrent writers
        ride one group commit instead of serialising an fsync each under
        the lock.  ``None`` (nothing was logged) returns at once.  During
        recovery replay the records are already on disk and the wait is
        skipped.
        """
        if (
            seq is not None
            and self._durable is not None
            and not self._replaying
        ):
            self._durable.wait_durable(seq)

    def _applied_before(self, write_id: str) -> tuple[bool, Clause | None]:
        """(seen, memoised removed clause) for one idempotency stamp.

        Callers hold the shard lock, so check-then-apply is atomic
        against a concurrent delivery of the same id (e.g. a client
        re-route racing the migration coordinator's delta replay).
        """
        with self._log_lock:
            if write_id in self._applied_writes:
                return True, self._applied_writes[write_id]
        return False, None

    def _check_frozen(self) -> None:
        if self.writes_frozen:
            raise WritesFrozen(
                "writes are frozen while a migration finalises; retry"
            )

    def freeze_writes(self) -> None:
        """Refuse mutations until :meth:`thaw_writes` (migration finale).

        The flag is checked *inside* the shard lock, so acquiring every
        shard lock once after setting it is a quiescence barrier: any
        mutation admitted before the freeze has finished and logged by
        the time this returns, and none can start after — a delta read
        next is provably the last.
        """
        self.writes_frozen = True
        for shard in self.shards:
            with shard.lock:
                pass

    def thaw_writes(self) -> None:
        self.writes_frozen = False

    def applied_write_ids(self) -> list[str]:
        """The memoised idempotency stamps, oldest first (for snapshots)."""
        with self._log_lock:
            return list(self._applied_writes)

    def adopt_write_ids(self, write_ids: Iterable[str]) -> None:
        """Install a snapshot's write-id memo (after :meth:`adopt_kb`).

        Without this, a write inside the snapshot that the client also
        re-routes here after a manifest flip would apply twice — the
        memo travels with the content it describes.  Retract memo values
        are not persisted; a duplicate retract after a restore reports
        "nothing matched" rather than removing a second clause.
        """
        with self._log_lock:
            self._applied_writes.clear()
            for write_id in write_ids:
                self._applied_writes[write_id] = None
            while len(self._applied_writes) > self._applied_writes_cap:
                self._applied_writes.popitem(last=False)

    # -- replication: deltas, exact replay, wholesale adoption ---------------

    def mutations_since(self, seq: int) -> list[MutationRecord]:
        """Every mutation after ``seq``, in order, or raise on a gap.

        ``seq`` is a value previously read from :attr:`version` (e.g. at
        snapshot time).  Raises :class:`MutationLogOverflow` when the
        capped log has already evicted records the caller would need —
        unless the engine is durable, in which case the delta is served
        from the write-ahead log itself (WAL-shipping): every acked
        mutation since the last compaction is on disk, so catch-up no
        longer degrades to a fresh snapshot just because the in-memory
        deque wrapped.  A seq older than the last compaction still
        overflows (the records were folded into the snapshot).
        """
        with self._log_lock:
            if seq > self.version:
                raise MutationLogOverflow(
                    f"seq {seq} is ahead of version {self.version}"
                )
            if seq == self.version:
                return []
            records = [r for r in self._mutation_log if r.seq > seq]
            if records and records[0].seq == seq + 1:
                return records
            log_start = records[0].seq if records else self.version + 1
        shipped = self._wal_mutations_since(seq)
        if shipped is not None:
            return shipped
        raise MutationLogOverflow(
            f"mutations after seq {seq} have been evicted "
            f"(log starts at {log_start})"
        )

    def _wal_mutations_since(self, seq: int) -> list[MutationRecord] | None:
        """Read a catch-up delta from the durable log (WAL-shipping).

        Returns ``None`` when the WAL cannot serve a contiguous delta —
        no durable store, ``seq`` predates the retained segments, or a
        ``reload`` punched a hole in the sequence — and the caller falls
        back to :class:`MutationLogOverflow` / snapshot semantics.
        """
        if self._durable is None:
            return None
        try:
            records = self._durable.records_since(seq)
        except WalError:
            return None
        if not records or records[0].seq != seq + 1:
            return None
        for prev, nxt in zip(records, records[1:]):
            if nxt.seq != prev.seq + 1:
                return None
        self.obs.counter("wal.shipped_records").inc(len(records))
        return records

    def apply_mutations(self, records: Iterable[MutationRecord]) -> int:
        """Replay logged mutations from another node, in order.

        The replay twin of :meth:`add_clauses`: every record is applied
        and re-logged under this node's own seq, and durability is
        awaited once per chunk rather than once per record.  Each
        record's ``write_id`` rides along, so a replay of a write this
        node already applied directly (the client re-routed it here
        after a manifest flip) dedupes instead of doubling the clause.
        Returns the number of records consumed.
        """
        return self._group_commit(
            self._apply_record(record) for record in records
        )

    def _apply_record(self, record: MutationRecord) -> int | None:
        """Apply one logged mutation; its new seq, not yet durable."""
        if record.clause is None or record.op not in (
            "assertz", "asserta", "retract"
        ):
            raise MutationLogOverflow(
                f"mutation op {record.op!r} is not incrementally "
                "replayable; take a fresh snapshot"
            )
        if record.op == "retract":
            return self._apply_remove_exact(record.clause, record.write_id)[1]
        return self._apply_assert(
            record.op, record.clause, record.module, record.write_id
        )[1]

    def remove_exact(
        self, clause: Clause, write_id: str | None = None
    ) -> bool:
        """Remove the first structurally identical clause (replica replay)."""
        removed, seq = self._apply_remove_exact(clause, write_id)
        self._wal_commit(seq)
        return removed

    def _apply_remove_exact(
        self, clause: Clause, write_id: str | None
    ) -> tuple[bool, int | None]:
        """:meth:`remove_exact` up to, not including, the durability wait."""
        try:
            targets = self.router.route_goal(clause.head)
        except UnknownPredicateError:
            return False, None
        for shard_id in targets:
            shard = self.shards[shard_id]
            with shard.lock:
                if write_id is not None and self._applied_before(write_id)[0]:
                    return True, None
                self._check_frozen()
                if shard.kb.remove_exact(clause):
                    seq = self._bump_version(
                        op="retract", clause=clause, write_id=write_id
                    )
                    self._on_shard_mutation(shard, "remove_exact", clause)
                    return True, seq
        return False, None

    def adopt_kb(self, kb: KnowledgeBase) -> None:
        """Replace a single-shard node's knowledge base (snapshot restore).

        Builds a fresh engine over ``kb``, registers every clause's
        placement with the router, and swaps both in under the shard
        lock.  Logged as a ``reload`` — readers of the mutation log
        cannot replay across an adoption and must re-snapshot.  Only
        single-shard servers (cluster *nodes*) adopt: on a multi-shard
        server the clauses' hash placement need not be the adopted
        shard, and the router would record a lie.
        """
        if self.num_shards != 1:
            raise ValueError("adopt_kb is for single-shard nodes only")
        shard = self.shards[0]
        shard_obs = self.obs.labelled(shard="0")
        kb.disk.obs = shard_obs
        kb.publish_footprint()
        server = ClauseRetrievalServer(
            kb,
            cost_model=self._cost_model,
            cross_binding=self._cross_binding,
            cache_size=0,
            obs=shard_obs,
        )
        for store in kb:
            for clause in store.clauses():
                self.router.route_clause(clause.head)
        if self._durable is not None:
            # Same order as compact(): the serialiser before the shard
            # lock, so an in-flight background compaction (which holds
            # the serialiser while waiting for shard locks) cannot
            # deadlock against the adoption.
            self._compact_serial.acquire()
        try:
            with shard.lock:
                shard.kb = kb
                shard.server = server
                # The memo describes content this engine no longer holds;
                # the restorer installs the snapshot's own ids afterwards
                # (:meth:`adopt_write_ids`).
                with self._log_lock:
                    self._applied_writes.clear()
                self._bump_version(op="reload")
                self._on_shard_mutation(shard, "reload", None)
                if self._durable is not None:
                    # A reload is not WAL-encodable (the adopted KB exists
                    # only in memory), so durability requires snapshotting
                    # it before the adoption returns.  Holding the shard
                    # lock through the CURRENT flip keeps the WAL gap-free:
                    # no mutation lands between the rotation and the flip,
                    # so a crash anywhere in this window recovers either
                    # the full pre-adoption or full post-adoption state.
                    from ..storage import save_kb

                    seq = self.version
                    snapshot_dir = self._durable.begin_compaction(seq)
                    save_kb(kb, snapshot_dir / "shard0", durable=False)
                    self._durable.write_snapshot_meta(
                        snapshot_dir, seq, self.applied_write_ids()
                    )
                    self._durable.finish_compaction(seq, snapshot_dir)
        finally:
            if self._durable is not None:
                self._compact_serial.release()

    # -- durability: recovery, compaction, shutdown ---------------------------

    @property
    def durable(self) -> bool:
        return self._durable is not None

    @property
    def durable_store(self) -> DurableStore | None:
        return self._durable

    def _recover(self) -> None:
        """Rebuild in-memory state from the durable store (constructor).

        Loads the ``CURRENT`` snapshot's per-shard ``save_kb`` trees,
        restores the write-id memo from the snapshot sidecar, then
        replays the WAL tail through the ordinary mutation path with
        staging disabled (the records are already on disk).  Each replay
        must land on exactly its logged seq — a stall (e.g. a retract
        whose clause is absent) means the log and snapshot disagree, and
        recovery refuses to continue silently wrong.
        """
        assert self._durable is not None
        state = self._durable.open()
        if state.shard_dirs:
            for shard_dir in state.shard_dirs:
                shard_id = int(shard_dir.name[len("shard"):])
                if shard_id >= self.num_shards:
                    raise WalError(
                        f"snapshot has {shard_dir.name} but the engine "
                        f"only has {self.num_shards} shard(s)"
                    )
                self._install_recovered_kb(shard_id, shard_dir)
        self.version = state.snapshot_seq
        if state.write_ids:
            self.adopt_write_ids(state.write_ids)
        self._replaying = True
        try:
            for record in state.records:
                self._apply_record(record)
                if self.version != record.seq:
                    raise WalError(
                        f"replaying seq {record.seq} left the engine at "
                        f"version {self.version}; snapshot and WAL disagree"
                    )
        finally:
            self._replaying = False
        self.recovered = state

    def _install_recovered_kb(
        self, shard_id: int, shard_dir: pathlib.Path
    ) -> None:
        """Load a snapshot tree into one shard (constructor only).

        Placement is recorded verbatim via :meth:`ShardRouter.observe`
        rather than re-hashed — under round-robin the original placement
        was positional, and re-routing would record a lie.
        """
        shard = self.shards[shard_id]
        shard_obs = self.obs.labelled(shard=str(shard_id))
        kb = load_kb(shard_dir, shard_obs)
        server = ClauseRetrievalServer(
            kb,
            cost_model=self._cost_model,
            cross_binding=self._cross_binding,
            cache_size=0,
            obs=shard_obs,
        )
        for store in kb:
            for clause in store.clauses():
                self.router.observe(clause.head, shard_id)
        shard.kb = kb
        shard.server = server
        self._on_shard_mutation(shard, "reload", None)

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns the pinned seq.

        Under every shard lock (a point-in-time cut): pins the current
        version, rotates the WAL at it, and writes one ``save_kb`` tree
        per shard into the new snapshot directory.  The expensive part —
        fsyncing the tree and flipping ``CURRENT`` — happens after the
        locks are released; mutations admitted in between land in the
        fresh WAL segment, so the log stays contiguous whether or not
        the flip survives a crash.
        """
        if self._durable is None:
            raise WalError("engine has no durable store to compact")
        from ..storage import save_kb

        with self._compact_serial:
            acquired: list[ClusterShard] = []
            try:
                for shard in self.shards:
                    shard.lock.acquire()
                    acquired.append(shard)
                seq = self.version
                if seq == self._durable.snapshot_seq:
                    return seq  # nothing new since the last snapshot
                snapshot_dir = self._durable.begin_compaction(seq)
                for shard in self.shards:
                    save_kb(
                        shard.kb,
                        snapshot_dir / f"shard{shard.shard_id}",
                        durable=False,  # finish_compaction fsyncs the tree
                    )
                write_ids = self.applied_write_ids()
            finally:
                for shard in reversed(acquired):
                    shard.lock.release()
            self._durable.write_snapshot_meta(snapshot_dir, seq, write_ids)
            self._durable.finish_compaction(seq, snapshot_dir)
            return seq

    def _compact_loop(self) -> None:
        assert self._durable is not None
        interval = self._durable.options.compact_interval_s
        while not self._compact_stop.wait(interval):
            try:
                if self._durable.should_compact():
                    self.compact()
            except Exception:
                # Compaction is an optimisation; the WAL keeps growing
                # and stays authoritative.  Count it, try again later.
                self.obs.counter("wal.compact_errors").inc()

    def close(self) -> None:
        """Flush and release the durable store (idempotent; volatile no-op)."""
        if self._closed:
            return
        self._closed = True
        if self._compact_thread is not None:
            self._compact_stop.set()
            self._compact_thread.join(timeout=10.0)
            self._compact_thread = None
        if self._durable is not None:
            self._durable.close()

    # -- retrieval -----------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> RetrievalResult:
        """Candidates for ``goal`` merged across its routed shards.

        The contract matches the single-engine server: the merged
        candidate set is identical (the differential suite holds the two
        implementations against each other), stats itemise where the
        time went, and with ``cache_size > 0`` repeats are served from
        the cluster-level LRU until any shard's KB changes.

        ``timeout`` (host seconds) bounds the whole fan-out: a shard
        whose lock cannot be acquired before the deadline raises
        :class:`~repro.crs.RetrievalTimeout` instead of blocking forever
        behind a stuck retrieval.  Each shard's own execution runs
        uninterrupted once its lock is held (the simulated hardware has
        no preemption); queue wait is where a wedged shard stalls every
        other request, and that is what the deadline cuts off.
        """
        from ..terms import term_to_string

        deadline = None if timeout is None else time.monotonic() + timeout
        with self.obs.span("cluster.retrieve", goal=term_to_string(goal)) as span:
            cache_key, hit = self._cache_probe(goal, mode)
            if hit is not None:
                span.set(cache="hit", candidates=len(hit.candidates))
                return hit
            targets, effective_mode = self._route_and_plan(goal, mode)
            shard_results: dict[int, RetrievalResult] = {}
            for shard_id in targets:
                shard = self.shards[shard_id]
                self._acquire_shard(shard, deadline)
                try:
                    shard_results[shard_id] = self._shard_retrieve(
                        shard, goal, effective_mode
                    )
                finally:
                    shard.lock.release()
            result = self._merge(goal, effective_mode, shard_results)
            if cache_key is not None:
                self._cache.put(cache_key, result)
            span.set(
                shards=len(targets),
                broadcast=len(targets) > 1,
                candidates=len(result.candidates),
            )
            self._account_retrieval(result)
            return result

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> list[RetrievalResult]:
        """Retrieve many goals, batching each shard's FS1 work.

        Element-wise equivalent to ``[self.retrieve(g, mode) for g in
        goals]`` — same merged candidate sets, same per-goal modelled
        stats, same cache behaviour — but executed as per-shard goal
        batches: every shard receives all of its sub-queries at once (so
        its engine can amortise batched FS1 scans), and the shards run
        concurrently, one thread per shard, exactly as the parallel-disk
        timing model assumes.

        ``timeout`` bounds the whole fan-out: if any shard worker is
        still running (or still queued behind a stuck shard lock) at the
        deadline, the batch raises :class:`~repro.crs.RetrievalTimeout`
        rather than blocking on the slowest shard forever.
        """
        from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

        deadline = None if timeout is None else time.monotonic() + timeout

        results: list[RetrievalResult | None] = [None] * len(goals)
        # (position, goal, cache_key, targets, effective mode)
        pending: list[tuple] = []
        with self.obs.span("cluster.retrieve_batch", goals=len(goals)) as span:
            for position, goal in enumerate(goals):
                cache_key, hit = self._cache_probe(goal, mode)
                if hit is not None:
                    results[position] = hit
                    continue
                targets, effective_mode = self._route_and_plan(goal, mode)
                pending.append(
                    (position, goal, cache_key, targets, effective_mode)
                )
            # Per-shard worklists: a shard sees all of its sub-queries,
            # grouped by effective mode so each group is one engine-level
            # batch (modes must not mix inside a batched FS1 scan).
            shard_work: dict[int, dict[SearchMode, list[int]]] = {}
            for item, plan in enumerate(pending):
                _, _, _, targets, effective_mode = plan
                for shard_id in targets:
                    shard_work.setdefault(shard_id, {}).setdefault(
                        effective_mode, []
                    ).append(item)
            shard_results: list[dict[int, RetrievalResult]] = [
                {} for _ in pending
            ]

            def run_shard(shard_id: int) -> None:
                shard = self.shards[shard_id]
                self._acquire_shard(shard, deadline)
                try:
                    for effective_mode, items in shard_work[shard_id].items():
                        sub = self._shard_retrieve_batch(
                            shard,
                            [pending[i][1] for i in items],
                            effective_mode,
                        )
                        for item, result in zip(items, sub):
                            shard_results[item][shard_id] = result
                finally:
                    shard.lock.release()

            busy_shards = sorted(shard_work)
            if len(busy_shards) > 1:
                pool = ThreadPoolExecutor(max_workers=len(busy_shards))
                try:
                    futures = [
                        pool.submit(run_shard, shard_id)
                        for shard_id in busy_shards
                    ]
                    remaining = (
                        None if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    done, not_done = wait(
                        futures, timeout=remaining,
                        return_when=FIRST_EXCEPTION,
                    )
                    for future in done:
                        future.result()  # re-raise worker failures
                    if not_done:
                        # Workers still blocked on a shard lock will
                        # time themselves out via _acquire_shard; the
                        # pool is released without joining them.
                        raise RetrievalTimeout(
                            f"{len(not_done)} shard batch(es) still "
                            "running at the deadline"
                        )
                finally:
                    pool.shutdown(wait=deadline is None, cancel_futures=True)
            else:
                for shard_id in busy_shards:
                    run_shard(shard_id)
            for plan, per_goal in zip(pending, shard_results):
                position, goal, cache_key, _, effective_mode = plan
                result = self._merge(goal, effective_mode, per_goal)
                if cache_key is not None:
                    self._cache.put(cache_key, result)
                self._account_retrieval(result)
                results[position] = result
            span.set(
                executed=len(pending),
                shards=len(busy_shards),
            )
        return results  # type: ignore[return-value]

    # -- shard execution seam -------------------------------------------------
    #
    # All engine work funnels through these two methods (called with the
    # shard's lock held), so an execution backend that hosts the engine
    # elsewhere — e.g. the process workers in :mod:`repro.parallel` —
    # only overrides *where* the retrieval runs.  Routing, planning,
    # caching, merging and accounting stay in this class, which is what
    # keeps the two backends' results and modelled stats bit-identical.

    def _shard_retrieve(
        self, shard: ClusterShard, goal: Term, mode: SearchMode
    ) -> RetrievalResult:
        return shard.server.retrieve(goal, mode=mode)

    def _shard_retrieve_batch(
        self, shard: ClusterShard, goals: list[Term], mode: SearchMode
    ) -> list[RetrievalResult]:
        return shard.server.retrieve_batch(goals, mode=mode)

    def _on_shard_mutation(
        self,
        shard: ClusterShard,
        op: str,
        clause: Clause | None,
        module: str = "user",
    ) -> None:
        """Hook: one mutation just applied to ``shard`` (lock held).

        The base server mutates the shard's engine in place, so there is
        nothing to do; a process-backed subclass forwards the mutation to
        the shard's worker before releasing the lock, so whichever
        reader acquires the lock next sees post-mutation worker state.
        """

    @staticmethod
    def _acquire_shard(shard: ClusterShard, deadline: float | None) -> None:
        """Take a shard's lock, or raise :class:`RetrievalTimeout`.

        With no deadline this blocks exactly like the old ``with
        shard.lock:`` — unbounded, preserving the in-process contract.
        """
        if deadline is None:
            shard.lock.acquire()
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not shard.lock.acquire(timeout=remaining):
            raise RetrievalTimeout(
                f"shard {shard.shard_id} busy past the retrieval deadline"
            )

    def _route_and_plan(
        self, goal: Term, mode: SearchMode | None
    ) -> tuple[list[int], SearchMode]:
        """Target shards and the cluster-wide effective mode for a goal."""
        targets = self.router.route_goal(goal)  # may raise Unknown…
        effective_mode = mode if mode is not None else self._plan_mode(goal)
        if effective_mode is SearchMode.FS1_ONLY:
            # A raw FS1 scan's codeword false drops are not confined
            # to the first-arg key's shard: fan out unpruned so the
            # merged stream matches the single device's exactly.
            targets = self.router.route_goal(goal, prune=False)
        return targets, effective_mode

    def _plan_mode(self, goal: Term) -> SearchMode:
        """Select one search mode for the whole cluster.

        Mode planning is a *front-end* decision: a shard deciding alone
        would see only its slice of the predicate (a different size, a
        different fact fraction) and shards could disagree — merging one
        shard's raw FS1 candidate stream with another's FS2-refined one.
        Planning once over an aggregate view of the predicate makes the
        choice identical to what the single engine's planner would pick
        over the unpartitioned store.
        """
        from ..crs.planner import select_mode

        indicator = functor_indicator(goal)
        holders = [
            self.shards[shard_id]
            for shard_id in self.router.shards_for_indicator(indicator)
        ]
        stores = [shard.kb.store(indicator) for shard in holders]
        residency = holders[0].kb.residency(indicator)
        return select_mode(goal, _AggregateStore(indicator, stores), residency)

    # -- merging and accounting -----------------------------------------------

    def _merge(
        self,
        goal: Term,
        mode: SearchMode | None,
        shard_results: dict[int, RetrievalResult],
    ) -> RetrievalResult:
        """One result from many: concatenate candidates, fold stats."""
        per_shard: dict[int, RetrievalStats] = {}
        candidates: list[Clause] = []
        merged_mode = mode
        residencies: set[str] = set()
        for shard_id in sorted(shard_results):
            shard_result = shard_results[shard_id]
            candidates.extend(shard_result.candidates)
            stats = shard_result.stats
            if stats is None:
                continue
            per_shard[shard_id] = stats
            residencies.add(stats.residency)
            if merged_mode is None:
                merged_mode = stats.mode
        if merged_mode is None:
            merged_mode = SearchMode.SOFTWARE
        residency = (
            residencies.pop() if len(residencies) == 1
            else "mixed" if residencies else Residency.MEMORY
        )
        stats = MergedRetrievalStats(
            mode=merged_mode,
            residency=residency,
            shards_queried=len(shard_results),
            broadcast=len(shard_results) > 1,
            per_shard=per_shard,
        )
        for shard_stats in per_shard.values():
            stats.clauses_total += shard_stats.clauses_total
            stats.final_candidates += shard_stats.final_candidates
            stats.fs2_search_calls += shard_stats.fs2_search_calls
            stats.bytes_from_disk += shard_stats.bytes_from_disk
            stats.disk_time_s += shard_stats.disk_time_s
            stats.fs1_time_s += shard_stats.fs1_time_s
            stats.fs2_time_s += shard_stats.fs2_time_s
            stats.software_time_s += shard_stats.software_time_s
            if shard_stats.fs1_candidates is not None:
                stats.fs1_candidates = (
                    stats.fs1_candidates or 0
                ) + shard_stats.fs1_candidates
        return RetrievalResult(goal=goal, candidates=candidates, stats=stats)

    def _account_retrieval(self, result: RetrievalResult) -> None:
        stats = result.stats
        obs = self.obs
        obs.counter("cluster.retrievals", policy=self.policy.value).inc()
        obs.counter("cluster.candidates_returned").inc(len(result.candidates))
        if not isinstance(stats, MergedRetrievalStats):
            return
        if stats.per_shard:  # only physical executions count here
            if stats.broadcast:
                obs.counter("cluster.broadcasts").inc()
            else:
                obs.counter("cluster.single_shard").inc()
            obs.counter("cluster.wall_clock_s").inc(stats.filter_time_s)
            obs.counter("cluster.device_time_s").inc(
                stats.serial_filter_time_s
            )
        obs.histogram(
            "cluster.shards_queried",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64),
        ).observe(stats.shards_queried)


class _AggregateStore:
    """A read-only union view of one predicate's per-shard stores.

    Exposes exactly what :func:`repro.crs.planner.select_mode` consumes —
    ``len`` and ``fact_count`` — so the cluster's planner sees the same
    clause population the single engine's planner would.
    """

    def __init__(self, indicator: tuple[str, int], stores: list):
        self.indicator = indicator
        self._stores = stores

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    @property
    def fact_count(self) -> int:
        return sum(store.fact_count for store in self._stores)
