"""A sharded, concurrent front-end over N independent CLARE engines.

The paper's CLARE is one two-stage filter (FS1 SCW index scan, FS2
partial test unification) in front of one disk.  Production traffic
wants many retrievals in flight against many devices at once, so the
:class:`ShardedRetrievalServer` partitions the knowledge base across N
complete engine instances — each shard owns its clause files, SCW+MB
index, FS2 engine and disk model — and presents the *same*
``retrieve``/``solutions`` contract as the single-engine
:class:`~repro.crs.ClauseRetrievalServer`.

Concurrency model (the paper's §2.2 concurrency control): the simulated
hardware is stateful — one FS2 query register, one Result Memory and one
drive per shard — so each shard is guarded by its own lock, taken by
every read and every mutation, one at a time per shard; its queue wait
is the ``cluster.shard_lock.wait_s`` histogram.  Timing model: parallel
disks — a broadcast retrieval's wall clock is the *maximum* over the
queried shards' filter times, not their sum; the per-shard breakdown is
preserved in :class:`MergedRetrievalStats` for the report layer.
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

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
from ..storage import (
    KnowledgeBase,
    Residency,
    UnknownPredicateError,
    load_kb,
    save_kb,
)
from ..storage.wal import (
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
from .replog import MutationLogOverflow, ReplicationLog, WritesFrozen
from .routing import ShardingPolicy, ShardRouter

__all__ = [
    "ClusterShard",
    "MergedRetrievalStats",
    "MutationLogOverflow",
    "MutationRecord",
    "ShardedRetrievalServer",
    "WritesFrozen",
]

#: seconds; an uncontended take lands in the first bucket
_LOCK_WAIT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)


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

    @classmethod
    def over(
        cls,
        shard_stats: dict[int, RetrievalStats | None],
        mode: SearchMode | None = None,
    ) -> MergedRetrievalStats:
        """Fold one goal's per-shard stats (keyed by cluster shard id).

        ``mode`` is the mode planned for the whole cluster; without one
        the first shard's own is reported.  A fleet node answers as a
        one-shard cluster: its merged stats are unwrapped to the engine
        stats inside (none, when the node served a cache hit).
        """
        per_shard: dict[int, RetrievalStats] = {}
        residencies: set[str] = set()
        for shard_id in sorted(shard_stats):
            stats = shard_stats[shard_id]
            if stats is None:
                continue
            residencies.add(stats.residency)
            if mode is None:
                mode = stats.mode
            if not isinstance(stats, MergedRetrievalStats):
                per_shard[shard_id] = stats
            elif stats.per_shard:
                per_shard[shard_id] = next(iter(stats.per_shard.values()))
        # Each field is one ``sum`` over the shards: the same fold, to
        # the last bit, as any reader who re-adds ``per_shard`` (3.12's
        # float ``sum`` is compensated; a ``+=`` loop is not).
        shards = per_shard.values()
        fs1 = [s.fs1_candidates for s in shards if s.fs1_candidates is not None]
        return cls(
            mode=mode if mode is not None else SearchMode.SOFTWARE,
            residency=(
                residencies.pop() if len(residencies) == 1
                else "mixed" if residencies else Residency.MEMORY
            ),
            clauses_total=sum(s.clauses_total for s in shards),
            fs1_candidates=sum(fs1) if fs1 else None,
            final_candidates=sum(s.final_candidates for s in shards),
            disk_time_s=sum((s.disk_time_s for s in shards), 0.0),
            fs1_time_s=sum((s.fs1_time_s for s in shards), 0.0),
            fs2_time_s=sum((s.fs2_time_s for s in shards), 0.0),
            fs2_search_calls=sum(s.fs2_search_calls for s in shards),
            software_time_s=sum((s.software_time_s for s in shards), 0.0),
            bytes_from_disk=sum(s.bytes_from_disk for s in shards),
            shards_queried=len(shard_stats),
            broadcast=len(shard_stats) > 1,
            per_shard=per_shard,
        )


@dataclass
class ClusterShard:
    """One engine instance: its KB, its CRS, and its serialising lock."""

    shard_id: int
    kb: KnowledgeBase
    server: ClauseRetrievalServer
    lock: threading.Lock = field(default_factory=threading.Lock)


class GoalPlan(NamedTuple):
    """One cache-missed goal of a batch on its way through the shards."""

    position: int
    goal: Term
    cache_key: tuple | None
    mode: SearchMode
    shard_results: dict[int, RetrievalResult]


#: per busy shard, its plans grouped by effective mode
ShardWork = dict[int, dict[SearchMode, list[GoalPlan]]]


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
            # Everything a shard's KB and engine emit carries its shard
            # label; family totals still aggregate across the cluster.
            kb = KnowledgeBase(
                scheme=scheme, obs=self.obs.labelled(shard=str(shard_id))
            )
            self.shards.append(
                ClusterShard(shard_id, kb, self._engine_over(shard_id, kb))
            )
        self._init_result_cache(cache_size)
        #: what recovery found on disk (``None`` without durability):
        #: callers decide by it whether to re-consult source programs.
        self.recovered: RecoveredState | None = None
        store = None if durability is None else DurableStore(
            durability,
            obs=self.obs,
            meta={"num_shards": num_shards, "policy": self.router.policy.value},
        )
        #: seq order, catch-up tail, WAL hand-off, write-id memo and
        #: freeze flag (:mod:`repro.cluster.replog`): ``version`` is its
        #: seq and ``mutation_log_size`` its capacity.
        self.log = ReplicationLog(mutation_log_size, store, self.obs)
        if store is not None:
            self._recover()
            if store.options.auto_compact:
                # Looked up per call, not bound here: a tracer that
                # patches ``compact`` on the class must still see these.
                self.log.start_compactor(lambda: self.compact())

    def _engine_over(
        self, shard_id: int, kb: KnowledgeBase
    ) -> ClauseRetrievalServer:
        """A shard engine over ``kb``, its clauses' placement recorded —
        verbatim, never re-hashed (under round-robin the original
        placement was positional), and without decoding a clause: one
        :meth:`ShardRouter.observe_indicator` per non-empty store, read
        off the record heads' first-argument tags."""
        for store in kb:
            if len(store):
                self.router.observe_indicator(
                    store.indicator, shard_id,
                    unindexed=store.clause_file.has_unindexed_head(),
                )
        return ClauseRetrievalServer(
            kb,
            cost_model=self._cost_model,
            cross_binding=self._cross_binding,
            cache_size=0,  # caching happens once, at the cluster level
            obs=kb.disk.obs,
        )

    @property
    def version(self) -> int:
        """Bumped on every mutation through this front-end; the cluster
        cache keys on it as the single server keys on ``kb.version``."""
        return self.log.seq

    @property
    def writes_frozen(self) -> bool:
        return self.log.frozen

    @property
    def durable_store(self) -> DurableStore | None:
        return self.log.durable

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

    def add_clauses(
        self, clauses: Iterable[Clause], module: str = "user"
    ) -> int:
        """Bulk load: append every clause, one group commit per chunk.

        Each clause is routed, applied and logged exactly as
        :meth:`add_clause` would (own seq, own WAL record); only the
        durability wait is shared, and the load is acknowledged once the
        last record is durable.  Returns the number of clauses.
        """
        return self.log.group_commit(
            self._apply_assert("assertz", clause, module, None)[1]
            for clause in clauses
        )

    consult_clauses = add_clauses

    def add_clause(
        self,
        clause: Clause,
        module: str = "user",
        write_id: str | None = None,
    ) -> int:
        """Append a clause on its home shard; returns the shard id."""
        shard_id, seq = self._apply_assert("assertz", clause, module, write_id)
        self.log.wait_durable(seq)
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
        """Prepend within the clause's home shard: Prolog order holds
        within a shard; across shards only the candidate *set* is
        defined."""
        _, seq = self._apply_assert(
            "asserta", as_clause(clause_or_term), module, write_id
        )
        self.log.wait_durable(seq)

    def _apply_assert(
        self, op: str, clause: Clause, module: str, write_id: str | None
    ) -> tuple[int, int | None]:
        """Route and apply one ``assertz``/``asserta``; not yet durable.

        Returns ``(shard_id, seq)``; ``seq`` is ``None`` for a duplicate
        delivery of an already applied ``write_id``.  The caller owes a
        ``log.wait_durable(seq)`` before acknowledging.  The log append
        happens with the shard lock still held: a snapshot taken under
        that lock sees KB state and log cut at exactly the same seq.
        """
        shard_id = self.router.route_clause(clause.head)
        shard = self.shards[shard_id]
        self._acquire_shard(shard, None)
        try:
            if self.log.seen(write_id)[0]:
                return shard_id, None
            self.log.check_writable()
            if op == "assertz":
                shard.kb.add_clause(clause, module=module)
                self.obs.counter(
                    "cluster.clauses_routed", shard=str(shard_id)
                ).inc()
            else:
                shard.kb.asserta(clause, module=module)
            return shard_id, self._logged(shard, op, clause, module, write_id)
        finally:
            shard.lock.release()

    def _logged(
        self, shard: ClusterShard, op: str, clause: Clause, module: str,
        write_id: str | None,
    ) -> int:
        """Log a mutation just applied to ``shard`` (lock held); its seq."""
        seq = self.log.append(op, clause, module, write_id, shard.kb)
        self._on_shard_mutation(
            shard, "remove_exact" if op == "retract" else op, clause, module
        )
        return seq

    def retract(self, clause_or_term: Clause | Term) -> bool:
        """Remove the first matching clause, probing shards in id order."""
        return self.retract_matching(clause_or_term) is not None

    def retract_matching(
        self, clause_or_term: Clause | Term, write_id: str | None = None
    ) -> Clause | None:
        """Like :meth:`retract` but returns the clause actually removed.

        The resolution engines bind a ``retract/1`` template against
        it; the seq bump keeps the cluster cache (and every retriever
        layered on it) from serving the retracted clause to later choice
        points.  A duplicate delivery reports the first one's clause.
        """
        removed, seq = self._apply_retract(
            as_clause(clause_or_term), write_id, exact=False
        )
        self.log.wait_durable(seq)
        return removed

    def remove_exact(self, clause: Clause, write_id: str | None = None) -> bool:
        """Remove the first structurally identical clause (replica replay)."""
        removed, seq = self._apply_retract(clause, write_id, exact=True)
        self.log.wait_durable(seq)
        return removed is not None

    def _apply_retract(
        self, clause: Clause, write_id: str | None, exact: bool
    ) -> tuple[Clause | None, int | None]:
        """Remove one clause, probing shards in id order; not yet durable.

        ``(clause removed, seq)``; ``seq`` is ``None`` when nothing was
        logged (no match, or a duplicate ``write_id``).
        """
        try:
            targets = self.router.route_goal(clause.head)
        except UnknownPredicateError:
            return None, None
        for shard_id in targets:
            shard = self.shards[shard_id]
            self._acquire_shard(shard, None)
            try:
                hit, memo = self.log.seen(write_id)
                if hit:
                    return (clause if exact else memo), None
                self.log.check_writable()
                if not exact:
                    removed = shard.kb.retract_matching(clause)
                else:
                    removed = clause if shard.kb.remove_exact(clause) else None
                if removed is not None:
                    # Log (and forward) the clause actually removed, not
                    # the template: replaying the template elsewhere
                    # could remove a different, more general clause.
                    return removed, self._logged(
                        shard, "retract", removed, "user", write_id
                    )
            finally:
                shard.lock.release()
        return None, None

    def pin_module(self, name: str, residency: str) -> None:
        """Pin one module's residency on every shard (e.g. to disk)."""
        for shard in self.shards:
            shard.kb.module(name).pin(residency)
        if residency == Residency.DISK:
            for shard in self.shards:
                shard.kb.sync_to_disk()
        self._on_pin_module(name, residency)

    def _on_pin_module(self, name: str, residency: str) -> None:
        """Hook: a residency pin was applied to every shard (process
        workers must plan and account residency as the parent does)."""

    def sync_to_disk(self) -> dict[int, list[str]]:
        """Write each shard's disk-resident extents; extents per shard."""
        return {s.shard_id: s.kb.sync_to_disk() for s in self.shards}

    # -- replication: freeze, deltas, exact replay, wholesale adoption -------
    #
    # The state lives in :attr:`log`; what stays here is the shard side.

    def freeze_writes(self) -> None:
        """Refuse mutations until :meth:`thaw_writes`; returns once every
        admitted one has logged (:meth:`ReplicationLog.freeze`)."""
        self.log.freeze(shard.lock for shard in self.shards)

    def thaw_writes(self) -> None:
        self.log.thaw()

    def applied_write_ids(self) -> list[str]:
        """The memoised idempotency stamps, oldest first (for snapshots)."""
        return self.log.write_ids()

    def mutations_since(self, seq: int) -> list[MutationRecord]:
        """Every mutation after ``seq`` (a :attr:`version` read earlier) or
        :class:`MutationLogOverflow`: :meth:`ReplicationLog.since`."""
        return self.log.since(seq)

    def apply_mutations(self, records: Iterable[MutationRecord]) -> int:
        """Replay logged mutations from another node, in order.

        The replay twin of :meth:`add_clauses`: every record is
        re-logged under this node's own seq, durability awaited once per
        chunk.  Each record's ``write_id`` rides along, so a write this
        node already applied directly (the client re-routed it here
        after a manifest flip) dedupes instead of doubling the clause.
        Returns the number of records consumed.
        """
        return self.log.group_commit(
            self._apply_record(record) for record in records
        )

    def _apply_record(self, record: MutationRecord) -> int | None:
        """Apply one logged mutation; its new seq, not yet durable."""
        if record.op == "retract":
            return self._apply_retract(record.clause, record.write_id, True)[1]
        return self._apply_assert(
            record.op, record.clause, record.module, record.write_id
        )[1]

    def adopt_kb(self, kb: KnowledgeBase, write_ids: Iterable[str] = ()) -> None:
        """Replace a single-shard node's knowledge base (snapshot restore).

        Swaps in ``kb`` and a fresh engine over it under the shard lock,
        together with a log :meth:`~ReplicationLog.barrier` installing
        ``write_ids`` — the memo travels with the content it describes,
        so a write inside the snapshot that a client also re-routes here
        dedupes, before and (a durable node checkpoints the adopted
        state, memo included, before returning) after a restart.  A
        fresh node (seq 0, no snapshot yet) takes ``kb`` as its base
        state at seq 0: that is how a fleet seeds a replica, with no
        per-clause record.  Only single-shard servers (cluster *nodes*)
        adopt: on a multi-shard server the clauses' hash placement need
        not be the adopted shard, and the router would record a lie.
        """
        if self.num_shards != 1:
            raise ValueError("adopt_kb is for single-shard nodes only")
        shard = self.shards[0]
        kb.disk.obs = self.obs.labelled(shard="0")
        kb.publish_footprint()
        server = self._engine_over(0, kb)
        # Checkpoint serialiser first, as compact() takes them: a
        # background compaction waiting for shard locks cannot deadlock.
        with self.log.checkpointing, shard.lock:
            shard.kb = kb
            shard.server = server
            self.log.barrier(write_ids)
            self._on_shard_reload(shard)
            if self.log.durable is not None:
                # The adopted KB exists only in memory.  Holding the
                # shard lock through the CURRENT flip keeps the WAL
                # gap-free: a crash anywhere in this window recovers the
                # full pre- or the full post-adoption state.
                self.log.checkpoint(self._save_shards)

    # -- durability: recovery, compaction, shutdown ---------------------------

    def _recover(self) -> None:
        """Load the ``CURRENT`` snapshot's per-shard trees, then let
        :meth:`ReplicationLog.replay` re-apply the WAL tail through the
        ordinary mutation path (constructor only)."""
        state = self.log.durable.open()
        for shard_dir in state.shard_dirs:
            shard_id = int(shard_dir.name[len("shard"):])
            if shard_id >= self.num_shards:
                raise WalError(
                    f"snapshot has {shard_dir.name} but the engine "
                    f"only has {self.num_shards} shard(s)"
                )
            shard = self.shards[shard_id]
            shard.kb = load_kb(shard_dir, self.obs.labelled(shard=str(shard_id)))
            shard.server = self._engine_over(shard_id, shard.kb)
        self.log.replay(state, self._apply_record)
        self.recovered = state

    def _save_shards(self, snapshot_dir: pathlib.Path) -> None:
        for shard in self.shards:
            save_kb(
                shard.kb,
                snapshot_dir / f"shard{shard.shard_id}",
                durable=False,  # the checkpoint fsyncs the whole tree
            )

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns the pinned seq.

        The cut is every shard lock at once; what happens inside and
        after it is :meth:`ReplicationLog.checkpoint`.
        """
        return self.log.checkpoint(
            self._save_shards, [shard.lock for shard in self.shards]
        )

    def close(self) -> None:
        """Stop compacting, flush and release the durable store (idempotent)."""
        self.log.close()

    # -- retrieval -----------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> RetrievalResult:
        """Candidates for ``goal`` merged across its routed shards: a
        batch of one."""
        return self.retrieve_batch([goal], mode, timeout)[0]

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> list[RetrievalResult]:
        """Candidates for every goal, merged across each one's shards.

        The contract matches the single-engine server: per goal the
        merged candidate set is identical (the differential suite holds
        the two against each other), stats itemise where the time went,
        and ``cache_size > 0`` serves repeats until any shard's KB
        changes.  Every shard receives all of its sub-queries at once,
        so its engine can amortise batched FS1 scans.

        ``timeout`` (host seconds) bounds the whole fan-out: a shard
        whose lock cannot be acquired before the deadline raises
        :class:`~repro.crs.RetrievalTimeout`.  A shard's own execution
        runs uninterrupted once its lock is held (the simulated hardware
        has no preemption); queue wait is what the deadline cuts off.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results: list[RetrievalResult | None] = [None] * len(goals)
        # The goals to execute, and the same plans as per-shard
        # worklists: a shard sees all of its sub-queries, grouped by
        # effective mode so each group is one engine-level batch (modes
        # must not mix inside a batched FS1 scan).
        pending: list[GoalPlan] = []
        shard_work: ShardWork = {}
        with self.obs.span("cluster.retrieve_batch", goals=len(goals)) as span:
            for position, goal in enumerate(goals):
                cache_key, hit = self._cache_probe(goal, mode)
                if hit is not None:
                    results[position] = hit
                    continue
                targets, effective_mode = self._route_and_plan(goal, mode)
                plan = GoalPlan(position, goal, cache_key, effective_mode, {})
                pending.append(plan)
                for shard_id in targets:
                    shard_work.setdefault(shard_id, {}).setdefault(
                        effective_mode, []
                    ).append(plan)
            self._run_shards(shard_work, deadline)
            for plan in pending:
                result = self._merge(plan.goal, plan.mode, plan.shard_results)
                if plan.cache_key is not None:
                    self._cache.put(plan.cache_key, result)
                self._account_retrieval(result)
                results[plan.position] = result
            span.set(executed=len(pending), shards=len(shard_work))
        return results  # type: ignore[return-value]

    # -- shard execution seam -------------------------------------------------
    #
    # All engine work funnels through :meth:`_run_shards`, so a backend
    # that hosts the engines elsewhere — the process workers in
    # :mod:`repro.parallel` — only overrides *where* the worklists run
    # and whether shards overlap.  Routing, planning, caching, merging
    # and accounting stay in this class: the backends' results and
    # modelled stats are bit-identical.

    def _run_shards(
        self, shard_work: ShardWork, deadline: float | None
    ) -> None:
        """Run every busy shard's worklist, filing each result in its
        plan's ``shard_results``.

        One shard at a time, in id order, each under its own lock: the
        engines share one interpreter lock, so parent threads would buy
        no overlap, only their start-up cost on every broadcast goal.
        """
        for shard_id in sorted(shard_work):
            shard = self.shards[shard_id]
            self._acquire_shard(shard, deadline)
            try:
                for mode, plans in shard_work[shard_id].items():
                    for plan, result in zip(plans, shard.server.retrieve_batch(
                        [plan.goal for plan in plans], mode=mode
                    )):
                        plan.shard_results[shard_id] = result
            finally:
                shard.lock.release()

    def _on_shard_mutation(
        self, shard: ClusterShard, op: str, clause: Clause, module: str
    ) -> None:
        """Hook: one mutation just applied to ``shard`` (lock held).

        Nothing to do here (the engine was mutated in place); a
        process-backed subclass forwards it to the shard's worker, so
        whoever takes the lock next sees post-mutation worker state.
        """

    def _on_shard_reload(self, shard: ClusterShard) -> None:
        """Hook: ``shard``'s whole KB was just replaced (lock held)."""

    def _acquire_shard(
        self, shard: ClusterShard, deadline: float | None
    ) -> None:
        """Take a shard's lock (unbounded with no deadline), or raise
        :class:`RetrievalTimeout`.

        Every request-path take — reads on both backends, asserts and
        retracts — comes through here, so the time spent queued behind
        the shard's one board lands in ``cluster.shard_lock.wait_s``
        (one sample per take; a timed-out attempt records none).
        """
        start = time.perf_counter()
        if deadline is None:
            shard.lock.acquire()
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not shard.lock.acquire(timeout=remaining):
                raise RetrievalTimeout(
                    f"shard {shard.shard_id} busy past the retrieval deadline"
                )
        if self.obs.enabled:  # a bulk load takes the lock once per clause
            self.obs.histogram(
                "cluster.shard_lock.wait_s", buckets=_LOCK_WAIT_BUCKETS,
                shard=str(shard.shard_id),
            ).observe(time.perf_counter() - start)

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

        A shard deciding alone would see only its slice of the predicate
        (a different size, a different fact fraction) and shards could
        disagree — one raw FS1 candidate stream merged with another's
        FS2-refined one.  Planning once over an aggregate view makes the
        choice what the single engine's planner would pick over the
        unpartitioned store.
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

    @staticmethod
    def _merge(
        goal: Term,
        mode: SearchMode | None,
        shard_results: dict[int, RetrievalResult],
    ) -> RetrievalResult:
        """One result from many: concatenate candidates, fold stats.

        Engines' results concatenate their stored records undecoded;
        results that arrive as clauses (off a pipe or a wire)
        concatenate their clauses.
        """
        ordered = [shard_results[shard_id] for shard_id in sorted(shard_results)]
        stats = MergedRetrievalStats.over(
            {sid: result.stats for sid, result in shard_results.items()}, mode
        )
        if all(result.sources is not None for result in ordered):
            sources = tuple(
                source for result in ordered for source in result.sources
            )
            return RetrievalResult(goal, stats=stats, sources=sources)
        candidates = [
            clause for result in ordered for clause in result.candidates
        ]
        return RetrievalResult(goal, candidates, stats)

    def _account_retrieval(self, result: RetrievalResult) -> None:
        stats = result.stats
        obs = self.obs
        obs.counter("cluster.retrievals", policy=self.policy.value).inc()
        obs.counter("cluster.candidates_returned").inc(len(result))
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
