"""An elastic cluster: replicated shard nodes behind real sockets.

This module turns the single-process :class:`ShardedRetrievalServer`
into a *fleet*: every (shard, replica) pair is a :class:`ClusterNode` —
a complete one-shard engine behind its own
:class:`~repro.net.RetrievalService` socket — and a
:class:`ClusterManifest` (shared through one :class:`ManifestHolder`)
says which addresses hold which shard.  Three parties cooperate:

* :class:`Fleet` — the coordinator.  Partitions a program across
  shards, boots the nodes, and owns the fault/elasticity verbs the
  chaos harness drives: :meth:`Fleet.kill` (abrupt crash),
  :meth:`Fleet.restart` (resync from a healthy peer, then serve),
  :meth:`Fleet.slow` (latency injection), and — in
  :mod:`repro.cluster.migrate` — live shard migration.
* :class:`ClusterNode` — one replica's lifecycle (start/drain/crash).
* :class:`FleetClient` — the routing client.  Reads fan out over a
  shard's healthy replicas with true failover
  (:class:`~repro.net.FailoverClient`); writes apply to *every* active
  replica of the home shard, tagged with the manifest version they
  routed under, so a write racing a migration flip is rejected with
  ``STALE_MANIFEST`` and re-routed instead of landing on retired
  placement.

Write-acknowledgement contract (what "no lost acknowledged writes"
means in the chaos suite): a write is acknowledged iff at least one
active replica applied it, and every active replica that did *not*
acknowledge is marked stale — excluded from reads until the fleet
resyncs it.  Reads therefore never observe a replica that is missing an
acknowledged write, with one deliberate, *flagged* exception: when every
replica of a shard is stale-marked there is nothing consistent left to
prefer, so reads degrade to the full set and the merged stats carry
``degraded=True`` (plus a ``cluster.fleet.degraded_reads`` counter) so
callers can tell those answers apart.

Every logical write also carries a client-generated ``write_id``.  The
id is reused verbatim across stale-manifest re-routes, replica fan-out,
and both phases of a retract, and the engines memoise applied ids — so
a write that reaches the same node twice by different paths (directly
*and* via a migration's delta replay) lands exactly once.
"""

from __future__ import annotations

import pathlib
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Iterable

from ..crs import RetrievalResult, SearchMode
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..scw import CodewordScheme, DEFAULT_SCHEME
from ..storage import DurabilityOptions, KnowledgeBase, UnknownPredicateError
from ..terms import (
    Clause,
    Term,
    as_clause,
    clause_from_term,
    functor_indicator,
    read_program,
)
from .manifest import ClusterManifest, ManifestHolder
from .routing import ShardingPolicy, ShardRouter
from .server import ShardedRetrievalServer, WritesFrozen

__all__ = ["ClusterNode", "Fleet", "FleetClient", "FleetWriteError"]


class FleetWriteError(RuntimeError):
    """No active replica acknowledged a write — it must not be counted."""


#: Re-route/retry budget for one replicated write: each round handles
#: one stale-manifest refresh or one frozen-write backoff.  A migration
#: freeze lasts one final delta replay (small: the log is capped), so
#: with escalating waits this budget comfortably outlives it.
_WRITE_ROUNDS = 8


@dataclass
class ClusterNode:
    """One replica: a one-shard engine behind its own socket."""

    shard_id: int
    engine: ShardedRetrievalServer
    service: object = None  # RetrievalService, once built
    background: object = None  # BackgroundService, once started
    address: str = ""
    alive: bool = False
    service_opts: dict = field(default_factory=dict)

    def start(self, manifest_holder: ManifestHolder | None) -> str:
        """Serve (or resume serving) on this node's address."""
        from ..net.server import BackgroundService, RetrievalService

        host, port = "127.0.0.1", 0
        if self.address:
            # A restart must come back on the address the manifest
            # advertises — peers and clients know no other name for it.
            host, _, port_text = self.address.rpartition(":")
            port = int(port_text)
        self.service = RetrievalService(
            self.engine, host=host, port=port,
            manifest_holder=manifest_holder, **self.service_opts
        )
        self.background = BackgroundService(self.service)
        bound_host, bound_port = self.background.start()
        self.address = f"{bound_host}:{bound_port}"
        self.alive = True
        return self.address

    def drain(self) -> None:
        """Graceful stop: finish every admitted request, then close."""
        if self.background is not None:
            self.background.stop()
        self.alive = False

    def crash(self) -> None:
        """Abrupt stop: connections reset, in-flight work abandoned."""
        if self.background is not None:
            self.background.kill()
        self.alive = False


class Fleet:
    """Coordinator for a replicated, elastically placed cluster.

    ``program`` is Prolog text or the clauses themselves; an in-process
    caller that holds clauses passes them and skips the parse.
    """

    def __init__(
        self,
        program: str | Iterable[Clause] = "",
        *,
        num_shards: int = 2,
        replicas: int = 2,
        policy: ShardingPolicy | str = ShardingPolicy.PREDICATE,
        scheme: CodewordScheme = DEFAULT_SCHEME,
        module: str = "user",
        obs: Instrumentation | None = None,
        service_opts: dict | None = None,
        engine_opts: dict | None = None,
        durability_root: str | pathlib.Path | None = None,
        durability_opts: dict | None = None,
    ):
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica per shard")
        self.obs = obs if obs is not None else _default_obs()
        self.policy = ShardingPolicy(policy)
        self.num_shards = num_shards
        self.scheme = scheme
        self._service_opts = dict(service_opts or {})
        self._engine_opts = dict(engine_opts or {})
        #: with a durability root, every node gets its own WAL-backed
        #: store under ``<root>/shard<k>-node<n>``: acked writes survive
        #: node process death, and its replication log serves catch-up
        #: deltas past the in-memory tail.
        self._durability_root = (
            pathlib.Path(durability_root)
            if durability_root is not None else None
        )
        self._durability_opts = dict(durability_opts or {})
        self._node_counter = 0
        #: placement oracle: the same deterministic router the sharded
        #: server uses, populated while the program is partitioned.  A
        #: :class:`FleetClient` shares it to route goals to shard ids
        #: (production would serialise its state into the manifest).
        self.router = ShardRouter(num_shards, self.policy)
        self._module = module
        self._partition: dict[int, list[Clause]] = {
            shard_id: [] for shard_id in range(num_shards)
        }
        if isinstance(program, str):
            program = map(clause_from_term, read_program(program))
        for clause in program:
            self._partition[self.router.route_clause(clause.head)].append(clause)
        #: address -> node, every replica ever started (dead ones stay
        #: until restarted or migrated away).
        self.nodes: dict[str, ClusterNode] = {}
        self.holder: ManifestHolder | None = None
        self._lock = threading.Lock()
        self._replicas = replicas

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> ClusterManifest:
        """Boot every (shard, replica) node and publish manifest v0."""
        placement: dict[int, tuple[str, ...]] = {}
        started: list[ClusterNode] = []
        for shard_id in range(self.num_shards):
            addresses: list[str] = []
            seed: KnowledgeBase | None = None
            for _ in range(self._replicas):
                node = self._build_node(shard_id)
                recovered = node.engine.recovered
                if recovered is None or recovered.empty:
                    if seed is None:
                        seed = self._compile_partition(shard_id)
                    node.engine.adopt_kb(seed.replica())
                node.start(None)
                started.append(node)
                self.nodes[node.address] = node
                addresses.append(node.address)
            placement[shard_id] = tuple(addresses)
        manifest = ClusterManifest(
            num_shards=self.num_shards,
            policy=self.policy.value,
            # manifest_version=0 on the wire means "unversioned, skip
            # the stale check"; publishing v1 keeps every fleet write
            # stale-checkable from the very first flip.
            version=1,
            replicas=placement,
        )
        self.holder = ManifestHolder(manifest)
        for node in started:
            node.service.manifest_holder = self.holder
        self.obs.counter("cluster.fleet.nodes_started").inc(len(started))
        return manifest

    def stop(self) -> None:
        for node in list(self.nodes.values()):
            if node.alive:
                node.drain()
        for node in list(self.nodes.values()):
            node.engine.close()

    def __enter__(self) -> "Fleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def manifest(self) -> ClusterManifest:
        assert self.holder is not None, "fleet not started"
        return self.holder.current

    def node_at(self, address: str) -> ClusterNode:
        return self.nodes[address]

    def live_addresses(self) -> tuple[str, ...]:
        return tuple(
            sorted(a for a, n in self.nodes.items() if n.alive)
        )

    # -- fault & elasticity verbs --------------------------------------------

    def kill(self, address: str) -> None:
        """Crash one replica abruptly (chaos ``kill`` fault)."""
        node = self.nodes[address]
        node.crash()
        self.obs.counter("cluster.fleet.kills").inc()

    def restart(self, address: str, workdir=None) -> None:
        """Bring a crashed replica back, resynced from a healthy peer.

        A node that was down missed writes; serving its stale engine
        would hand out wrong answers.  Restart therefore resyncs from a
        live replica of the same shard *before* the socket reopens —
        incrementally when the peer's delta replays cleanly over the
        node's own state, with a full snapshot copy as the fallback
        (see :func:`repro.cluster.migrate.resync_replica`).
        With no live peer the engine is served as-is — nothing fresher
        exists anywhere.
        """
        import tempfile

        from .migrate import resync_replica

        node = self.nodes[address]
        if node.alive:
            raise ValueError(f"{address} is already serving")
        peer = self._live_peer(node.shard_id, exclude=address)
        if peer is not None:
            if workdir is None:
                with tempfile.TemporaryDirectory(
                    prefix="clare-resync-"
                ) as tmp:
                    resync_replica(peer, node, tmp)
            else:
                resync_replica(peer, node, workdir)
        node.start(self.holder)
        self.obs.counter("cluster.fleet.restarts").inc()

    def slow(self, address: str, delay_s: float) -> None:
        """Inject latency: every retrieval on this node sleeps first.

        The slowdown applies engine-side (inside the service's worker
        pool), so a slowed replica behaves exactly like an overloaded
        one: requests convoy, admission control starts refusing, and
        clients fail over to its siblings.
        """
        node = self.nodes[address]
        node.engine = _SlowEngine(node.engine, delay_s)
        if node.service is not None:
            node.service.engine = node.engine
        self.obs.counter("cluster.fleet.slowdowns").inc()

    def _live_peer(
        self, shard_id: int, exclude: str
    ) -> ClusterNode | None:
        for address in self.manifest.replicas_for(shard_id):
            node = self.nodes.get(address)
            if node is not None and node.alive and address != exclude:
                return node
        return None

    # -- node construction ---------------------------------------------------

    def _node_engine_opts(self, shard_id: int) -> dict:
        """Per-node engine kwargs; a unique durable store dir per node."""
        opts = dict(self._engine_opts)
        if self._durability_root is not None:
            with self._lock:
                serial = self._node_counter
                self._node_counter += 1
            opts["durability"] = DurabilityOptions(
                directory=(
                    self._durability_root / f"shard{shard_id}-node{serial}"
                ),
                **self._durability_opts,
            )
        return opts

    def _build_node(self, shard_id: int) -> ClusterNode:
        """A one-shard engine, empty unless it recovered a durable store."""
        engine = ShardedRetrievalServer(
            1,
            policy=self.policy,
            scheme=self.scheme,
            obs=self.obs.labelled(node_shard=str(shard_id)),
            **self._node_engine_opts(shard_id),
        )
        return ClusterNode(
            shard_id=shard_id,
            engine=engine,
            service_opts=dict(self._service_opts),
        )

    def _compile_partition(self, shard_id: int) -> KnowledgeBase:
        """The shard's partition compiled once, the images to seed from.

        Each replica adopts its own :meth:`KnowledgeBase.replica` of it
        as its base state at seq 0 (``adopt_kb``): no per-clause
        compile, record, seq or lock take per replica, and one copy of
        the bytes until a replica's first write.  A durable replica
        writes the seed as its first snapshot and flips ``CURRENT``
        before it is started; one that recovered a snapshot is not
        re-seeded.
        """
        kb = KnowledgeBase(self.scheme)
        kb.consult_clauses(self._partition[shard_id], module=self._module)
        return kb

    def new_node(self, shard_id: int) -> ClusterNode:
        """An *empty* started node for a migration target; the caller
        loads a snapshot into it (``engine.adopt_kb``) before it is
        added to the manifest."""
        node = self._build_node(shard_id)
        node.start(self.holder)
        self.nodes[node.address] = node
        return node


class _SlowEngine:
    """An engine proxy that sleeps before every retrieval (chaos fault)."""

    def __init__(self, engine, delay_s: float):
        self._engine = engine
        self.delay_s = delay_s

    def retrieve(self, goal, mode=None, timeout=None):
        time.sleep(self.delay_s)
        return self._engine.retrieve(goal, mode=mode, timeout=timeout)

    def retrieve_batch(self, goals, mode=None, timeout=None):
        time.sleep(self.delay_s)
        return self._engine.retrieve_batch(goals, mode=mode, timeout=timeout)

    def __getattr__(self, name):
        return getattr(self._engine, name)


class FleetClient:
    """Route goals and writes across the fleet, surviving churn.

    Reads: the goal's shard set comes from the shared placement router;
    each shard's candidates come from *one* healthy replica, chosen by a
    per-shard :class:`~repro.net.FailoverClient` (busy/dead replicas are
    skipped per-address, never punishing their siblings).

    Writes: applied to **every** active replica of the home shard,
    tagged with the manifest version.  ``STALE_MANIFEST`` answers
    trigger a manifest refresh and a re-route that skips replicas which
    already acknowledged (no double apply).  Replicas that fail to
    acknowledge are marked stale and excluded from reads until the
    coordinator resyncs them (:meth:`clear_stale`).

    Retracts are two-phase: the first replica unifies the template and
    reports the exact clause it removed; the remaining replicas replay
    that clause with ``retract_exact`` — replaying the *template*
    everywhere could remove different clauses on different replicas.
    """

    def __init__(
        self,
        manifest: ClusterManifest,
        router: ShardRouter,
        *,
        obs: Instrumentation | None = None,
        read_deadline_s: float | None = 5.0,
        write_deadline_s: float | None = 5.0,
        failover_opts: dict | None = None,
        sleep=time.sleep,
        discover: bool = False,
    ):
        from ..net.client import FailoverClient

        self.obs = obs if obs is not None else _default_obs()
        self.router = router
        #: cold-bootstrap mode (:meth:`connect`): the router starts empty,
        #: so a goal on a predicate it has never seen broadcasts to every
        #: shard and the answering shards are recorded for next time.
        self._discover = discover
        self.read_deadline_s = read_deadline_s
        self.write_deadline_s = write_deadline_s
        self._failover_opts = dict(failover_opts or {})
        self._failover_cls = FailoverClient
        self._manifest = manifest
        self._stale: set[str] = set()
        self._shard_clients: dict[int, FailoverClient] = {}
        #: single-address clients for write fan-out to replicas outside
        #: the read set (stale-marked); owned here so :meth:`close`
        #: closes them and :meth:`adopt_manifest` prunes retired ones.
        self._extra_clients: dict[str, FailoverClient] = {}
        #: shards whose reads currently fall back to stale replicas.
        self._degraded_shards: set[int] = set()
        #: injectable for tests; frozen-write retries back off with it.
        self._sleep = sleep
        self._write_tag = uuid.uuid4().hex[:12]
        self._write_seq = 0
        self._lock = threading.Lock()
        self._rebuild_clients()

    # -- cold bootstrap --------------------------------------------------------

    @classmethod
    def connect(cls, address: str, **kwargs) -> "FleetClient":
        """Bootstrap a client from any live replica address.

        Fetches the cluster manifest over the wire (``REQ_MANIFEST``) —
        no out-of-band manifest or shared router needed — and starts
        with an *empty* placement router in discovery mode: the first
        goal on each predicate broadcasts to every shard, shards that
        know the predicate are recorded, and subsequent goals route
        normally.  ``kwargs`` pass through to the constructor.
        """
        from ..net.client import RetrievalClient

        host, _, port_text = address.rpartition(":")
        probe = RetrievalClient(host, int(port_text))
        try:
            manifest = probe.manifest()
        finally:
            probe.close()
        router = ShardRouter(manifest.num_shards, manifest.policy)
        kwargs.setdefault("discover", True)
        return cls(manifest, router, **kwargs)

    # -- manifest plumbing ----------------------------------------------------

    @property
    def manifest(self) -> ClusterManifest:
        return self._manifest

    def adopt_manifest(self, manifest: ClusterManifest) -> None:
        """Switch to a newer manifest; stale marks survive only for
        addresses the new placement still lists."""
        with self._lock:
            self._manifest = manifest
            listed = set(manifest.addresses())
            self._stale &= listed
            retired = [
                self._extra_clients.pop(address)
                for address in list(self._extra_clients)
                if address not in listed
            ]
        for client in retired:
            client.close()
        self._rebuild_clients()

    def refresh_manifest(self) -> ClusterManifest:
        """Fetch the current manifest from whichever replica answers."""
        last_exc: Exception | None = None
        for client in list(self._shard_clients.values()):
            try:
                fresh = client.manifest()
            except Exception as exc:  # every replica of this shard down
                last_exc = exc
                continue
            if fresh.version > self._manifest.version:
                self.adopt_manifest(fresh)
                self.obs.counter("cluster.fleet.manifest_refreshes").inc()
            return self._manifest
        raise last_exc if last_exc is not None else RuntimeError(
            "no replicas to fetch a manifest from"
        )

    def mark_stale(self, address: str) -> None:
        """Exclude a replica from reads (it missed an acknowledged write)."""
        with self._lock:
            self._stale.add(address)
        self._rebuild_clients()

    def clear_stale(self, address: str) -> None:
        """Readmit a replica the coordinator has resynced."""
        with self._lock:
            self._stale.discard(address)
        self._rebuild_clients()

    @property
    def stale_addresses(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._stale)

    def _readable_replicas(self, shard_id: int) -> list[str]:
        replicas = self._manifest.replicas_for(shard_id)
        readable = [a for a in replicas if a not in self._stale]
        # With every replica stale there is nothing consistent to
        # prefer; degrade to the full set rather than failing reads.
        return readable if readable else list(replicas)

    def _rebuild_clients(self) -> None:
        with self._lock:
            manifest = self._manifest
            existing = self._shard_clients
            fresh: dict[int, object] = {}
            degraded: set[int] = set()
            for shard_id in range(manifest.num_shards):
                replicas = self._readable_replicas(shard_id)
                if not replicas:
                    continue
                if all(a in self._stale for a in replicas):
                    degraded.add(shard_id)
                client = existing.pop(shard_id, None)
                if client is None:
                    client = self._failover_cls(
                        replicas, obs=self.obs, **self._failover_opts
                    )
                else:
                    client.set_addresses(replicas)
                fresh[shard_id] = client
            leftovers = list(existing.values())
            self._shard_clients = fresh
            self._degraded_shards = degraded
        for client in leftovers:
            client.close()

    def close(self) -> None:
        with self._lock:
            clients, self._shard_clients = dict(self._shard_clients), {}
            extras, self._extra_clients = dict(self._extra_clients), {}
        for client in clients.values():
            client.close()
        for client in extras.values():
            client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reads ----------------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        """Candidates for ``goal`` merged across its shards' replicas."""
        deadline_s = (
            deadline_s if deadline_s is not None else self.read_deadline_s
        )
        try:
            targets = self._route(goal, mode)
        except UnknownPredicateError:
            if not self._discover:
                raise
            return self._discover_retrieve(goal, mode, deadline_s)
        degraded = bool(self._degraded_shards.intersection(targets))
        shard_results: dict[int, RetrievalResult] = {}
        for shard_id in targets:
            client = self._shard_clients.get(shard_id)
            if client is None:
                raise UnknownPredicateError(
                    f"shard {shard_id} has no replicas in the manifest"
                )
            shard_results[shard_id] = client.retrieve(
                goal, mode=mode, deadline_s=deadline_s
            )
        self.obs.counter("cluster.fleet.reads").inc()
        result = ShardedRetrievalServer._merge(goal, None, shard_results)
        if degraded:
            # Some queried shard had every replica stale-marked: the
            # answer may be missing acknowledged writes.  Availability
            # over consistency, but never silently.
            result.stats.degraded = True
            self.obs.counter("cluster.fleet.degraded_reads").inc()
        return result

    def _discover_retrieve(
        self,
        goal: Term,
        mode: SearchMode | None,
        deadline_s: float | None,
    ) -> RetrievalResult:
        """Cold-start read: probe every shard, record who answered.

        A shard whose engine has never stored the predicate answers
        ``UNKNOWN_PREDICATE`` and contributes nothing; shards that know
        it (even with zero candidates) are observed into the router —
        conservatively, as broadcast targets (sound: the filter stages
        reject non-unifying clauses).  Raises only when *every* shard is
        ignorant, matching the warm router's contract.
        """
        indicator = functor_indicator(goal)
        shard_results: dict[int, RetrievalResult] = {}
        found = False
        for shard_id in range(self._manifest.num_shards):
            client = self._shard_clients.get(shard_id)
            if client is None:
                continue
            try:
                result = client.retrieve(goal, mode=mode, deadline_s=deadline_s)
            except UnknownPredicateError:
                continue
            found = True
            self.router.observe_indicator(indicator, shard_id)
            shard_results[shard_id] = result
        if not found:
            name, arity = indicator
            raise UnknownPredicateError(f"unknown predicate {name}/{arity}")
        self.obs.counter("cluster.fleet.discoveries").inc()
        self.obs.counter("cluster.fleet.reads").inc()
        return ShardedRetrievalServer._merge(goal, None, shard_results)

    def _route(
        self, goal: Term, mode: SearchMode | None
    ) -> tuple[int, ...]:
        # Mirrors ShardedRetrievalServer._route_and_plan: a raw FS1
        # scan's false drops are not confined to the key shard.
        if mode is SearchMode.FS1_ONLY:
            return self.router.route_goal(goal, prune=False)
        return self.router.route_goal(goal)

    # -- writes ----------------------------------------------------------------

    def assertz(
        self, clause_or_term: Clause | Term, module: str = "user"
    ) -> None:
        clause = as_clause(clause_or_term)
        self._replicated_write(
            "assertz", clause, module, self._home_shard(clause)
        )

    def asserta(
        self, clause_or_term: Clause | Term, module: str = "user"
    ) -> None:
        clause = as_clause(clause_or_term)
        self._replicated_write(
            "asserta", clause, module, self._home_shard(clause)
        )

    def _home_shard(self, clause: Clause) -> int:
        """The shard a new clause is written to (recorded in the router).

        ``route_clause`` records the home shard as a holder of the
        predicate.  On a cold client that would be the *only* holder the
        router knows, and later reads of keys homed elsewhere would
        route to nobody — so a write to a predicate this router has
        never seen discovers its existing holders first.
        """
        if self._discover and not self.router.shards_for_indicator(
            clause.indicator
        ):
            try:
                self._discover_retrieve(
                    clause.head, None, self.read_deadline_s
                )
            except UnknownPredicateError:
                pass  # brand new: this write creates the predicate
        return self.router.route_clause(clause.head)

    def retract(self, clause_or_term: Clause | Term) -> Clause | None:
        """Two-phase replicated retract; returns the clause removed."""
        template = as_clause(clause_or_term)
        try:
            targets = self.router.route_goal(template.head)
        except UnknownPredicateError:
            if not self._discover:
                return None
            # Cold client: the predicate may exist server-side even
            # though this router has never seen it — discover first.
            try:
                self._discover_retrieve(
                    template.head, None, self.read_deadline_s
                )
                targets = self.router.route_goal(template.head)
            except UnknownPredicateError:
                return None
        for shard_id in targets:
            removed = self._replicated_retract(template, shard_id)
            if removed is not None:
                return removed
        return None

    def _new_write_id(self) -> str:
        """One idempotency stamp per *logical* write.

        Reused verbatim across stale-manifest re-routes, replica
        fan-out, and both retract phases, so any node that sees the
        same write twice — directly and via a migration delta replay —
        applies it once (see ``ReplicationLog.seen``).
        """
        with self._lock:
            self._write_seq += 1
            return f"{self._write_tag}:{self._write_seq}"

    def _replicated_retract(
        self, template: Clause, shard_id: int
    ) -> Clause | None:
        """Phase 1: one replica picks the victim; phase 2: the rest
        replay it exactly."""
        from ..net.protocol import StaleManifest

        write_id = self._new_write_id()
        frozen_wait = 0.01
        for _ in range(_WRITE_ROUNDS):
            version = self._manifest.version
            replicas = self._readable_replicas(shard_id)
            removed: Clause | None = None
            chooser: str | None = None
            retry_round = False
            for address in replicas:
                try:
                    _, applied, removed = self._address_client(
                        shard_id, address
                    ).mutate(
                        "retract", template,
                        manifest_version=version,
                        deadline_s=self.write_deadline_s,
                        write_id=write_id,
                    )
                except StaleManifest:
                    self.refresh_manifest()
                    retry_round = True
                    break
                except WritesFrozen:
                    frozen_wait = self._frozen_backoff(frozen_wait)
                    retry_round = True
                    break
                except Exception:
                    self.mark_stale(address)
                    continue
                chooser = address
                break
            else:
                # No replica could even attempt the retract.
                raise FleetWriteError(
                    f"no replica of shard {shard_id} acknowledged the "
                    "retract"
                )
            if retry_round or chooser is None:
                continue  # stale/frozen: re-route under the fresh placement
            if removed is None:
                return None  # nothing matched; replicas agree vacuously
            self._fan_out(
                "retract_exact", removed, "user", shard_id,
                version, acked={chooser}, write_id=write_id,
            )
            return removed
        raise FleetWriteError("manifest kept moving during a retract")

    def _replicated_write(
        self, op: str, clause: Clause, module: str, shard_id: int
    ) -> None:
        self._fan_out(
            op, clause, module, shard_id, None, acked=set(),
            write_id=self._new_write_id(),
        )

    def _frozen_backoff(self, wait_s: float) -> float:
        """A migration is finalising: nothing was applied on the frozen
        replica, so wait briefly for the flip, pick up whatever manifest
        is current, and re-route.  Returns the next (escalated) wait."""
        self.obs.counter("cluster.fleet.write_frozen_retries").inc()
        self._sleep(wait_s)
        try:
            self.refresh_manifest()
        except Exception:
            pass  # next round retries under the manifest we have
        return min(wait_s * 2.0, 0.25)

    def _fan_out(
        self,
        op: str,
        clause: Clause,
        module: str,
        shard_id: int,
        version: int | None,
        acked: set[str],
        write_id: str = "",
    ) -> None:
        """Apply one mutation to every active replica of a shard.

        ``acked`` carries addresses that already applied it (survives
        stale-manifest re-routes, preventing double application across
        rounds; ``write_id`` prevents it across *placements*).
        Raises :class:`FleetWriteError` if nothing acknowledged.
        """
        from ..net.protocol import StaleManifest

        refused: set[str] = set()
        ambiguous = False
        frozen_wait = 0.01
        for _ in range(_WRITE_ROUNDS):
            round_version = (
                version if version is not None else self._manifest.version
            )
            replicas = [
                a for a in self._manifest.replicas_for(shard_id)
                if a not in acked
            ]
            stale_hit = frozen_hit = False
            for address in replicas:
                try:
                    self._address_client(shard_id, address).mutate(
                        op, clause, module,
                        manifest_version=round_version,
                        deadline_s=self.write_deadline_s,
                        write_id=write_id,
                    )
                except StaleManifest:
                    stale_hit = True
                    break
                except WritesFrozen:
                    # Refused provably before any state change; keep
                    # probing siblings, then wait out the freeze.
                    frozen_hit = True
                    refused.add(address)
                    continue
                except Exception:
                    ambiguous = True  # fate unknown: may have applied
                    self.obs.counter("cluster.fleet.write_failures").inc()
                    continue
                acked.add(address)
                refused.discard(address)
            if stale_hit:
                self.refresh_manifest()
                version = None  # re-read the fresh version next round
                continue
            if frozen_hit:
                frozen_wait = self._frozen_backoff(frozen_wait)
                version = None
                continue
            break
        # Anything still listed for this shard that did not acknowledge
        # may be missing the write (even a fully failed fan-out can have
        # applied somewhere if a connection died after the send): stale
        # until the coordinator resyncs it.  (Dead nodes land here too —
        # harmless, their reads fail anyway, and restart clears the mark.)
        # Exception: when *nothing* acked and every failure was a frozen
        # refusal, the write provably landed nowhere — there is no
        # acknowledged write for the refusers to be missing.
        for address in self._manifest.replicas_for(shard_id):
            if address in acked:
                continue
            if not acked and not ambiguous and address in refused:
                continue
            self.mark_stale(address)
        if not acked:
            raise FleetWriteError(
                f"no replica of shard {shard_id} acknowledged the {op}"
            )
        self.obs.counter("cluster.fleet.writes", op=op).inc()

    def _address_client(self, shard_id: int, address: str):
        """A pooled single-address client for write fan-out."""
        client = self._shard_clients.get(shard_id)
        if client is not None:
            try:
                return client.client_for(address)
            except KeyError:
                pass
        # The address is excluded from the read set (stale) or the
        # shard has no failover client; open a pooled client via a
        # one-address failover wrapper owned by this instance (closed
        # on close(), pruned when a manifest retires the address).
        with self._lock:
            if address not in self._extra_clients:
                self._extra_clients[address] = self._failover_cls(
                    [address], obs=self.obs, **self._failover_opts
                )
            return self._extra_clients[address].client_for(address)
