"""Chaos/differential harness for the elastic cluster.

One :class:`ChaosDriver` runs seeded mixed traffic (reads, asserts,
retracts) against a replicated :class:`~repro.cluster.Fleet`
*and* a single-server oracle, while an injectable
:class:`FaultSchedule` kills, restarts, slows, and live-migrates
replicas at predetermined steps.  Every compared read must match the
oracle exactly (zero wrong answers); writes count as applied only when
the fleet acknowledged them, and the final sweep proves none was lost.

Determinism: all choices (operation mix, goals, fault targets' replica
indices, client backoff jitter) flow from one ``random.Random(seed)``;
the driver is single-threaded — each step completes before the next —
so a given (program, schedule, seed) triple replays identically.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import Fleet, FleetClient, ShardedRetrievalServer
from repro.cluster.fleet import FleetWriteError
from repro.cluster.migrate import MigrationError, migrate_shard
from repro.net import BackoffPolicy, DeadlineExceeded, NetError
from repro.storage import UnknownPredicateError
from repro.terms import Atom, Clause, Struct, Var, term_to_string

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "ChaosReport",
    "ChaosDriver",
    "chaos_program",
]

#: Everything a traffic op may legitimately fail with under faults.
_TRANSIENT = (
    NetError, DeadlineExceeded, FleetWriteError,
    ConnectionError, OSError, MigrationError,
)


def chaos_program(num_preds: int = 3, facts_per_pred: int = 8) -> str:
    """A small all-facts program spread over several predicates."""
    lines = []
    for p in range(num_preds):
        for i in range(facts_per_pred):
            lines.append(f"p{p}(k{i}, v{p}_{i}).")
    return "\n".join(lines)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at traffic step ``step``, do ``action``.

    ``action`` is one of ``kill`` / ``restart`` / ``migrate`` / ``slow``.
    The victim is ``replicas_for(shard)[replica % len]`` under the
    manifest current *at firing time* — schedules stay valid across the
    address churn that their own migrations cause.
    """

    step: int
    action: str
    shard: int = 0
    replica: int = 0
    #: ``slow`` only: injected per-request latency.
    delay_s: float = 0.05
    #: ``migrate`` only: push the new manifest to the client immediately
    #: instead of letting it discover the flip via STALE_MANIFEST.
    announce: bool = False

    def __post_init__(self):
        if self.action not in ("kill", "restart", "migrate", "slow"):
            raise ValueError(f"unknown fault action {self.action!r}")


FaultSchedule = list[FaultEvent]


@dataclass
class ChaosReport:
    """What one chaos run did and how the differential came out."""

    steps: int = 0
    reads: int = 0
    writes: int = 0
    retracts: int = 0
    #: Transient op failures (connection refused, deadline, no-ack).
    errors: int = 0
    #: Read comparisons whose candidate sets diverged from the oracle.
    wrong_answers: list[str] = field(default_factory=list)
    #: Acknowledged asserts missing at the final sweep.
    lost_writes: list[str] = field(default_factory=list)
    #: Final full-KB differential mismatches (per predicate).
    sweep_mismatches: list[str] = field(default_factory=list)
    faults_fired: dict[str, int] = field(default_factory=dict)
    #: Per-successful-op host latency, seconds.
    latencies_s: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def ops(self) -> int:
        return self.reads + self.writes + self.retracts

    @property
    def error_rate(self) -> float:
        return self.errors / self.ops if self.ops else 0.0

    @property
    def availability(self) -> float:
        return 1.0 - self.error_rate

    def latency_s(self, fraction: float) -> float:
        """The nearest-rank ``fraction``-quantile (0..1) of the latencies."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        return ordered[round(fraction * (len(ordered) - 1))]

    def summary(self) -> str:
        return (
            f"ops={self.ops} (r={self.reads} w={self.writes} "
            f"d={self.retracts}) errors={self.errors} "
            f"({self.error_rate:.2%}) wrong={len(self.wrong_answers)} "
            f"lost={len(self.lost_writes)} faults={self.faults_fired} "
            f"p50={self.latency_s(0.5) * 1e3:.1f}ms "
            f"p99={self.latency_s(0.99) * 1e3:.1f}ms"
        )


def _candidate_set(result) -> list[str]:
    return sorted(str(clause) for clause in result.candidates)


class ChaosDriver:
    """Differential chaos: fleet vs oracle under a fault schedule."""

    def __init__(
        self,
        program: str,
        schedule: FaultSchedule,
        *,
        seed: int = 0,
        steps: int = 80,
        num_shards: int = 2,
        replicas: int = 2,
        write_ratio: float = 0.35,
        workdir: str | Path = "",
        deadline_s: float = 10.0,
    ):
        self.program = program
        self.schedule = sorted(schedule, key=lambda e: e.step)
        self.seed = seed
        self.steps = steps
        self.num_shards = num_shards
        self.replicas = replicas
        self.write_ratio = write_ratio
        self.workdir = Path(workdir) if workdir else None
        self.deadline_s = deadline_s
        self.rng = random.Random(seed)
        self.report = ChaosReport()
        #: ground facts currently live (program + acked asserts,
        #: minus acked retracts) — read targets and retract victims.
        self._live: list[Clause] = []
        #: every assert the fleet acknowledged, for the lost-write check.
        self._acked: list[Clause] = []
        self._counter = 0
        self._preds: list[tuple[str, int]] = []

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> ChaosReport:
        oracle = ShardedRetrievalServer(1)
        oracle.consult_text(self.program)
        fleet = Fleet(
            self.program,
            num_shards=self.num_shards,
            replicas=self.replicas,
        )
        fleet.start()
        client = FleetClient(
            fleet.manifest,
            fleet.router,
            read_deadline_s=self.deadline_s,
            write_deadline_s=self.deadline_s,
            failover_opts={
                "rng": random.Random(self.seed + 1),
                "backoff": BackoffPolicy(
                    base_s=0.005, cap_s=0.05, max_retries=2
                ),
                "connect_timeout_s": 2.0,
            },
        )
        self._seed_live_pool(oracle)
        begin = time.monotonic()
        try:
            pending = list(self.schedule)
            for step in range(self.steps):
                while pending and pending[0].step <= step:
                    self._fire(pending.pop(0), fleet, client)
                self._traffic_step(step, fleet, client, oracle)
            self._heal(fleet, client)
            self._final_sweep(client, oracle)
        finally:
            self.report.wall_clock_s = time.monotonic() - begin
            self.report.steps = self.steps
            client.close()
            fleet.stop()
        return self.report

    def _seed_live_pool(self, oracle: ShardedRetrievalServer) -> None:
        for shard in oracle.shards:
            for store in shard.kb:
                self._preds.append(store.indicator)
                for clause in store.clauses():
                    self._live.append(clause)
        self._preds.sort()
        self._live.sort(key=str)

    # -- faults --------------------------------------------------------------

    def _fire(
        self, event: FaultEvent, fleet: Fleet, client: FleetClient
    ) -> None:
        manifest = fleet.manifest
        group = manifest.replicas_for(event.shard)
        address = group[event.replica % len(group)]
        node = fleet.nodes.get(address)
        fired = False
        if event.action == "kill" and node is not None and node.alive:
            live = [a for a in group if fleet.nodes[a].alive]
            if len(live) > 1:  # never take a shard fully dark
                fleet.kill(address)
                fired = True
        elif event.action == "restart" and node is not None and not node.alive:
            fleet.restart(address, workdir=self._fault_dir(event))
            client.clear_stale(address)
            fired = True
        elif event.action == "slow" and node is not None and node.alive:
            fleet.slow(address, event.delay_s)
            fired = True
        elif event.action == "migrate" and node is not None and node.alive:
            migrate_shard(
                fleet, event.shard, address, self._fault_dir(event)
            )
            if event.announce:
                client.adopt_manifest(fleet.manifest)
            fired = True
        if fired:
            self.report.faults_fired[event.action] = (
                self.report.faults_fired.get(event.action, 0) + 1
            )

    def _fault_dir(self, event: FaultEvent) -> Path:
        import tempfile

        if self.workdir is None:
            return Path(tempfile.mkdtemp(prefix="clare-chaos-"))
        path = self.workdir / f"step{event.step}-{event.action}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- traffic -------------------------------------------------------------

    def _traffic_step(self, step, fleet, client, oracle) -> None:
        roll = self.rng.random()
        if roll < self.write_ratio:
            if self.rng.random() < 0.3 and len(self._live) > len(self._preds):
                self._do_retract(client, oracle)
            else:
                self._do_assert(client, oracle)
        else:
            self._do_read(step, client, oracle)

    def _do_assert(self, client, oracle) -> None:
        name, arity = self.rng.choice(self._preds)
        self._counter += 1
        args = tuple(
            Atom(f"w{self._counter}_{position}") for position in range(arity)
        )
        clause = Clause(head=Struct(name, args), body=())
        self.report.writes += 1
        begin = time.monotonic()
        try:
            client.assertz(clause)
        except _TRANSIENT:
            self.report.errors += 1
            return
        self.report.latencies_s.append(time.monotonic() - begin)
        oracle.assertz(clause)
        self._live.append(clause)
        self._acked.append(clause)

    def _do_retract(self, client, oracle) -> None:
        victim = self.rng.choice(self._live)
        self.report.retracts += 1
        begin = time.monotonic()
        try:
            removed = client.retract(victim)
        except _TRANSIENT:
            self.report.errors += 1
            return
        self.report.latencies_s.append(time.monotonic() - begin)
        if removed is None:
            return
        # The victim is ground, so oracle and fleet must pick the same
        # clause (structural equality) regardless of clause order.
        oracle.retract_matching(victim)
        self._live.remove(victim)
        if victim in self._acked:
            self._acked.remove(victim)

    def _do_read(self, step, client, oracle) -> None:
        if self.rng.random() < 0.6 and self._live:
            # Keyed lookup: first arg from a live fact, rest open.
            target = self.rng.choice(self._live).head
            goal = Struct(
                target.functor,
                (target.args[0],)
                + tuple(Var(f"R{i}") for i in range(1, len(target.args))),
            )
        else:
            name, arity = self.rng.choice(self._preds)
            goal = Struct(
                name, tuple(Var(f"Q{i}") for i in range(arity))
            )
        self.report.reads += 1
        begin = time.monotonic()
        try:
            got = client.retrieve(goal)
        except _TRANSIENT:
            self.report.errors += 1
            return
        except UnknownPredicateError:
            self.report.errors += 1
            return
        self.report.latencies_s.append(time.monotonic() - begin)
        want = oracle.retrieve(goal)
        got_set, want_set = _candidate_set(got), _candidate_set(want)
        if got_set != want_set:
            self.report.wrong_answers.append(
                f"step {step}: {term_to_string(goal)} -> fleet "
                f"{got_set} != oracle {want_set}"
            )

    # -- end-of-run verification ---------------------------------------------

    def _heal(self, fleet: Fleet, client: FleetClient) -> None:
        """Restart every dead replica so the sweep sees the whole fleet."""
        for address, node in sorted(fleet.nodes.items()):
            if not node.alive:
                fleet.restart(address)
                client.clear_stale(address)
        client.adopt_manifest(fleet.manifest)

    def _final_sweep(self, client: FleetClient, oracle) -> None:
        """Full-KB differential + explicit no-lost-acked-writes check."""
        for name, arity in self._preds:
            goal = Struct(name, tuple(Var(f"S{i}") for i in range(arity)))
            got = _candidate_set(client.retrieve(goal))
            want = _candidate_set(oracle.retrieve(goal))
            if got != want:
                self.report.sweep_mismatches.append(
                    f"{name}/{arity}: fleet {got} != oracle {want}"
                )
            present = set(got)
            for clause in self._acked:
                if clause.indicator == (name, arity) and (
                    str(clause) not in present
                ):
                    self.report.lost_writes.append(str(clause))
