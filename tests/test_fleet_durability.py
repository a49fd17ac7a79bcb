"""Fleet durability and cold-client bootstrap.

Two satellite behaviours of the WAL subsystem, proven over real
sockets:

* ``FleetClient.connect`` — a client holding nothing but one replica's
  address fetches the manifest over the wire and discovers placement by
  broadcasting each first-seen predicate, so no out-of-band router
  hand-off is needed.
* ``durability_root`` — every fleet node gets its own WAL-backed store;
  acked writes survive killing a replica *and* stopping the whole
  fleet, and replica resync catch-up falls back to WAL-shipping when
  the in-memory mutation deque has already evicted the delta.
"""

from __future__ import annotations

import pytest

from repro.cluster import Fleet, FleetClient, ShardRouter
from repro.obs import Instrumentation
from repro.storage import UnknownPredicateError, kb_fingerprint
from repro.terms import read_term, term_to_string

PROGRAM = "f(a). f(b). g(1). h(x, y)."


def _candidate_set(client, goal_text):
    result = client.retrieve(read_term(goal_text))
    return sorted(str(c) for c in result.candidates)


def _node_fingerprint(node):
    return kb_fingerprint(node.engine.shards[0].kb)


class TestColdClientBootstrap:
    @pytest.fixture
    def fleet(self):
        with Fleet(PROGRAM, num_shards=2, replicas=1) as fleet:
            yield fleet

    def _connect(self, fleet) -> FleetClient:
        return FleetClient.connect(fleet.live_addresses()[0])

    def test_cold_read_discovers_placement(self, fleet):
        with self._connect(fleet) as client:
            assert _candidate_set(client, "f(X)") == ["f(a).", "f(b)."]
            # Second read on the same predicate routes warm: the
            # discovery counter does not move again.
            before = client.obs.registry.total("cluster.fleet.discoveries")
            assert _candidate_set(client, "f(b)") == ["f(b)."]
            after = client.obs.registry.total("cluster.fleet.discoveries")
            assert after == before

    def test_unknown_predicate_still_raises(self, fleet):
        with self._connect(fleet) as client:
            with pytest.raises(UnknownPredicateError):
                client.retrieve(read_term("nope(X)"))

    def test_cold_write_and_readback(self, fleet):
        with self._connect(fleet) as client:
            client.assertz(read_term("f(c)"))
            assert _candidate_set(client, "f(X)") == [
                "f(a).", "f(b).", "f(c)."
            ]

    def test_cold_write_before_read_keeps_other_shards_visible(self):
        """A cold client's first touch of a predicate is a *write*: the
        router must not conclude the written shard is the only holder."""
        router = ShardRouter(2, "first_arg")
        homes = {
            key: router.route_clause(read_term(f"rec({key}, v)"))
            for key in (f"k{i}" for i in range(16))
        }
        written = next(k for k, shard in homes.items() if shard == 0)
        elsewhere = next(k for k, shard in homes.items() if shard == 1)
        program = " ".join(f"rec({k}, v)." for k in homes if k != written)
        with Fleet(
            program, num_shards=2, replicas=1, policy="first_arg"
        ) as fleet:
            with self._connect(fleet) as client:
                client.assertz(read_term(f"rec({written}, v)"))
                assert _candidate_set(client, f"rec({elsewhere}, X)") == [
                    f"rec({elsewhere},v)."
                ]
                assert _candidate_set(client, f"rec({written}, X)") == [
                    f"rec({written},v)."
                ]
                assert len(_candidate_set(client, "rec(K, v)")) == 16

    def test_cold_write_creates_a_brand_new_predicate(self, fleet):
        with self._connect(fleet) as client:
            client.assertz(read_term("fresh(one)"))
            assert _candidate_set(client, "fresh(X)") == ["fresh(one)."]

    def test_cold_retract(self, fleet):
        with self._connect(fleet) as client:
            removed = client.retract(read_term("f(a)"))
            assert removed is not None
            assert term_to_string(removed.head) == "f(a)"
            assert _candidate_set(client, "f(X)") == ["f(b)."]

    def test_cold_retract_of_unknown_predicate(self, fleet):
        with self._connect(fleet) as client:
            assert client.retract(read_term("nope(x)")) is None


class TestFleetDurability:
    def _fleet(self, root, **kwargs):
        kwargs.setdefault("num_shards", 1)
        kwargs.setdefault("replicas", 2)
        # A tiny mutation deque forces resync catch-up onto the WAL.
        kwargs.setdefault("engine_opts", {"mutation_log_size": 2})
        kwargs.setdefault("durability_opts", {"auto_compact": False})
        kwargs.setdefault("obs", Instrumentation(enabled=True))
        return Fleet(PROGRAM, durability_root=root, **kwargs)

    def test_killed_replica_resyncs_over_wal(self, tmp_path):
        with self._fleet(tmp_path / "fleet") as fleet:
            addr_a, addr_b = fleet.manifest.replicas_for(0)
            with FleetClient.connect(addr_a) as client:
                for i in range(3):
                    client.assertz(read_term(f"w(pre{i})"))
                fleet.kill(addr_b)
                client.mark_stale(addr_b)
                # Far more writes than the deque holds: the restart's
                # catch-up delta must come from the survivor's WAL.
                for i in range(8):
                    client.assertz(read_term(f"w(post{i})"))
                registry = fleet.obs.registry
                assert registry.total("wal.shipped_records") == 0
                fleet.restart(addr_b)
                client.clear_stale(addr_b)
                node_a, node_b = fleet.node_at(addr_a), fleet.node_at(addr_b)
                # Content equality is the contract; the version counters
                # are node-local (a snapshot adoption is one `reload`).
                assert _node_fingerprint(node_b) == _node_fingerprint(node_a)
                # The catch-up delta really was served off the survivor's
                # WAL (the deque holds 2, the replica missed 8) and the
                # resync was incremental — no snapshot copy happened.
                assert registry.total("wal.shipped_records") >= 8
                # The resynced replica answers reads again.
                assert len(_candidate_set(client, "w(X)")) == 11

    def test_whole_fleet_survives_stop_and_restart(self, tmp_path):
        root = tmp_path / "fleet"
        with self._fleet(root) as fleet:
            with FleetClient.connect(fleet.live_addresses()[0]) as client:
                for i in range(5):
                    client.assertz(read_term(f"w(k{i})"))
                want = _node_fingerprint(
                    fleet.node_at(fleet.live_addresses()[0])
                )

        # A brand-new fleet over the same root: every node recovers its
        # own store (the program partition is NOT re-seeded — doing so
        # would double every clause).
        with self._fleet(root) as reborn:
            for address in reborn.live_addresses():
                node = reborn.node_at(address)
                assert node.engine.recovered is not None
                assert not node.engine.recovered.empty
                assert _node_fingerprint(node) == want
            with FleetClient.connect(reborn.live_addresses()[0]) as client:
                assert _candidate_set(client, "w(X)") == [
                    f"w(k{i})." for i in range(5)
                ]
                # And the recovered fleet keeps taking writes.
                client.assertz(read_term("w(k5)"))
                assert len(_candidate_set(client, "w(X)")) == 6


class TestAdoptedMemoSurvivesRestart:
    """The memo travels with the content — onto disk too.

    A write that is *inside* an adopted snapshot must stay deduped after
    the adopting node restarts from its own durable store: the sidecar
    the adoption writes has to carry the ids it adopted.
    """

    @staticmethod
    def _copies(engine, text):
        clauses = engine.shards[0].kb.clauses(("p", 1))
        return [str(c) for c in clauses].count(text)

    def test_adopt_restart_redeliver(self, tmp_path):
        import json

        from repro.cluster import ShardedRetrievalServer
        from repro.cluster.fleet import ClusterNode
        from repro.cluster.migrate import snapshot_node
        from repro.storage import load_kb, load_write_ids

        source = ShardedRetrievalServer(1)
        source.assertz(read_term("p(a)"), write_id="w-1")
        snapdir = tmp_path / "snap"
        snapshot_node(ClusterNode(0, source), snapdir)

        store = tmp_path / "store"
        node = ShardedRetrievalServer(1, durability=store)
        node.adopt_kb(load_kb(snapdir), load_write_ids(snapdir))
        assert node.applied_write_ids() == ["w-1"]
        node.close()

        (current,) = store.glob("snapshot-*")
        assert json.loads((current / "write_ids.json").read_text()) == ["w-1"]
        reopened = ShardedRetrievalServer(1, durability=store)
        try:
            assert reopened.applied_write_ids() == ["w-1"]
            reopened.assertz(read_term("p(a)"), write_id="w-1")  # redelivery
            assert self._copies(reopened, "p(a).") == 1
        finally:
            reopened.close()

    def test_migrate_restart_redeliver(self, tmp_path):
        from repro.cluster import ShardedRetrievalServer
        from repro.cluster.migrate import migrate_shard

        root = tmp_path / "fleet"
        with Fleet(
            "p(seed).", num_shards=1, replicas=2, durability_root=root,
            durability_opts={"auto_compact": False},
        ) as fleet:
            with FleetClient(fleet.manifest, fleet.router) as client:
                client.assertz(read_term("p(racer)"))
            source = fleet.manifest.replicas_for(0)[0]
            write_id = next(
                r.write_id
                for r in fleet.nodes[source].engine.mutations_since(0)
                if str(r.clause) == "p(racer)."
            )
            target = migrate_shard(fleet, 0, source, tmp_path / "work")
            store = fleet.nodes[target].engine.durable_store.directory
        # The fleet is stopped; the target restarts from its own store.
        reopened = ShardedRetrievalServer(1, durability=store)
        try:
            assert write_id in reopened.applied_write_ids()
            reopened.assertz(read_term("p(racer)"), write_id=write_id)
            assert self._copies(reopened, "p(racer).") == 1
        finally:
            reopened.close()


class TestCompactionRacesTheDeltaRead:
    """A delta whose WAL segment a compaction purges mid-read overflows
    (the reader re-snapshots); it never dies on a bare ``OSError``."""

    @staticmethod
    def _engine(tmp_path, **durability):
        from repro.cluster import ShardedRetrievalServer
        from repro.storage import DurabilityOptions

        return ShardedRetrievalServer(
            1, mutation_log_size=4,
            durability=DurabilityOptions(tmp_path / "store", **durability),
        )

    def test_segment_purged_between_listing_and_reading(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import MutationLogOverflow
        from repro.storage import wal

        engine = self._engine(tmp_path, auto_compact=False)
        try:
            for i in range(12):
                engine.assertz(read_term(f"p(k{i})"))
            real_scan = wal._scan_segment
            fired = []

            def compact_then_scan(path):
                if not fired:
                    fired.append(path)
                    engine.compact()  # purges the segment just listed
                return real_scan(path)

            monkeypatch.setattr(wal, "_scan_segment", compact_then_scan)
            with pytest.raises(MutationLogOverflow):
                engine.mutations_since(2)
            assert fired and not fired[0].exists()
            # The log is intact for a reader the tail still serves.
            assert [r.seq for r in engine.mutations_since(10)] == [11, 12]
        finally:
            engine.close()

    def test_catch_up_against_a_compacting_writer(self, tmp_path):
        import threading
        from types import SimpleNamespace

        from repro.cluster import MutationLogOverflow, ShardedRetrievalServer
        from repro.cluster.migrate import MigrationError, catch_up

        source = self._engine(
            tmp_path, compact_min_records=8, compact_interval_s=0.001
        )
        stop = threading.Event()

        def write():
            i = 0
            while not stop.is_set():
                source.assertz(read_term(f"p(k{i})"))
                i += 1

        writer = threading.Thread(target=write)
        writer.start()
        outcomes = {"delta": 0, "overflow": 0}
        try:
            for _ in range(60):
                target = ShardedRetrievalServer(1)
                seq = max(0, source.version - 6)
                try:
                    reached = catch_up(
                        SimpleNamespace(engine=source),
                        SimpleNamespace(engine=target), seq,
                    )
                except (MutationLogOverflow, MigrationError):
                    outcomes["overflow"] += 1  # typed: re-snapshot
                else:
                    # A contiguous delta: exactly the seqs asked for.
                    assert target.version == reached - seq
                    outcomes["delta"] += 1
        finally:
            stop.set()
            writer.join(timeout=60)
            source.close()
        assert not writer.is_alive()
        assert sum(outcomes.values()) == 60


class TestSeedingContract:
    """A replica's seed is its base state at seq 0, not a run of records.

    The partition is compiled once per replica into a KB the node adopts;
    a durable node holds it as its first snapshot before it serves, and
    logs nothing per clause.
    """

    @staticmethod
    def _fleet(root, program=PROGRAM, **kwargs):
        kwargs.setdefault("num_shards", 2)
        kwargs.setdefault("replicas", 2)
        return Fleet(
            program, durability_root=root,
            durability_opts={"auto_compact": False}, **kwargs
        )

    @staticmethod
    def _record_lines(dump: str) -> list[str]:
        import re

        return re.findall(r"(?m)^ {4}[ *] *\d+ .*$", dump)

    def test_seed_is_seq_zero_and_the_log_serves_every_later_write(
        self, tmp_path
    ):
        from repro.storage import wal_dump

        with self._fleet(tmp_path / "fleet") as fleet:
            nodes = list(fleet.nodes.values())
            for node in nodes:
                assert node.engine.version == 0
                assert node.engine.mutations_since(0) == []
                store = node.engine.durable_store.directory
                dump = wal_dump(store)
                assert "(seq 0)" in dump and "CURRENT -> (none)" not in dump
                assert self._record_lines(dump) == []  # no seed records
            with FleetClient(fleet.manifest, fleet.router) as client:
                client.assertz(read_term("f(c)"))
                client.retract(read_term("g(1)"))
            homes = {
                ("assertz", "f(c)."): fleet.router.route_goal(
                    read_term("f(c)")
                ),
                ("retract", "g(1)."): fleet.router.route_goal(
                    read_term("g(1)")
                ),
            }
            for node in nodes:
                want = [
                    write for write, shards in homes.items()
                    if node.shard_id in shards
                ]
                got = [
                    (record.op, str(record.clause))
                    for record in node.engine.mutations_since(0)
                ]
                assert got == want
                assert node.engine.version == len(want)
                dump = wal_dump(node.engine.durable_store.directory)
                assert len(self._record_lines(dump)) == len(want)

    def test_one_compile_per_clause_per_shard(self, tmp_path, monkeypatch):
        """Each clause is written into a record once, for its shard; the
        replicas adopt copies of those images, and no WAL record is
        written for the seed."""
        from repro.pif import clausefile
        from repro.storage import wal

        compiles = {"clause file": 0, "wal record": 0}

        def counting(site, real):
            def clause_record(clause, symbols):
                compiles[site] += 1
                return real(clause, symbols)
            return clause_record

        monkeypatch.setattr(clausefile, "clause_record", counting(
            "clause file", clausefile.clause_record
        ))
        monkeypatch.setattr(wal, "clause_record", counting(
            "wal record", wal.clause_record
        ))
        program = " ".join(f"rec(k{i}, v{i % 5})." for i in range(300))
        with self._fleet(
            tmp_path / "fleet", program, policy="first_arg", replicas=2
        ) as fleet:
            assert sum(
                node.engine.clause_count() for node in fleet.nodes.values()
            ) == 2 * 300
        assert compiles == {"clause file": 300, "wal record": 0}

    def test_only_a_fresh_node_adopts_at_seq_zero(self):
        """The first adoption is the base state; any later one moves the
        seq, so a result cached over the base cannot outlive it."""
        from repro.cluster import ShardedRetrievalServer
        from repro.storage import KnowledgeBase

        def kb(text):
            adopted = KnowledgeBase()
            adopted.consult_text(text)
            return adopted

        engine = ShardedRetrievalServer(1, cache_size=16)
        goal = read_term("p(X)")
        engine.adopt_kb(kb(""))
        assert engine.version == 0
        engine.adopt_kb(kb("p(a)."))
        assert engine.version == 1
        assert [str(c) for c in engine.retrieve(goal).candidates] == ["p(a)."]
        engine.adopt_kb(kb("p(b)."))
        assert engine.version == 2
        assert [str(c) for c in engine.retrieve(goal).candidates] == ["p(b)."]

    @staticmethod
    def _crash_while_seeding(tmp_path, point, count, mode="seed"):
        import signal
        import subprocess
        import sys

        from .wal_crash_runner import __file__ as runner

        proc = subprocess.run(
            [sys.executable, runner, str(tmp_path / "fleet"),
             str(tmp_path / "acks.txt"), point, "1", str(count), mode],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stdout + proc.stderr

    def _reopen(self, tmp_path, count):
        from .wal_crash_runner import seed_program

        return self._fleet(
            tmp_path / "fleet", seed_program(count), num_shards=1, replicas=1
        )

    @pytest.mark.parametrize(
        ("point", "reseeded"),
        [("compact.synced", True), ("compact.flipped", False)],
    )
    def test_crash_while_seeding(self, tmp_path, point, reseeded):
        count = 40
        self._crash_while_seeding(tmp_path, point, count)
        for boot in range(2):
            with self._reopen(tmp_path, count) as fleet:
                (node,) = fleet.nodes.values()
                recovered = node.engine.recovered
                # Before the CURRENT flip the store is empty and the node
                # seeds again; after it, the seed snapshot is recovered.
                # Either way, once: no boot doubles a clause.
                assert recovered.empty == (reseeded and boot == 0)
                assert recovered.records == []
                assert node.engine.version == 0
                assert node.engine.clause_count() == count

    @pytest.mark.parametrize(
        ("point", "adopted"),
        [
            ("compact.rotated", False),
            ("compact.synced", False),
            ("compact.flipped", True),
        ],
    )
    def test_crash_while_an_empty_replica_resyncs(
        self, tmp_path, point, adopted
    ):
        """An empty partition's replica sits at seq 0 over an empty
        seed snapshot; its resync adopts the peer's content and must
        checkpoint past that snapshot, never rewrite it in place."""
        from .wal_crash_runner import resync_facts

        count = 12
        self._crash_while_seeding(tmp_path, point, count, mode="resync")
        with self._fleet(
            tmp_path / "fleet", "", num_shards=1, replicas=2
        ) as fleet:
            peer, stale = fleet.nodes.values()
            held = peer.engine.retrieve(read_term("resync_fact(K)"))
            assert sorted(str(c) for c in held.candidates) == sorted(
                f"{text}." for text in resync_facts(count)
            )
            assert peer.engine.version == count
            # Before the flip the seed snapshot is intact; after it the
            # adoption is recovered at seq 1, its own snapshot.
            assert stale.engine.recovered.snapshot_seq == int(adopted)
            assert stale.engine.version == int(adopted)
            assert stale.engine.clause_count() == (count if adopted else 0)
            if adopted:
                assert _node_fingerprint(stale) == _node_fingerprint(peer)
            # Resync again in this process, over the recovered snapshot.
            fleet.kill(stale.address)
            fleet.restart(stale.address)
            assert stale.engine.version > int(adopted)
            assert _node_fingerprint(stale) == _node_fingerprint(peer)
        with self._fleet(
            tmp_path / "fleet", "", num_shards=1, replicas=2
        ) as fleet:
            peer, stale = fleet.nodes.values()
            assert _node_fingerprint(stale) == _node_fingerprint(peer)
