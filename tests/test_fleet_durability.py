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
