"""Live migration and replica resync: exact cuts, catch-up, rollback.

The engine-level tests build :class:`~repro.cluster.fleet.ClusterNode`
shells around in-process engines — snapshot, catch-up, and resync never
touch a socket, so the interleavings are driven exactly.  The
``migrate_shard`` tests run a real fleet end to end: sockets, manifest
flip, drain, and client re-routing.
"""

import threading

import pytest

from repro.cluster import (
    Fleet,
    FleetClient,
    MigrationError,
    ShardedRetrievalServer,
    WritesFrozen,
    migrate_shard,
    resync_replica,
)
from repro.cluster.fleet import ClusterNode
from repro.cluster.migrate import catch_up, snapshot_node
from repro.net import RetrievalClient
from repro.storage import kb_fingerprint, load_kb
from repro.terms import Atom, Clause, Struct


def fact(name: str, *args: str) -> Clause:
    return Clause(head=Struct(name, tuple(Atom(a) for a in args)), body=())


def engine_node(shard_id: int = 0, **engine_opts) -> ClusterNode:
    """A socketless node: just the engine, for cut/catch-up tests."""
    return ClusterNode(
        shard_id=shard_id, engine=ShardedRetrievalServer(1, **engine_opts)
    )


def prints(node: ClusterNode):
    return kb_fingerprint(node.engine.shards[0].kb)


class TestSnapshotCut:
    def test_snapshot_seq_matches_content(self, tmp_path):
        node = engine_node()
        node.engine.consult_text("p(a). p(b).")
        seq = snapshot_node(node, tmp_path)
        assert seq == node.engine.version
        # Writes after the cut do not retroactively enter the files.
        node.engine.assertz(fact("p", "late"))
        loaded = kb_fingerprint(load_kb(tmp_path))
        assert loaded["p/1"] == ["p(a).", "p(b)."]

    def test_snapshot_excludes_nothing_before_the_cut(self, tmp_path):
        node = engine_node()
        node.engine.consult_text("p(a).")
        node.engine.assertz(fact("p", "b"))
        snapshot_node(node, tmp_path)
        assert kb_fingerprint(load_kb(tmp_path)) == prints(node)

    def test_snapshot_under_concurrent_writers_is_a_consistent_cut(
        self, tmp_path
    ):
        """Hammer the engine from a thread while snapshotting: every
        snapshot + delta-from-its-seq must reconstruct the final state
        exactly.  Functor names chosen to exercise the stem-mangling
        (collision) paths of the clause-file writer too."""
        node = engine_node()
        node.engine.assertz(fact("pred", "seed"))
        node.engine.assertz(fact("Pred", "seed"))  # stem-collides w/ pred
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                node.engine.assertz(fact("pred" if i % 2 else "Pred", f"w{i}"))
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            cuts = []
            for attempt in range(5):
                snapdir = tmp_path / f"cut{attempt}"
                seq = snapshot_node(node, snapdir)
                cuts.append((seq, snapdir))
        finally:
            stop.set()
            thread.join()
        for seq, snapdir in cuts:
            target = engine_node()
            target.engine.adopt_kb(load_kb(snapdir))
            catch_up(node, target, seq)
            assert prints(target) == prints(node)


class TestCatchUp:
    def test_delta_replays_interleaved_writes(self, tmp_path):
        source = engine_node()
        source.engine.consult_text("p(a).")
        seq = snapshot_node(source, tmp_path)
        source.engine.assertz(fact("p", "b"))
        source.engine.asserta(fact("p", "front"))
        source.engine.retract_matching(fact("p", "a"))
        target = engine_node()
        target.engine.adopt_kb(load_kb(tmp_path))
        new_seq = catch_up(source, target, seq)
        assert new_seq == source.engine.version
        assert prints(target) == prints(source)
        assert prints(target)["p/1"] == ["p(front).", "p(b)."]

    def test_durable_target_batches_the_delta_and_equals_per_record_replay(
        self, tmp_path
    ):
        """Catch-up hands the whole delta to ``apply_mutations``: on a
        durable target that is one group commit, and the resulting
        state, seqs, memo and recovered store are exactly what replaying
        the records one at a time (one fsync each) produces."""
        from repro.obs import Instrumentation
        from repro.storage import DurabilityOptions

        source = engine_node()
        source.engine.consult_text("p(a). q(z).")
        seq = snapshot_node(source, tmp_path / "snap")
        for i in range(12):
            source.engine.assertz(fact("p", f"k{i}"), write_id=f"w:{i}")
        source.engine.asserta(fact("p", "front"), write_id="w:front")
        source.engine.retract_matching(fact("p", "k3"), write_id="w:gone")
        delta = source.engine.mutations_since(seq)
        assert len(delta) == 14

        def durable_target(name):
            obs = Instrumentation()
            opts = DurabilityOptions(
                directory=tmp_path / name, auto_compact=False
            )
            node = engine_node(durability=opts, obs=obs)
            node.engine.adopt_kb(load_kb(tmp_path / "snap"))
            return node, opts, obs.registry.counter("wal.fsyncs")

        batched, batched_opts, batched_fsyncs = durable_target("batched")
        single, single_opts, single_fsyncs = durable_target("single")
        before = batched_fsyncs.value, single_fsyncs.value
        assert catch_up(source, batched, seq) == source.engine.version
        for record in delta:
            single.engine.apply_mutations([record])
        assert batched_fsyncs.value - before[0] == 1
        assert single_fsyncs.value - before[1] == len(delta)

        assert prints(batched) == prints(single) == prints(source)
        assert batched.engine.version == single.engine.version
        assert (
            batched.engine.applied_write_ids()
            == single.engine.applied_write_ids()
        )
        # A re-routed duplicate of a replayed write still dedupes.
        batched.engine.assertz(fact("p", "k5"), write_id="w:5")
        assert prints(batched) == prints(source)
        batched.engine.close()
        single.engine.close()

        for opts in (batched_opts, single_opts):
            reborn = ShardedRetrievalServer(1, durability=opts)
            try:
                assert kb_fingerprint(reborn.shards[0].kb) == prints(source)
                assert reborn.version == batched.engine.version
                assert reborn.applied_write_ids() == (
                    batched.engine.applied_write_ids()
                )
            finally:
                reborn.close()

    def test_catch_up_converges_over_multiple_rounds(self):
        source = engine_node()
        source.engine.consult_text("p(a).")
        target = engine_node()
        target.engine.adopt_kb(load_kb_like(source))
        seq = source.engine.version

        real = source.engine

        class TrickleSource:
            """Lands one more write during each of the first 3 rounds."""

            def __init__(self):
                self.rounds = 0

            def mutations_since(self, since):
                if self.rounds < 3:
                    real.assertz(fact("p", f"mid{self.rounds}"))
                    self.rounds += 1
                return real.mutations_since(since)

            def __getattr__(self, name):
                return getattr(real, name)

        source.engine = TrickleSource()
        catch_up(source, target, seq)
        source.engine = real
        assert prints(target) == prints(source)

    def test_catch_up_gives_up_on_an_unbounded_writer(self):
        source = engine_node()
        source.engine.consult_text("p(a).")
        target = engine_node()
        target.engine.adopt_kb(load_kb_like(source))
        seq = source.engine.version

        real = source.engine

        class FireHose:
            def mutations_since(self, since):
                real.assertz(fact("p", f"x{real.version}"))
                return real.mutations_since(since)

            def __getattr__(self, name):
                return getattr(real, name)

        source.engine = FireHose()
        with pytest.raises(MigrationError, match="catch-up rounds"):
            catch_up(source, target, seq)


def load_kb_like(node: ClusterNode):
    """Clone a node's KB through the real save/load path."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="clare-test-") as tmp:
        snapshot_node(node, tmp)
        return load_kb(tmp)


class TestResync:
    def test_resync_rebuilds_from_peer(self, tmp_path):
        peer = engine_node()
        peer.engine.consult_text("p(a). p(b). q(c).")
        peer.engine.assertz(fact("p", "d"))
        stale = engine_node()
        resync_replica(peer, stale, tmp_path)
        assert prints(stale) == prints(peer)

    def test_resync_refuses_a_serving_target(self, tmp_path):
        peer, stale = engine_node(), engine_node()
        stale.alive = True
        with pytest.raises(MigrationError, match="stopped"):
            resync_replica(peer, stale, tmp_path)

    def test_resync_refuses_a_shard_mismatch(self, tmp_path):
        with pytest.raises(MigrationError, match="shard"):
            resync_replica(engine_node(0), engine_node(1), tmp_path)

    def test_overflowed_delta_forces_a_fresh_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A flood between snapshot and catch-up evicts the delta from
        the capped log; resync must re-snapshot, not replay a gap."""
        from repro.cluster import migrate as migrate_mod

        peer = engine_node(mutation_log_size=4)
        peer.engine.consult_text("p(a).")
        stale = engine_node()
        real_snapshot = migrate_mod.snapshot_node
        floods = {"left": 1}

        def flooding_snapshot(node, directory):
            seq = real_snapshot(node, directory)
            if floods["left"]:
                floods["left"] -= 1
                for i in range(10):  # > log capacity: the delta is gone
                    node.engine.assertz(fact("p", f"flood{i}"))
            return seq

        monkeypatch.setattr(migrate_mod, "snapshot_node", flooding_snapshot)
        resync_replica(peer, stale, tmp_path)
        assert prints(stale) == prints(peer)
        assert (tmp_path / "snapshot-0").is_dir()
        assert (tmp_path / "snapshot-1").is_dir()

    def test_persistent_overflow_surfaces_migration_error(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import migrate as migrate_mod

        peer = engine_node(mutation_log_size=4)
        peer.engine.consult_text("p(a).")
        stale = engine_node()
        real_snapshot = migrate_mod.snapshot_node

        def always_flooding(node, directory):
            seq = real_snapshot(node, directory)
            for i in range(10):
                node.engine.assertz(fact("p", f"f{node.engine.version}_{i}"))
            return seq

        monkeypatch.setattr(migrate_mod, "snapshot_node", always_flooding)
        with pytest.raises(MigrationError, match="mutation log"):
            resync_replica(peer, stale, tmp_path)


class TestWriteIdempotency:
    def test_duplicate_assert_applies_once(self):
        node = engine_node()
        node.engine.consult_text("p(a).")
        node.engine.assertz(fact("p", "b"), write_id="c:1")
        node.engine.assertz(fact("p", "b"), write_id="c:1")
        assert prints(node)["p/1"].count("p(b).") == 1

    def test_duplicate_retract_reports_the_first_removal(self):
        node = engine_node()
        node.engine.consult_text("p(a). p(a).")
        first = node.engine.retract_matching(fact("p", "a"), write_id="c:2")
        second = node.engine.retract_matching(fact("p", "a"), write_id="c:2")
        assert str(first) == "p(a)."
        assert str(second) == str(first)
        # The duplicate delivery must not have removed the second copy.
        assert prints(node)["p/1"] == ["p(a)."]

    def test_delta_replay_dedupes_a_rerouted_write(self, tmp_path):
        """The double-apply race, distilled: a write lands on the source
        (and its log) after the snapshot cut, the client re-routes the
        *same* write directly to the target, and the catch-up delta then
        replays the source's copy — the target must hold exactly one."""
        source, target = engine_node(), engine_node()
        source.engine.consult_text("p(a).")
        seq = snapshot_node(source, tmp_path)
        target.engine.adopt_kb(load_kb(tmp_path))
        source.engine.assertz(fact("p", "raced"), write_id="client:7")
        # The client's re-route arrives at the target first...
        target.engine.assertz(fact("p", "raced"), write_id="client:7")
        # ...and the delta replay carries the same stamped write again.
        catch_up(source, target, seq)
        assert prints(target)["p/1"].count("p(raced).") == 1
        assert prints(target) == prints(source)

    def test_snapshot_carries_the_write_id_memo(self, tmp_path):
        """A write already *inside* the snapshot dedupes a re-route too:
        the applied-id memo travels with the clause files."""
        source, target = engine_node(), engine_node()
        source.engine.consult_text("p(a).")
        source.engine.assertz(fact("p", "early"), write_id="client:9")
        resync_replica(source, target, tmp_path)
        target.engine.assertz(fact("p", "early"), write_id="client:9")
        assert prints(target)["p/1"].count("p(early).") == 1


class TestWriteFreeze:
    def test_frozen_engine_refuses_mutations_without_applying(self):
        node = engine_node()
        node.engine.consult_text("p(a).")
        node.engine.freeze_writes()
        with pytest.raises(WritesFrozen):
            node.engine.assertz(fact("p", "b"))
        with pytest.raises(WritesFrozen):
            node.engine.retract_matching(fact("p", "a"))
        assert prints(node)["p/1"] == ["p(a)."]
        node.engine.thaw_writes()
        node.engine.assertz(fact("p", "b"))
        assert "p(b)." in prints(node)["p/1"]

    def test_freeze_is_a_quiescence_barrier(self):
        """Once freeze_writes() returns, the mutation log is final:
        every concurrent writer either landed (and is logged) before
        the freeze or was refused — never logged afterwards."""
        node = engine_node()
        node.engine.consult_text("p(a).")
        before = node.engine.version
        outcomes = []
        barrier = threading.Barrier(9)

        def writer(i):
            barrier.wait()
            try:
                node.engine.assertz(fact("p", f"w{i}"))
                outcomes.append("landed")
            except WritesFrozen:
                outcomes.append("refused")

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        node.engine.freeze_writes()
        version_at_freeze = node.engine.version
        for thread in threads:
            thread.join()
        assert node.engine.version == version_at_freeze
        assert len(outcomes) == 8
        assert outcomes.count("landed") == version_at_freeze - before


PROGRAM = "p(a). p(b). q(c). q(d)."


class TestMigrateShard:
    def test_live_migration_end_to_end(self, tmp_path):
        with Fleet(PROGRAM, num_shards=2, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)
            with client:
                source = fleet.manifest.replicas_for(0)[0]
                before_version = fleet.manifest.version
                target = migrate_shard(
                    fleet, 0, source, tmp_path, verify=True
                )
                assert target != source
                manifest = fleet.manifest
                assert manifest.version == before_version + 1
                assert target in manifest.replicas_for(0)
                assert source not in manifest.replicas_for(0)
                assert source not in fleet.nodes
                assert fleet.nodes[target].alive
                # A client still on the old manifest: reads fail over
                # off the drained source transparently...
                got = client.retrieve(Struct("p", (Atom("a"),)))
                assert [str(c) for c in got.candidates] == ["p(a)."]
                # ...and a stale-stamped write is refused, refreshed,
                # and re-routed onto the new placement.
                client.assertz(fact("p", "post_move"))
                assert client.manifest.version == manifest.version
                sweep = client.retrieve(Struct("p", (Atom("post_move"),)))
                assert [str(c) for c in sweep.candidates] == ["p(post_move)."]

    def test_migration_carries_post_snapshot_writes(self, tmp_path):
        """Writes landing between snapshot and flip arrive via delta."""
        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)
            with client:
                client.assertz(fact("p", "before_move"))
                source = fleet.manifest.replicas_for(0)[0]
                target = migrate_shard(
                    fleet, 0, source, tmp_path, verify=True
                )
                survivor = fleet.nodes[target]
                assert "p(before_move)." in prints(survivor)["p/1"]

    def test_rejects_shard_mismatch_dead_source_and_unlisted(self, tmp_path):
        with Fleet(PROGRAM, num_shards=2, replicas=2) as fleet:
            shard0 = fleet.manifest.replicas_for(0)[0]
            shard1 = fleet.manifest.replicas_for(1)[0]
            with pytest.raises(MigrationError, match="serves shard"):
                migrate_shard(fleet, 0, shard1, tmp_path)
            fleet.kill(shard0)
            with pytest.raises(MigrationError, match="not serving"):
                migrate_shard(fleet, 0, shard0, tmp_path)
            victim = fleet.manifest.replicas_for(0)[1]
            fleet.holder.flip(fleet.manifest.without_replica(0, victim))
            with pytest.raises(MigrationError, match="not in the manifest"):
                migrate_shard(fleet, 0, victim, tmp_path)

    def test_failed_migration_rolls_the_target_back(
        self, tmp_path, monkeypatch
    ):
        from repro.cluster import migrate as migrate_mod

        with Fleet(PROGRAM, num_shards=1, replicas=1) as fleet:
            source = fleet.manifest.replicas_for(0)[0]
            version = fleet.manifest.version
            nodes_before = set(fleet.nodes)

            def boom(*args, **kwargs):
                raise RuntimeError("simulated snapshot failure")

            monkeypatch.setattr(migrate_mod, "_snapshot_into", boom)
            with pytest.raises(RuntimeError, match="simulated"):
                migrate_shard(fleet, 0, source, tmp_path)
            # No manifest flip, no orphaned half-built node.
            assert fleet.manifest.version == version
            assert set(fleet.nodes) == nodes_before
            assert fleet.nodes[source].alive

    def test_failed_migration_leaves_no_replica_frozen(
        self, tmp_path, monkeypatch
    ):
        """An abort after the freeze must thaw everything it froze."""
        from repro.cluster import migrate as migrate_mod

        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            source = fleet.manifest.replicas_for(0)[0]

            def frozen_boom(source_node, target_node, seq):
                raise RuntimeError("simulated delta failure")

            monkeypatch.setattr(migrate_mod, "catch_up", frozen_boom)
            with pytest.raises(RuntimeError, match="simulated"):
                migrate_shard(fleet, 0, source, tmp_path)
            for address in fleet.manifest.replicas_for(0):
                assert not fleet.nodes[address].engine.writes_frozen

    def test_rerouted_write_does_not_double_apply(self, tmp_path):
        """The reviewed flip race, end to end: the same logical write
        reaches the target both inside the migrated state and as a
        direct client delivery (a post-flip re-route of a write the
        source had already accepted); the target must hold one copy."""
        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)
            with client:
                client.assertz(fact("p", "racer"))
            source = fleet.manifest.replicas_for(0)[0]
            record = next(
                r for r in fleet.nodes[source].engine.mutations_since(0)
                if str(r.clause) == "p(racer)."
            )
            assert record.write_id  # fleet writes are stamped
            target = migrate_shard(fleet, 0, source, tmp_path, verify=True)
            host, _, port = target.rpartition(":")
            with RetrievalClient(host, int(port)) as direct:
                direct.mutate(
                    "assertz", fact("p", "racer"), write_id=record.write_id
                )
            survivor = fleet.nodes[target]
            assert prints(survivor)["p/1"].count("p(racer).") == 1

    def test_target_is_complete_the_moment_it_is_readable(self, tmp_path):
        """The flip happens only after the final delta: at every
        manifest version that lists the target, the target already
        holds everything the source acknowledged."""
        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)
            with client:
                client.assertz(fact("p", "acked_before_move"))
            source = fleet.manifest.replicas_for(0)[0]
            holder = fleet.holder
            original_flip = holder.flip
            seen_at_flip = {}

            def checking_flip(manifest):
                new_address = (
                    set(manifest.replicas_for(0))
                    - set(holder.current.replicas_for(0))
                )
                for address in new_address:
                    seen_at_flip[address] = prints(fleet.nodes[address])
                return original_flip(manifest)

            holder.flip = checking_flip
            try:
                target = migrate_shard(fleet, 0, source, tmp_path)
            finally:
                holder.flip = original_flip
            assert target in seen_at_flip
            assert "p(acked_before_move)." in seen_at_flip[target]["p/1"]

    def test_migration_under_concurrent_client_writes(self, tmp_path):
        """Writes racing the snapshot, freeze, and flip: no acknowledged
        write may be lost from a trusted replica, and *no* replica may
        hold a duplicate (the double-apply race would show up here)."""
        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)
            with client:
                source = fleet.manifest.replicas_for(0)[0]
                acked: list[Clause] = []
                stop = threading.Event()

                def writer():
                    i = 0
                    while not stop.is_set() and i < 300:
                        clause = fact("p", f"c{i}")
                        i += 1
                        try:
                            client.assertz(clause)
                        except Exception:
                            continue
                        acked.append(clause)

                thread = threading.Thread(target=writer)
                thread.start()
                try:
                    target = migrate_shard(fleet, 0, source, tmp_path)
                finally:
                    stop.set()
                    thread.join()
                assert acked
                replicas = fleet.manifest.replicas_for(0)
                assert target in replicas
                stale = client.stale_addresses
                books = {
                    address: prints(fleet.nodes[address])["p/1"]
                    for address in replicas
                }
                for clause in acked:
                    text = str(clause)
                    for address in replicas:
                        copies = books[address].count(text)
                        assert copies <= 1, (text, address)
                        if address not in stale:
                            assert copies == 1, (text, address)


class TestFleetClientConsistency:
    def test_writes_ride_out_a_freeze_window(self):
        """A write hitting a frozen replica group backs off and retries
        instead of failing — and frozen refusals, having provably
        applied nothing, do not stale-mark anybody."""
        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            nodes = [
                fleet.nodes[a] for a in fleet.manifest.replicas_for(0)
            ]
            for node in nodes:
                node.engine.freeze_writes()
            waits = []

            def sleep_then_thaw(seconds):
                waits.append(seconds)
                for node in nodes:
                    node.engine.thaw_writes()

            client = FleetClient(
                fleet.manifest, fleet.router, sleep=sleep_then_thaw
            )
            with client:
                client.assertz(fact("p", "thawed"))
                assert waits  # the freeze was actually hit and waited out
                assert not client.stale_addresses
                for node in nodes:
                    assert "p(thawed)." in prints(node)["p/1"]

    def test_reads_from_a_fully_stale_shard_are_flagged_degraded(self):
        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)
            with client:
                goal = Struct("p", (Atom("a"),))
                assert client.retrieve(goal).stats.degraded is False
                for address in fleet.manifest.replicas_for(0):
                    client.mark_stale(address)
                degraded = client.retrieve(goal)
                assert degraded.stats.degraded is True
                # Degraded availability still answers.
                assert [str(c) for c in degraded.candidates] == ["p(a)."]
                client.clear_stale(fleet.manifest.replicas_for(0)[0])
                assert client.retrieve(goal).stats.degraded is False

    def test_extra_clients_are_pruned_and_closed(self):
        closed = []

        with Fleet(PROGRAM, num_shards=1, replicas=2) as fleet:
            client = FleetClient(fleet.manifest, fleet.router)

            class TrackingFailover(client._failover_cls):
                def close(self):
                    closed.append(self)
                    super().close()

            client._failover_cls = TrackingFailover
            with client:
                victim = fleet.manifest.replicas_for(0)[1]
                # Stale-marking evicts the address from the read set, so
                # write fan-out needs a one-address extra client for it.
                client.mark_stale(victim)
                client.assertz(fact("p", "via_extra"))
                assert victim in client._extra_clients
                extra = client._extra_clients[victim]
                # A manifest that no longer lists the address prunes
                # (and closes) its extra client.
                client.adopt_manifest(
                    fleet.manifest.without_replica(0, victim)
                )
                assert victim not in client._extra_clients
                assert extra in closed
            assert client._extra_clients == {}
