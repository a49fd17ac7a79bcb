"""Live shard migration and replica resync over real snapshots.

Moving a shard replica is a five-beat protocol, built entirely from
machinery that already exists elsewhere in the tree:

1. **Snapshot** — the source's clause files are written with
   :func:`~repro.storage.save_kb` while the shard lock pins a cut point
   ``seq`` (the engine's mutation-log sequence at exactly the snapshot's
   content), and loaded into a fresh node with
   :func:`~repro.storage.load_kb` + ``adopt_kb``.  The snapshot carries
   the engine's applied write-id memo in a sidecar, so idempotent
   dedupe survives the restore.
2. **Catch-up** — the writes that landed on the source after ``seq``
   stream over as mutation-log deltas
   (:meth:`~repro.cluster.ShardedRetrievalServer.mutations_since`),
   round after round, until the target has drawn level.  A delta the
   log can no longer serve (:class:`~repro.cluster.MutationLogOverflow`)
   forces a fresh snapshot instead of a silently incomplete replay.
3. **Freeze + final delta** — every live replica of the shard briefly
   refuses mutations (:class:`~repro.cluster.WritesFrozen`; clients
   back off and retry), a quiescence barrier guarantees in-flight
   writes are logged, and one last delta levels the target *while
   nothing can change*.  An overflow here retries from a fresh snapshot
   of the now-quiescent source — it cannot out-write the log again.
4. **Flip** — the manifest version advances atomically
   (:meth:`~repro.cluster.ManifestHolder.flip` of a ``moved_replica``
   manifest).  From this instant every versioned write stamped with the
   old placement is refused with ``STALE_MANIFEST`` — and because the
   final delta already landed, the target becomes readable *complete*:
   no acknowledged write is missing from it, ever.
5. **Thaw + drain** — the siblings accept writes again, the retiring
   source drains gracefully and is removed from the fleet.

No acknowledged write can be lost or doubled: a write is in the
snapshot (seq ≤ cut), in a catch-up delta, in the frozen final delta,
or refused (stale/frozen) and re-routed by the client — and the
client's per-write ``write_id`` makes a delta replay of a write the
client also re-routed to the target a no-op instead of a duplicate.
"""

from __future__ import annotations

import pathlib

from ..obs import get_default as _default_obs
from ..storage import (
    kb_fingerprint,
    load_kb,
    load_write_ids,
    save_kb,
    save_write_ids,
)
from .fleet import ClusterNode, Fleet
from .replog import MutationLogOverflow

__all__ = ["MigrationError", "migrate_shard", "resync_replica",
           "snapshot_node", "catch_up"]

#: How many catch-up rounds to chase a source under write load before
#: concluding it cannot be caught (each round replays everything new
#: since the previous one; under any finite write rate this converges).
_MAX_CATCH_UP_ROUNDS = 16

#: How many times a fallen-off-the-log delta may force a re-snapshot.
_MAX_SNAPSHOT_ATTEMPTS = 3


class MigrationError(RuntimeError):
    """A shard migration or replica resync could not complete."""


def snapshot_node(node: ClusterNode, directory: str | pathlib.Path) -> int:
    """Save a node's KB under its shard lock; returns the cut ``seq``.

    Holding the lock while reading ``engine.version`` *and* writing the
    files is what makes the cut exact: every mutation bumps the version
    inside the same lock, so the snapshot's content corresponds to the
    returned sequence number precisely — the delta from ``seq`` neither
    misses a write the snapshot lacks nor doubles one it already holds.
    The applied write-id memo is captured under the same lock and saved
    alongside (:func:`~repro.storage.save_write_ids`): a restored
    replica needs it to dedupe a client re-route of a write that is
    already *inside* the snapshot content.
    """
    engine = node.engine
    shard = engine.shards[0]
    with shard.lock:
        seq = engine.version
        save_kb(shard.kb, directory)
        save_write_ids(directory, engine.applied_write_ids())
    return seq


def catch_up(source: ClusterNode, target: ClusterNode, seq: int) -> int:
    """Replay source mutations after ``seq`` onto the target.

    Runs in rounds (new writes may land while a round replays) until a
    round comes back empty; returns the sequence the target has now
    caught up to.  Raises :class:`~repro.cluster.MutationLogOverflow`
    (via ``mutations_since``) when the source's log no longer holds the
    delta, and :class:`MigrationError` when the source out-writes the chase.
    """
    for _ in range(_MAX_CATCH_UP_ROUNDS):
        records = source.engine.mutations_since(seq)
        if not records:
            return seq
        target.engine.apply_mutations(records)
        seq = records[-1].seq
    raise MigrationError(
        f"source still producing writes after {_MAX_CATCH_UP_ROUNDS} "
        "catch-up rounds"
    )


def _snapshot_into(
    source: ClusterNode,
    target: ClusterNode,
    workdir: str | pathlib.Path,
) -> int:
    """Snapshot + load + initial catch-up, retrying on log overflow."""
    workdir = pathlib.Path(workdir)
    last_exc: Exception | None = None
    for attempt in range(_MAX_SNAPSHOT_ATTEMPTS):
        snapdir = workdir / f"snapshot-{attempt}"
        seq = snapshot_node(source, snapdir)
        target.engine.adopt_kb(load_kb(snapdir), load_write_ids(snapdir))
        try:
            return catch_up(source, target, seq)
        except MutationLogOverflow as exc:
            # The source can no longer serve our delta (out-written,
            # compacted or itself adopted); the snapshot is stale.
            last_exc = exc
    raise MigrationError(
        f"catch-up delta kept falling off the mutation log after "
        f"{_MAX_SNAPSHOT_ATTEMPTS} snapshots"
    ) from last_exc


def migrate_shard(
    fleet: Fleet,
    shard_id: int,
    source_address: str,
    workdir: str | pathlib.Path,
    *,
    verify: bool = False,
) -> str:
    """Move one replica of ``shard_id`` off ``source_address`` live.

    Returns the new replica's address.  The final delta lands *before*
    the manifest flip, under a brief shard-wide write freeze
    (:class:`~repro.cluster.WritesFrozen` refusals; clients back off and
    re-route), so the instant the target becomes readable it already
    holds every acknowledged write.  The flip itself is atomic and
    versioned: clients writing under the old placement are refused with
    ``STALE_MANIFEST`` and re-route; reads simply fail over.  With
    ``verify=True`` the retired source and the new target are compared
    clause-for-clause (:func:`~repro.storage.kb_fingerprint`) — only
    sound when no writes raced the flip, so it is opt-in for tests.
    """
    obs = fleet.obs
    source = fleet.node_at(source_address)
    if source.shard_id != shard_id:
        raise MigrationError(
            f"{source_address} serves shard {source.shard_id}, "
            f"not {shard_id}"
        )
    if not source.alive:
        raise MigrationError(f"{source_address} is not serving")
    if source_address not in fleet.manifest.replicas_for(shard_id):
        raise MigrationError(
            f"{source_address} is not in the manifest for shard {shard_id}"
        )
    with obs.span("cluster.migrate", shard=shard_id, source=source_address):
        target = fleet.new_node(shard_id)
        frozen: list[ClusterNode] = []
        flipped = False
        try:
            try:
                # Bulk copy while traffic flows freely.
                seq = _snapshot_into(source, target, workdir)
                # Freeze the whole replica group — not just the source:
                # a write acked by a sibling alone would otherwise be
                # missing from both the source's log and the target.
                # Each freeze ends with a quiescence barrier, so every
                # admitted write is logged before the final delta reads.
                for address in fleet.manifest.replicas_for(shard_id):
                    node = fleet.nodes.get(address)
                    if node is not None and node.alive:
                        node.engine.freeze_writes()
                        frozen.append(node)
                try:
                    catch_up(source, target, seq)
                except MutationLogOverflow:
                    # The source out-wrote the log between the last live
                    # round and the freeze.  It is quiescent now, so one
                    # fresh snapshot is guaranteed to level the target.
                    _snapshot_into(
                        source, target, pathlib.Path(workdir) / "frozen"
                    )
                # Atomic placement flip: one version step swaps source
                # for target.  The target is already complete, so it is
                # readable-consistent from its very first instant; the
                # source can no longer accept versioned writes at all.
                fleet.holder.flip(
                    fleet.manifest.moved_replica(
                        shard_id, source_address, target.address
                    )
                )
                flipped = True
            except BaseException:
                # Nothing was flipped: the old placement is still whole.
                # Roll the half-built target back out of the fleet.
                if not flipped:
                    target.crash()
                    fleet.nodes.pop(target.address, None)
                raise
        finally:
            # Thaw the survivors whichever way it went.  The retiring
            # source stays frozen through its drain on success — an
            # unversioned straggler write landing there would be lost.
            for node in frozen:
                if node is not source or not flipped:
                    node.engine.thaw_writes()
        source.drain()  # graceful: in-flight reads finish, then close
        source.engine.thaw_writes()
        if verify:
            source_print = kb_fingerprint(source.engine.shards[0].kb)
            target_print = kb_fingerprint(target.engine.shards[0].kb)
            if source_print != target_print:
                raise MigrationError(
                    "migrated replica diverges from its source: "
                    f"{sorted(set(source_print) ^ set(target_print)) or 'clause bodies differ'}"
                )
        fleet.nodes.pop(source_address, None)
        obs.counter("cluster.migrations").inc()
    return target.address


def resync_replica(
    peer: ClusterNode,
    stale: ClusterNode,
    workdir: str | pathlib.Path,
) -> None:
    """Rebuild a stale replica's state from a healthy peer of its shard.

    Used on restart-after-crash.  A durable node comes back holding its
    own recovered prefix of the shard's history, so resync first tries
    the cheap path: replay just the peer's delta past the stale node's
    version (``mutations_since``).  The replay is only trusted if the
    content fingerprints come out equal — replicas apply the same writes
    but their version counters are node-local, so a divergent history
    (e.g. an adoption) shows up as a mismatch and falls back to the
    authoritative snapshot copy.  The stale node must not be serving
    while this runs (its reads would be wrong mid-copy); the caller
    readmits it afterwards.
    """
    if stale.alive:
        raise MigrationError("resync target must be stopped while copying")
    if peer.shard_id != stale.shard_id:
        raise MigrationError(
            f"peer serves shard {peer.shard_id}, target expects "
            f"{stale.shard_id}"
        )
    if _catch_up_in_place(peer, stale):
        _default_obs().counter("cluster.resyncs.incremental").inc()
    else:
        _snapshot_into(peer, stale, workdir)
    _default_obs().counter("cluster.resyncs").inc()


def _catch_up_in_place(peer: ClusterNode, stale: ClusterNode) -> bool:
    """Try an incremental resync over the stale node's recovered state.

    Returns ``True`` only when the peer's delta replayed cleanly AND the
    resulting content matches the peer fingerprint-for-fingerprint.  Any
    failure — delta evicted below the peer's last compaction, divergent
    histories making a replayed retract miss, a racing write landing
    between the last round and the comparison — returns ``False`` and
    the caller takes a fresh snapshot, which wholesale replaces whatever
    this attempt left behind.
    """
    seq = stale.engine.version
    if seq == 0 and not stale.engine.clause_count():
        return False  # nothing to build on (a seeded node is at seq 0 too)
    try:
        catch_up(peer, stale, seq)
    except Exception:
        return False
    ours = [kb_fingerprint(shard.kb) for shard in stale.engine.shards]
    theirs = [kb_fingerprint(shard.kb) for shard in peer.engine.shards]
    return ours == theirs
