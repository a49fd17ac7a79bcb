"""Crash-injection suite: SIGKILL the engine, recover, audit the promise.

Each case spawns ``wal_crash_runner.py`` in a subprocess with one crash
point armed (see :mod:`repro.storage.wal`): the process literally
SIGKILLs itself at a chosen durability boundary — mid-group-commit,
between WAL rotation and the snapshot ``CURRENT`` flip, and so on.  The
runner appends each mutation's ``write_id`` to an acks file (O_APPEND +
fsync) only *after* the engine acknowledged it, so the file is exactly
the set of promises made to the client.

The parent then recovers the store and checks the durability contract:

* every acked write survived (recovered state ⊇ acked prefix),
* the recovered state is a *contiguous prefix* of the mutation plan —
  at most the one in-flight unacked mutation past the acked prefix may
  appear, nothing is skipped or reordered,
* re-delivering the surviving mutations with their original write_ids
  changes nothing (idempotency memo recovered intact),
* the store stays usable: new writes append, compaction completes.

The bulk-load cases run the same harness over one ``consult_clauses``
call spanning several group-commit chunks: a crash between chunks must
recover a contiguous prefix of the load, at least every chunk that was
fsynced and at most what had been staged.
"""

from __future__ import annotations

import pathlib
import signal
import subprocess
import sys

import pytest

from repro.cluster import ShardedRetrievalServer
from repro.storage import DurabilityOptions, kb_fingerprint
from repro.storage.wal import BULK_COMMIT_RECORDS
from repro.terms import read_term

from .wal_crash_runner import bulk_plan, mutation_plan, retract_plan

RUNNER = pathlib.Path(__file__).with_name("wal_crash_runner.py")
COUNT = 12


def _run_to_crash(
    tmp_path, point: str, hits: int, count: int = COUNT, *mode: str
) -> list[str]:
    """Spawn the runner, wait for its SIGKILL, return the acked ids."""
    store = tmp_path / "store"
    acks = tmp_path / "acks.txt"
    proc = subprocess.run(
        [sys.executable, str(RUNNER), str(store), str(acks), point,
         str(hits), str(count), *mode],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"runner survived point {point!r} (rc={proc.returncode}):\n"
        f"{proc.stdout}{proc.stderr}"
    )
    if not acks.exists():
        return []
    return acks.read_text(encoding="ascii").split()


def _oracle(prefix: int) -> ShardedRetrievalServer:
    """An in-memory engine after the plan's first ``prefix`` mutations."""
    engine = ShardedRetrievalServer(2, "predicate")
    for op, text, write_id in mutation_plan(COUNT)[:prefix]:
        term = read_term(text)
        if op == "assertz":
            engine.assertz(term, write_id=write_id)
        elif op == "asserta":
            engine.asserta(term, write_id=write_id)
        else:
            assert engine.retract_matching(term, write_id=write_id)
    return engine


def _fingerprint(engine) -> list[dict]:
    return [kb_fingerprint(shard.kb) for shard in engine.shards]


def _recover(tmp_path) -> ShardedRetrievalServer:
    return ShardedRetrievalServer(
        2,
        "predicate",
        durability=DurabilityOptions(
            directory=tmp_path / "store", auto_compact=False
        ),
    )


@pytest.mark.parametrize(
    ("point", "hits"),
    [
        ("wal.staged", 3),
        ("wal.staged", 9),
        ("wal.pre_fsync", 5),
        ("wal.post_fsync", 7),
    ],
)
def test_crash_mid_write_loses_no_acked_mutation(tmp_path, point, hits):
    acked = _run_to_crash(tmp_path, point, hits)
    plan_ids = [write_id for _, _, write_id in mutation_plan(COUNT)]
    # Acks are written in order by a single-threaded runner: a prefix.
    assert acked == plan_ids[: len(acked)]

    engine = _recover(tmp_path)
    try:
        applied = engine.applied_write_ids()
        # Contract 1: every promise kept.
        assert set(acked) <= set(applied)
        # Contract 2: the survivors are a contiguous prefix — the crash
        # can strand at most the single in-flight (unacked) mutation.
        assert applied == plan_ids[: len(applied)]
        assert len(acked) <= len(applied) <= len(acked) + 1
        assert engine.version == len(applied)
        assert _fingerprint(engine) == _fingerprint(_oracle(len(applied)))

        # Contract 3: re-delivery of every survivor is a no-op.
        before = _fingerprint(engine)
        version = engine.version
        for op, text, write_id in mutation_plan(COUNT)[: len(applied)]:
            term = read_term(text)
            if op == "assertz":
                engine.assertz(term, write_id=write_id)
            elif op == "asserta":
                engine.asserta(term, write_id=write_id)
            else:
                engine.retract_matching(term, write_id=write_id)
        assert engine.version == version
        assert _fingerprint(engine) == before

        # Contract 4: the store is fully usable — append and compact.
        engine.assertz(read_term("post_crash(ok)"))
        assert engine.compact() == version + 1
    finally:
        engine.close()

    # And a second recovery sees the post-crash write too.
    reopened = _recover(tmp_path)
    try:
        assert reopened.version == version + 1
    finally:
        reopened.close()


@pytest.mark.parametrize(
    "point", ["compact.rotated", "compact.synced", "compact.flipped"]
)
def test_crash_mid_compaction_loses_nothing(tmp_path, point):
    acked = _run_to_crash(tmp_path, point, 1)
    plan_ids = [write_id for _, _, write_id in mutation_plan(COUNT)]
    # Compaction points fire after every mutation acked.
    assert acked == plan_ids

    engine = _recover(tmp_path)
    try:
        assert engine.applied_write_ids() == plan_ids
        assert engine.version == COUNT
        assert _fingerprint(engine) == _fingerprint(_oracle(COUNT))
        # A fresh compaction completes over the half-finished leftovers.
        assert engine.compact() == COUNT
        assert engine.durable_store.snapshot_seq == COUNT
    finally:
        engine.close()

    recovered = _recover(tmp_path)
    try:
        assert recovered.version == COUNT
        assert _fingerprint(recovered) == _fingerprint(_oracle(COUNT))
    finally:
        recovered.close()


SPLICE_COUNT = 24


def _apply(engine, plan) -> None:
    for op, text, write_id in plan:
        term = read_term(text)
        if op == "assertz":
            engine.assertz(term, write_id=write_id)
        elif op == "asserta":
            engine.asserta(term, write_id=write_id)
        else:
            engine.retract_matching(term, write_id=write_id)


def _images(engine) -> list[dict]:
    """Every shard's stores as bytes: what a splice must get exactly right."""
    return [
        {
            store.indicator: (
                store.clause_file.to_bytes(),
                store.clause_file.record_addresses(),
                store.fact_count,
                store.index.to_bytes(),
                store.index.bitsliced.packed_columns(),
            )
            for store in shard.kb
        }
        for shard in engine.shards
    ]


@pytest.mark.parametrize(
    ("point", "hits"),
    [
        ("wal.staged", 10),      # the first retract, before the snapshot
        ("wal.pre_fsync", 12),   # mid-retract of a rule, before the snapshot
        ("wal.staged", 16),      # retracts replayed over adopted images
        ("wal.post_fsync", 20),
        ("wal.staged", 24),      # the last retract of the plan
    ],
)
def test_crash_mid_retract_plan_recovers_the_spliced_images(
    tmp_path, point, hits
):
    """Retracts splice the clause image, the index rows and the columns
    in place; recovery adopts the snapshot's images and replays the WAL
    tail's splices over them.  Whatever prefix of the plan survived, the
    recovered stores are byte-identical to an engine that simply ran
    that prefix."""
    acked = _run_to_crash(tmp_path, point, hits, SPLICE_COUNT, "retract")
    plan = retract_plan(SPLICE_COUNT)
    plan_ids = [write_id for _, _, write_id in plan]
    assert acked == plan_ids[: len(acked)]

    engine = _recover(tmp_path)
    try:
        applied = engine.applied_write_ids()
        assert applied == plan_ids[: len(applied)]
        assert len(acked) <= len(applied) <= len(acked) + 1
        assert engine.version == len(applied)
        oracle = ShardedRetrievalServer(2, "predicate")
        _apply(oracle, plan[: len(applied)])
        assert _images(engine) == _images(oracle)

        # Re-delivery is a no-op, and the rest of the plan still applies
        # on top of the recovered (adopted, then spliced) images.
        _apply(engine, plan[: len(applied)])
        assert engine.version == len(applied)
        _apply(engine, plan[len(applied):])
        _apply(oracle, plan[len(applied):])
        assert _images(engine) == _images(oracle)
    finally:
        engine.close()


BULK_COUNT = 2 * BULK_COMMIT_RECORDS + 300


def _bulk_oracle(prefix: int) -> ShardedRetrievalServer:
    """An in-memory engine holding the bulk plan's first ``prefix`` facts."""
    engine = ShardedRetrievalServer(2, "predicate")
    engine.consult_text(" ".join(f"{t}." for t in bulk_plan(prefix)))
    return engine


@pytest.mark.parametrize(
    ("point", "hits", "fsynced", "staged"),
    [
        # Chunk 2 written and flushed, killed before its fsync: the OS
        # still holds it, so anything from one to two chunks is legal.
        ("wal.pre_fsync", 2, BULK_COMMIT_RECORDS, 2 * BULK_COMMIT_RECORDS),
        ("wal.post_fsync", 2, 2 * BULK_COMMIT_RECORDS,
         2 * BULK_COMMIT_RECORDS),
        # Killed half-way through staging chunk 2 (frames in memory only).
        ("wal.staged", BULK_COMMIT_RECORDS + 500, BULK_COMMIT_RECORDS,
         BULK_COMMIT_RECORDS + 500),
    ],
)
def test_crash_mid_bulk_load_recovers_a_contiguous_prefix(
    tmp_path, point, hits, fsynced, staged
):
    acked = _run_to_crash(tmp_path, point, hits, BULK_COUNT, "bulk")
    assert acked == []  # the load never returned, nothing was promised

    engine = _recover(tmp_path)
    try:
        survived = engine.version
        assert fsynced <= survived <= staged
        # Contiguous seqs are enforced by recovery itself (a gap raises
        # WalError); the content must be exactly the plan's prefix.
        assert _fingerprint(engine) == _fingerprint(_bulk_oracle(survived))
        assert [r.seq for r in engine.recovered.records] == list(
            range(1, survived + 1)
        )
        # The store stays usable: finish the load, write, compact.
        engine.consult_text(
            " ".join(f"{t}." for t in bulk_plan(BULK_COUNT)[survived:])
        )
        engine.assertz(read_term("post_crash(ok)"))
        assert engine.compact() == BULK_COUNT + 1
    finally:
        engine.close()

    reopened = _recover(tmp_path)
    try:
        assert reopened.version == BULK_COUNT + 1
        whole = _bulk_oracle(BULK_COUNT)
        whole.assertz(read_term("post_crash(ok)"))
        assert _fingerprint(reopened) == _fingerprint(whole)
    finally:
        reopened.close()


def test_double_crash_then_recover(tmp_path):
    """Crash during recovery-append after a first crash: still sound."""
    acked_first = _run_to_crash(tmp_path, "wal.post_fsync", 4)
    # Second run over the same store: recovery replays, then the fresh
    # mutations crash again at a later fsync.
    acks2 = tmp_path / "acks2.txt"
    proc = subprocess.run(
        [sys.executable, str(RUNNER), str(tmp_path / "store"), str(acks2),
         "wal.pre_fsync", "3", str(COUNT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    engine = _recover(tmp_path)
    try:
        applied = engine.applied_write_ids()
        # Everything acked in round one survived two crashes; the ids
        # stay a plan prefix (round two redelivered the same plan and
        # the memo deduped the overlap).
        assert set(acked_first) <= set(applied)
        plan_ids = [write_id for _, _, write_id in mutation_plan(COUNT)]
        assert applied == plan_ids[: len(applied)]
        assert _fingerprint(engine) == _fingerprint(_oracle(len(applied)))
    finally:
        engine.close()
